"""The permutation-based reference pipeline that ``opttree check`` runs.

The paper characterizes the trees consistent with an ancestry matrix by
their level-order traversals: each tree is one valid ordering of its rules.
This module owns that characterization's placement convention, heap
positions: the root is position 0 and the children of position p are
2p + 1 (left) and 2p + 2 (right), so ascending positions are level order.
A rule of an ordering goes down from the root, left past a placed rule
whose matrix entry for it is +1 and right past one whose entry is -1, to a
free position, and the ordering is the canonical traversal of the tree it
reaches exactly when those positions increase, so it is rejected at its
first 0 entry or first non-increasing position.

:func:`_walk` goes over the k-permutations of the whole table's rule ids
once, depth first, against one ancestry matrix of the table. It reads a
placed rule's matrix row once, as two rule bitmasks, the rules with entry +1
and those with entry -1 (:func:`_side_masks`). The rules that reach a free
position are the AND of the side masks along its path from the root, so a
prefix extends only by the unused rules that reach a free position above
its last one (:func:`_completions`), and no invalid step is tried. Every
valid prefix is placed once per call, not once per combination that holds
it; complete orderings come in ``itertools.permutations(range(K), k)``
order. :func:`permutation_costs` scores the orderings as the walk reaches
them, without building a tree. Sample-position bitmasks are routed from the
root against each rule's sign mask, computed once per call, each prefix
routes the rows reaching its last rule's position once, and a complete
ordering re-scores only its last rule's path to the root.
:func:`count_tree_shapes` counts the trees of k rules drawn from an index
set with one recurrence over allowed-rule masks, without building a tree.
The tests check both against exhaustive generators in ``tests/helpers.py``,
and the walk's steps against the step rule by its definition there.
Nothing here imports the solver.
"""

from __future__ import annotations

from functools import cache
from typing import Any, Callable, Iterable, Sequence

from .data import Dataset
from .rules import AncestryMatrix, Rule, ancestry_matrix, classify


def _side_masks(row: Sequence[int], ids: Iterable[int]) -> tuple[int, int]:
    """The rules of ``ids`` whose entry in an ancestry row is +1 and those
    whose entry is -1, as two bitmasks with rule r at bit r.

    The row's own rule is in neither when its diagonal entry is 0, as in
    every :func:`ancestry_matrix`.
    """
    left = right = 0
    for r in ids:
        side = row[r]
        if side > 0:
            left |= 1 << r
        elif side < 0:
            right |= 1 << r
    return left, right


def count_tree_shapes(indices: Iterable[int], k: int, matrix: AncestryMatrix | None) -> int:
    """The number of trees of ``k`` distinct rules drawn from ``indices``, no tree built.

    That is the sum, over the k-combinations of ``indices``, of the trees
    consistent with the combination's slice of the ancestry matrix. Rule r
    is bit r of an allowed-rule mask A, and N(A, j), the trees of j rules
    from A, follows the recurrence N(A, 0) = 1, N(A, 1) = |A| and, from
    j = 2, N(A, j) = the sum over roots i in A and splits a + b = j - 1 of
    N(A & L_i, a) * N(A & R_i, b), where L_i and R_i mask the other rules
    whose entry in row i is +1 and -1: a root relates to every rule below
    it, each on the side its entry names. At j = 2 that is |A & L_i| + |A & R_i| per root. Each
    (A, j) with j at least 2 is expanded once per call, a rule's masks are
    built from its row the first time it roots, and k at most 1 reads no
    entry, so ``matrix`` may then be None.
    """
    ids = sorted(set(indices))
    sides: dict[int, tuple[int, int]] = {}

    @cache
    def count(allowed: int, j: int) -> int:
        # j >= 2; N(A, 0) and N(A, 1) are read inline
        total = 0
        todo = allowed
        while todo:
            bit = todo & -todo
            todo ^= bit
            i = bit.bit_length() - 1
            if i not in sides:
                # a hand-made matrix may relate a rule to itself
                left, right = _side_masks(matrix[i], ids)
                sides[i] = (left & ~bit, right & ~bit)
            left, right = sides[i]
            left &= allowed
            right &= allowed
            if j == 2:
                total += left.bit_count() + right.bit_count()
                continue
            for a in range(j):
                b = j - 1 - a
                n_left = count(left, a) if a > 1 else left.bit_count() if a else 1
                if n_left:
                    total += n_left * (count(right, b) if b > 1 else right.bit_count() if b else 1)
        return total

    every = sum(1 << r for r in ids)
    if k < 2:
        return every.bit_count() if k else 1
    try:
        return count(every, k)
    finally:
        # count reaches itself through its closure; emptying the cell frees
        # the memo on return instead of at the next cyclic collection
        del count


def _positive_mask(rule: Rule, samples: Dataset) -> int:
    """The bitmask of the sample positions a rule classifies positive, one
    :func:`classify` call per sample."""
    return sum(1 << r for r, s in enumerate(samples) if classify(rule, s.point) > 0)


def _members(samples: Dataset, rows: int) -> Dataset:
    """The samples at the positions set in ``rows``, in data order."""
    return tuple(s for r, s in enumerate(samples) if rows >> r & 1)


class _LeafCosts(dict):
    """Leaf costs keyed by sample-position bitmask, each costed on its first lookup."""

    def __init__(self, leaf_cost: Callable[[Dataset], Any], samples: Dataset) -> None:
        super().__init__()
        self.leaf_cost = leaf_cost
        self.samples = samples

    def __missing__(self, rows: int) -> Any:
        value = self[rows] = self.leaf_cost(_members(self.samples, rows))
        return value


def _walk_matrix(rules: Sequence[Rule], k: int, matrix: AncestryMatrix | None) -> AncestryMatrix | None:
    """The matrix the walk reads, checked at the call.

    A k above the table size raises ValueError. The matrix is built from the
    defining points when not given and k is at least 2; a tree of fewer rules
    reads no entry.
    """
    if k > len(rules):
        raise ValueError(f"cannot choose {k} of {len(rules)} rules")
    if matrix is None and k >= 2:
        matrix = ancestry_matrix(rules)
    return matrix


# A placement: rule ids keyed by heap position.
Placement = dict[int, int]


def _completions(placed: Placement, last: int, reach: dict[int, int], unused: int) -> list[tuple[int, int]]:
    """The valid next steps of a non-empty prefix ``placed`` whose last rule
    sits at ``last``: (heap position q, mask of the rules that step to q)
    pairs, for the positions some rule steps to.

    ``reach[q]`` masks the rules that go down to a free position q, and
    ``unused`` the rules the prefix leaves free. A step must land above
    ``last``, the largest placed position, so only the children of placed
    rules above it are read. A rule goes down to one position at most, so
    the masks are disjoint.
    """
    steps = []
    for p in placed:
        for q in (2 * p + 1, 2 * p + 2):
            if q > last:
                todo = reach[q] & unused
                if todo:
                    steps.append((q, todo))
    return steps


def _walk(
    firsts: int,
    n: int,
    k: int,
    matrix: AncestryMatrix | None,
    visit: Callable[[list[int], Placement, int], None],
    complete: Callable[[list[int], Placement, int, list[tuple[int, int]]], None],
) -> None:
    """Walk the valid prefixes of the k-permutations of ``range(n)`` whose
    first rule is in the rule mask ``firsts``.

    Depth first, each prefix extends by its valid steps (:func:`_completions`;
    the root's are the rules of ``firsts``) in ascending rule id, so no
    invalid step is tried, complete orderings come in
    :func:`itertools.permutations` order and a prefix is placed once per
    call. ``visit(order, placed, p)`` gets each prefix of 1 to k-1 rules, its
    placement and its last rule's heap position p, the largest placed;
    ``complete(order, placed, p, steps)`` then gets each (k-1)-prefix's last
    steps, (position, rule mask) pairs. The walk reuses ``order`` and
    ``placed``, so a callback copies what it keeps. A rule's (left, right)
    side masks are read off its matrix row the first time it is placed, so
    a row is read once at most and k at most 1 reads none; the rules
    reaching a child of a placed rule are those reaching the rule ANDed
    with the side mask. A k of 0 completes nothing.
    """
    every = (1 << n) - 1
    sides: dict[int, tuple[int, int]] = {}
    # the rules reaching each heap position of the current placement
    reach = {0: every}
    placed: Placement = {}
    order: list[int] = []

    def extend(last: int, steps: list[tuple[int, int]], unused: int) -> None:
        if len(order) == k - 1:
            complete(order, placed, last, steps)
            return
        ranked = []
        for q, todo in steps:
            while todo:
                bit = todo & -todo
                todo ^= bit
                ranked.append((bit.bit_length() - 1, q))
        ranked.sort()
        for rid, p in ranked:
            if rid not in sides:
                sides[rid] = _side_masks(matrix[rid], range(n))
            left, right = sides[rid]
            here = reach[p]
            reach[2 * p + 1], reach[2 * p + 2] = here & left, here & right
            placed[p] = rid
            order.append(rid)
            visit(order, placed, p)
            rest = unused ^ (1 << rid)
            extend(p, _completions(placed, p, reach, rest), rest)
            order.pop()
            del placed[p]

    try:
        if k:
            extend(-1, [(0, firsts)] if firsts else [], every)
    finally:
        # as in count_tree_shapes: free the walk's state on return
        del extend


def permutation_costs(
    rules: Sequence[Rule], k: int, data: Dataset, objective: Any, matrix: AncestryMatrix | None = None
) -> list:
    """The objective's cost of the tree of every valid k-permutation of the rule table.

    Costs come in ``itertools.permutations(range(len(rules)), k)`` order,
    valid orderings only. ``matrix`` is the ancestry matrix of the whole
    table, built from the defining points when not given and k is at least
    2 (a tree of fewer rules reads no entry); a matrix entry depends only on
    its two rules, so this is the tree each combination's own matrix gives.
    Each cost is the fold of ``objective.combine`` over the tree's leaves,
    each leaf holding the samples its path sends it, with no tree built and
    no placement copied.

    :func:`_walk` goes over the valid prefixes and hands each (k-1)-prefix
    its completions, read off the placed rules' side masks, so the last rule
    is never placed. Sample positions are routed from the root as bitmasks,
    once per valid prefix: its last rule's positive mask (computed for every
    rule up front) splits the rows reaching its position between its two
    children. A completion's rule sits at a leaf position q of its prefix's
    tree, so only q's ancestors change cost: its stump is costed and folded
    up the path, the off-path siblings' subtree costs gathered once per
    prefix and position. A prefix's completions are scored position by
    position, into one slot per rule, and read back in ascending rule order.
    ``objective.leaf_cost`` runs once per distinct set of samples reaching a
    leaf. A k above the table size raises ValueError at the call.
    """
    matrix = _walk_matrix(rules, k, matrix)
    samples = tuple(data)
    n = len(rules)
    positive = [_positive_mask(rule, samples) for rule in rules] if k else []
    combine = objective.combine
    leaf = _LeafCosts(objective.leaf_cost, samples)
    # the rows reaching each heap position of the current placement's tree
    rows = {0: (1 << len(samples)) - 1}
    costs: list = []
    # a prefix's completion costs by rule id, read back in ascending order
    scored: list = [None] * n

    def cost(placed: Placement, p: int) -> Any:
        rid = placed.get(p)
        if rid is None:
            return leaf[rows[p]]
        return combine(cost(placed, 2 * p + 1), cost(placed, 2 * p + 2), rid)

    def visit(order: list[int], placed: Placement, p: int) -> None:
        rid = placed[p]
        here = rows[p]
        pos = here & positive[rid]
        rows[2 * p + 1], rows[2 * p + 2] = pos, here ^ pos

    def complete(order: list[int], placed: Placement, last: int, steps: list[tuple[int, int]]) -> None:
        # the prefix's subtree costs by heap position, gathered once
        subtree: dict[int, Any] = {}
        completing = []
        for q, todo in steps:
            # the path up from q: (sibling cost, parent rule, whether q is left)
            path = []
            p = q
            while p:
                # a left child p is odd, its sibling p + 1
                left = p % 2
                sibling = p + 1 if left else p - 1
                if sibling not in subtree:
                    subtree[sibling] = cost(placed, sibling) if sibling in placed else leaf[rows[sibling]]
                p = (p - 1) // 2
                path.append((subtree[sibling], placed[p], left))
            here = rows[q]
            while todo:
                bit = todo & -todo
                todo ^= bit
                rid = bit.bit_length() - 1
                pos = here & positive[rid]
                value = combine(leaf[pos], leaf[here ^ pos], rid)
                for other, parent, left in path:
                    value = combine(value, other, parent) if left else combine(other, value, parent)
                scored[rid] = value
                completing.append(rid)
        if len(steps) > 1:
            completing.sort()
        costs.extend(map(scored.__getitem__, completing))

    try:
        _walk((1 << n) - 1, n, k, matrix, visit, complete)
    finally:
        # as in count_tree_shapes: free the leaf costs and masks on return
        del cost
    # the empty ordering's tree is one leaf
    return costs if k else [leaf[rows[0]]]
