"""The permutation-based reference pipeline that ``opttree check`` runs.

The paper characterizes the trees consistent with an ancestry matrix by
their level-order traversals: each tree is one valid ordering of its rules.
This module owns that characterization's placement convention, heap
positions: the root is position 0 and the children of position p are
2p + 1 (left) and 2p + 2 (right), so ascending positions are level order.
A rule of an ordering descends from the root (:func:`descend`) to a free
position, and the ordering is the canonical traversal of the tree it
reaches exactly when those positions increase, so it is rejected at its
first 0 entry or first non-increasing position.

:func:`_walk` goes over the k-permutations of the whole table's rule ids
once, depth first, against one ancestry matrix of the table, dropping a
prefix, with all its extensions, at its first invalid step. Every valid
prefix is visited, and placed once per call, not once per combination that
holds it; complete orderings come in ``itertools.permutations(range(K), k)``
order. :func:`permutation_costs` scores the orderings as the walk reaches
them, without building a tree: it walks the (k-1)-prefixes, and reads each
prefix's completions off the placed rules' ancestry side masks
(:func:`_walk_completions`), the rules of each matrix row with entry +1 and
with entry -1 as two bitmasks. The rules that reach a free position are the
AND of the side masks along its path from the root, so no rule that fails
the step (:func:`_step`) is tried; the walk's own steps remain the
specification that the mask read is tested against. Sample-position
bitmasks are routed from the root against each rule's sign mask, computed
once per call, each prefix routes the rows reaching its last rule's
position once, and a complete ordering re-scores only its last rule's path
to the root.
:func:`count_tree_shapes` counts the trees of k rules drawn from an index
set with one recurrence over allowed-rule masks, without building a tree.
The tests check both against exhaustive generators in ``tests/helpers.py``.
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


def descend(placed: Placement, rid: int, matrix: AncestryMatrix) -> int | None:
    """The free heap position that rule ``rid`` reaches from the root.

    It goes left past a placed rule whose matrix entry for it is +1 and right
    past one whose entry is -1; None when it meets a 0 entry.
    """
    p = 0
    while p in placed:
        side = matrix[placed[p]][rid]
        if side == 0:
            return None
        p = 2 * p + 1 if side > 0 else 2 * p + 2
    return p


def _step(placed: Placement, rid: int, matrix: AncestryMatrix, last: int) -> int | None:
    """The heap position rule ``rid`` takes next in an ordering whose last
    rule sits at ``last``, or None when that step is invalid.

    The rule descends to a free position (:func:`descend`), and the step is
    valid when that position is above ``last``.
    """
    p = descend(placed, rid, matrix)
    return None if p is None or p <= last else p


def _walk(
    firsts: Iterable[int],
    n: int,
    k: int,
    matrix: AncestryMatrix | None,
    visit: Callable[[list[int], Placement, int], None],
) -> None:
    """Visit every valid prefix, of 1 to k rules, of the k-permutations of
    ``range(n)`` that start in ``firsts``.

    The walk is depth first: the first rule is taken from ``firsts`` in its
    order and each next rule is an unused id in ascending order, so complete
    orderings come in :func:`itertools.permutations` order, each after its
    prefixes. Each rule is placed at the heap position it descends to
    (:func:`descend`), and an ordering is valid when each position is above
    the previous one (:func:`_step`). Every prefix of a valid ordering is
    valid, so a prefix is placed once per call, whichever combinations share
    it, and it is dropped with all its extensions at its first 0 entry or
    non-increasing position. ``visit(order, placed, p)`` gets each valid
    prefix, its placement and the heap position p of its last rule, the
    largest in the placement; ``order`` and ``placed`` are reused by the
    walk, so it copies what it keeps. A k of 0 visits nothing.
    """
    placed: Placement = {}
    order: list[int] = []
    free = [True] * n
    every = range(n)

    def extend(rids: Iterable[int], last: int) -> None:
        for rid in rids:
            if not free[rid]:
                continue
            p = _step(placed, rid, matrix, last)
            if p is None:
                continue
            placed[p] = rid
            order.append(rid)
            free[rid] = False
            visit(order, placed, p)
            if len(order) < k:
                extend(every, p)
            free[rid] = True
            order.pop()
            del placed[p]

    try:
        if k:
            extend(firsts, -1)
    finally:
        # as in count_tree_shapes: free the walk's state on return
        del extend


def _completions(placed: Placement, last: int, reach: dict[int, int], unused: int) -> list[tuple[int, int]]:
    """The valid last steps of an ordering whose prefix is ``placed``, its
    last rule at ``last``: (heap position q, mask of the rules that step to
    q) pairs, for the positions some rule steps to.

    ``reach[q]`` masks the rules that descend to a free position q, the AND
    of the side masks along q's path from the root, and ``unused`` masks the
    rules the prefix leaves free. A step must land above ``last``, so only
    the free positions above it are read: the children of placed rules that
    lie above it, or the root of an empty prefix. A rule descends to one
    position at most, so the masks are disjoint, and their bits are the free
    rules whose step (:func:`_step`) is valid.
    """
    if not placed:
        return [(0, reach[0] & unused)] if reach[0] & unused else []
    steps = []
    for p in placed:
        for q in (2 * p + 1, 2 * p + 2):
            if q > last:
                todo = reach[q] & unused
                if todo:
                    steps.append((q, todo))
    return steps


def _walk_completions(
    n: int,
    k: int,
    matrix: AncestryMatrix | None,
    visit: Callable[[list[int], Placement, int], None],
    complete: Callable[[list[int], Placement, int, list[tuple[int, int]]], None],
) -> None:
    """Walk the valid prefixes of 1 to k-1 rules of the k-permutations of
    ``range(n)`` (:func:`_walk`), and read each (k-1)-prefix's completions
    off side masks instead of stepping every free rule.

    ``visit(order, placed, p)`` gets each prefix as :func:`_walk` gives it;
    then, for a (k-1)-prefix, ``complete(order, placed, p, steps)`` gets its
    valid last steps, grouped by position (:func:`_completions`). Taking
    their rules in ascending order puts complete orderings in
    :func:`itertools.permutations` order. A rule's (left, right) side masks
    are read off its matrix row the first time it is placed and kept for the
    call, one pair per rule; the rules reaching each child of a placed rule
    are those reaching the rule, ANDed with the side mask. At k = 1 every rule completes the empty prefix at
    the root and no entry is read; a k of 0 completes nothing.
    """
    every = (1 << n) - 1
    sides: dict[int, tuple[int, int]] = {}
    # the rules reaching each heap position of the current placement
    reach = {0: every}

    def place(order: list[int], placed: Placement, p: int) -> None:
        rid = placed[p]
        if rid not in sides:
            sides[rid] = _side_masks(matrix[rid], range(n))
        left, right = sides[rid]
        here = reach[p]
        reach[2 * p + 1], reach[2 * p + 2] = here & left, here & right
        visit(order, placed, p)
        if len(order) == k - 1:
            unused = every
            for r in order:
                unused ^= 1 << r
            complete(order, placed, p, _completions(placed, p, reach, unused))

    if k == 1:
        complete([], {}, -1, _completions({}, -1, reach, every))
    elif k:
        _walk(range(n), n, k - 1, matrix, place)


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

    :func:`_walk_completions` goes over the valid (k-1)-prefixes and reads
    each one's completions off the placed rules' side masks, so the last
    rule is never placed and a rule that cannot complete the prefix is never
    tried. Sample positions are routed from the root as bitmasks, once per
    valid prefix: its last rule's positive mask (computed for every rule up
    front) splits the rows reaching its position between its two children.
    A completion's rule sits at a leaf position q of its prefix's tree, so
    only q's ancestors change cost: its stump is costed and folded up the
    path, the off-path siblings' subtree costs gathered once per prefix and
    position. A prefix's completions are scored position by position, into
    one slot per rule, and read back in ascending rule order.
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
        _walk_completions(n, k, matrix, visit, complete)
    finally:
        # as in count_tree_shapes: free the leaf costs and masks on return
        del cost
    # the empty ordering's tree is one leaf
    return costs if k else [leaf[rows[0]]]
