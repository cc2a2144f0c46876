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
them, without building a tree: it walks the (k-1)-prefixes, and scores each
prefix's completions in one loop over its free rules without placing them.
Sample-position bitmasks are routed from the root against sign masks
computed lazily, one rule at a time, each prefix routes the rows reaching
its last rule's position once, and a complete ordering re-scores only its
last rule's path to the root.
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
                row = matrix[i]
                left = right = 0
                for r in ids:
                    if row[r] > 0:
                        left |= 1 << r
                    elif row[r] < 0:
                        right |= 1 << r
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


def _positive_masks(rules: Sequence[Rule], samples: Dataset) -> Callable[[int], int]:
    """Rule id to the bitmask of sample positions it classifies positive.

    Each rule's mask is computed the first time it is asked for, one
    :func:`classify` call per sample, and kept.
    """
    masks: dict[int, int] = {}

    def positive(rid: int) -> int:
        if rid not in masks:
            signs = (classify(rules[rid], s.point) for s in samples)
            masks[rid] = sum(1 << r for r, sign in enumerate(signs) if sign > 0)
        return masks[rid]

    return positive


def _members(samples: Dataset, rows: int) -> Dataset:
    """The samples at the positions set in ``rows``, in data order."""
    return tuple(s for r, s in enumerate(samples) if rows >> r & 1)


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

    :func:`_walk` goes over the valid (k-1)-prefixes, and each prefix's
    completions are scored in one loop over the rules it leaves free,
    ascending, without placing the last rule: a rule completes the prefix
    when its step is valid (:func:`_step`, the walk's own rule). Sample
    positions are routed from the root as bitmasks, once per valid prefix:
    its last rule's positive mask (computed the first time a placement uses
    the rule) splits the rows reaching its position between its two
    children. The last rule sits at a leaf position q of its prefix's tree,
    so only q's ancestors change cost: its stump is costed and folded up the
    path, the off-path siblings' subtree costs gathered once per prefix and
    position. ``objective.leaf_cost`` runs once per distinct set of samples
    reaching a leaf. A k above the table size raises ValueError at the call.
    """
    matrix = _walk_matrix(rules, k, matrix)
    samples = tuple(data)
    n = len(rules)
    positive = _positive_masks(rules, samples)
    leaf_costs: dict[int, Any] = {}
    leaf_cost, combine = objective.leaf_cost, objective.combine
    # the rows reaching each heap position of the current placement's tree
    rows = {0: (1 << len(samples)) - 1}
    costs: list = []

    def leaf(here: int) -> Any:
        if here not in leaf_costs:
            leaf_costs[here] = leaf_cost(_members(samples, here))
        return leaf_costs[here]

    def cost(placed: Placement, p: int) -> Any:
        rid = placed.get(p)
        if rid is None:
            return leaf(rows[p])
        return combine(cost(placed, 2 * p + 1), cost(placed, 2 * p + 2), rid)

    def complete(order: list[int], placed: Placement, last: int) -> None:
        used = set(order)
        # the prefix's subtree costs by heap position, and the path up from
        # each leaf position: (sibling cost, parent rule, whether q is left)
        subtree: dict[int, Any] = {}
        paths: dict[int, list] = {}
        for rid in range(n):
            if rid in used:
                continue
            q = _step(placed, rid, matrix, last)
            if q is None:
                continue
            here = rows[q]
            pos = here & positive(rid)
            neg = here ^ pos
            u = leaf_costs[pos] if pos in leaf_costs else leaf(pos)
            v = leaf_costs[neg] if neg in leaf_costs else leaf(neg)
            value = combine(u, v, rid)
            path = paths.get(q)
            if path is None:
                path = paths[q] = []
                p = q
                while p:
                    # a left child p is odd, its sibling p + 1
                    left = p % 2
                    sibling = p + 1 if left else p - 1
                    if sibling not in subtree:
                        subtree[sibling] = cost(placed, sibling)
                    p = (p - 1) // 2
                    path.append((subtree[sibling], placed[p], left))
            for other, parent, left in path:
                value = combine(value, other, parent) if left else combine(other, value, parent)
            costs.append(value)

    def visit(order: list[int], placed: Placement, p: int) -> None:
        rid = placed[p]
        here = rows[p]
        pos = here & positive(rid)
        rows[2 * p + 1], rows[2 * p + 2] = pos, here ^ pos
        if len(order) == k - 1:
            complete(order, placed, p)

    try:
        if k == 1:
            complete([], {}, -1)
        elif k:
            _walk(range(n), n, k - 1, matrix, visit)
    finally:
        # as in count_tree_shapes: free the leaf costs and masks on return
        del cost
    # the empty ordering's tree is one leaf
    return costs if k else [leaf(rows[0])]
