"""Exhaustive tree generation and the permutation-based reference pipeline.

These generators are the reference semantics the solver is checked against:
they materialize every admissible tree instead of fusing the minimum into the
recursion. Output order is deterministic (root index ascending, left subtree
choices before right), so generated sequences are reproducible and comparable.

The permutation pipeline walks the orderings of every k-combination depth
first against one ancestry matrix of the whole table, placing each rule at a
heap position as :func:`~opttree.trees.tree_from_permutation` does and
dropping a prefix, with all its extensions, at its first invalid step.
:func:`enumerate_permutation_trees` streams the surviving orderings with
their shapes (trees of rule ids with :data:`~opttree.trees.LEAF` leaves);
:func:`permutation_costs` scores the same placements without building a
tree. It and :func:`complete_shapes` (behind :func:`all_trees`) route
sample-position bitmasks from the root against sign masks computed lazily,
one rule at a time; :func:`all_trees_constrained` splits samples with
:func:`~opttree.rules.split_dataset` as it recurses, so it can prune.
:func:`count_tree_shapes` counts what :func:`all_tree_shapes` would build
without building it. Nothing here imports the solver.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Iterator, Sequence

from .data import Dataset
from .rules import AncestryMatrix, Rule, ancestry_matrix, classify, split_dataset
from .rule_systems import MatrixDim, splits_generic, splits_mcmp
from .trees import LEAF, DecisionTree, DLeaf, DNode, Permutation, Placement, descend, placement_shape


def all_tree_shapes(indices: Iterable[int], matrix: AncestryMatrix) -> list[DecisionTree]:
    """Every tree over ``indices`` consistent with the ancestry matrix.

    An empty index set yields the bare leaf; otherwise each feasible root is
    combined with every admissible left and right subtree. The list is empty
    when no admissible tree exists.
    """
    idx = tuple(sorted(indices))
    if not idx:
        return [LEAF]
    out: list[DecisionTree] = []
    for left, rid, right in splits_generic(idx, matrix):
        for u in all_tree_shapes(left, matrix):
            for v in all_tree_shapes(right, matrix):
                out.append(DNode(u, rid, v))
    return out


def count_tree_shapes(index_sets: Iterable[Iterable[int]], matrix: AncestryMatrix) -> int:
    """``sum(len(all_tree_shapes(s, matrix)) for s in index_sets)``, no tree built.

    A set's count is the sum over its feasible roots of the left count times
    the right count. Counts are cached on the sorted index tuple and shared
    by every set of the call.
    """
    counts: dict[tuple[int, ...], int] = {(): 1}

    def count(idx: tuple[int, ...]) -> int:
        if idx not in counts:
            counts[idx] = sum(count(left) * count(right) for left, _, right in splits_generic(idx, matrix))
        return counts[idx]

    return sum(count(tuple(sorted(s))) for s in index_sets)


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


def complete_shapes(
    shapes: Iterable[DecisionTree], rules: Sequence[Rule], data: Dataset
) -> list[DecisionTree]:
    """Give every shape the data reaching each of its leaves.

    Each leaf holds, in data order, the samples that every rule on its path
    sends its way: positive to the left, negative to the right. Sample
    positions are routed from the root down as bitmasks. A rule's signs over
    the data are computed the first time a shape uses it, so each (rule,
    sample) pair is classified at most once per call, and leaves with the
    same samples share one value. A rule id that is not an index into
    ``rules`` raises ValueError.
    """
    samples = tuple(data)
    positive = _positive_masks(rules, samples)
    leaves: dict[int, DLeaf] = {}

    def complete(shape: DecisionTree, rows: int) -> DecisionTree:
        if isinstance(shape, DLeaf):
            if rows not in leaves:
                leaves[rows] = DLeaf(_members(samples, rows))
            return leaves[rows]
        rid = shape.rule_id
        if not isinstance(rid, int) or not 0 <= rid < len(rules):
            raise ValueError(f"path references unknown rule id {rid!r}")
        pos = positive(rid)
        return DNode(complete(shape.left, rows & pos), rid, complete(shape.right, rows & ~pos))

    every = (1 << len(samples)) - 1
    return [complete(shape, every) for shape in shapes]


def all_trees(
    indices: Iterable[int], matrix: AncestryMatrix, rules: Sequence[Rule], data: Dataset
) -> list[DecisionTree]:
    """Every admissible tree, completed so each leaf holds the data reaching it."""
    return complete_shapes(all_tree_shapes(indices, matrix), rules, data)


def all_trees_constrained(
    indices: Iterable[int],
    matrix: AncestryMatrix,
    rules: Sequence[Rule],
    data: Dataset,
    min_leaf: int = 0,
    max_depth: int | None = None,
) -> list[DecisionTree]:
    """Constrained generation, pruning during recursion.

    Both constraints shrink monotonically along subtrees (leaves only lose
    points, depth only grows), so pruning a failing partial tree discards no
    tree the post-filter would keep; the output equals filtering
    :func:`all_trees` by leaf size and depth.
    """

    def rec(idx: tuple[int, ...], data_here: Dataset, budget: int | None) -> list[DecisionTree]:
        if not idx:
            return [DLeaf(data_here)] if len(data_here) >= min_leaf else []
        if budget is not None and budget <= 0:
            return []
        sub_budget = None if budget is None else budget - 1
        out: list[DecisionTree] = []
        for left, rid, right in splits_generic(idx, matrix):
            pos, neg = split_dataset(rules[rid], data_here)
            for u in rec(left, pos, sub_budget):
                for v in rec(right, neg, sub_budget):
                    out.append(DNode(u, rid, v))
        return out

    return rec(tuple(sorted(indices)), tuple(data), max_depth)


def _valid_orderings(
    combo: Sequence[int], matrix: AncestryMatrix | None
) -> list[tuple[Permutation, Placement]]:
    """Every valid ordering of ``combo`` with its placement, depth first.

    Orderings come in :func:`itertools.permutations` order. Each rule of an
    ordering is placed at the heap position it descends to
    (:func:`~opttree.trees.descend`), and an ordering is valid when each
    position is above the previous one. Every prefix of a valid ordering is
    valid, so orderings sharing a prefix share the work of placing it, and a
    prefix is dropped with all its extensions as soon as it is invalid. Each
    placement returned is its own dict.
    """
    out: list[tuple[Permutation, Placement]] = []
    placed: Placement = {}
    order: list[int] = []

    def extend(rest: tuple[int, ...], last: int) -> None:
        if not rest:
            out.append((tuple(order), dict(placed)))
            return
        for i, rid in enumerate(rest):
            p = descend(placed, rid, matrix)
            if p is None or p <= last:
                continue
            placed[p] = rid
            order.append(rid)
            extend(rest[:i] + rest[i + 1 :], p)
            order.pop()
            del placed[p]

    extend(tuple(combo), -1)
    return out


def _orderings(
    rules: Sequence[Rule], k: int, matrix: AncestryMatrix | None
) -> Iterator[tuple[Permutation, Placement]]:
    """:func:`_valid_orderings` of every k-combination, in lexicographic order.

    A k above the table size raises ValueError here, at the call. The matrix
    is built from the defining points when not given and k is at least 2; a
    tree of fewer rules reads no entry.
    """
    if k > len(rules):
        raise ValueError(f"cannot choose {k} of {len(rules)} rules")
    if matrix is None and k >= 2:
        matrix = ancestry_matrix(rules)
    combos = itertools.combinations(range(len(rules)), k)
    return itertools.chain.from_iterable(_valid_orderings(combo, matrix) for combo in combos)


def enumerate_permutation_trees(
    rules: Sequence[Rule], k: int, matrix: AncestryMatrix | None = None
) -> Iterator[tuple[Permutation, DecisionTree]]:
    """Brute-force reference: every valid ordering of every k-subset of rules.

    The orderings of every k-combination of global rule ids are tried against
    ``matrix``, the ancestry matrix of the whole table (built from the
    defining points when not given and k is at least 2; a tree of fewer
    rules reads no entry); a matrix entry depends only on its two rules, so
    this is the tree each combination's own matrix gives. The survivors, the
    orderings :func:`tree_from_permutation` accepts, stream out as
    (ordering, shape) pairs, combinations in lexicographic order and
    orderings in :func:`itertools.permutations` order within each. A k above
    the table size raises ValueError at the call, before anything is
    generated.
    """
    return ((perm, placement_shape(placed)) for perm, placed in _orderings(rules, k, matrix))


def permutation_costs(
    rules: Sequence[Rule], k: int, data: Dataset, objective: Any, matrix: AncestryMatrix | None = None
) -> list:
    """The objective's cost of every tree :func:`enumerate_permutation_trees` yields, in its order.

    Equal, pair for pair, to ``tree_cost(complete_shapes([shape], rules,
    data)[0], objective)``: the same fold of ``objective.combine`` over the
    same leaves, read off each placement with no tree built. Sample
    positions are routed from the root as bitmasks, each rule's positive
    mask is computed the first time a placement uses it, and
    ``objective.leaf_cost`` runs once per distinct set of samples reaching a
    leaf. Raises ValueError at the call as :func:`enumerate_permutation_trees`.
    """
    pairs = _orderings(rules, k, matrix)
    samples = tuple(data)
    positive = _positive_masks(rules, samples)
    leaf_costs: dict[int, Any] = {}
    leaf_cost, combine = objective.leaf_cost, objective.combine

    def cost(placed: Placement, p: int, rows: int) -> Any:
        rid = placed.get(p)
        if rid is None:
            if rows not in leaf_costs:
                leaf_costs[rows] = leaf_cost(_members(samples, rows))
            return leaf_costs[rows]
        pos = positive(rid)
        return combine(cost(placed, 2 * p + 1, rows & pos), cost(placed, 2 * p + 2, rows & ~pos), rid)

    every = (1 << len(samples)) - 1
    return [cost(placed, 0, every) for _, placed in pairs]


def all_chain_trees(items: Sequence[MatrixDim]) -> list[DecisionTree]:
    """Every parenthesization of a matrix chain as a leaf-labeled tree."""
    seq = tuple(items)
    if not seq:
        return []
    if len(seq) == 1:
        return [DLeaf(seq[0])]
    out: list[DecisionTree] = []
    for prefix, _, suffix in splits_mcmp(seq):
        for u in all_chain_trees(prefix):
            for v in all_chain_trees(suffix):
                out.append(DNode(u, None, v))
    return out
