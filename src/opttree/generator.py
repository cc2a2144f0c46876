"""Exhaustive tree generation and the permutation-based reference pipeline.

These generators are the reference semantics the solver is checked against:
they materialize every admissible tree instead of fusing the minimum into the
recursion. Output order is deterministic (root index ascending, left subtree
choices before right), so generated sequences are reproducible and comparable.

The permutation pipeline streams the shapes (trees of rule ids with
:data:`~opttree.trees.LEAF` leaves) that :func:`tree_from_permutation` rebuilds
from every ordering of every k-combination, against one ancestry matrix of the
whole table. :func:`_route_fold` routes sample-position bitmasks from the root
against a sign table filled lazily, one rule at a time, to complete shapes
(:func:`complete_shapes`, behind :func:`all_trees`) or score them
(:func:`shape_costs`); :func:`all_trees_constrained` splits samples with
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
from .trees import LEAF, DecisionTree, DLeaf, DNode, Permutation, tree_from_permutation


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


def _route_fold(
    shapes: Iterable[DecisionTree],
    rules: Sequence[Rule],
    data: Dataset,
    leaf: Callable[[Dataset], Any],
    node: Callable[[Any, int, Any], Any],
) -> list:
    """Fold every shape bottom up, each leaf given the data reaching it.

    Sample positions are routed from the root down as bitmasks, so a leaf's
    samples keep the data order. A rule's signs over the data are computed
    the first time a shape uses it, so each (rule, sample) pair is classified
    at most once per call, and ``leaf`` runs once per distinct row mask, its
    value shared by every leaf with those samples. A rule id that is not an
    index into ``rules`` raises ValueError.
    """
    samples = tuple(data)
    positive: dict[int, int] = {}
    leaves: dict[int, Any] = {}

    def fold(shape: DecisionTree, rows: int) -> Any:
        if isinstance(shape, DLeaf):
            if rows not in leaves:
                leaves[rows] = leaf(tuple(s for r, s in enumerate(samples) if rows >> r & 1))
            return leaves[rows]
        rid = shape.rule_id
        if not isinstance(rid, int) or not 0 <= rid < len(rules):
            raise ValueError(f"path references unknown rule id {rid!r}")
        if rid not in positive:
            signs = (classify(rules[rid], s.point) for s in samples)
            positive[rid] = sum(1 << r for r, sign in enumerate(signs) if sign > 0)
        pos = positive[rid]
        return node(fold(shape.left, rows & pos), rid, fold(shape.right, rows & ~pos))

    every = (1 << len(samples)) - 1
    return [fold(shape, every) for shape in shapes]


def complete_shapes(
    shapes: Iterable[DecisionTree], rules: Sequence[Rule], data: Dataset
) -> list[DecisionTree]:
    """Give every shape the data reaching each of its leaves.

    Each leaf holds, in data order, the samples that every rule on its path
    sends its way: positive to the left, negative to the right. Leaves with
    the same samples share one value; an unknown rule id raises ValueError.
    """
    return _route_fold(shapes, rules, data, DLeaf, DNode)


def shape_costs(
    shapes: Iterable[DecisionTree], rules: Sequence[Rule], data: Dataset, objective: Any
) -> list:
    """The objective's cost of every shape, completed with ``data``.

    Equal, shape for shape, to ``tree_cost(complete_shapes([shape], rules,
    data)[0], objective)``: the same fold of ``objective.combine`` over the
    same leaves, but no tree is built, and ``objective.leaf_cost`` runs once
    per distinct set of samples reaching a leaf.
    """
    combine = objective.combine
    return _route_fold(shapes, rules, data, objective.leaf_cost, lambda u, rid, v: combine(u, v, rid))


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


def enumerate_permutation_trees(
    rules: Sequence[Rule], k: int, matrix: AncestryMatrix | None = None
) -> Iterator[tuple[Permutation, DecisionTree]]:
    """Brute-force reference: try all orderings of every k-subset of rules.

    Every ordering of every k-combination of global rule ids is run through
    :func:`tree_from_permutation` against ``matrix``, the ancestry matrix of
    the whole table (built from the defining points when not given); a
    matrix entry depends only on its two rules, so this is the tree each
    combination's own matrix gives. The survivors stream out as (ordering,
    shape) pairs, combinations in lexicographic order and orderings in
    :func:`itertools.permutations` order within each. A k above the table
    size raises ValueError at the call, before anything is generated.
    """
    if k > len(rules):
        raise ValueError(f"cannot choose {k} of {len(rules)} rules")
    if matrix is None:
        matrix = ancestry_matrix(rules)

    def pairs() -> Iterator[tuple[Permutation, DecisionTree]]:
        for combo in itertools.combinations(range(len(rules)), k):
            for perm in itertools.permutations(combo):
                tree = tree_from_permutation(perm, matrix)
                if tree is not None:
                    yield perm, tree

    return pairs()


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
