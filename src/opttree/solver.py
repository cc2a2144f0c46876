"""Objectives and the exact tree optimizers.

Every optimizer is one recursion, :func:`_optimize`, over a front end's
splits strategy: a state is either a leaf or yields (left state, rule, right
state) triples; both sides are solved, combined, and the cheapest combination
is kept. Because every shipped objective combines child costs monotonically,
taking the minimum inside the recursion is exact. A dominance preorder
(``thinning``) may replace the minimum by a list of undominated candidates.

The rule-set front end solves the fixed-rule-set problem: the ancestry matrix
supplies the candidate roots and each side is solved on the matching data
partition. :func:`solve` repeats this for every k-combination of the rule
table. It is not memoized, so :class:`SolveStats` counts the logical
recursion, whose size is independent of the data and follows the worst-case
recurrence; sharing subproblems across combinations would need a
combination-free recursion instead.

The bsp, mcmp and kd front ends memoize by state (fragment set, sub-chain,
point subset and depth): the optimum of a state does not depend on how the
recursion reached it, and these states recur many times. With the sub-chain
as state, the matrix-chain solver is the classic cubic program.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .data import Dataset
from .rules import AncestryMatrix, Rule, ancestry_matrix, classify
from .rule_systems import (
    MatrixDim,
    SceneSegment,
    split_segments,
    splits_bsp,
    splits_generic,
    splits_kd,
    splits_mcmp,
)
from .trees import DecisionTree, DLeaf, DNode


@dataclass(frozen=True)
class CostValue:
    """Scalar cost plus an optional aggregate (e.g. sub-chain dimensions)."""

    cost: float
    payload: tuple | None = None


def _score_cost(value: CostValue) -> float:
    return value.cost


@dataclass(frozen=True)
class Objective:
    """Leaf cost, monotone combine, and the scalar used for comparisons.

    ``combine`` must be nondecreasing in each child's score for a fixed
    branch context; that is what licenses minimizing inside the recursion.
    """

    leaf_cost: Callable[[Any], CostValue]
    combine: Callable[[CostValue, CostValue, Any], CostValue]
    score: Callable[[CostValue], float] = _score_cost


@dataclass(frozen=True)
class SolveConstraints:
    min_leaf: int = 0
    max_depth: int | None = None


@dataclass
class SolveStats:
    """Instrumentation: the number of recursion nodes a solve visited."""

    nodes: int = 0


def majority_label(data: Dataset) -> int | None:
    """Most frequent label, ties broken toward the smallest label id."""
    if not data:
        return None
    counts: Counter = Counter(s.label for s in data)
    best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
    return best[0]


def misclassification_cost(data: Dataset) -> CostValue:
    """Points whose label differs from the leaf majority."""
    if not data:
        return CostValue(0.0)
    m = majority_label(data)
    return CostValue(float(sum(1 for s in data if s.label != m)))


def _add(a: CostValue, b: CostValue, ctx: Any) -> CostValue:
    return CostValue(a.cost + b.cost)


def _add_plus_one(a: CostValue, b: CostValue, ctx: Any) -> CostValue:
    return CostValue(a.cost + b.cost + 1.0)


def _chain_leaf(dim: MatrixDim) -> CostValue:
    return CostValue(0.0, (dim.rows, dim.cols))


def _chain_combine(a: CostValue, b: CostValue, ctx: Any) -> CostValue:
    p, q = a.payload
    q2, r = b.payload
    if q != q2:
        raise ValueError(f"non-conforming chain dimensions {a.payload} x {b.payload}")
    return CostValue(a.cost + b.cost + p * q * r, (p, r))


def _balance_leaf(data: Dataset) -> CostValue:
    return CostValue(float(len(data)) ** 2)


MISCLASSIFICATION = Objective(misclassification_cost, _add)
TREE_SIZE = Objective(lambda data: CostValue(1.0), _add_plus_one)
CHAIN_COST = Objective(_chain_leaf, _chain_combine)
LEAF_BALANCE = Objective(_balance_leaf, _add)


def tree_cost(tree: DecisionTree, objective: Objective) -> CostValue:
    """Fold an objective over a completed tree."""
    if isinstance(tree, DLeaf):
        return objective.leaf_cost(tree.data)
    u = tree_cost(tree.left, objective)
    v = tree_cost(tree.right, objective)
    return objective.combine(u, v, tree.rule_id)


def min_by(candidates: Iterable[DecisionTree], objective: Objective) -> DecisionTree:
    """Candidate with minimal score; ties keep the earliest candidate."""
    best = None
    best_score = None
    for tree in candidates:
        s = objective.score(tree_cost(tree, objective))
        if best is None or s < best_score:
            best, best_score = tree, s
    if best is None:
        raise ValueError("cannot minimize over an empty candidate list")
    return best


def _thin(candidates: list, dominates: Callable) -> list:
    kept: list = []
    for cand in candidates:
        if any(dominates(old, cand) for old in kept):
            continue
        kept = [old for old in kept if not dominates(cand, old)]
        kept.append(cand)
    return kept


def _optimize(
    root: Any,
    splits: Callable[[Any], list | None],
    leaf: Callable[[Any], tuple[DecisionTree, CostValue] | None],
    objective: Objective,
    memoize: bool = False,
    thinning: Callable | None = None,
    stats: SolveStats | None = None,
) -> tuple[DecisionTree, CostValue] | None:
    """Cheapest (tree, cost) for the ``root`` state, or None if none is feasible.

    ``splits(state)`` returns None for a leaf state, otherwise the
    (left state, rule, right state) triples to try, in tie-break order.
    ``leaf(state)`` costs a leaf state and returns None when it is infeasible.
    With ``memoize`` every distinct (hashable) state is solved once. Without
    ``thinning`` each state keeps its first cheapest candidate and builds a
    node only for it. With a ``thinning`` preorder each state keeps every
    candidate no kept candidate dominates, and the first cheapest survivor
    at the root wins. Ties go to the earliest candidate.
    """
    combine, score = objective.combine, objective.score
    memo: dict = {}

    def rec(state):
        # the winner (or None); with thinning, the list of undominated candidates
        if stats is not None:
            stats.nodes += 1
        if memoize and state in memo:
            return memo[state]
        triples = splits(state)
        if triples is None:
            result = leaf(state)
            if thinning is not None:
                result = [] if result is None else [result]
        else:
            kept = []
            best = None
            for left, rule, right in triples:
                u = rec(left)
                if not u:
                    continue
                v = rec(right)
                if not v:
                    continue
                if thinning is not None:
                    kept += [
                        (DNode(ut, rule, vt), combine(uc, vc, rule)) for ut, uc in u for vt, vc in v
                    ]
                    continue
                cost = combine(u[1], v[1], rule)
                s = score(cost)
                if best is None or s < best[0]:
                    best = (s, u[0], rule, v[0], cost)
            if thinning is not None:
                result = _thin(kept, thinning)
            else:
                result = None if best is None else (DNode(best[1], best[2], best[3]), best[4])
        if memoize:
            memo[state] = result
        return result

    if thinning is None:
        return rec(root)
    return min(rec(root), key=lambda cand: score(cand[1]), default=None)


class _RuleSet:
    """Rule-set front end: states are (rule indices, row indices, depth budget).

    Predicate evaluations are cached per rule and shared across the whole
    solve; states carry row-index tuples and samples are materialized only at
    leaves. States are not memoized, so ``SolveStats.nodes`` counts the
    logical recursion.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        data: Dataset,
        matrix: AncestryMatrix,
        objective: Objective,
        constraints: SolveConstraints,
    ):
        self.rules = rules
        self.data = tuple(data)
        self.matrix = matrix
        self.objective = objective
        self.constraints = constraints
        self._signs: dict[int, tuple[int, ...]] = {}

    def signs(self, rid: int) -> tuple[int, ...]:
        cached = self._signs.get(rid)
        if cached is None:
            rule = self.rules[rid]
            cached = tuple(classify(rule, s.point) for s in self.data)
            self._signs[rid] = cached
        return cached

    def splits(self, state: tuple) -> list | None:
        idx, rows, budget = state
        if not idx:
            return None
        if budget is not None and budget <= 0:
            return []  # rules left but no depth: infeasible
        sub_budget = None if budget is None else budget - 1
        out = []
        for left, rid, right in splits_generic(idx, self.matrix):
            signs = self.signs(rid)
            pos = tuple(i for i in rows if signs[i] > 0)
            neg = tuple(i for i in rows if signs[i] < 0)
            out.append(((left, pos, sub_budget), rid, (right, neg, sub_budget)))
        return out

    def leaf(self, state: tuple) -> tuple[DecisionTree, CostValue] | None:
        rows = state[1]
        if len(rows) < self.constraints.min_leaf:
            return None
        leaf_data = tuple(self.data[i] for i in rows)
        return DLeaf(leaf_data), self.objective.leaf_cost(leaf_data)

    def solve(
        self, idx: tuple[int, ...], stats: SolveStats | None = None, thinning: Callable | None = None
    ) -> tuple[DecisionTree, CostValue] | None:
        root = (idx, tuple(range(len(self.data))), self.constraints.max_depth)
        return _optimize(root, self.splits, self.leaf, self.objective, thinning=thinning, stats=stats)


def solve_ruleset(
    indices: Iterable[int],
    matrix: AncestryMatrix,
    rules: Sequence[Rule],
    data: Dataset,
    objective: Objective,
    constraints: SolveConstraints | None = None,
    stats: SolveStats | None = None,
    thinning: Callable | None = None,
) -> DecisionTree | None:
    """Optimal tree using exactly the given rule indices, or None.

    An empty index set yields a single leaf holding the data. Otherwise every
    feasible root is tried, the two sides are solved on the matching data
    partition, and the cheapest combination wins (ties keep the earliest
    root). None means the constraints eliminated every candidate or no tree
    over these indices is consistent with the matrix.

    ``thinning(a, b)`` is an optional dominance preorder on (tree, cost)
    candidates. It must be reflexive, transitive and consistent with the
    objective's combine: whenever it declares ``a`` at least as good as ``b``,
    extending ``a`` can never score worse than extending ``b``. The winner's
    score then matches the unthinned solve.
    """
    problem = _RuleSet(rules, data, matrix, objective, constraints or SolveConstraints())
    best = problem.solve(tuple(sorted(indices)), stats, thinning)
    return None if best is None else best[0]


def never_dominates(a, b) -> bool:
    """Trivial preorder: thinning keeps every candidate."""
    return False


def _root_of(tree: DecisionTree):
    return tree.rule_id if isinstance(tree, DNode) else None


def score_dominates(objective: Objective) -> Callable:
    """Dominance among candidates sharing a root: lower-or-equal score wins."""

    def dominates(a, b) -> bool:
        return _root_of(a[0]) == _root_of(b[0]) and objective.score(a[1]) <= objective.score(b[1])

    return dominates


def _leaf_partition(tree: DecisionTree) -> tuple:
    if isinstance(tree, DLeaf):
        return (tuple(tree.data),)
    return _leaf_partition(tree.left) + _leaf_partition(tree.right)


def partition_dominates(objective: Objective) -> Callable:
    """Dominance among candidates inducing the same leaf partition."""

    def dominates(a, b) -> bool:
        return (
            sorted(_leaf_partition(a[0])) == sorted(_leaf_partition(b[0]))
            and objective.score(a[1]) <= objective.score(b[1])
        )

    return dominates


def solve(
    rules: Sequence[Rule],
    k: int,
    data: Dataset,
    objective: Objective,
    constraints: SolveConstraints | None = None,
    stats: SolveStats | None = None,
) -> DecisionTree | None:
    """Optimal tree with exactly k rules drawn from the table, or None.

    Every k-combination is solved independently on its slice of the pairwise
    ancestry matrix; combination winners are compared by score with ties going
    to the lexicographically smallest combination.
    """
    if k > len(rules):
        raise ValueError(f"cannot choose {k} of {len(rules)} rules")
    matrix = ancestry_matrix(rules) if k > 0 else AncestryMatrix(())
    problem = _RuleSet(rules, data, matrix, objective, constraints or SolveConstraints())
    best = None
    best_score = None
    for combo in itertools.combinations(range(len(rules)), k):
        res = problem.solve(combo, stats)
        if res is None:
            continue
        s = objective.score(res[1])
        if best is None or s < best_score:
            best, best_score = res, s
    return None if best is None else best[0]


def solve_bsp(segments: Sequence[SceneSegment]) -> DecisionTree:
    """Smallest partition tree for a scene of segments.

    Every fragment eventually serves as a cut: a region recurses until empty,
    each step consuming one fragment as the branch rule and distributing the
    rest (with fragmentation) to the two sides. Minimized on total node count.
    """
    if not segments:
        raise ValueError("scene has no segments")

    def splits(frags: tuple[SceneSegment, ...]) -> list | None:
        return splits_bsp(frags) if frags else None

    def leaf(frags: tuple[SceneSegment, ...]) -> tuple[DecisionTree, CostValue]:
        return DLeaf(()), TREE_SIZE.leaf_cost(())

    return _optimize(tuple(segments), splits, leaf, TREE_SIZE, memoize=True)[0]


def bsp_tree_from_order(segments: Sequence[SceneSegment], order: Sequence[int]) -> DecisionTree:
    """Classical construction: cut in a fixed priority order of the originals.

    ``order`` ranks original payload ids; in each region the fragment whose
    original comes first is the cut. Used as the randomized baseline the
    exact solver is compared against.
    """
    rank = {payload: pos for pos, payload in enumerate(order)}

    def rec(frags: tuple[SceneSegment, ...]) -> DecisionTree:
        if not frags:
            return DLeaf(())
        root_pos = min(range(len(frags)), key=lambda i: (rank[frags[i].payload], i))
        root = frags[root_pos]
        rest = [s for i, s in enumerate(frags) if i != root_pos]
        pos, neg = split_segments(root, rest)
        return DNode(rec(pos), root, rec(neg))

    return rec(tuple(segments))


def solve_mcmp(dims: Sequence[MatrixDim]) -> DecisionTree:
    """Cheapest association order for a matrix chain (leaf-labeled tree)."""
    seq = tuple(dims)
    if not seq:
        raise ValueError("empty matrix chain")
    for a, b in zip(seq, seq[1:]):
        if a.cols != b.rows:
            raise ValueError(f"adjacent matrices do not conform: {a} x {b}")

    def splits(items: tuple[MatrixDim, ...]) -> list | None:
        if len(items) == 1:
            return None
        # chain nodes carry no rule: the tree shape alone is the association
        return [(prefix, None, suffix) for prefix, _, suffix in splits_mcmp(items)]

    def leaf(items: tuple[MatrixDim, ...]) -> tuple[DecisionTree, CostValue]:
        return DLeaf(items[0]), CHAIN_COST.leaf_cost(items[0])

    return _optimize(seq, splits, leaf, CHAIN_COST, memoize=True)[0]


def parenthesization(tree: DecisionTree) -> str:
    """Render a chain tree as an association string like ((A×B)×C)."""

    def label(i: int) -> str:
        return chr(ord("A") + i) if i < 26 else f"M{i}"

    def rec(node: DecisionTree, counter: list[int]) -> str:
        if isinstance(node, DLeaf):
            name = label(counter[0])
            counter[0] += 1
            return name
        return f"({rec(node.left, counter)}×{rec(node.right, counter)})"

    return rec(tree, [0])


def solve_kd(data: Dataset, max_depth: int, objective: Objective | None = None) -> DecisionTree:
    """Optimal balanced-split tree with depth-cycled dimensions.

    Every branch at depth d splits on dimension d mod D, so all nodes of one
    level share a dimension. Regions split while points remain and the depth
    budget allows; the branch payload is (pivot point, dimension). The default
    objective sums squared leaf sizes.
    """
    obj = objective or LEAF_BALANCE
    seq = tuple(data)
    if not seq:
        return DLeaf(())
    ndims = len(seq[0].point)

    def splits(state: tuple[Dataset, int]) -> list | None:
        items, depth = state
        if not items or depth >= max_depth:
            return None
        d = depth % ndims
        return [
            ((left, depth + 1), (pivot.point, d), (right, depth + 1))
            for left, pivot, right in splits_kd(depth, items)
        ]

    def leaf(state: tuple[Dataset, int]) -> tuple[DecisionTree, CostValue]:
        return DLeaf(state[0]), obj.leaf_cost(state[0])

    return _optimize((seq, 0), splits, leaf, obj, memoize=True)[0]
