"""Objectives and the exact tree optimizers.

Every optimizer is one recursion, :func:`_optimize`, over a front end's
splits strategy: a state is either a leaf or yields (left state, rule, right
state) triples; both sides are solved, combined, and the cheapest combination
is kept. Because every shipped objective combines child costs monotonically,
taking the minimum inside the recursion is exact. A dominance preorder
(``thinning``) may replace the minimum by a list of undominated candidates.

The rule-set front end works on bitmasks: a state is (allowed rules, rows,
rules still to place, depth budget, ancestor side-set), a root's ancestry row
supplies the rules allowed on each side and its sign pattern the rows.
:func:`solve` covers every k-combination in one recursion memoized by
ancestor side-set: a subproblem shared by many combinations is solved once,
and :class:`SolveStats` counts recursion calls (memo hits included), a number
that depends on the rule table and k but not on the data. Ties compare the
rule combination (the lexicographically smallest wins), then the root (the
earliest wins), which is the tree that solving every combination on its own
would give. :func:`solve_ruleset` fixes
the combination and is not memoized, so its :class:`SolveStats` counts the
logical recursion, whose size follows the worst-case recurrence.

The bsp, mcmp and kd front ends memoize by state (fragment set, sub-chain,
point mask and depth): the optimum of a state does not depend on how the
recursion reached it, and these states recur many times. With the sub-chain
as state, the matrix-chain solver is the classic cubic program; the kd
front end reads a pivot's sides off a per-dimension table of point masks
built once per call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .data import Dataset
from .rules import AncestryMatrix, Rule, ancestry_matrix, classify
from .rule_systems import MatrixDim, SceneSegment, split_segments, splits_bsp, splits_mcmp
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
    counts = Counter(s.label for s in data)
    return CostValue(float(len(data) - max(counts.values())))


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


def _members(data: Dataset, mask: int) -> Dataset:
    """The samples whose positions are set in ``mask``, in data order."""
    return tuple(data[r] for r, b in enumerate(bin(mask)[:1:-1]) if b == "1")


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

    try:
        if thinning is None:
            return rec(root)
        return min(rec(root), key=lambda cand: score(cand[1]), default=None)
    finally:
        # rec reaches itself through its closure; emptying the cell frees the
        # memo on return instead of at the next cyclic collection
        del rec


class _RuleMasks:
    """Rule-set front end on bitmasks.

    A state is (allowed rules, rows, rules still to place, depth budget,
    ancestor side-set). Rule i of a table of K rules is bit K-1-i of a rule
    mask, so of two combinations of equal size the lexicographically smaller
    one is the larger integer; row r is bit r of a row mask; the side-set has
    bit 2i for "left of rule i" and bit 2i+1 for "right of rule i". Roots are
    tried in ascending order. A root i splits the remaining rules into its
    left and right sets (the +1 and -1 entries of its ancestry row) and the
    rows into its positive and negative sides, and every division of the
    rules still to place that fits on both sides is a candidate. A state with
    no rules to place is a leaf, costed once per distinct row mask.

    The allowed rules, the rows and the depth budget are functions of the
    side-set, so a memo keyed on the state shares a subproblem exactly
    between paths with the same ancestors on the same sides, whatever the
    combination they belong to, and the number of states does not depend on
    the data. (A key of allowed rules and rows alone would share more, but
    which states coincide would then depend on the data.)
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        data: Dataset,
        matrix: AncestryMatrix | None,
        allowed: Iterable[int],
        count: int,
        leaf_cost: Callable[[Dataset], Any],
        constraints: SolveConstraints,
    ):
        self.data = tuple(data)
        self.size = len(rules)
        self.leaf_cost = leaf_cost
        self.min_leaf = constraints.min_leaf
        every_row = (1 << len(self.data)) - 1
        allowed = set(allowed)
        self.left = [0] * self.size
        self.right = [0] * self.size
        self.pos = [0] * self.size
        self.neg = [0] * self.size
        for i in allowed:
            signs = (classify(rules[i], s.point) for s in self.data)
            self.pos[i] = sum(1 << r for r, sign in enumerate(signs) if sign > 0)
            self.neg[i] = every_row ^ self.pos[i]
            if matrix is not None:
                row = matrix.entries[i]
                self.left[i] = sum(self.bit(j) for j in allowed if row[j] > 0)
                self.right[i] = sum(self.bit(j) for j in allowed if row[j] < 0)
        rule_mask = sum(self.bit(i) for i in allowed)
        self.root = (rule_mask, every_row, count, constraints.max_depth, 0)
        self._leaves: dict[int, tuple[DecisionTree, Any] | None] = {}

    def bit(self, i: int) -> int:
        return 1 << (self.size - 1 - i)

    def splits(self, state: tuple) -> list | None:
        allowed, rows, count, budget, sides = state
        if not count:
            return None
        if budget is not None and budget <= 0:
            return []  # rules left but no depth: infeasible
        sub_budget = None if budget is None else budget - 1
        rest = count - 1
        out = []
        todo = allowed
        while todo:
            top = todo.bit_length() - 1
            todo ^= 1 << top
            i = self.size - 1 - top
            left, right = allowed & self.left[i], allowed & self.right[i]
            n_right = right.bit_count()
            pos, neg = rows & self.pos[i], rows & self.neg[i]
            left_sides, right_sides = sides | 1 << 2 * i, sides | 1 << 2 * i + 1
            for n in range(max(0, rest - n_right), min(rest, left.bit_count()) + 1):
                left_state = (left, pos, n, sub_budget, left_sides)
                out.append((left_state, i, (right, neg, rest - n, sub_budget, right_sides)))
        return out

    def leaf(self, state: tuple) -> tuple[DecisionTree, Any] | None:
        rows = state[1]
        if rows in self._leaves:
            return self._leaves[rows]
        result = None
        if rows.bit_count() >= self.min_leaf:
            leaf_data = _members(self.data, rows)
            result = DLeaf(leaf_data), self.leaf_cost(leaf_data)
        self._leaves[rows] = result
        return result


def _combination_tie_break(objective: Objective, size: int) -> Objective:
    """The objective on (cost, combination mask) pairs, for :func:`solve`.

    Scores compare as (score, combination), the lexicographically smaller
    combination first: it is the larger mask, with rule i at bit size-1-i.
    """
    combine, score = objective.combine, objective.score

    def leaf_cost(data: Dataset) -> tuple[CostValue, int]:
        return objective.leaf_cost(data), 0

    def combine_masks(a: tuple, b: tuple, rule: int) -> tuple[CostValue, int]:
        return combine(a[0], b[0], rule), a[1] | b[1] | 1 << (size - 1 - rule)

    return Objective(leaf_cost, combine_masks, lambda value: (score(value[0]), -value[1]))


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
    over these indices is consistent with the matrix. The recursion is not
    memoized, so a ``stats`` object counts the logical recursion, whose size
    depends only on the matrix and follows the worst-case recurrence.

    ``thinning(a, b)`` is an optional dominance preorder on (tree, cost)
    candidates. It must be reflexive, transitive and consistent with the
    objective's combine: whenever it declares ``a`` at least as good as ``b``,
    extending ``a`` can never score worse than extending ``b``. The winner's
    score then matches the unthinned solve.
    """
    idx = set(indices)
    cons = constraints or SolveConstraints()
    front = _RuleMasks(rules, data, matrix, idx, len(idx), objective.leaf_cost, cons)
    best = _optimize(
        front.root, front.splits, front.leaf, objective, thinning=thinning, stats=stats
    )
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

    One memoized recursion covers every k-combination at once: a state is
    solved once per ancestor side-set and reused by every combination that
    reaches it. Candidates compare by score, then by rule combination (the
    lexicographically smallest wins), then by root (the earliest wins), so the
    result is the tree that solving each combination separately with
    :func:`solve_ruleset` and keeping the first strictly better score would
    return. ``stats.nodes`` counts the recursion calls, memo hits included; it
    depends on the rule table and k but not on the data.
    """
    if not 0 <= k <= len(rules):
        raise ValueError(f"cannot choose {k} of {len(rules)} rules")
    # a tree with fewer than two rules places no rule below another
    matrix = ancestry_matrix(rules) if k >= 2 else None
    ranked = _combination_tie_break(objective, len(rules))
    cons = constraints or SolveConstraints()
    front = _RuleMasks(rules, data, matrix, range(len(rules)), k, ranked.leaf_cost, cons)
    best = _optimize(front.root, front.splits, front.leaf, ranked, memoize=True, stats=stats)
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

    The recursion memoizes on (point mask, depth), point i at bit i. The table
    ``at_most[d][i]``, the points whose coordinate d is at most point i's, is
    built once, so a pivot's sides are two mask operations. Pivots are tried
    in data order and points tied with the pivot go left, as in
    :func:`~opttree.rule_systems.splits_kd`.
    """
    obj = objective or LEAF_BALANCE
    seq = tuple(data)
    if not seq:
        return DLeaf(())
    ndims = len(seq[0].point)
    at_most = [
        [sum(1 << j for j, s in enumerate(seq) if s.point[d] <= p.point[d]) for p in seq]
        for d in range(ndims)
    ]

    def splits(state: tuple[int, int]) -> list | None:
        mask, depth = state
        if not mask or depth >= max_depth:
            return None
        d = depth % ndims
        out = []
        todo = mask
        while todo:
            low = todo & -todo
            todo ^= low
            i = low.bit_length() - 1
            rest = mask ^ low
            left = rest & at_most[d][i]
            out.append(((left, depth + 1), (seq[i].point, d), (rest ^ left, depth + 1)))
        return out

    def leaf(state: tuple[int, int]) -> tuple[DecisionTree, CostValue]:
        items = _members(seq, state[0])
        return DLeaf(items), obj.leaf_cost(items)

    return _optimize(((1 << len(seq)) - 1, 0), splits, leaf, obj, memoize=True)[0]
