"""Objectives and the exact tree optimizers.

Every optimizer is one recursion with a memo, :func:`_optimize`, over a
front end's splits strategy: a state is either a leaf or yields (left state,
rule, right state) triples; both sides are solved, combined, and the
combination whose cost (any value ``<`` orders) is least is kept. The
recursion reads an objective only through its combine step. Because every
shipped objective combines child costs monotonically, taking the minimum
inside the recursion is exact, and each state keeps one candidate.

The rule-set front end works on bitmasks: a state is (allowed rules, rows,
rules still to place, depth budget, ancestor side-set), a root's ancestry row
supplies the rules allowed on each side and its sign pattern the rows; both
are bitmasks read off numpy sign tables.
:func:`solve` covers every k-combination in one recursion whose memo is keyed
by ancestor side-set: a subproblem shared by many combinations is solved once.
A state with one or two rules left is a leaf of the recursion, solved in
closed form (the cheapest stump over its allowed roots, or the cheapest root
over a leaf and such a stump); leaves are costed once per row mask, and
samples are gathered only for the returned tree.
:class:`SolveStats` counts recursion calls (memo hits included), a number
that depends on the rule table and k but not on the data. Ties compare the
rule combination (the lexicographically smallest wins), then the root (the
earliest wins): the recursion minimizes (cost, -combination mask) pairs,
which only ``_RuleMasks.combine`` and the closed forms build. That is the
brute-force answer: the first strictly better cost over the combinations in
lexicographic order, each combination's trees generated root-first.

The bsp, mcmp and kd front ends key the memo by state (fragment set, sub-chain,
point mask and depth): the optimum of a state does not depend on how the
recursion reached it, and these states recur many times. With the sub-chain
as state, the matrix-chain solver is the classic cubic program; the kd
front end reads a pivot's sides off a per-dimension table of point masks
built once per call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import compress
from typing import Any, Callable, Sequence

from .data import Dataset
from .rules import Rule, ancestry_tables, row_masks, sign_table
from .rule_systems import MatrixDim, SceneSegment, split_segments, splits_bsp, splits_mcmp
from .trees import DecisionTree, DLeaf, DNode, map_leaves


@dataclass(frozen=True)
class Objective:
    """Leaf cost and a combine step monotone in each child's cost.

    A cost is any value that ``<`` orders, smaller being better; ``combine``
    must be nondecreasing in each child's cost for a fixed branch context,
    which licenses minimizing inside the recursion. The chain cost
    ``(total, rows, cols)`` orders by total: the candidates of one sub-chain
    share rows and cols.
    """

    leaf_cost: Callable[[Any], Any]
    combine: Callable[[Any, Any, Any], Any]


@dataclass(frozen=True)
class SolveConstraints:
    min_leaf: int = 0
    max_depth: int | None = None


@dataclass
class SolveStats:
    """Instrumentation: the number of recursion calls a solve made.

    Memo hits count; a state with at most two rules left is a leaf and counts
    once, so a solve with k < 3 makes exactly one call. The count depends on
    the rule table, k and the depth budget; without ``min_leaf`` it does not
    depend on the data (an infeasible left side skips its right side).
    """

    nodes: int = 0


def majority_label(data: Dataset) -> int | None:
    """Most frequent label, ties broken toward the smallest label id."""
    if not data:
        return None
    counts: Counter = Counter(s.label for s in data)
    best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
    return best[0]


def misclassification_cost(data: Dataset) -> float:
    """Points whose label differs from the leaf majority."""
    if not data:
        return 0.0
    labels = [s.label for s in data]
    return float(len(labels) - max(map(labels.count, set(labels))))


def _add(a: float, b: float, ctx: Any) -> float:
    return a + b


def _add_plus_one(a: float, b: float, ctx: Any) -> float:
    return a + b + 1.0


def _chain_leaf(dim: MatrixDim) -> tuple[float, int, int]:
    return 0.0, dim.rows, dim.cols


def _chain_combine(a: tuple, b: tuple, ctx: Any) -> tuple[float, int, int]:
    total_a, p, q = a
    total_b, q2, r = b
    if q != q2:
        raise ValueError(f"non-conforming chain dimensions {(p, q)} x {(q2, r)}")
    return total_a + total_b + p * q * r, p, r


def _balance_leaf(data: Dataset) -> float:
    return float(len(data)) ** 2


MISCLASSIFICATION = Objective(misclassification_cost, _add)
TREE_SIZE = Objective(lambda data: 1.0, _add_plus_one)
CHAIN_COST = Objective(_chain_leaf, _chain_combine)
LEAF_BALANCE = Objective(_balance_leaf, _add)


def tree_cost(tree: DecisionTree, objective: Objective) -> Any:
    """The objective's cost of a completed tree: its leaf costs folded by ``combine``."""
    if isinstance(tree, DLeaf):
        return objective.leaf_cost(tree.data)
    u = tree_cost(tree.left, objective)
    v = tree_cost(tree.right, objective)
    return objective.combine(u, v, tree.rule_id)


# bin() digits to compress() selectors
_BITS = bytes.maketrans(b"01", b"\0\1")


def _members(data: Dataset, mask: int) -> Dataset:
    """The samples whose positions are set in ``mask``, in data order."""
    return tuple(compress(data, bin(mask)[:1:-1].encode().translate(_BITS)))


def _optimize(
    root: Any,
    splits: Callable[[Any], list | None],
    leaf: Callable[[Any], tuple[DecisionTree, Any] | None],
    combine: Callable[[Any, Any, Any], Any],
    stats: SolveStats | None = None,
) -> tuple[DecisionTree, Any] | None:
    """Cheapest (tree, cost) for the ``root`` state, or None if none is feasible.

    ``splits(state)`` returns None for a leaf state, otherwise the
    (left state, rule, right state) triples to try, in tie-break order.
    ``leaf(state)`` costs a leaf state and returns None when it is infeasible.
    ``combine(left cost, right cost, rule)`` is an objective's combine step,
    the only part of the objective the recursion reads. Every distinct
    (hashable) state is solved once. Each state keeps its first cheapest
    candidate and builds a node only for it, so ties go to the earliest
    candidate.
    """
    memo: dict = {}

    def rec(state):
        if stats is not None:
            stats.nodes += 1
        if state in memo:
            return memo[state]
        triples = splits(state)
        if triples is None:
            result = leaf(state)
        else:
            best = None
            for left, rule, right in triples:
                u = rec(left)
                if u is None:
                    continue
                v = rec(right)
                if v is None:
                    continue
                cost = combine(u[1], v[1], rule)
                if best is None or cost < best[0]:
                    best = (cost, u[0], rule, v[0])
            result = None if best is None else (DNode(best[1], best[2], best[3]), best[0])
        memo[state] = result
        return result

    try:
        return rec(root)
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
    rules still to place that fits on both sides is a candidate.

    The per-rule masks are built with numpy: the positive rows of each rule
    from one :func:`~opttree.rules.sign_table` over the data, and, when at
    least two rules are to be placed, the left and right sets from
    :func:`~opttree.rules.ancestry_tables`, sign tables over the defining
    points. They equal what :func:`~opttree.rules.classify` and
    :func:`~opttree.rules.ancestry_matrix` give, bit for bit, and no
    :class:`~opttree.rules.AncestryMatrix` tuple is built.

    A state with no rule left, or with one or two rules left and depth to
    place them, is a leaf of the recursion. One rule left is solved in closed
    form: the cheapest of the stumps "root i, a leaf on each side" over the
    allowed roots in ascending order, the first strict minimum winning, which
    is the candidate the recursion would keep. Later roots rank below earlier
    ones among equal costs, so this loop compares plain costs. Two rules left
    are solved in closed form from stumps: for each allowed root in ascending
    order, a leaf on the positive side with a stump on the negative side, then
    a stump on the positive side with a leaf on the negative side, compared as
    ranked (cost, -combination mask) values, the first strict minimum
    winning. Both results depend only on (allowed rules, rows) and are
    memoized on that pair. Leaf costs are memoized per row mask. Leaves carry
    their row mask; :func:`solve` gathers the samples of the returned tree
    only.

    Values handed to the recursion are ranked (cost, -combination mask)
    pairs: a leaf ranks (cost, 0), and :meth:`combine` is the recursion's
    combine step on them. ``objective`` is the plain one.

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
        k: int,
        objective: Objective,
        constraints: SolveConstraints,
    ):
        self.data = tuple(data)
        self.size = len(rules)
        self.objective = objective
        self.min_leaf = constraints.min_leaf
        kinds = [rule.kind for rule in rules]
        self.pos = row_masks(sign_table(kinds, [s.point for s in self.data]))
        # a tree with fewer than two rules places no rule below another
        if k >= 2:
            left, right = ancestry_tables(rules)
            # rule j is bit size-1-j of a rule mask
            self.left, self.right = row_masks(left[:, ::-1]), row_masks(right[:, ::-1])
        else:
            self.left = self.right = [0] * self.size
        self.root = ((1 << self.size) - 1, (1 << len(self.data)) - 1, k, constraints.max_depth, 0)
        self._costs: dict[int, Any] = {}
        self._stumps: dict[tuple[int, int], tuple[DecisionTree, Any] | None] = {}
        self._pairs: dict[tuple[int, int], tuple[DecisionTree, Any] | None] = {}

    def splits(self, state: tuple) -> list | None:
        allowed, rows, count, budget, sides = state
        if not count:
            return None
        if budget is not None and budget <= 0:
            return []  # rules left but no depth: infeasible
        if count <= 2:
            return None  # solved in closed form by leaf
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
            pos = rows & self.pos[i]
            left_sides, right_sides = sides | 1 << 2 * i, sides | 1 << 2 * i + 1
            for n in range(max(0, rest - n_right), min(rest, left.bit_count()) + 1):
                left_state = (left, pos, n, sub_budget, left_sides)
                out.append((left_state, i, (right, rows ^ pos, rest - n, sub_budget, right_sides)))
        return out

    def combine(self, a: tuple, b: tuple, rule: int) -> tuple[Any, int]:
        """Ranked values of two children combined under ``rule``.

        Rule i is bit size-1-i of the mask, so tuple order compares by cost,
        then by combination, the lexicographically smaller of one size first.
        """
        return self.objective.combine(a[0], b[0], rule), a[1] + b[1] - (1 << self.size - 1 - rule)

    def leaf(self, state: tuple) -> tuple[DecisionTree, Any] | None:
        allowed, rows, count, budget = state[:4]
        if count == 2:
            # the second rule needs a level below the root
            return None if budget == 1 else self.pair(allowed, rows)
        if count:
            return self.stump(allowed, rows)
        cost = self.cost(rows)
        return None if cost is None else (DLeaf(rows), (cost, 0))

    def cost(self, rows: int) -> Any:
        """The leaf cost of a row mask, None below ``min_leaf``; memoized."""
        costs = self._costs
        if rows in costs:
            return costs[rows]
        if rows.bit_count() < self.min_leaf:
            result = None
        else:
            result = self.objective.leaf_cost(_members(self.data, rows))
        costs[rows] = result
        return result

    def stump(self, allowed: int, rows: int) -> tuple[DecisionTree, Any] | None:
        """Cheapest one-rule tree over ``rows`` with its root in ``allowed``."""
        key = (allowed, rows)
        if key in self._stumps:
            return self._stumps[key]
        combine, cost = self.objective.combine, self.cost
        positive, last = self.pos, self.size - 1
        best = winner = None
        todo = allowed
        while todo:
            top = todo.bit_length() - 1
            todo ^= 1 << top
            i = last - top
            pos = rows & positive[i]
            u = cost(pos)
            if u is None:
                continue
            neg = rows ^ pos
            v = cost(neg)
            if v is None:
                continue
            candidate = combine(u, v, i)
            if best is None or candidate < best:
                best, winner = candidate, i
        result = None
        if best is not None:
            pos = rows & self.pos[winner]
            result = DNode(DLeaf(pos), winner, DLeaf(rows ^ pos)), (best, -(1 << last - winner))
        self._stumps[key] = result
        return result

    def pair(self, allowed: int, rows: int) -> tuple[DecisionTree, Any] | None:
        """Cheapest two-rule tree over ``rows`` with its rules in ``allowed``."""
        key = (allowed, rows)
        if key in self._pairs:
            return self._pairs[key]
        combine, cost, stump = self.objective.combine, self.cost, self.stump
        positive, last = self.pos, self.size - 1
        best = None
        todo = allowed
        while todo:
            top = todo.bit_length() - 1
            bit = 1 << top
            todo ^= bit
            i = last - top
            pos = rows & positive[i]
            neg = rows ^ pos
            # the recursion's divisions in its order: the second rule on the
            # negative side, then on the positive side; ranked as by combine,
            # a leaf ranking (cost, 0)
            right = allowed & self.right[i]
            if right:
                u = cost(pos)
                if u is not None:
                    v = stump(right, neg)
                    if v is not None:
                        candidate = combine(u, v[1][0], i), v[1][1] - bit
                        if best is None or candidate < best[0]:
                            best = candidate, DLeaf(pos), i, v[0]
            left = allowed & self.left[i]
            if left:
                u = stump(left, pos)
                if u is not None:
                    v = cost(neg)
                    if v is not None:
                        candidate = combine(u[1][0], v, i), u[1][1] - bit
                        if best is None or candidate < best[0]:
                            best = candidate, u[0], i, DLeaf(neg)
        result = None if best is None else (DNode(best[1], best[2], best[3]), best[0])
        self._pairs[key] = result
        return result


def solve(
    rules: Sequence[Rule],
    k: int,
    data: Dataset,
    objective: Objective,
    constraints: SolveConstraints | None = None,
    stats: SolveStats | None = None,
) -> DecisionTree | None:
    """Optimal tree with exactly k rules drawn from the table, or None.

    One recursion covers every k-combination at once: a state is
    solved once per ancestor side-set and reused by every combination that
    reaches it, and a state with one or two rules left is solved in closed
    form. Candidates compare by cost, then by rule combination (the
    lexicographically smallest wins), then by root (the earliest wins). The
    result is the brute-force answer: the first strictly better cost over
    the combinations in lexicographic order, each combination's trees
    generated root-first: the recursion combines with
    :meth:`_RuleMasks.combine`, which ranks (cost, -combination mask)
    pairs. The rule masks come from numpy sign tables that equal
    :func:`~opttree.rules.classify` and
    :func:`~opttree.rules.ancestry_matrix` entry for entry (see
    :class:`_RuleMasks`). ``stats.nodes`` counts the recursion calls, memo
    hits included, with states of at most two rules left as leaves (so
    k < 3 makes one call); see :class:`SolveStats`. ``leaf_cost`` is called
    once per distinct leaf row set.
    """
    if not 0 <= k <= len(rules):
        raise ValueError(f"cannot choose {k} of {len(rules)} rules")
    front = _RuleMasks(rules, data, k, objective, constraints or SolveConstraints())
    best = _optimize(front.root, front.splits, front.leaf, front.combine, stats=stats)
    return None if best is None else map_leaves(partial(_members, front.data), best[0])


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

    def leaf(frags: tuple[SceneSegment, ...]) -> tuple[DecisionTree, float]:
        return DLeaf(()), TREE_SIZE.leaf_cost(())

    return _optimize(tuple(segments), splits, leaf, TREE_SIZE.combine)[0]


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

    def leaf(items: tuple[MatrixDim, ...]) -> tuple[DecisionTree, tuple]:
        return DLeaf(items[0]), CHAIN_COST.leaf_cost(items[0])

    return _optimize(seq, splits, leaf, CHAIN_COST.combine)[0]


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

    The memo is keyed by (point mask, depth), point i at bit i. The table
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

    def leaf(state: tuple[int, int]) -> tuple[DecisionTree, Any]:
        items = _members(seq, state[0])
        return DLeaf(items), obj.leaf_cost(items)

    return _optimize(((1 << len(seq)) - 1, 0), splits, leaf, obj.combine)[0]
