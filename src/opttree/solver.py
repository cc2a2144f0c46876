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
samples are gathered only for the returned tree. For an objective with a
count form, the root's one- and two-rule states are solved first, in numpy,
from per-label count tables (see :class:`_RuleMasks`); the recursion then
finds them memoized.
:class:`SolveStats` counts recursion calls (memo hits included), a number
that depends on the rule table and k but not on the data, and the
closed-form states solved, in Python or from count tables. Ties compare the
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

import numpy as np

from .data import Dataset
from .rules import _BLOCK, Rule, ancestry_tables, row_masks, sign_table
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

    ``count_cost``, when given, is the leaf cost as a function of per-label
    counts, vectorized: an array with one entry per label on axis 0 maps to
    the float64 costs of the leaves indexed by its other axes, each equal to
    ``leaf_cost`` of a leaf with those label counts. ``combine`` must then
    also apply elementwise to float64 arrays of costs, with an array of rule
    indices as its context. :func:`solve` uses it to cost many leaves at once.
    """

    leaf_cost: Callable[[Any], Any]
    combine: Callable[[Any, Any, Any], Any]
    count_cost: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class SolveConstraints:
    min_leaf: int = 0
    max_depth: int | None = None


@dataclass
class SolveStats:
    """Instrumentation: bounded counters of what a solve did.

    ``nodes`` is the number of recursion calls. Memo hits count; a state with
    at most two rules left is a leaf and counts once, so a solve with k < 3
    makes exactly one call. The count depends on the rule table, k and the
    depth budget; without ``min_leaf`` it does not depend on the data (an
    infeasible left side skips its right side), nor on how closed forms are
    solved. ``closed_forms`` is the number of one- and two-rule states
    (allowed rules, rows) solved in closed form, the sizes of the stump and
    pair memos, and ``batched`` how many of those came from label-count
    tables (see :class:`_RuleMasks`). Unlike ``nodes``, ``closed_forms``
    depends on how the states were solved: the Python two-rule closed form
    memoizes every stump it tries, while the count tables memoize the root's
    closed-form children and, from four rules to place on, the stumps those
    children try, including some the recursion never reaches because a
    sibling or a leaf beside them is infeasible.
    """

    nodes: int = 0
    closed_forms: int = 0
    batched: int = 0


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


def _misclassification_counts(counts: np.ndarray) -> np.ndarray:
    return (counts.sum(axis=0) - counts.max(axis=0, initial=0)).astype(float)


def _balance_counts(counts: np.ndarray) -> np.ndarray:
    return counts.sum(axis=0).astype(float) ** 2


def _size_counts(counts: np.ndarray) -> np.ndarray:
    return np.ones(counts.shape[1:])


MISCLASSIFICATION = Objective(misclassification_cost, _add, _misclassification_counts)
TREE_SIZE = Objective(lambda data: 1.0, _add_plus_one, _size_counts)
CHAIN_COST = Objective(_chain_leaf, _chain_combine)
LEAF_BALANCE = Objective(_balance_leaf, _add, _balance_counts)


def tree_cost(tree: DecisionTree, objective: Objective) -> Any:
    """The objective's cost of a completed tree: its leaf costs folded by ``combine``."""
    if isinstance(tree, DLeaf):
        return objective.leaf_cost(tree.data)
    u = tree_cost(tree.left, objective)
    v = tree_cost(tree.right, objective)
    return objective.combine(u, v, tree.rule_id)


def _unpack(masks: Sequence[int], width: int) -> np.ndarray:
    """len(masks) x width booleans: entry [s, c] is bit c of masks[s]."""
    nbytes = (width + 7) // 8
    buf = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
    bits = np.frombuffer(buf, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(bits, axis=1, count=width, bitorder="little").view(bool)


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

    For an objective with a count form, :meth:`batch` solves the root's one-
    and two-rule states before the recursion starts: the root itself when it
    has at most two rules to place, else those of its children that
    :meth:`leaf` would solve. Every leaf count comes from products of 0/1
    float64 tables: a state's per-label counts on each rule's positive side
    are one product of its label-masked rows with the sign table, and the
    stumps a two-rule state tries under a root (its rows on one side of the
    root, its rules on that side) are states too, deduplicated and counted
    the same way; negative sides follow by subtraction. A sum of at most N
    products of 0 and 1 is exact in float64 whatever order BLAS adds in, the
    count form equals ``leaf_cost`` leaf for leaf, and ``combine`` meets the
    same values elementwise, so every cost compared equals the Python closed
    forms'. Winners are picked in their order too: a stump's is the first
    cheapest root in ascending order; a two-rule state's is the first by
    cost, then sorted rule combination, then root (which, with the
    combination, fixes the side the second rule is on). The results go into
    the memos of :meth:`stump` and :meth:`pair`.

    The tables pay only against a cold memo. On uniform 2-D data with two
    labels, a root batch breaks even near 14 rules at k=3 (axis N=7) and
    wins from 16 (axis N=8: 0.80-0.87x the time; N=12: 0.43x); k=2 breaks even
    near 16 rules and k=1 near 20. Smaller tables are batched too, and lose
    a fraction of a millisecond per solve (axis N=4, K=8: 0.06 to 0.11 ms at
    k=1, 0.53 to 0.91 ms at k=3; K=16 at k=1: 0.11 to 0.13 ms). Below the
    root, a Python two-rule state finds most of its stumps memoized and pays
    one lookup per root, and batching such states lost at every size tried
    (axis N=12, k=4: 1.16x; hyperplane N=14, k=4: 1.11x). So only the root
    is batched. At k=4, memoizing the stumps below the root's two-rule
    children keeps the batch even with the Python path (axis N=12: 18.8
    against 18.9 ms); without them it took 1.13-1.23x the time.

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
        signs = sign_table(kinds, [s.point for s in self.data])
        self.pos = row_masks(signs)
        # a tree with fewer than two rules places no rule below another
        if k >= 2:
            left, right = ancestry_tables(rules)
            # rule j is bit size-1-j of a rule mask
            self.left, self.right = row_masks(left[:, ::-1]), row_masks(right[:, ::-1])
        else:
            self.left = self.right = [0] * self.size
        # the tables batch counts from: rule signs, the ancestry sides and the
        # labels one-hot
        self.labels = None
        if objective.count_cost is not None:
            self.signs = signs
            self.sides = np.stack([right, left]) if k >= 2 else None
            codes: dict = {}
            label_of = [codes.setdefault(s.label, len(codes)) for s in self.data]
            self.labels = np.zeros((len(codes), len(self.data)))
            self.labels[label_of, np.arange(len(self.data))] = 1.0
        self.batched = 0
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
        result = None if best is None else (self._stump_tree(rows, winner), (best, -(1 << last - winner)))
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

    def batch(self) -> None:
        """Solve the root's one- and two-rule states from label-count tables.

        Those are the root itself when it has at most two rules to place, and
        otherwise its children that :meth:`leaf` would solve; with four or
        more rules to place, the stumps each two-rule child tries under each
        root are memoized too, since they are the children of the three-rule
        child with the same rows. Results go into the memos of :meth:`stump`
        and :meth:`pair`, equal to what those would compute. Every temporary
        is blocked to about ``_BLOCK`` entries over states and roots.
        """
        states = [self.root]
        if self.root[2] > 2:
            states = [child for left, _, right in self.splits(self.root) for child in (left, right)]
        stumps: dict = {}
        pairs: dict = {}
        for allowed, rows, n, budget, _ in states:
            if n == 1 and (budget is None or budget >= 1):
                stumps[allowed, rows] = None
            elif n == 2 and (budget is None or budget >= 2):
                pairs[allowed, rows] = None
        last = self.size - 1
        # a root in a block stands for two stumps, each a row over rules and samples
        step = max(1, _BLOCK // (2 * max(1, len(self.labels)) * (self.size + len(self.data))))
        for memo, keys in ((self._stumps, list(stumps)), (self._pairs, list(pairs))):
            for lo in range(0, len(keys), step):
                block = keys[lo : lo + step]
                # rule j is bit size-1-j of a rule mask
                allowed = _unpack([a for a, _ in block], self.size)[:, ::-1].copy()
                rows = _unpack([r for _, r in block], len(self.data))
                if memo is self._stumps:
                    found, best, win = self._cheapest(allowed, rows)
                    results = [
                        (self._stump_tree(mask, i), (cost, -(1 << last - i))) if hit else None
                        for (_, mask), hit, cost, i in zip(block, found.tolist(), best.tolist(), win.tolist())
                    ]
                else:
                    results = self._pair_block(block, allowed, rows, step)
                memo.update(zip(block, results))
        self.batched += len(stumps) + len(pairs)

    def _leaf_counts(self, flat: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-label counts of the two leaves of each (state, root) in ``flat``.

        Entry s * size + i of ``flat`` stands for state s's rows ``rows[s]``
        split by rule i. Returns [label, entry] counts on the rule's positive
        side and on its negative side.
        """
        labels = self.labels
        # [label, state, rule]: the state's rows on the rule's positive side
        cpos = (labels[:, None, :] * rows) @ self.signs.T
        pos = cpos.reshape(len(labels), len(rows) * self.size).take(flat, axis=1)
        return pos, (labels @ rows.T).take(flat // self.size, axis=1) - pos

    def _cheapest(self, allowed: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The first cheapest feasible stump of each state.

        State s holds the rows ``rows[s]`` and may root its stump at the
        rules ``allowed[s]``. Returns, per state, whether a feasible stump
        exists, its least cost and the first rule reaching it.
        """
        flat = np.flatnonzero(allowed)
        state, root = np.divmod(flat, self.size)
        pos, neg = self._leaf_counts(flat, rows)
        if self.min_leaf:
            keep = np.flatnonzero((pos.sum(axis=0) >= self.min_leaf) & (neg.sum(axis=0) >= self.min_leaf))
            pos, neg, state, root = pos[:, keep], neg[:, keep], state[keep], root[keep]
        found = np.zeros(len(rows), dtype=bool)
        best = np.full(len(rows), np.inf)
        win = np.zeros(len(rows), dtype=np.intp)
        if len(state):
            leaf = self.objective.count_cost
            cost = self.objective.combine(leaf(pos), leaf(neg), root)
            start = np.flatnonzero(np.diff(state, prepend=-1))
            present = state[start]
            found[present] = True
            best[present] = np.minimum.reduceat(cost, start)
            at_best = np.where(cost == best[state], np.arange(len(cost)), len(cost))
            win[present] = root[np.minimum.reduceat(at_best, start)]
        return found, best, win

    def _stump_tree(self, rows: int, i: int) -> DecisionTree:
        pos = rows & self.pos[i]
        return DNode(DLeaf(pos), i, DLeaf(rows ^ pos))

    def _pair_block(self, block: list, allowed: np.ndarray, rows: np.ndarray, step: int) -> list:
        """:meth:`pair` of each (allowed rules, rows) in ``block``.

        Each allowed root j of state s brings two stumps: on j's negative
        side over its right set, and on its positive side over its left set.
        Many (state, root, side) share one such stump, so each distinct one
        is solved once by :meth:`_cheapest`. With four or more rules to
        place, these stumps are memoized as well: the recursion meets them
        below the root's three-rule children.
        """
        last = self.size - 1
        flat = np.flatnonzero(allowed)
        state, root = np.divmod(flat, self.size)  # by state, then ascending root
        found = np.zeros((2, len(state)), dtype=bool)
        best, win = np.empty((2, len(state))), np.empty((2, len(state)), dtype=np.intp)
        nested = self.root[2] >= 4
        fresh = []
        for lo in range(0, len(state), step):
            s, j = state[lo : lo + step], root[lo : lo + step]
            under = (allowed.take(s, axis=0) & self.sides.take(j, axis=1)).reshape(2 * len(s), -1)
            positive, rows_s = self.signs.take(j, axis=0), rows.take(s, axis=0)
            sub_rows = np.concatenate([rows_s & ~positive, rows_s & positive])
            key = np.concatenate([np.packbits(under, axis=1), np.packbits(sub_rows, axis=1)], axis=1)
            key = key.view(np.dtype((np.void, key.shape[1]))).ravel()
            _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            for out, part in zip((found, best, win), self._cheapest(under[first], sub_rows[first])):
                out[:, lo : lo + len(s)] = part[inverse].reshape(2, -1)
            if nested:
                first = first[under[first].any(axis=1)]
                fresh.append((first // len(s), lo + first % len(s)))
        if nested:
            side, q = (np.concatenate(part) for part in zip(*fresh))
            masks = (self.right, self.left)
            for d, s, j, hit, c, m in zip(
                side.tolist(),
                state[q].tolist(),
                root[q].tolist(),
                found[side, q].tolist(),
                best[side, q].tolist(),
                win[side, q].tolist(),
            ):
                under = block[s][1] & self.pos[j]
                key = block[s][0] & masks[d][j], under if d else block[s][1] ^ under
                if key not in self._stumps:
                    self._stumps[key] = (self._stump_tree(key[1], m), (c, -(1 << last - m))) if hit else None
                    self.batched += 1
        leaves = np.stack(self._leaf_counts(flat, rows), 1)
        leaf_cost = self.objective.count_cost(leaves)
        if self.min_leaf:
            found &= leaves.sum(axis=0) >= self.min_leaf
        # side 0: a leaf on j's positive side and a stump on its negative
        # side; side 1 the other way round, as the recursion orders them
        u, v = np.stack([leaf_cost[0], best[1]]), np.stack([best[0], leaf_cost[1]])
        cost = self.objective.combine(u, v, root).ravel()
        partner, side = win.ravel(), np.repeat([0, 1], len(root))
        state, root = np.tile(state, 2), np.tile(root, 2)
        # ranked as pair ranks them: cost, then the sorted combination, then
        # the root; the first of each state wins (a root and its partner fix
        # the side, the partner being in the root's left set or right set)
        sel = np.flatnonzero(found.ravel())
        low, high = np.minimum(root, partner), np.maximum(root, partner)
        order = sel[np.lexsort((root[sel], high[sel], low[sel], cost[sel], state[sel]))]
        win = order[np.flatnonzero(np.diff(state[order], prepend=-1))]
        results: list = [None] * len(block)
        for s, j, m, d, c in zip(*(a[win].tolist() for a in (state, root, partner, side, cost))):
            pos = block[s][1] & self.pos[j]
            neg = block[s][1] ^ pos
            if d == 0:
                tree = DNode(DLeaf(pos), j, self._stump_tree(neg, m))
            else:
                tree = DNode(self._stump_tree(pos, m), j, DLeaf(neg))
            results[s] = tree, (c, -(1 << last - m) - (1 << last - j))
        return results


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
    at most once per distinct leaf row set, and not for the leaves of states
    solved from count tables.
    """
    if not 0 <= k <= len(rules):
        raise ValueError(f"cannot choose {k} of {len(rules)} rules")
    front = _RuleMasks(rules, data, k, objective, constraints or SolveConstraints())
    if objective.count_cost is not None:
        front.batch()
    best = _optimize(front.root, front.splits, front.leaf, front.combine, stats=stats)
    if stats is not None:
        stats.closed_forms += len(front._stumps) + len(front._pairs)
        stats.batched += front.batched
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
