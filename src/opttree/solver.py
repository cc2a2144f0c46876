"""Objectives and the exact tree optimizers.

Every optimizer is one recursion with a memo, :func:`_optimize`, over a
front end's splits strategy: a state is either a leaf or yields (left state,
rule, right state) triples; both sides are solved, combined, and the
combination whose cost (any value ``<`` orders) is least is kept. The
recursion reads an objective only through its combine step. Because every
shipped objective combines child costs monotonically, taking the minimum
inside the recursion is exact, and each state keeps one candidate. The
search handles costs and winning splits only; the returned tree is built
once, from the root's winners down, after it.

The rule-set front end works on bitmasks: a state is (allowed rules, rows,
rules still to place, depth budget), a root's ancestry row supplies the rules
allowed on each side and its sign pattern the rows; both are bitmasks read
off numpy sign tables.
:func:`solve` covers every k-combination in one recursion whose memo is keyed
by that state: a subproblem shared by many combinations or paths is solved
once. A state with one or two rules left is a leaf of the recursion, solved
in closed form (the cheapest stump over its allowed roots, or the cheapest
root over a leaf and such a stump); leaves are costed once per row mask, and
samples are gathered only for the leaves of the returned tree. For an
objective with a count form and at most three rules to place, the root's one-
and two-rule states are solved first, in numpy, from per-label count tables
(see :class:`_RuleMasks`); the recursion then finds them memoized.
:class:`SolveStats` counts recursion calls (memo hits included), distinct
states, and the closed-form states solved, in Python or from count tables.
Ties compare the rule combination (the lexicographically smallest wins),
then the root (the earliest wins): the recursion minimizes (cost,
-combination mask) pairs, which only ``_RuleMasks.combine`` and the closed
forms build. That is the brute-force answer: the first strictly better cost
over the combinations in lexicographic order, each combination's trees
generated root-first.

The bsp, mcmp and kd front ends key the memo by state too: the optimum of a
state does not depend on how the recursion reached it, and these states
recur many times. Each is a cheap key. A scene state is the tuple of its
fragments' int ids, each (root, fragment) placement computed once per call;
a chain state is a sub-chain's span (i, j), which makes the matrix-chain
solver the classic cubic program; a k-d state is one int, its point mask
with the depth above it, and the kd front end reads a pivot's sides off a
per-dimension table of point masks built once per call and solves a state
with one split level left in closed form. Each tries its candidates in the
order of its specification, ``splits_bsp``, ``splits_mcmp`` and
``splits_kd`` in ``tests/helpers.py``, so ties go to the same tree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Any, Callable, Sequence

import numpy as np

from .data import Dataset
from .rules import _BLOCK, Rule, sign_table
from .rule_systems import MatrixDim, SceneSegment, split_segments
from .trees import DecisionTree, DLeaf, DNode


@dataclass(frozen=True)
class Objective:
    """Leaf cost and a combine step monotone in each child's cost.

    A cost is any value that ``<`` orders, smaller being better; ``combine``
    must be nondecreasing in each child's cost for a fixed branch context,
    which licenses minimizing inside the recursion. The chain cost
    ``(total, rows, cols)`` orders by total: the candidates of one sub-chain
    share rows and cols.

    ``count_cost``, when given, is the leaf cost as a function of per-label
    counts, vectorized: an integer array with one entry per label on axis 0
    maps to the float64 costs of the leaves indexed by its other axes, each
    equal to ``leaf_cost`` of a leaf with those label counts. ``combine``
    must then also apply elementwise to float64 arrays of costs, with an
    array of rule indices as its context. :func:`solve` uses it to cost many
    leaves at once.
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
    depth budget, not on how closed forms are solved. It depends on the data
    under ``min_leaf`` (an infeasible left side skips its right side), and
    once states coincide: two paths reach one state when they leave the same
    rules and rows, which happens from k=5 on typical tables, and earlier
    when two rules have equal rows and equal ancestry sides. ``states`` is
    the number of distinct states the recursion solved, its memo's size on
    return, so ``nodes - states`` are memo hits. ``closed_forms`` is the
    number of one- and two-rule states (allowed rules, rows) solved in closed
    form, the sizes of the stump and pair memos, and ``batched`` how many of
    those came from label-count tables (see :class:`_RuleMasks`). Unlike ``nodes`` and
    ``states``, ``closed_forms`` depends on how the states were solved: the
    Python two-rule closed form memoizes every stump it tries, while the
    count tables memoize only the root's closed-form children.
    """

    nodes: int = 0
    states: int = 0
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


def _words(masks: Sequence[int], width: int) -> np.ndarray:
    """Python int masks of ``width`` bits as uint64 words, one row per mask,
    packed as :func:`_pack` packs booleans; :func:`_masks` inverts it."""
    nwords = (width + 63) // 64
    buf = b"".join(mask.to_bytes(8 * nwords, "little") for mask in masks)
    return np.frombuffer(buf, dtype=np.uint64).reshape(len(masks), nwords)


def _pack(table: np.ndarray) -> np.ndarray:
    """A boolean table of any memory layout packed along its last axis into
    uint64 words: column c at bit c % 8 of byte c // 8, the padding bits
    clear."""
    packed = np.packbits(table, axis=-1, bitorder="little")
    words = np.zeros(packed.shape[:-1] + (-(-packed.shape[-1] // 8) * 8,), dtype=np.uint8)
    words[..., : packed.shape[-1]] = packed
    return words.view(np.uint64)


def _masks(words: np.ndarray) -> list[int]:
    """Each row of packed words as a Python int, so that column c of the
    table :func:`_pack` packed is bit c."""
    return [int.from_bytes(row.tobytes(), "little") for row in words]


def _side_words(rules: Sequence[Rule], signs: np.ndarray, column: dict) -> np.ndarray:
    """[side, root, word]: the -1 (side 0) and +1 (side 1) entries of
    :func:`~opttree.rules.ancestry_matrix`, each root's row packed in the bit
    order of a rule mask, gathered from the signs of each root (``signs``
    row i) at each rule's defining points (``column[q]`` being point q's
    column), a block of roots at a time. Raises the matrix's ValueError."""
    size = len(rules)
    counts = [len(rule.defining_points) for rule in rules]
    bare = [j for j, n in enumerate(counts) if not n]
    if size > 1 and bare:
        # the rule ancestry_matrix meets first: row 0 reads every other
        # column, and rule 0's own column is read from row 1
        j = next((j for j in bare if j), 0)
        raise ValueError(f"rule {j} has no defining points; matrix entry undefined")
    # [slot, rule], rules in mask bit order: the column of each rule's
    # defining point in that slot, a rule with fewer points repeating its last
    slots = [
        [column[rule.defining_points[min(c, n - 1)]] for rule, n in zip(rules[::-1], counts[::-1])]
        for c in range(max(counts, default=0))
    ]
    out = np.empty((2, size, (size + 63) // 64), dtype=np.uint64)
    step = max(1, _BLOCK // max(1, size))
    for lo in range(0, size, step):
        block = signs[lo : lo + step]
        # [root, rule]: whether each root has every, and some, defining point
        # of each rule on its positive side
        left = np.ones((len(block), size), dtype=bool)
        some = np.zeros_like(left)
        for cols in slots:
            at = block.take(cols, axis=1)
            left &= at
            some |= at
        # the diagonal clear on both sides
        roots = np.arange(len(block))
        diagonal = roots, size - 1 - lo - roots
        left[diagonal], some[diagonal] = False, True
        out[0, lo : lo + step], out[1, lo : lo + step] = _pack(~some), _pack(left)
    return out


# bin() digits to compress() selectors
_BITS = bytes.maketrans(b"01", b"\0\1")


def _members(data: Dataset, mask: int) -> Dataset:
    """The samples whose positions are set in ``mask``, in data order."""
    return tuple(compress(data, bin(mask)[:1:-1].encode().translate(_BITS)))


def _optimize(
    root: Any,
    splits: Callable[[Any], list | None],
    leaf: Callable[[Any], Any],
    combine: Callable[[Any, Any, Any], Any],
    tree: Callable[[Any], DecisionTree],
    stats: SolveStats | None = None,
) -> DecisionTree | None:
    """The cheapest tree for the ``root`` state, or None if none is feasible.

    ``splits(state)`` returns None for a leaf state, otherwise the
    (left state, rule, right state) triples to try, in tie-break order.
    ``leaf(state)`` costs a leaf state and returns None when it is infeasible.
    ``combine(left cost, right cost, rule)`` is an objective's combine step,
    the only part of the objective the recursion reads. Every distinct
    (hashable) state is solved once. The search handles values only: each
    state memoizes its cost and keeps its first cheapest candidate, so ties
    go to the earliest, as its winning (left, rule, right). The tree is built
    once, after the search, by following the winners down from the root;
    ``tree(state)`` builds the subtree of a leaf state it reaches.
    """
    memo: dict = {}
    wins: dict = {}

    def rec(state):
        if stats is not None:
            stats.nodes += 1
        if state in memo:
            return memo[state]
        triples = splits(state)
        if triples is None:
            best = leaf(state)
        else:
            best = None
            for left, rule, right in triples:
                u = rec(left)
                if u is None:
                    continue
                v = rec(right)
                if v is None:
                    continue
                cost = combine(u, v, rule)
                if best is None or cost < best:
                    best, win = cost, (left, rule, right)
            if best is not None:
                wins[state] = win
        memo[state] = best
        return best

    def build(state):
        if state not in wins:
            return tree(state)
        left, rule, right = wins[state]
        return DNode(build(left), rule, build(right))

    try:
        return None if rec(root) is None else build(root)
    finally:
        if stats is not None:
            stats.states += len(memo)
        # rec and build reach themselves through their closures; emptying the
        # cells frees the memos on return instead of at the next cyclic
        # collection
        del rec, build


class _RuleMasks:
    """Rule-set front end on bitmasks.

    A state is (allowed rules, rows, rules still to place, depth budget).
    Rule i of a table of K rules is bit K-1-i of a rule mask, so of two
    combinations of equal size the lexicographically smaller one is the
    larger integer; row r is bit r of a row mask. Roots are tried in
    ascending order. A root i splits the remaining rules into its
    left and right sets (the +1 and -1 entries of its ancestry row) and the
    rows into its positive and negative sides, and every division of the
    rules still to place that fits on both sides is a candidate.

    The masks come from one :func:`~opttree.rules.sign_table` per solve,
    with a column for each distinct point among the data rows and, with at
    least two rules to place, the defining points (only rules files have
    defining points that are not data rows). Each rule's positive rows, and
    its left and right sets gathered from its signs at the defining points,
    are packed into uint64 words, and the Python int masks are read off
    those words. They equal what :func:`~opttree.rules.classify` and
    :func:`~opttree.rules.ancestry_matrix` give, bit for bit.

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
    memoized on that pair as (ranked value, winner): a stump's winner is its
    root i, a two-rule state's is (root j, its stump's root m, side), side 0
    putting the stump on j's negative side and side 1 on its positive side.
    Leaf costs are memoized per row mask. No tree is built during the search:
    :meth:`tree` builds the winning tree of a leaf state of the recursion
    from those winners, and gathers samples for its leaves only.

    Values handed to the recursion are ranked (cost, -combination mask)
    pairs: a leaf ranks (cost, 0), and :meth:`combine` is the recursion's
    combine step on them. ``objective`` is the plain one.

    For an objective with a count form and at most three rules to place,
    :meth:`batch` solves the root's one- and two-rule states before the
    recursion starts: the root itself when it has at most two rules to place,
    else those of its children that :meth:`leaf` would solve. Every leaf count
    is an integer popcount over rows packed 64 to a uint64 word, the padding
    bits of the last word clear: a state's count of a label on a rule's
    positive side is the popcount of its rows and the label's rows and the
    rule's positive rows, summed over the words, and the stumps a two-rule
    state tries under a root (its rows on one side of the root, its rules on
    that side) are states too, deduplicated and counted the same way;
    negative sides follow by subtraction. The counts are exact, the count
    form equals ``leaf_cost`` leaf for leaf, and ``combine`` meets the same
    values elementwise, so every cost compared equals the Python closed
    forms'. The work per (state, rule) is linear in N, with no BLAS call: a
    threaded BLAS product of a few MFLOP stalls on its workers. Winners are
    picked in their order too: a stump's is the first cheapest root in
    ascending order; a two-rule state's is the first by cost, then sorted
    rule combination, then root (which, with the combination, fixes the side
    the second rule is on). The results go into the memos of :meth:`stump`
    and :meth:`pair`, as the same (ranked value, winner) pairs.

    The tables pay only against a cold memo. On uniform 2-D data with two
    labels, a root batch breaks even near 14 rules at k=3 (axis N=7) and
    wins from 16 (axis N=8: 0.80-0.87x the time; N=12: 0.43x); k=2 breaks even
    near 16 rules and k=1 near 20. Smaller tables are batched too, and lose
    a fraction of a millisecond per solve (axis N=4, K=8: 0.06 to 0.11 ms at
    k=1, 0.53 to 0.91 ms at k=3; K=16 at k=1: 0.11 to 0.13 ms). Below the
    root, a Python two-rule state finds most of its stumps memoized and pays
    one lookup per root, and batching such states lost at every size tried
    (axis N=12, k=4: 1.16x; hyperplane N=14, k=4: 1.11x). So only the root
    is batched, and only with at most three rules to place: from four on, a
    root batch is even with the Python closed forms or slower (axis N=12,
    k=4: 9.7 against 9.2 ms), so they solve every state.

    :meth:`splits` and :meth:`leaf` read nothing but the four fields, so a
    state's answer is a function of them, and the memo shares it between
    every path and combination that reaches it.
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
        points = [s.point for s in self.data]
        # a tree with fewer than two rules places no rule below another, so
        # only then are the defining points read
        defining = [q for rule in rules for q in rule.defining_points] if k >= 2 else []
        # one sign table column per distinct point, the data rows' first
        column: dict = {}
        for q in points + defining:
            column.setdefault(q, len(column))
        signs = sign_table([rule.kind for rule in rules], list(column))
        # [rule, word]: each rule's positive rows, packed
        self.sign_words = _pack(signs[:, [column[p] for p in points]])
        self.pos = _masks(self.sign_words)
        if k >= 2:
            self.side_words = _side_words(rules, signs, column)
            self.right, self.left = map(_masks, self.side_words)
        else:
            self.side_words = None
            self.left = self.right = [0] * self.size
        # each label's rows packed as [word, label], the table counts are
        # batched from
        self.label_rows = None
        if objective.count_cost is not None and k <= 3:
            codes: dict = {}
            label_of = np.array([codes.setdefault(s.label, len(codes)) for s in self.data], dtype=np.intp)
            onehot = label_of == np.arange(len(codes))[:, None]
            self.label_rows = np.ascontiguousarray(_pack(onehot).T)
        self.batched = 0
        self.root = ((1 << self.size) - 1, (1 << len(self.data)) - 1, k, constraints.max_depth)
        self._costs: dict[int, Any] = {}
        self._stumps: dict[tuple[int, int], tuple[tuple[Any, int], int] | None] = {}
        self._pairs: dict[tuple[int, int], tuple[tuple[Any, int], tuple[int, int, int]] | None] = {}

    def splits(self, state: tuple) -> list | None:
        allowed, rows, count, budget = state
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
            for n in range(max(0, rest - n_right), min(rest, left.bit_count()) + 1):
                left_state = (left, pos, n, sub_budget)
                out.append((left_state, i, (right, rows ^ pos, rest - n, sub_budget)))
        return out

    def combine(self, a: tuple, b: tuple, rule: int) -> tuple[Any, int]:
        """Ranked values of two children combined under ``rule``.

        Rule i is bit size-1-i of the mask, so tuple order compares by cost,
        then by combination, the lexicographically smaller of one size first.
        """
        return self.objective.combine(a[0], b[0], rule), a[1] + b[1] - (1 << self.size - 1 - rule)

    def leaf(self, state: tuple) -> tuple[Any, int] | None:
        allowed, rows, count, budget = state
        if count == 2:
            # the second rule needs a level below the root
            solved = None if budget == 1 else self.pair(allowed, rows)
        elif count:
            solved = self.stump(allowed, rows)
        else:
            cost = self.cost(rows)
            return None if cost is None else (cost, 0)
        return None if solved is None else solved[0]

    def tree(self, state: tuple) -> DecisionTree:
        """The winning tree of a leaf state of the recursion, its leaves
        holding the samples of their rows."""
        allowed, rows, count, _ = state
        data, positive = self.data, self.pos

        def leaf(mask: int) -> DecisionTree:
            return DLeaf(_members(data, mask))

        def stump(mask: int, i: int) -> DecisionTree:
            pos = mask & positive[i]
            return DNode(leaf(pos), i, leaf(mask ^ pos))

        if not count:
            return leaf(rows)
        if count == 1:
            return stump(rows, self._stumps[allowed, rows][1])
        j, m, side = self._pairs[allowed, rows][1]
        pos = rows & positive[j]
        if side == 0:
            return DNode(leaf(pos), j, stump(rows ^ pos, m))
        return DNode(stump(pos, m), j, leaf(rows ^ pos))

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

    def stump(self, allowed: int, rows: int) -> tuple[tuple[Any, int], int] | None:
        """Ranked value and root of the cheapest one-rule tree over ``rows``
        with its root in ``allowed``."""
        key = (allowed, rows)
        if key in self._stumps:
            return self._stumps[key]
        combine, costs, cost = self.objective.combine, self._costs, self.cost
        positive, last = self.pos, self.size - 1
        best = winner = None
        todo = allowed
        while todo:
            top = todo.bit_length() - 1
            todo ^= 1 << top
            i = last - top
            pos = rows & positive[i]
            # the memo read inline; cost fills a miss, min_leaf included
            u = costs[pos] if pos in costs else cost(pos)
            if u is None:
                continue
            neg = rows ^ pos
            v = costs[neg] if neg in costs else cost(neg)
            if v is None:
                continue
            candidate = combine(u, v, i)
            if best is None or candidate < best:
                best, winner = candidate, i
        result = None if best is None else ((best, -(1 << last - winner)), winner)
        self._stumps[key] = result
        return result

    def pair(self, allowed: int, rows: int) -> tuple[tuple[Any, int], tuple[int, int, int]] | None:
        """Ranked value and winner (root, its stump's root, side) of the
        cheapest two-rule tree over ``rows`` with its rules in ``allowed``.

        Side 0 is a leaf on the root's positive side and the stump on its
        negative side, side 1 the other way round.
        """
        key = (allowed, rows)
        if key in self._pairs:
            return self._pairs[key]
        combine, cost, stump = self.objective.combine, self.cost, self.stump
        positive, last = self.pos, self.size - 1
        best = winner = None
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
                        (c, rank), m = v
                        candidate = combine(u, c, i), rank - bit
                        if best is None or candidate < best:
                            best, winner = candidate, (i, m, 0)
            left = allowed & self.left[i]
            if left:
                u = stump(left, pos)
                if u is not None:
                    v = cost(neg)
                    if v is not None:
                        (c, rank), m = u
                        candidate = combine(c, v, i), rank - bit
                        if best is None or candidate < best:
                            best, winner = candidate, (i, m, 1)
        result = None if best is None else (best, winner)
        self._pairs[key] = result
        return result

    def batch(self) -> None:
        """Solve the root's one- and two-rule states from label-count tables.

        Those are the root itself when it has at most two rules to place, and
        otherwise (three rules) its children that :meth:`leaf` would solve.
        Results go into the memos of :meth:`stump` and :meth:`pair`, equal to
        what those would compute. Every temporary is blocked to about
        ``_BLOCK`` entries over states and roots.
        """
        states = [self.root]
        if self.root[2] > 2:
            states = [child for left, _, right in self.splits(self.root) for child in (left, right)]
        stumps: dict = {}
        pairs: dict = {}
        for allowed, rows, n, budget in states:
            if n == 1 and (budget is None or budget >= 1):
                stumps[allowed, rows] = None
            elif n == 2 and (budget is None or budget >= 2):
                pairs[allowed, rows] = None
        last = self.size - 1
        # a root in a block stands for two stumps, each a row over rules and samples
        step = max(1, _BLOCK // (2 * max(1, self.label_rows.shape[1]) * (self.size + len(self.data))))
        for memo, keys in ((self._stumps, list(stumps)), (self._pairs, list(pairs))):
            for lo in range(0, len(keys), step):
                block = keys[lo : lo + step]
                allowed = _words([a for a, _ in block], self.size)
                rows = _words([r for _, r in block], len(self.data))
                if memo is self._stumps:
                    found, best, win = self._cheapest(allowed, rows)
                    results = [
                        ((cost, -(1 << last - i)), i) if hit else None
                        for hit, cost, i in zip(found.tolist(), best.tolist(), win.tolist())
                    ]
                else:
                    results = self._pair_block(allowed, rows, step)
                memo.update(zip(block, results))
        self.batched += len(stumps) + len(pairs)

    def _rules(self, allowed: np.ndarray) -> np.ndarray:
        """Packed rule masks as [mask, rule] booleans, rule j being bit K-1-j."""
        bits = np.unpackbits(allowed.view(np.uint8), axis=1, count=self.size, bitorder="little")
        return bits[:, ::-1].view(bool)

    def _leaf_counts(self, flat: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-label counts of the two leaves of each (state, root) in ``flat``.

        Entry s * size + i of ``flat`` stands for state s's rows, the packed
        words ``rows[s]``, split by rule i. Returns [label, entry] counts on
        the rule's positive side and on its negative side.
        """
        labels, size = self.label_rows.shape[1], self.size
        # [label, state, rule]: the state's rows on the rule's positive side,
        # summed in the narrowest type that holds N; [label, state]: all its rows
        cpos = np.zeros((labels, len(rows), size), dtype=np.min_scalar_type(len(self.data)))
        total = np.zeros((labels, len(rows)), dtype=np.int32)
        for word, signs, label_rows in zip(rows.T, self.sign_words.T, self.label_rows):
            # [label, state]: the state's rows with each label, in this word
            ours = word & label_rows[:, None]
            total += np.bitwise_count(ours)
            cpos += np.bitwise_count(ours[:, :, None] & signs)
        pos = cpos.reshape(labels, len(rows) * size).take(flat, axis=1).astype(np.int32)
        return pos, total.take(flat // size, axis=1) - pos

    def _cheapest(self, allowed: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The first cheapest feasible stump of each state.

        State s holds the rows ``rows[s]`` and may root its stump at the
        rules ``allowed[s]``, both packed words. Returns, per state, whether
        a feasible stump exists, its least cost and the first rule reaching
        it.
        """
        flat = np.flatnonzero(self._rules(allowed))
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

    def _pair_block(self, allowed: np.ndarray, rows: np.ndarray, step: int) -> list:
        """:meth:`pair` of each state s, holding the rows ``rows[s]`` and
        the rules ``allowed[s]``, both packed words.

        Each allowed root j of state s brings two stumps: on j's negative
        side over its right set, and on its positive side over its left set,
        each the AND of packed words. Many (state, root, side) share one such
        stump, so each distinct one is solved once by :meth:`_cheapest`.
        """
        last = self.size - 1
        flat = np.flatnonzero(self._rules(allowed))
        state, root = np.divmod(flat, self.size)  # by state, then ascending root
        found = np.zeros((2, len(state)), dtype=bool)
        best, win = np.empty((2, len(state))), np.empty((2, len(state)), dtype=np.intp)
        for lo in range(0, len(state), step):
            s, j = state[lo : lo + step], root[lo : lo + step]
            under = (allowed.take(s, axis=0) & self.side_words.take(j, axis=1)).reshape(2 * len(s), -1)
            positive, rows_s = self.sign_words.take(j, axis=0), rows.take(s, axis=0)
            sub_rows = np.concatenate([rows_s & ~positive, rows_s & positive])
            key = np.concatenate([under.view(np.uint8), sub_rows.view(np.uint8)], axis=1)
            key = key.view(np.dtype((np.void, key.shape[1]))).ravel()
            _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            for out, part in zip((found, best, win), self._cheapest(under[first], sub_rows[first])):
                out[:, lo : lo + len(s)] = part[inverse].reshape(2, -1)
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
        results: list = [None] * len(rows)
        for s, j, m, d, c in zip(*(a[win].tolist() for a in (state, root, partner, side, cost))):
            results[s] = (c, -(1 << last - m) - (1 << last - j)), (j, m, d)
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

    One recursion covers every k-combination at once: a state (allowed rules,
    rows, rules left, depth budget) is solved once and reused by every path
    and combination that reaches it, and a state with one or two rules left is
    solved in closed form, from count tables for an objective with a count
    form and k <= 3, else in Python. Candidates compare by cost, then by rule
    combination (the lexicographically smallest wins), then by root (the
    earliest wins). The result is the brute-force answer: the first strictly
    better cost over the combinations in lexicographic order, each
    combination's trees generated root-first: the recursion combines with
    :meth:`_RuleMasks.combine`, which ranks (cost, -combination mask) pairs.
    The search keeps values and winners only, and the returned tree is the
    one tree built, with the samples reaching each leaf as its payload.
    The rule masks come from one numpy sign table, over the data and the
    defining points that are not data rows, and equal
    :func:`~opttree.rules.classify` and :func:`~opttree.rules.ancestry_matrix`
    entry for entry (see :class:`_RuleMasks`). ``stats.nodes`` counts the
    recursion calls, memo hits included, with states of at most two rules left
    as leaves (so k < 3 makes one call), and ``stats.states`` the distinct
    states; see :class:`SolveStats`. ``leaf_cost`` is called at most once per
    distinct leaf row set, and not for the leaves of states solved from count
    tables.
    """
    if not 0 <= k <= len(rules):
        raise ValueError(f"cannot choose {k} of {len(rules)} rules")
    front = _RuleMasks(rules, data, k, objective, constraints or SolveConstraints())
    if front.label_rows is not None:
        front.batch()
    best = _optimize(front.root, front.splits, front.leaf, front.combine, front.tree, stats)
    if stats is not None:
        stats.closed_forms += len(front._stumps) + len(front._pairs)
        stats.batched += front.batched
    return best


def solve_bsp(segments: Sequence[SceneSegment]) -> DecisionTree:
    """Smallest partition tree for a scene of segments.

    Every fragment eventually serves as a cut: a region recurses until empty,
    each step consuming one fragment as the branch rule and distributing the
    rest (with fragmentation) to the two sides. Minimized on total node count.

    This is the recursion over ``splits_bsp`` (``tests/helpers.py``), on
    cheaper states. Each distinct fragment gets an int id the first time it
    appears, equal fragments sharing one, and a state is the tuple of its
    fragments' ids, in the order ``splits_bsp`` keeps them. The placement of
    a fragment against a root's line (:func:`split_segments`) is computed
    once per (root, fragment) pair and shared by every state that holds both.
    """
    if not segments:
        raise ValueError("scene has no segments")
    frags: list[SceneSegment] = []
    ids: dict[SceneSegment, int] = {}
    placements: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def intern(seg: SceneSegment) -> int:
        if seg not in ids:
            ids[seg] = len(frags)
            frags.append(seg)
        return ids[seg]

    def splits(state: tuple[int, ...]) -> list | None:
        if not state:
            return None
        out = []
        for a, r in enumerate(state):
            pos: tuple[int, ...] = ()
            neg: tuple[int, ...] = ()
            for b, f in enumerate(state):
                if a == b:
                    continue
                key = r, f
                if key not in placements:
                    sides = split_segments(frags[r], (frags[f],))
                    placements[key] = tuple(map(intern, sides[0])), tuple(map(intern, sides[1]))
                p, q = placements[key]
                pos += p
                neg += q
            out.append((pos, frags[r], neg))
        return out

    def leaf(state: tuple[int, ...]) -> float:
        return TREE_SIZE.leaf_cost(())

    def tree(state: tuple[int, ...]) -> DecisionTree:
        return DLeaf(())

    return _optimize(tuple(map(intern, segments)), splits, leaf, TREE_SIZE.combine, tree)


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
    """Cheapest association order for a matrix chain (leaf-labeled tree).

    This is the recursion over ``splits_mcmp`` (``tests/helpers.py``) with
    each sub-chain named by its span (i, j), matrices i to j - 1: the
    cuts of a span are tried left to right, as ``splits_mcmp`` gives them.
    """
    seq = tuple(dims)
    if not seq:
        raise ValueError("empty matrix chain")
    for a, b in zip(seq, seq[1:]):
        if a.cols != b.rows:
            raise ValueError(f"adjacent matrices do not conform: {a} x {b}")

    def splits(span: tuple[int, int]) -> list | None:
        i, j = span
        # chain nodes carry no rule: the tree shape alone is the association
        return None if j - i == 1 else [((i, m), None, (m, j)) for m in range(i + 1, j)]

    def leaf(span: tuple[int, int]) -> tuple:
        return CHAIN_COST.leaf_cost(seq[span[0]])

    def tree(span: tuple[int, int]) -> DecisionTree:
        return DLeaf(seq[span[0]])

    return _optimize((0, len(seq)), splits, leaf, CHAIN_COST.combine, tree)


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

    A state is one int, ``mask | depth << N``: point i is bit i of the mask.
    The table ``at_most[d][i]``, the points whose coordinate d is at most
    point i's, and the payloads are built once per call, so a pivot's sides
    are two mask operations. Pivots are tried in data order and points tied
    with the pivot go left, as in the ``splits_kd`` specification in
    ``tests/helpers.py``. Leaf costs are memoized per mask. A state with one
    split level left is solved in closed form, like :meth:`_RuleMasks.stump`:
    the cheapest stump over its pivots in data order, the first strict
    minimum winning, each candidate combined with the payload the recursion
    would pass.
    """
    obj = objective or LEAF_BALANCE
    leaf_cost, combine = obj.leaf_cost, obj.combine
    seq = tuple(data)
    n = len(seq)
    every = (1 << n) - 1
    # no data leaves the root a leaf state, which reads no dimension
    ndims = len(seq[0].point) if seq else 0
    at_most = [
        [sum(1 << j for j, s in enumerate(seq) if s.point[d] <= p.point[d]) for p in seq]
        for d in range(ndims)
    ]
    payloads = [[(p.point, d) for p in seq] for d in range(ndims)]
    # the depth whose states have one split level left, solved in closed form
    last = max_depth - 1
    costs: dict[int, Any] = {}
    stumps: dict[int, int] = {}

    def cost(mask: int) -> Any:
        if mask not in costs:
            costs[mask] = leaf_cost(_members(seq, mask))
        return costs[mask]

    def splits(state: int) -> list | None:
        mask, depth = state & every, state >> n
        if not mask or depth >= last:
            return None
        d = depth % ndims
        sides, payload = at_most[d], payloads[d]
        below = (depth + 1) << n
        out = []
        todo = mask
        while todo:
            low = todo & -todo
            todo ^= low
            i = low.bit_length() - 1
            rest = mask ^ low
            left = rest & sides[i]
            out.append((left | below, payload[i], (rest ^ left) | below))
        return out

    def leaf(state: int) -> Any:
        mask = state & every
        if not mask or state >> n != last:
            return cost(mask)
        d = last % ndims
        sides, payload = at_most[d], payloads[d]
        best = winner = None
        todo = mask
        while todo:
            low = todo & -todo
            todo ^= low
            i = low.bit_length() - 1
            rest = mask ^ low
            left = rest & sides[i]
            right = rest ^ left
            # the memo read inline; cost fills a miss
            u = costs[left] if left in costs else cost(left)
            v = costs[right] if right in costs else cost(right)
            candidate = combine(u, v, payload[i])
            if best is None or candidate < best:
                best, winner = candidate, i
        stumps[mask] = winner
        return best

    def tree(state: int) -> DecisionTree:
        mask = state & every
        if not mask or state >> n != last:
            return DLeaf(_members(seq, mask))
        i = stumps[mask]
        rest = mask ^ (1 << i)
        d = last % ndims
        left = rest & at_most[d][i]
        return DNode(DLeaf(_members(seq, left)), payloads[d][i], DLeaf(_members(seq, rest ^ left)))

    return _optimize(every, splits, leaf, combine, tree)
