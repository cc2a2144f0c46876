"""Objectives, the fused-minimum recursion, and the applications.

The rule-set solver is checked against brute force that never touches the
recursion: the generator's constrained trees of each combination, scored one
by one.
"""

import dataclasses
import gc
import itertools
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from opttree import (
    CHAIN_COST,
    EPS,
    LEAF_BALANCE,
    MISCLASSIFICATION,
    TREE_SIZE,
    AxisParallel,
    DLeaf,
    DNode,
    MatrixDim,
    Objective,
    Rule,
    SceneSegment,
    SolveConstraints,
    SolveStats,
    ancestry_matrix,
    bsp_tree_from_order,
    classify,
    depth,
    enumerate_axis_rules,
    enumerate_hyperplane_rules,
    enumerate_surface2_rules,
    hyperplane,
    hyperplane_from_points,
    leaves,
    lift_dataset,
    majority_label,
    make_dataset,
    misclassification_cost,
    node_count,
    parenthesization,
    solve,
    solve_bsp,
    solve_kd,
    solve_mcmp,
    tree_cost,
)
import opttree.rules
import opttree.solver
from opttree.rules import sign_table
from opttree.solver import _masks, _members, _pack, _RuleMasks, _words
from helpers import (
    all_chain_trees,
    all_trees,
    all_trees_constrained,
    bsp_oracle,
    complete_shapes,
    enumerate_permutation_trees,
    kd_oracle,
    level_order,
    random_instance,
)


def test_majority_and_misclassification():
    assert misclassification_cost(()) == 0
    d = make_dataset([(0.0,)] * 3, [1, 1, 2])
    assert majority_label(d) == 1
    assert misclassification_cost(d) == 1
    tie = make_dataset([(0.0,)] * 4, [1, 1, 2, 2])
    assert majority_label(tie) == 1  # tie resolves to the smaller label
    assert misclassification_cost(tie) == 2


def test_misclassification_cost_equals_counter_reference():
    # every subset of a dataset with labels -1, 0 and 2, so 2-way and 3-way
    # majority ties and the empty set all occur
    labels = [-1, 0, 2, 0, -1, 2, 2, -1]
    data = make_dataset([(float(i),) for i in range(len(labels))], labels)
    ties = set()
    for size in range(len(data) + 1):
        for subset in itertools.combinations(data, size):
            counts = Counter(s.label for s in subset)
            want = float(len(subset) - max(counts.values(), default=0))
            got = misclassification_cost(subset)
            assert got == want and type(got) is float
            ties.add(list(counts.values()).count(max(counts.values(), default=0)))
    assert {1, 2, 3} <= ties


def test_members_equals_enumerate_reference():
    data = make_dataset([(float(i),) for i in range(9)], [i % 3 for i in range(9)])
    for mask in range(1 << len(data)):
        want = tuple(data[r] for r, b in enumerate(bin(mask)[:1:-1]) if b == "1")
        assert _members(data, mask) == want
    assert _members(data, 0) == ()
    assert _members(data, (1 << len(data)) - 1) == data


def test_tree_size_cost():
    leaf = DLeaf(())
    assert tree_cost(leaf, TREE_SIZE) == 1
    assert tree_cost(DNode(leaf, None, leaf), TREE_SIZE) == 3
    full2 = DNode(DNode(leaf, None, leaf), None, DNode(leaf, None, leaf))
    assert tree_cost(full2, TREE_SIZE) == 7


def test_chain_cost():
    single = DLeaf(MatrixDim(10, 30))
    assert tree_cost(single, CHAIN_COST)[0] == 0
    dims = [MatrixDim(10, 30), MatrixDim(30, 5), MatrixDim(5, 60)]
    left_assoc = DNode(DNode(DLeaf(dims[0]), None, DLeaf(dims[1])), None, DLeaf(dims[2]))
    right_assoc = DNode(DLeaf(dims[0]), None, DNode(DLeaf(dims[1]), None, DLeaf(dims[2])))
    assert tree_cost(left_assoc, CHAIN_COST)[0] == 4500
    assert tree_cost(right_assoc, CHAIN_COST)[0] == 27000
    with pytest.raises(ValueError):
        tree_cost(DNode(DLeaf(dims[0]), None, DLeaf(dims[2])), CHAIN_COST)


def _oracle_best_score(rules, k, data, objective):
    pairs = enumerate_permutation_trees(rules, k)
    completed = complete_shapes([shape for _, shape in pairs], rules, data)
    scores = [tree_cost(tree, objective) for tree in completed]
    return min(scores) if scores else None


def test_solve_matches_brute_force_small():
    for seed in range(6):
        data = random_instance(seed, n_min=5, n_max=9)
        rules = enumerate_axis_rules(data)
        for k in (1, 2):
            tree = solve(rules, k, data, MISCLASSIFICATION)
            assert tree is not None
            got = tree_cost(tree, MISCLASSIFICATION)
            assert got == _oracle_best_score(rules, k, data, MISCLASSIFICATION)


def test_solve_fixed_combination_matches_per_combination_oracle():
    # a table of exactly the combination's rules: the recursion's winner must
    # hit the minimum over every completed admissible tree of that combination
    for seed in (0, 3, 5):
        data = random_instance(seed, n_min=6, n_max=9)
        rules = enumerate_axis_rules(data)
        matrix = ancestry_matrix(rules)
        for combo in itertools.combinations(range(min(len(rules), 6)), 3):
            tree = solve([rules[i] for i in combo], len(combo), data, MISCLASSIFICATION)
            completed = all_trees(combo, matrix, rules, data)
            assert tree is not None and completed
            want = min(tree_cost(t, MISCLASSIFICATION) for t in completed)
            assert tree_cost(tree, MISCLASSIFICATION) == want


def _uniform_instance(seed, n):
    """n points with coordinates uniform in [0, 10) to three decimals, then n labels."""
    rng = random.Random(seed)
    points = [(round(rng.uniform(0, 10), 3), round(rng.uniform(0, 10), 3)) for _ in range(n)]
    return make_dataset(points, [rng.randint(0, 1) for _ in range(n)])


@pytest.mark.parametrize("seed", [37, 46])
def test_hyperplane_table_reaches_optimum_over_every_point_pair(seed):
    # some point pairs split these eight points alike yet sit on different
    # sides of other rules; a table keeping one rule per data sign pattern
    # scores 1 here, while the optimum over all 28 point-pair lines is 0
    data = _uniform_instance(seed, 8)
    pairs = itertools.combinations([s.point for s in data], 2)
    every_pair = [Rule(hyperplane_from_points(pts), pts) for pts in pairs]
    want = _oracle_best_score(every_pair, 3, data, MISCLASSIFICATION)
    tree = solve(enumerate_hyperplane_rules(data), 3, data, MISCLASSIFICATION)
    assert tree_cost(tree, MISCLASSIFICATION) == want == 0


def _per_sample_axis_rules(data):
    """One axis rule per (dimension, sample), tied thresholds and all."""
    return [
        Rule(AxisParallel(dim, s.point[dim]), (s.point,))
        for dim in range(len(data[0].point))
        for s in data
    ]


def _brute_force_score(rules, k, data):
    matrix = ancestry_matrix(rules)
    trees = (
        tree
        for combo in itertools.combinations(range(len(rules)), k)
        for tree in all_trees(combo, matrix, rules, data)
    )
    return min((tree_cost(tree, MISCLASSIFICATION) for tree in trees), default=None)


def test_axis_table_keeps_tied_thresholds():
    # y <= 0 splits the data alike whether (2, 0) or (1, 0) defines it, but
    # only (1, 0) lies left of x <= 1, where the optimum puts it
    data = make_dataset([(1, 1), (2, 0), (1, 0), (3, 2), (1, 3)], [1, 1, 0, 1, 1])
    tree = solve(enumerate_axis_rules(data), 2, data, MISCLASSIFICATION)
    assert tree_cost(tree, MISCLASSIFICATION) == 0
    assert _brute_force_score(_per_sample_axis_rules(data), 2, data) == 0


@pytest.mark.parametrize("k", [2, 3])
def test_axis_solve_equals_brute_force_on_grid_ties(k):
    # 5-8 distinct points of the grid {0..3}^2 tie in most coordinates; the
    # solve must reach the optimum over one rule per (dimension, sample)
    cells = [(x, y) for x in range(4) for y in range(4)]
    for seed in range(60):
        rng = random.Random(seed)
        points = rng.sample(cells, rng.randint(5, 8))
        data = make_dataset(points, [rng.randint(0, 1) for _ in points])
        tree = solve(enumerate_axis_rules(data), k, data, MISCLASSIFICATION)
        want = _brute_force_score(_per_sample_axis_rules(data), k, data)
        assert tree_cost(tree, MISCLASSIFICATION) == want, f"seed {seed}"


def test_solve_k_zero_and_oversized():
    data = random_instance(3)
    tree = solve([], 0, data, MISCLASSIFICATION)
    assert tree == DLeaf(data)
    with pytest.raises(ValueError):
        solve([], 1, data, MISCLASSIFICATION)


def test_solve_separable_hyperplane_k1():
    # two defining points sit on the separating line and carry the label of
    # the positive side, so one hyperplane rule classifies perfectly
    points = [(0.0, 0.0), (1.0, 0.0), (2.0, 3.0), (0.5, 2.0), (1.0, -2.0), (2.0, -1.0)]
    labels = [1, 1, 1, 1, 0, 0]
    data = make_dataset(points, labels)
    rules = enumerate_hyperplane_rules(data)
    tree = solve(rules, 1, data, MISCLASSIFICATION)
    assert tree_cost(tree, MISCLASSIFICATION) == 0


def test_solve_respects_constraints():
    for seed in (2, 7):
        data = random_instance(seed, n_min=6, n_max=9)
        rules = enumerate_axis_rules(data)[:4]
        matrix = ancestry_matrix(rules)
        idx = tuple(range(len(rules)))[:3]
        cons = SolveConstraints(min_leaf=1, max_depth=2)
        tree = solve([rules[i] for i in idx], len(idx), data, MISCLASSIFICATION, cons)
        candidates = all_trees_constrained(idx, matrix, rules, data, 1, 2)
        if tree is None:
            assert candidates == []
        else:
            assert all(len(leaf) >= 1 for leaf in leaves(tree))
            assert depth(tree) <= 2
            best = min(tree_cost(t, MISCLASSIFICATION) for t in candidates)
            assert tree_cost(tree, MISCLASSIFICATION) == best


def test_solve_infeasible_returns_none():
    data = random_instance(5, n_min=4, n_max=6)
    rules = enumerate_axis_rules(data)[:2]
    cons = SolveConstraints(min_leaf=len(data) + 1)
    assert solve(rules, 2, data, MISCLASSIFICATION, cons) is None


def test_solve_is_deterministic():
    # the same inputs must return the identical tree, not just an equal score
    for seed in (0, 8):
        data = random_instance(seed, n_min=6, n_max=9)
        rules = enumerate_axis_rules(data)
        first = solve(rules, 2, data, MISCLASSIFICATION)
        second = solve(rules, 2, data, MISCLASSIFICATION)
        assert first == second


def test_solve_ties_pick_earliest_root_then_smallest_combination():
    # every label is equal, so every tree over every combination scores 0;
    # rule j lies on the positive side of every rule i < j, so all roots are
    # feasible and the winner is combination (0, 1, 2) with root 0, then
    # root 1 over {1, 2}, both later rules on the positive side
    data = make_dataset([(float(i), 0.0) for i in range(5)], [1] * 5)
    tree = solve(chain_rules(4), 3, data, MISCLASSIFICATION)
    assert tree.rule_id == 0 and tree.left.rule_id == 1 and tree.left.left.rule_id == 2
    assert isinstance(tree.right, DLeaf) and isinstance(tree.left.right, DLeaf)
    # one rule: every stump ties at 0, so rule 0 wins, and under min_leaf the
    # earliest rule both of whose sides are large enough
    assert solve(chain_rules(4), 1, data, MISCLASSIFICATION).rule_id == 0
    cons = SolveConstraints(min_leaf=2)
    assert solve(chain_rules(4), 1, data, MISCLASSIFICATION, cons).rule_id == 2


def _per_combination_reference(rules, k, data, objective, constraints):
    # brute force: every constrained tree of every combination, generated
    # root-first, combinations in lexicographic order; only a strictly better
    # score replaces the incumbent, so the earliest tree wins among equals
    cons = constraints or SolveConstraints()
    matrix = ancestry_matrix(rules)
    best = best_score = None
    for combo in itertools.combinations(range(len(rules)), k):
        trees = all_trees_constrained(combo, matrix, rules, data, cons.min_leaf, cons.max_depth)
        for tree in trees:
            score = tree_cost(tree, objective)
            if best is None or score < best_score:
                best, best_score = tree, score
    return best


def closed_form_paths(objective):
    """The objective as given, whose count form solves the root's one- and
    two-rule states from count tables at k <= 3, and without it, so that the
    Python closed forms solve every state."""
    return objective, dataclasses.replace(objective, count_cost=None)


def _table(kind, data):
    """The first eight rules of a kind's table, and the space they split."""
    if kind == "axis":
        rules, space = enumerate_axis_rules(data), data
    elif kind == "hyperplane":
        rules, space = enumerate_hyperplane_rules(data), data
    else:
        rules, space = enumerate_surface2_rules(data), lift_dataset(data)
    return rules[:8], space


@pytest.mark.parametrize("kind", ["axis", "hyperplane", "surface2"])
def test_solve_equals_per_combination_reference(kind):
    # the combination-free solve must return the very tree the brute force
    # returns, not just one with the same score, on either closed-form path
    constraint_sets = [
        None,
        SolveConstraints(min_leaf=2),
        SolveConstraints(min_leaf=1, max_depth=2),
        SolveConstraints(max_depth=0),
    ]
    for seed in (3, 11, 19):
        rules, space = _table(kind, random_instance(seed, n_min=6, n_max=8))
        for k in range(4):
            for cons in constraint_sets:
                for objective in (MISCLASSIFICATION, TREE_SIZE, LEAF_BALANCE):
                    want = _per_combination_reference(rules, k, space, objective, cons)
                    for path in closed_form_paths(objective):
                        assert solve(rules, k, space, path, cons) == want


def _tie_heavy_instances():
    # small integer grids, so coordinates and sides tie often
    grid = [(0, 0), (2, 0), (0, 4), (1, 1), (2, 3), (2, 4), (3, 1)]
    twice = [(0, 0), (2, 0), (0, 4), (1, 1), (2, 3), (2, 4), (2, 4), (1, 1)]
    return {
        # every tree of every combination scores the same: ties decide alone
        "single-label": make_dataset(grid, [1] * len(grid)),
        # at k=3 on the axis table, one-rule states with equal rows but
        # different allowed rules have different winners
        "duplicates": make_dataset(twice, [0, 1, 1, 1, 1, 1, 0, 1]),
        "three-labels": make_dataset(grid, [2, -1, 0, -1, 2, 0, -1]),
        # four points on y = x: the first eight hyperplane rules hold five
        # lines through two of them, one line with different defining points
        "collinear-run": make_dataset([(0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (3, 1), (1, 3)], [0, 1, 0, 1, 1, 0, 0]),
    }


@pytest.mark.parametrize("name", ["single-label", "duplicates", "three-labels", "collinear-run"])
@pytest.mark.parametrize("kind", ["axis", "hyperplane", "surface2"])
def test_solve_equals_reference_on_tie_heavy_inputs(kind, name):
    # one- and two-rule states are solved in closed form, from count tables
    # or in Python; the winner must still be the brute force's tree. From
    # k=3 on two-rule states sit below the root, and from k=5 on states
    # reached by different paths coincide and share one answer
    rules, data = _table(kind, _tie_heavy_instances()[name])
    # min_leaf=2 leaves some roots of a one-rule state without a feasible
    # side; a conic through five of the eight duplicated points leaves at
    # most one on its negative side, so on those points no root has one
    sizes = [sum(classify(r, s.point) > 0 for s in data) for r in rules]
    assert any(min(n, len(data) - n) < 2 for n in sizes)
    some_feasible = any(min(n, len(data) - n) >= 2 for n in sizes)
    assert some_feasible == (kind != "surface2" or name != "duplicates")
    constraint_sets = [
        None,
        SolveConstraints(min_leaf=2),
        SolveConstraints(max_depth=1),
        SolveConstraints(max_depth=2),
        SolveConstraints(min_leaf=2, max_depth=2),
    ]
    for k in (1, 2, 3, 4, 5):
        for cons in constraint_sets:
            for objective in (MISCLASSIFICATION, LEAF_BALANCE, TREE_SIZE):
                want = _per_combination_reference(rules, k, data, objective, cons)
                for path in closed_form_paths(objective):
                    assert solve(rules, k, data, path, cons) == want
                if cons is None:
                    assert want is not None
                elif cons == SolveConstraints(max_depth=1):
                    # a second rule needs a second level
                    assert (want is None) == (k >= 2)


def grid_axis_rules():
    rules = []
    for dim in range(2):
        for t in (2.5, 5.0, 7.5):
            point = (t, 0.0) if dim == 0 else (0.0, t)
            rules.append(Rule(AxisParallel(dim, t), (point,)))
    return rules


def _boundary_tables():
    """Rule tables (with their data) whose defining points lie on other rules' boundaries."""
    cells = [(x, y) for x in range(4) for y in range(3)]
    grid = make_dataset(cells, [(x + y) % 2 for x, y in cells])
    # both rules at threshold t are defined by (t, t), on each other's boundary
    diagonal = [
        Rule(AxisParallel(dim, t), ((t, t),))
        for t in (2.5, 5.0, 7.5)
        for dim in (0, 1)
    ]
    # the defining points of the diagonals straddle the vertical and
    # horizontal lines through the middle, and the other way round
    cross = make_dataset([(0, 0), (2, 2), (0, 2), (2, 0), (1, 0), (1, 2), (0, 1), (2, 1)])
    small = make_dataset([(x % 3, x // 3) for x in range(8)], [x % 2 for x in range(8)])
    # a rules-file table: axis rules have one defining point, hyperplanes two
    mixed = [Rule(AxisParallel(0, 1.0), ((1.0, 1.0),))]
    mixed.append(Rule(AxisParallel(1, 1.0), ((2.0, 1.0),)))
    mixed += enumerate_hyperplane_rules(grid)[:12]
    # a rules file's defining points need not be data rows: all but one of
    # these are off the grid, (1.5, 1.5) is shared by two rules and lies on
    # the x=1.5 boundary, as do both points of the vertical line
    off_grid = [
        Rule(AxisParallel(0, 1.5), ((1.5, 0.5),)),
        Rule(AxisParallel(1, 1.5), ((1.5, 1.5),)),
        Rule(AxisParallel(0, 2.0), ((2.0, 1.0),)),
    ]
    for pts in [((0.5, 0.5), (2.5, 1.5)), ((1.5, 0.0), (1.5, 3.0)), ((0.5, 2.5), (3.5, -0.5)), ((1.5, 1.5), (3.5, 0.5))]:
        off_grid.append(Rule(hyperplane_from_points(pts), pts))
    # a repeated point: its rules read the first of its rows
    twice = make_dataset([(0, 0), (1, 1), (2, 0), (1, 1), (0, 2), (2, 2), (3, 1)], [0, 1, 1, 0, 1, 0, 1])
    return {
        "axis-grid": (enumerate_axis_rules(grid), grid),
        "axis-ties": (diagonal, make_dataset([(t, 5.0) for t in (0.0, 2.5, 5.0, 7.5, 9.0)])),
        "hyperplane-grid": (enumerate_hyperplane_rules(grid), grid),
        "hyperplane-straddle": (enumerate_hyperplane_rules(cross), cross),
        "surface2-grid": (enumerate_surface2_rules(small), lift_dataset(small)),
        "mixed": (mixed, grid),
        "rules-file": (off_grid, grid),
        "repeated-point": (enumerate_axis_rules(twice) + enumerate_hyperplane_rules(twice), twice),
    }


@pytest.mark.parametrize("name", list(_boundary_tables()))
def test_rule_masks_equal_ancestry_matrix_and_classify(name):
    rules, data = _boundary_tables()[name]
    matrix = ancestry_matrix(rules)
    front = _RuleMasks(rules, data, 2, MISCLASSIFICATION, SolveConstraints())
    size = len(rules)
    for i, row in enumerate(matrix):
        assert front.left[i] == sum(1 << (size - 1 - j) for j, e in enumerate(row) if e > 0)
        assert front.right[i] == sum(1 << (size - 1 - j) for j, e in enumerate(row) if e < 0)
        positive = [classify(rules[i], s.point) > 0 for s in data]
        assert front.pos[i] == sum(1 << r for r, p in enumerate(positive) if p)
    assert len({e for row in matrix for e in row}) == 3 or name == "surface2-grid"
    points = [s.point for s in data]
    defining = {q for rule in rules for q in rule.defining_points}
    assert name != "rules-file" or len(defining - set(points)) > 1
    assert name != "repeated-point" or len(set(points)) < len(points)
    # some defining point sits on another rule's boundary, within EPS
    assert any(
        _on_boundary(ri.kind, q)
        for ri in rules
        for rj in rules
        if rj is not ri
        for q in rj.defining_points
    )


def _on_boundary(kind, q):
    if isinstance(kind, AxisParallel):
        return q[kind.dim] == kind.threshold
    return abs(kind.bias + sum(w * c for w, c in zip(kind.weights, q))) <= EPS


def test_masks_put_column_c_at_bit_c():
    table = np.array([[True, False, True] + [False] * 8 + [True], [False] * 12, [True] * 12])
    words = _pack(table)
    assert _masks(words) == [1 | 4 | 1 << 11, 0, (1 << 12) - 1]
    assert np.array_equal(_words(_masks(words), 12), words)
    assert _masks(_pack(np.zeros((2, 0), dtype=bool))) == [0, 0]
    wide = np.zeros((1, 130), dtype=bool)
    wide[0, [0, 63, 64, 129]] = True
    assert _masks(_pack(wide)) == [1 | 1 << 63 | 1 << 64 | 1 << 129]
    # a column gather leaves a Fortran-ordered table, whose packed bytes
    # are not contiguous by rows
    rng = np.random.default_rng(0)
    for width in (5, 50, 56, 64, 120):
        table = rng.random((3, width)) < 0.5
        gathered = table[:, list(range(width))]
        assert gathered.flags.f_contiguous
        assert np.array_equal(_pack(gathered), _pack(table))
        assert _masks(_pack(table)) == [sum(1 << c for c in range(width) if row[c]) for row in table]


def test_rule_masks_construction_stays_below_two_bytes_per_rule_pair():
    # no K x K table of bytes: the sides are packed 64 rules to a word
    data = _distinct_points(0, 14)
    rules = enumerate_surface2_rules(data)
    size = len(rules)
    assert size == 2002
    space = lift_dataset(data)
    gc.collect()
    tracemalloc.start()
    try:
        _RuleMasks(rules, space, 2, MISCLASSIFICATION, SolveConstraints())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * size * size


@pytest.mark.parametrize("k", [1, 2, 3])
def test_solve_builds_one_sign_table(k, monkeypatch):
    calls = []

    def counted(kinds, points):
        calls.append(len(points))
        return sign_table(kinds, points)

    data = _distinct_points(4, 9)
    for module in (opttree.rules, opttree.solver):
        monkeypatch.setattr(module, "sign_table", counted)
    # hyperplanes have two defining points each, and a rules file's need
    # not be data rows
    rules = enumerate_hyperplane_rules(data)[:20]
    for table in (rules, rules + [Rule(AxisParallel(0, 5.5), ((5.5, 5.5),))]):
        calls.clear()
        assert solve(table, k, data, MISCLASSIFICATION) is not None
        assert len(calls) == 1
        assert calls[0] == len(data) + (k >= 2 and table is not rules)


def test_rule_masks_below_two_rules_skip_ancestry():
    rules = grid_axis_rules() + [Rule(AxisParallel(0, 1.0))]
    data = make_dataset([(1.0, 2.0), (6.0, 8.0)])
    front = _RuleMasks(rules, data, 1, MISCLASSIFICATION, SolveConstraints())
    assert front.left == front.right == [0] * len(rules)
    # with two rules to place the ancestry is needed, and undefined without
    # defining points, as in ancestry_matrix
    with pytest.raises(ValueError):
        ancestry_matrix(rules)
    with pytest.raises(ValueError):
        solve(rules, 2, data, MISCLASSIFICATION)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_solve_nodes_independent_of_data_and_below_per_combination_sum(k):
    rules = grid_axis_rules()
    counts = []
    for n in (20, 200):
        rng = random.Random(n)
        data = make_dataset(
            [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)],
            [rng.randint(0, 1) for _ in range(n)],
        )
        stats = SolveStats()
        assert solve(rules, k, data, MISCLASSIFICATION, stats=stats) is not None
        counts.append(stats.nodes)
    assert counts[0] == counts[1]
    # a state with at most two rules left is a leaf of the recursion
    assert counts[0] == {2: 1, 3: 25, 4: 97, 5: 129}[k]
    per_combination = 0
    for combo in itertools.combinations(range(len(rules)), k):
        stats = SolveStats()
        solve([rules[i] for i in combo], k, data, MISCLASSIFICATION, stats=stats)
        per_combination += stats.nodes
    assert counts[0] < per_combination


@pytest.mark.parametrize(
    "k, max_depth, nodes",
    [(3, 1, 15), (3, 2, 19), (3, 3, 25), (4, 1, 13), (4, 2, 57), (4, 3, 79)],
)
def test_solve_nodes_under_max_depth_independent_of_data(k, max_depth, nodes):
    # the budget checks depend on the depth budget and the rules left, not on
    # the data; a tree of depth d holds at most 2**d - 1 rules
    rules = grid_axis_rules()
    counts = []
    for n in (20, 200):
        rng = random.Random(n)
        data = make_dataset(
            [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)],
            [rng.randint(0, 1) for _ in range(n)],
        )
        stats = SolveStats()
        tree = solve(rules, k, data, MISCLASSIFICATION, SolveConstraints(max_depth=max_depth), stats=stats)
        assert (tree is None) == (max_depth < k.bit_length())
        counts.append(stats.nodes)
    assert counts == [nodes, nodes]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_solve_nodes_is_one_call_below_three_rules(k):
    for seed in (0, 4):
        data = random_instance(seed, n_min=6, n_max=9)
        for rules in (grid_axis_rules(), enumerate_axis_rules(data), enumerate_hyperplane_rules(data)):
            for cons in (None, SolveConstraints(min_leaf=2, max_depth=1), SolveConstraints(max_depth=0)):
                stats = SolveStats()
                solve(rules, k, data, MISCLASSIFICATION, cons, stats=stats)
                assert stats.nodes == stats.states == 1


def test_solve_costs_each_leaf_row_set_once():
    # every label is distinct, so a leaf's labels name its rows: the per-row
    # mask memo must hand each distinct leaf to leaf_cost once
    rng = random.Random(8)
    data = make_dataset([(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(9)], range(9))
    rules = enumerate_axis_rules(data)
    for k in (0, 1, 2, 3):
        for cons in (None, SolveConstraints(min_leaf=2)):
            costed = []

            def leaf_cost(leaf):
                costed.append(tuple(s.label for s in leaf))
                return misclassification_cost(leaf)

            tree = solve(rules, k, data, Objective(leaf_cost, MISCLASSIFICATION.combine), cons)
            assert tree == solve(rules, k, data, MISCLASSIFICATION, cons)
            assert costed
            assert len(costed) == len(set(costed))


def _distinct_points(seed, n):
    # distinct x and distinct y on a 0.01 grid, two labels
    rng = random.Random(seed)
    xs, ys = rng.sample(range(1000), n), rng.sample(range(1000), n)
    return make_dataset([(x / 100, y / 100) for x, y in zip(xs, ys)], [rng.randint(0, 1) for _ in range(n)])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_closed_form_paths_agree_on_large_hyperplane_table(k):
    # a table too large for the brute force: both closed-form paths must
    # return the same tree after the same recursion
    data = _distinct_points(20, 20)
    rules = enumerate_hyperplane_rules(data)
    if k == 3:
        rules = rules[:40]
    for cons in (None, SolveConstraints(min_leaf=3)):
        for objective in (MISCLASSIFICATION, LEAF_BALANCE, TREE_SIZE):
            results = []
            for path in closed_form_paths(objective):
                stats = SolveStats()
                results.append((solve(rules, k, data, path, cons, stats=stats), stats.nodes))
            assert results[0] == results[1]


def test_closed_form_paths_agree_without_data():
    # no rows leave the count tables without a label
    rules = enumerate_axis_rules(_distinct_points(3, 10))
    for k in (1, 2, 3):
        trees = [solve(rules, k, (), path) for path in closed_form_paths(MISCLASSIFICATION)]
        assert trees[0] == trees[1] is not None


@pytest.mark.parametrize("n", [50, 63, 64, 65, 129])
def test_closed_form_paths_agree_across_word_boundaries(n):
    # the count tables pack rows 64 to a word: the padding bits of the last
    # word must count nothing
    data = _distinct_points(n, n)
    rules = enumerate_axis_rules(data)
    rules = rules[:: len(rules) // 12]
    for k, cons, objective in itertools.product(
        (1, 2, 3), (None, SolveConstraints(min_leaf=n // 8)), (MISCLASSIFICATION, LEAF_BALANCE)
    ):
        results = []
        for path in closed_form_paths(objective):
            stats = SolveStats()
            results.append((solve(rules, k, data, path, cons, stats=stats), stats.nodes, stats.states))
        assert results[0] == results[1]
        assert results[0][0] is not None


def test_solve_stats_count_closed_forms():
    data = _distinct_points(1, 26)
    stats = SolveStats()
    solve(enumerate_hyperplane_rules(data), 1, data, MISCLASSIFICATION, stats=stats)
    # the root is the one one-rule state, solved from count tables
    assert stats.batched == stats.closed_forms == 1
    rules = enumerate_axis_rules(data[:12])
    for k in (1, 2, 3, 4, 5):
        tables, python = SolveStats(), SolveStats()
        for path, stats in zip(closed_form_paths(MISCLASSIFICATION), (tables, python)):
            solve(rules, k, data, path, stats=stats)
        # the path changes no recursion call and no state
        assert tables.nodes == python.nodes
        assert tables.states == python.states
        # below three rules the root is the one state; deeper, memo hits
        # make the calls outnumber the distinct states
        assert (tables.states == 1) == (k < 3)
        assert tables.states < tables.nodes or k < 5
        # without a count form nothing comes from count tables
        assert python.batched == 0 < python.closed_forms
        if k <= 3:
            # below a root with at most three rules to place, every closed
            # form comes from count tables, and only the states the recursion
            # meets are memoized; the Python pair also memoizes the stumps it
            # tries, so from two rules on its memos hold more
            assert tables.batched == tables.closed_forms
            assert (tables.closed_forms == 1) == (k <= 2)
            assert (tables.closed_forms == python.closed_forms) == (k == 1)
        else:
            # from four rules on no count table is built: the Python closed
            # forms solve every state on both paths
            assert tables.batched == 0
            assert tables.closed_forms == python.closed_forms


@pytest.mark.parametrize("objective", [MISCLASSIFICATION, LEAF_BALANCE, TREE_SIZE])
def test_count_cost_equals_leaf_cost(objective):
    # labels on axis 0; any leaf shape after it; int or float counts
    rng = random.Random(5)
    for alphabet in ((3,), (0, -1), (-4, 2, 9)):
        leaves = [()] + [tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 9))) for _ in range(20)]
        want = [objective.leaf_cost(make_dataset([(0.0,)] * len(leaf), leaf)) for leaf in leaves]
        counts = np.array([[leaf.count(label) for leaf in leaves] for label in alphabet])
        for table in (counts, counts.astype(float), counts.reshape(len(alphabet), 3, 7)):
            got = objective.count_cost(table)
            assert got.dtype == np.float64
            assert got.ravel().tolist() == want


def test_solvers_leave_no_cyclic_garbage():
    # every memo and winner is freed on return, without the cyclic collector
    data = random_instance(2, n_min=8, n_max=8)
    gc.collect()
    gc.disable()
    try:
        solve(enumerate_axis_rules(data), 2, data, MISCLASSIFICATION)
        solve_mcmp([MatrixDim(a, b) for a, b in ((3, 5), (5, 2), (2, 7), (7, 4))])
        solve_kd(data, 3)
        solve_bsp([_seg(0, 0, 4, 0, 0), _seg(1, -2, 1, 3, 1), _seg(-1, 1, 5, 2, 2)])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_solvers_build_one_node_per_internal_node(monkeypatch):
    # the search handles values only: the returned tree is the only one built
    import opttree.solver

    built = []

    def counted(left, rule, right):
        built.append(rule)
        return DNode(left, rule, right)

    monkeypatch.setattr(opttree.solver, "DNode", counted)

    def check(tree):
        assert sorted(map(repr, built)) == sorted(map(repr, level_order(tree)))
        built.clear()

    data = random_instance(4, n_min=8, n_max=8)
    rules = enumerate_axis_rules(data)
    for k in range(6):
        for path in closed_form_paths(MISCLASSIFICATION):
            check(solve(rules, k, data, path))
    for max_depth in range(4):
        check(solve_kd(data, max_depth))
    check(solve_mcmp([MatrixDim(a, b) for a, b in ((3, 5), (5, 2), (2, 7), (7, 4))]))
    check(solve_bsp([_seg(0, 0, 4, 0, 0), _seg(1, -2, 1, 3, 1), _seg(-1, 1, 5, 2, 2)]))


def chain_rules(k):
    return [Rule(hyperplane((1.0, 0.0), -float(i)), ((float(i), 0.0),)) for i in range(k)]


def test_recursion_nodes_independent_of_data_size():
    rules = chain_rules(3)
    counts = []
    for n in (20, 200):
        data = make_dataset([(i * 0.1, 0.0) for i in range(n)], [i % 2 for i in range(n)])
        stats = SolveStats()
        solve(rules, 3, data, MISCLASSIFICATION, stats=stats)
        counts.append(stats.nodes)
    assert counts[0] == counts[1]


def _seg(x1, y1, x2, y2, payload):
    return SceneSegment((float(x1), float(y1)), (float(x2), float(y2)), payload)


def test_solve_bsp_single_segment():
    tree = solve_bsp([_seg(0, 0, 1, 0, 0)])
    assert node_count(tree) == 3


def test_solve_bsp_two_crossing_segments():
    # extending lines cross but neither cuts the other segment's interior:
    # both orders avoid fragmentation, 2 branches + 3 leaves either way
    a = _seg(0, 0, 1, 0, 0)
    b = _seg(5, 1, 5, 2, 1)
    tree = solve_bsp([a, b])
    assert node_count(tree) == 5
    # force fragmentation: every root's line now cuts the other segment
    c = _seg(0, 0, 4, 0, 0)
    d = _seg(2, -1, 2, 1, 1)
    tree2 = solve_bsp([c, d])
    assert node_count(tree2) == 7


def test_solve_bsp_never_beaten_by_random_orders():
    rng = random.Random(99)
    for _ in range(5):
        segs = []
        for i in range(4):
            x1, y1 = rng.randint(0, 8), rng.randint(0, 8)
            x2, y2 = rng.randint(0, 8), rng.randint(0, 8)
            if (x1, y1) == (x2, y2):
                x2 += 1
            segs.append(_seg(x1, y1, x2, y2, i))
        best = node_count(solve_bsp(segs))
        for _ in range(40):
            order = list(range(len(segs)))
            rng.shuffle(order)
            assert best <= node_count(bsp_tree_from_order(segs, order))


def test_solve_mcmp_classic():
    dims = [MatrixDim(10, 30), MatrixDim(30, 5), MatrixDim(5, 60)]
    tree = solve_mcmp(dims)
    assert tree_cost(tree, CHAIN_COST)[0] == 4500
    assert parenthesization(tree) == "((A×B)×C)"
    single = solve_mcmp([MatrixDim(4, 9)])
    assert tree_cost(single, CHAIN_COST)[0] == 0
    with pytest.raises(ValueError):
        solve_mcmp([MatrixDim(2, 3), MatrixDim(4, 5)])


def _classic_chain_dp(values):
    # textbook cubic dynamic program over the dimension vector
    n = len(values) - 1
    cost = [[0] * n for _ in range(n)]
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            cost[i][j] = min(
                cost[i][m] + cost[m + 1][j] + values[i] * values[m + 1] * values[j + 1]
                for m in range(i, j)
            )
    return cost[0][n - 1]


def test_solve_mcmp_matches_cubic_dp():
    rng = random.Random(12)
    chains = [[rng.randint(1, 12) for _ in range(rng.randint(2, 7))] for _ in range(10)]
    chains.append([rng.randint(1, 12) for _ in range(41)])  # a 40-matrix chain
    for values in chains:
        dims = [MatrixDim(a, b) for a, b in zip(values, values[1:])]
        assert tree_cost(solve_mcmp(dims), CHAIN_COST)[0] == _classic_chain_dp(values)


KD_SEVEN = [(30, 40), (5, 25), (10, 12), (70, 70), (50, 30), (35, 45), (60, 10)]


def _level_dims(tree):
    dims = []
    frontier = [tree]
    while any(isinstance(n, DNode) for n in frontier):
        level = {n.rule_id[1] for n in frontier if isinstance(n, DNode)}
        assert len(level) == 1, "split dimensions differ within one level"
        dims.append(level.pop())
        nxt = []
        for n in frontier:
            if isinstance(n, DNode):
                nxt.extend([n.left, n.right])
        frontier = nxt
    return dims


def test_solve_kd_seven_point_layout():
    data = make_dataset(KD_SEVEN)
    tree = solve_kd(data, 3)
    assert _level_dims(tree) == [0, 1, 0]
    assert depth(tree) == 3


def test_solve_kd_single_point():
    data = make_dataset([(2.0, 1.0)])
    assert solve_kd(data, 0) == DLeaf(data)
    tree = solve_kd(data, 1)
    assert isinstance(tree, DNode)
    assert leaves(tree) == [(), ()]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_kd_matches_exhaustive(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    data = make_dataset([(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)])
    for max_depth in range(5):
        tree = solve_kd(data, max_depth)
        cost, want = kd_oracle(data, max_depth, LEAF_BALANCE)
        assert tree == want
        assert tree_cost(tree, LEAF_BALANCE) == cost


# combine reads the (pivot point, dimension) payload, so a closed form that
# passes another pivot's payload, or another level's dimension, scores differently
PIVOT_SENSITIVE = Objective(LEAF_BALANCE.leaf_cost, lambda a, b, ctx: a + b + ctx[0][ctx[1]] + 2 * ctx[1])


def test_solve_kd_equals_tuple_state_reference():
    # the int states must give the very tree the exhaustive recursion over
    # (point tuple, depth) states gives, ties included: coordinates on a
    # small grid tie often, and duplicates occur
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(0, 8)
        points = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(n)]
        points += points[:2]
        data = make_dataset(points, [rng.randint(0, 1) for _ in points])
        for max_depth in range(5):
            for objective in (LEAF_BALANCE, MISCLASSIFICATION, PIVOT_SENSITIVE):
                got = solve_kd(data, max_depth, objective=objective)
                assert got == kd_oracle(data, max_depth, objective)[1]


def test_solve_bsp_equals_first_smallest_tree():
    # ties between equally small trees go to the first root, as in the
    # exhaustive recursion over splits_bsp: scenes of crossing segments and
    # of collinear and parallel ones
    scenes = [
        [_seg(0, 0, 4, 0, 0), _seg(1, -2, 1, 3, 1), _seg(3, -1, 3, 2, 2), _seg(-1, 1, 5, 2, 3)],
        [_seg(0, 0, 1, 0, 0), _seg(2, 0, 3, 0, 1), _seg(1, 1, 2, 1, 2), _seg(1.5, -1, 1.5, 2, 3)],
        [_seg(0, 0, 2, 2, 0), _seg(0, 2, 2, 0, 1), _seg(1, -1, 1, 3, 2)],
    ]
    rng = random.Random(7)
    for i in range(12):
        segs = []
        while len(segs) < 4:
            x1, y1, x2, y2 = (rng.randint(0, 4) for _ in range(4))
            if (x1, y1) != (x2, y2):
                segs.append(_seg(x1, y1, x2, y2, len(segs)))
        scenes.append(segs)
    for segs in scenes:
        tree = solve_bsp(segs)
        nodes, want = bsp_oracle(segs)
        assert tree == want
        assert node_count(tree) == nodes


def test_solve_mcmp_ties_go_to_the_first_cheapest_chain_tree():
    # every dimension equal ties every association; small dimensions tie some
    chains = [[2] * (n + 1) for n in range(1, 8)]
    rng = random.Random(3)
    chains += [[rng.randint(1, 2) for _ in range(rng.randint(3, 8))] for _ in range(20)]
    for values in chains:
        dims = [MatrixDim(a, b) for a, b in zip(values, values[1:])]
        want = min(all_chain_trees(dims), key=lambda t: tree_cost(t, CHAIN_COST)[0])
        assert solve_mcmp(dims) == want


def test_monotone_combine_for_all_objectives():
    rng = random.Random(5)
    for _ in range(200):
        a, a2 = sorted([rng.uniform(0, 50), rng.uniform(0, 50)])
        b, b2 = sorted([rng.uniform(0, 50), rng.uniform(0, 50)])
        for obj in (MISCLASSIFICATION, TREE_SIZE, LEAF_BALANCE):
            assert obj.combine(a, b, None) <= obj.combine(a2, b2, None)
        p, q, r = rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9)
        lo = CHAIN_COST.combine((a, p, q), (b, q, r), None)
        assert lo <= CHAIN_COST.combine((a2, p, q), (b2, q, r), None)
