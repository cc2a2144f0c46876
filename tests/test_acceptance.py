"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Every expected value is produced by an independent oracle (brute
enumeration, routing, the textbook cubic chain program) or derived counts,
never by the code path under test.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import Counter


from opttree import (
    AncestryMatrix,
    AxisParallel,
    DLeaf,
    DNode,
    MISCLASSIFICATION,
    MatrixDim,
    Rule,
    SceneSegment,
    SolveConstraints,
    SolveStats,
    all_chain_trees,
    all_tree_shapes,
    all_trees,
    all_trees_constrained,
    ancestry_matrix,
    bsp_tree_from_order,
    classify,
    complete_shapes,
    depth,
    enumerate_axis_rules,
    enumerate_hyperplane_rules,
    enumerate_permutation_trees,
    hyperplane_from_points,
    leaves,
    level_order,
    make_dataset,
    node_count,
    solve,
    solve_bsp,
    solve_kd,
    solve_mcmp,
    splits_bsp,
    splits_kd,
    tree_cost,
    tree_from_permutation,
    CHAIN_COST,
    LEAF_BALANCE,
    TREE_SIZE,
)

N_INSTANCES = 100
CASES = [("axis", 1), ("axis", 2), ("axis", 3), ("hyperplane", 1), ("hyperplane", 2)]


def report(num: int, ok: bool, text: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def instance(i: int):
    rng = random.Random(10_000 + i)
    n = 12 if i < 5 else rng.randint(6, 11)
    points = [(round(rng.uniform(0, 10), 3), round(rng.uniform(0, 10), 3)) for _ in range(n)]
    labels = [rng.randint(0, 1) for _ in range(n)]
    return make_dataset(points, labels)


def rules_for(kind, data):
    return enumerate_axis_rules(data) if kind == "axis" else enumerate_hyperplane_rules(data)


def sign_table(rules, data):
    return [tuple(classify(r, s.point) for s in data) for r in rules]


def route_rows(shape, signs, rows):
    """Leaf row-index tuples of a shape, routed from the root."""
    if isinstance(shape, DLeaf):
        return [rows]
    s = signs[shape.rule_id]
    left = tuple(r for r in rows if s[r] > 0)
    right = tuple(r for r in rows if s[r] < 0)
    return route_rows(shape.left, signs, left) + route_rows(shape.right, signs, right)


def route_score(shape, signs, labels, rows):
    """Misclassification count of a routed tree, computed leaf by leaf."""
    total = 0
    for leaf_rows in route_rows(shape, signs, rows):
        if leaf_rows:
            counts = Counter(labels[r] for r in leaf_rows)
            total += len(leaf_rows) - max(counts.values())
    return total


def test_criterion_1_oracle_optimality():
    started = time.perf_counter()
    checked = 0
    for i in range(N_INSTANCES):
        data = instance(i)
        labels = [s.label for s in data]
        all_rows = tuple(range(len(data)))
        for kind, k in CASES:
            rules = rules_for(kind, data)
            if k > len(rules):
                continue
            signs = sign_table(rules, data)
            matrix = ancestry_matrix(rules)
            tree = solve(rules, k, data, MISCLASSIFICATION)
            solver_score = None if tree is None else tree_cost(tree, MISCLASSIFICATION)
            best = None
            for _, shape in enumerate_permutation_trees(rules, k, matrix):
                s = route_score(shape, signs, labels, all_rows)
                if best is None or s < best:
                    best = s
            assert best is not None, f"instance {i} {kind} k={k}: no admissible tree"
            assert solver_score == best, (
                f"instance {i} {kind} k={k}: solver {solver_score} != brute force {best}"
            )
            checked += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        elapsed < 120.0,
        f"solver equals brute-force optimum on {checked} instance/case pairs "
        f"({N_INSTANCES} instances) in {elapsed:.1f}s (< 120s)",
    )


def test_criterion_2_generator_matches_oracle_sets():
    mismatches = 0
    combos_checked = 0
    for i in range(N_INSTANCES):
        data = instance(i)
        for kind, k in CASES:
            rules = rules_for(kind, data)
            if k > len(rules):
                continue
            matrix = ancestry_matrix(rules)
            by_combo: dict = {}
            for perm, _ in enumerate_permutation_trees(rules, k, matrix):
                by_combo.setdefault(tuple(sorted(perm)), set()).add(perm)
            for combo in itertools.combinations(range(len(rules)), k):
                generated = {level_order(t) for t in all_tree_shapes(combo, matrix)}
                if by_combo.get(combo, set()) != generated:
                    mismatches += 1
                combos_checked += 1
    report(
        2,
        mismatches == 0,
        f"canonical traversals equal valid-permutation sets on {combos_checked} combinations",
    )


def all_positive_matrix(k):
    return AncestryMatrix(tuple(tuple(0 if i == j else 1 for j in range(k)) for i in range(k)))


def test_criterion_3_factorial_worst_case():
    counts = {k: len(all_tree_shapes(range(k), all_positive_matrix(k))) for k in (2, 3, 4, 5)}
    expected = {2: 2, 3: 6, 4: 24, 5: 120}
    report(3, counts == expected, f"all-positive matrices generate k! trees: {counts}")


FOUR_LINES = [
    ((-3.0, 6.0), (-3.0, -1.0)),
    ((4.0, 2.0), (5.0, 6.0)),
    ((1.0, 3.0), (-4.0, -3.0)),
    ((4.0, 1.0), (-3.0, -3.0)),
]


def test_criterion_4_four_hyperplane_reproduction():
    rules = []
    for p, q in FOUR_LINES:
        plane = hyperplane_from_points([p, q])
        rules.append(Rule(plane, (p, q)))
    matrix = ancestry_matrix(rules)
    valid = [
        p for p in itertools.permutations(range(4)) if tree_from_permutation(p, matrix) is not None
    ]
    shapes = all_tree_shapes(range(4), matrix)
    ok = (
        matrix.entry(0, 2) == 0
        and len(valid) == 3
        and len(shapes) == 3
        and math.factorial(4) == 24
    )
    report(
        4,
        ok,
        f"4-line configuration with unrelated pair (0,2): {len(shapes)} trees of 24 orderings",
    )


def classic_chain_dp(values):
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


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_criterion_5_matrix_chain():
    counts_ok = True
    for n in range(2, 9):
        dims = [MatrixDim(i + 2, i + 3) for i in range(n)]
        if len(all_chain_trees(dims)) != catalan(n - 1):
            counts_ok = False
    four = [MatrixDim(a, b) for a, b in zip([10, 30, 5, 60], [30, 5, 60, 2])]
    dims = [MatrixDim(10, 30), MatrixDim(30, 5), MatrixDim(5, 60)]
    best = solve_mcmp(dims)
    cost = tree_cost(best, CHAIN_COST)[0]
    dp = classic_chain_dp([10, 30, 5, 60])
    ok = counts_ok and cost == dp == 4500 and len(all_chain_trees(four)) == 5
    report(5, ok, f"chain tree counts are Catalan for n=2..8 (4 matrices: 5); [10,30,5,60] optimum {cost:g} == {dp}")


def test_criterion_6_leaf_invariant():
    trees_checked = 0
    for i in range(N_INSTANCES):
        data = instance(i)
        all_rows = tuple(range(len(data)))
        for kind, k in CASES:
            rules = rules_for(kind, data)
            if k > len(rules):
                continue
            signs = sign_table(rules, data)
            matrix = ancestry_matrix(rules)
            pairs = list(enumerate_permutation_trees(rules, k, matrix))
            completed_trees = complete_shapes([shape for _, shape in pairs], rules, data)
            for (perm, shape), completed in zip(pairs, completed_trees, strict=True):
                got = [tuple(leaf) for leaf in leaves(completed)]
                want = [
                    tuple(data[r] for r in rows) for rows in route_rows(shape, signs, all_rows)
                ]
                assert got == want, f"instance {i} {kind} k={k} perm {perm}: leaves != routing"
                flat = [s for leaf in got for s in leaf]
                assert len(flat) == len(data), "leaves must cover the data exactly once"
                assert sorted(flat) == sorted(data)
                trees_checked += 1
    report(6, True, f"leaf datasets equal point-routing and partition the data ({trees_checked} trees)")


def test_criterion_7_constraint_fusion():
    settings = [(1, 2), (2, 2), (1, 3), (2, 3)]
    checked = 0
    for i in range(50):
        min_leaf, max_depth = settings[i % 4]
        rng = random.Random(20_000 + i)
        data = instance(i)
        rules = rules_for("axis", data)
        picks = tuple(sorted(rng.sample(range(len(rules)), 3)))
        matrix = ancestry_matrix(rules)
        full = all_trees(picks, matrix, rules, data)
        filtered = [
            t
            for t in full
            if all(len(leaf) >= min_leaf for leaf in leaves(t)) and depth(t) <= max_depth
        ]
        fused = all_trees_constrained(picks, matrix, rules, data, min_leaf, max_depth)
        assert fused == filtered, f"instance {i}: fused generation differs from post-filtering"
        cons = SolveConstraints(min_leaf=min_leaf, max_depth=max_depth)
        best = solve([rules[i] for i in picks], len(picks), data, MISCLASSIFICATION, cons)
        if filtered:
            want = min(tree_cost(t, MISCLASSIFICATION) for t in filtered)
            assert best is not None and tree_cost(best, MISCLASSIFICATION) == want
        else:
            assert best is None
        checked += 1
    report(7, True, f"constrained generation equals post-filtering on {checked} instances")


def fixed_axis_rules():
    rules = []
    for dim in range(2):
        for pos in range(10):
            t = float(pos + 0.5)
            point = (t, 0.0) if dim == 0 else (0.0, t)
            rules.append(Rule(AxisParallel(dim, t), (point,)))
    return rules


def test_criterion_8_linear_in_n():
    rules = fixed_axis_rules()

    def run(n):
        rng = random.Random(42)
        data = make_dataset(
            [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)],
            [rng.randint(0, 1) for _ in range(n)],
        )
        stats = SolveStats()
        started = time.perf_counter()
        tree = solve(rules, 3, data, MISCLASSIFICATION, stats=stats)
        elapsed = time.perf_counter() - started
        assert tree is not None
        return stats.nodes, elapsed

    nodes_small, t_small = run(100)
    nodes_small2, t_small2 = run(100)
    nodes_big, t_big = run(1000)
    ratio = t_big / min(t_small, t_small2)
    ok = nodes_small == nodes_small2 == nodes_big and ratio <= 15.0
    report(
        8,
        ok,
        f"recursion visits {nodes_big} nodes at N=100 and N=1000 alike; "
        f"time ratio {ratio:.1f}x (<= 15x)",
    )


def random_scene(seed, n_segments):
    rng = random.Random(seed)
    segs = []
    for i in range(n_segments):
        while True:
            x1, y1 = rng.randint(0, 10), rng.randint(0, 10)
            x2, y2 = rng.randint(0, 10), rng.randint(0, 10)
            if (x1, y1) != (x2, y2):
                break
        segs.append(SceneSegment((float(x1), float(y1)), (float(x2), float(y2)), i))
    return segs


class _TooManyFragments(Exception):
    pass


def exhaustive_bsp_min(frags, limit=7):
    """Minimum node count over every cut order, aborting past the limit."""
    if len(frags) > limit:
        raise _TooManyFragments
    if not frags:
        return 1
    best = None
    for pos, _, neg in splits_bsp(frags):
        size = 1 + exhaustive_bsp_min(pos, limit) + exhaustive_bsp_min(neg, limit)
        if best is None or size < best:
            best = size
    return best


def test_criterion_9_bsp_beats_random_orders():
    beaten = 0
    exact_checked = 0
    for i in range(20):
        rng = random.Random(30_000 + i)
        segs = random_scene(30_000 + i, rng.randint(2, 5))
        tree = solve_bsp(segs)
        size = node_count(tree)
        baseline = None
        order = list(range(len(segs)))
        for _ in range(200):
            rng.shuffle(order)
            got = node_count(bsp_tree_from_order(segs, order))
            if baseline is None or got < baseline:
                baseline = got
        assert size <= baseline, f"scene {i}: solver {size} > randomized baseline {baseline}"
        if size < baseline:
            beaten += 1
        try:
            assert size == exhaustive_bsp_min(tuple(segs)), f"scene {i}: not the exhaustive optimum"
            exact_checked += 1
        except _TooManyFragments:
            pass
    report(
        9,
        True,
        f"solver never beaten by 200 random orders on 20 scenes; "
        f"exhaustive equality verified on {exact_checked}",
    )


def kd_oracle(data, max_depth, depth_now=0):
    if not data or depth_now >= max_depth:
        return float(len(data)) ** 2
    best = None
    for left, _, right in splits_kd(depth_now, data):
        s = kd_oracle(left, max_depth, depth_now + 1) + kd_oracle(right, max_depth, depth_now + 1)
        if best is None or s < best:
            best = s
    return best


def level_dims_consistent(tree):
    frontier = [tree]
    dims = []
    while any(isinstance(n, DNode) for n in frontier):
        level = {n.rule_id[1] for n in frontier if isinstance(n, DNode)}
        if len(level) != 1:
            return None
        dims.append(level.pop())
        frontier = [c for n in frontier if isinstance(n, DNode) for c in (n.left, n.right)]
    return dims


def test_criterion_10_kd_exhaustive():
    checked = 0
    for i in range(12):
        rng = random.Random(40_000 + i)
        n = rng.randint(3, 8)
        data = make_dataset([(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)])
        for max_depth in (1, 2, 3):
            tree = solve_kd(data, max_depth)
            dims = level_dims_consistent(tree)
            assert dims is not None, f"instance {i}: inconsistent level dimensions"
            assert dims == [d % 2 for d in range(len(dims))]
            assert tree_cost(tree, LEAF_BALANCE) == kd_oracle(data, max_depth)
            checked += 1
    report(10, True, f"depth-cycled trees match exhaustive search on {checked} solves")


def test_criterion_11_monotone_combine():
    rng = random.Random(999)
    violations = 0
    trials = 1000
    for _ in range(trials):
        a, a2 = sorted([rng.uniform(0, 100), rng.uniform(0, 100)])
        b, b2 = sorted([rng.uniform(0, 100), rng.uniform(0, 100)])
        ctx = rng.randint(0, 5)
        for obj in (MISCLASSIFICATION, TREE_SIZE, LEAF_BALANCE):
            if not obj.combine(a, b, ctx) <= obj.combine(a2, b2, ctx):
                violations += 1
        p, q, r = rng.randint(1, 20), rng.randint(1, 20), rng.randint(1, 20)
        lo = CHAIN_COST.combine((a, p, q), (b, q, r), ctx)
        if not lo <= CHAIN_COST.combine((a2, p, q), (b2, q, r), ctx):
            violations += 1
    report(11, violations == 0, f"{trials} ordered tuples per objective, {violations} violations")
