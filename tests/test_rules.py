"""Classification predicates and ancestry matrices."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opttree import (
    EPS,
    AxisParallel,
    Hyperplane,
    Rule,
    SceneSegment,
    ancestry_matrix,
    ancestry_tables,
    classify,
    enumerate_axis_rules,
    enumerate_hyperplane_rules,
    enumerate_surface2_rules,
    hyperplane,
    hyperplane_from_points,
    hyperplanes_from_points,
    lift_degree2,
    row_masks,
    sign_table,
)
import opttree.rules
from helpers import random_instance, root_feasible


def test_classify_axis():
    rule = AxisParallel(0, 5.0)
    assert classify(rule, (3.0, 9.0)) == 1
    assert classify(rule, (5.0, 0.0)) == 1  # boundary counts as positive
    assert classify(rule, (5.1, 0.0)) == -1


def test_classify_hyperplane_boundary_positive():
    rule = hyperplane((1.0, 0.0), 0.0)
    assert classify(rule, (0.0, 7.0)) == 1


def test_classify_hyperplane_hand_values():
    rule = hyperplane((1.0, 1.0), -1.0)
    assert classify(rule, (2.0, 2.0)) == 1
    assert classify(rule, (0.0, 0.0)) == -1


def test_segment_is_not_a_rule_kind():
    # a parsed "seg" payload, which the bsp solver also cuts with
    seg = SceneSegment((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(TypeError):
        classify(seg, (0.5, 1.0))
    with pytest.raises(TypeError):
        sign_table([AxisParallel(0, 1.0), seg], [(0.5, 1.0)])


def test_classify_dimension_mismatch():
    with pytest.raises(ValueError):
        classify(AxisParallel(2, 1.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        classify(hyperplane((1.0, 1.0), 0.0), (1.0,))


def test_hyperplane_normalizes_without_flipping():
    rule = hyperplane((-2.0, 0.0), 4.0)
    assert rule.weights == (-1.0, 0.0)
    assert rule.bias == 2.0
    with pytest.raises(ValueError):
        hyperplane((0.0, 0.0), 1.0)


def test_hyperplane_from_points_sign_convention():
    a = hyperplane_from_points([(0.0, 0.0), (1.0, 0.0)])
    b = hyperplane_from_points([(1.0, 0.0), (0.0, 0.0)])
    assert a == b  # same line, same coefficients regardless of point order
    assert a.weights[1] > 0  # first nonzero weight is positive; w = (0, 1)
    assert abs(a.weights[0]) < 1e-12
    assert abs(a.bias) < 1e-12


def test_hyperplane_from_points_degenerate():
    assert hyperplane_from_points([(1.0, 1.0), (1.0, 1.0)]) is None


def test_hyperplane_from_points_unit_norm():
    rule = hyperplane_from_points([(0.0, 1.0), (2.0, 5.0)])
    assert math.isclose(sum(w * w for w in rule.weights), 1.0)
    for p in [(0.0, 1.0), (2.0, 5.0)]:
        assert abs(sum(w * c for w, c in zip(rule.weights, p)) + rule.bias) < 1e-9


def _vertical(x, positive_left=True):
    # positive side is x <= threshold when weights point left
    sign = -1.0 if positive_left else 1.0
    return Rule(hyperplane((sign, 0.0), -sign * x), ((x, 0.0),))


def test_ancestry_matrix_single_rule():
    m = ancestry_matrix([_vertical(1.0)])
    assert m == ((0,),)


def test_ancestry_matrix_parallel_lines():
    # two vertical lines, left-of-line positive: the x=1 line sees the x=3
    # defining point on its negative side and vice versa
    r1 = _vertical(1.0)
    r2 = _vertical(3.0)
    m = ancestry_matrix([r1, r2])
    assert m[0][1] == -1
    assert m[1][0] == 1


def _error(build, table):
    with pytest.raises(ValueError) as got:
        build(table)
    return str(got.value)


def test_ancestry_matrix_requires_defining_points():
    # the twin names the rule the one-entry-at-a-time spec meets first
    for bare_at, size in [((0,), 2), ((1,), 2), ((0, 1), 2), ((1, 2), 3), ((0, 2), 3), ((0, 1, 2), 3)]:
        table = [Rule(AxisParallel(0, float(i))) if i in bare_at else _vertical(float(i)) for i in range(size)]
        want = _error(ancestry_matrix, table)
        assert want == f"rule {next((j for j in bare_at if j), 0)} has no defining points; matrix entry undefined"
        assert _error(ancestry_tables, table) == want


def test_ancestry_tables_equal_ancestry_matrix():
    # ties: the x=3 line's defining point (3, 3) sits on the y=3 line, and
    # the diagonal through (3, 3) meets both
    rules = [
        _vertical(1.0),
        _vertical(3.0, positive_left=False),
        Rule(AxisParallel(1, 3.0), ((3.0, 3.0),)),
        Rule(hyperplane_from_points([(0.0, 0.0), (3.0, 3.0)]), ((0.0, 0.0), (3.0, 3.0))),
        Rule(hyperplane_from_points([(1.0, 0.0), (1.0, 5.0)]), ((1.0, 0.0), (1.0, 5.0))),
    ]
    for table in ([], rules[:1], rules):
        left, right = ancestry_tables(table)
        entries = ancestry_matrix(table)
        assert left.tolist() == [[e > 0 for e in row] for row in entries]
        assert right.tolist() == [[e < 0 for e in row] for row in entries]
    assert {-1, 0, 1} <= {e for row in entries for e in row}
    assert ancestry_tables([Rule(AxisParallel(0, 1.0))])[0].tolist() == [[False]]


@pytest.mark.parametrize(
    "enumerate_rules", [enumerate_axis_rules, enumerate_hyperplane_rules, enumerate_surface2_rules]
)
def test_ancestry_matrix_classifies_each_row_point_once(enumerate_rules, monkeypatch):
    # the rules of these tables share defining points: within one call, row
    # i classifies each distinct defining point of the other rules exactly
    # once, and every entry is the one the per-entry definition gives
    calls = {}
    row_of = {}

    def counted(rule, point):
        key = row_of[id(rule)], point
        calls[key] = calls.get(key, 0) + 1
        return classify(rule, point)

    monkeypatch.setattr(opttree.rules, "classify", counted)
    for seed in (3, 11):
        rules = enumerate_rules(random_instance(seed, n_min=6, n_max=7))
        row_of.clear()
        row_of.update((id(rule), i) for i, rule in enumerate(rules))
        calls.clear()
        matrix = ancestry_matrix(rules)
        wanted = {(i, q) for i in range(len(rules)) for j, rj in enumerate(rules) if j != i for q in rj.defining_points}
        assert set(calls) == wanted
        assert set(calls.values()) == {1}
        # the points are shared, or the count would show no saving
        assert len(wanted) < sum(len(rj.defining_points) for rj in rules) * (len(rules) - 1)
        for i, ri in enumerate(rules):
            for j, rj in enumerate(rules):
                signs = {classify(ri, q) for q in rj.defining_points}
                want = 0 if i == j else 1 if signs == {1} else -1 if signs == {-1} else 0
                assert matrix[i][j] == want


@given(st.lists(st.tuples(st.floats(0, 10), st.floats(0, 10)), min_size=2, max_size=5))
@settings(max_examples=60, deadline=None)
def test_constructed_matrices_always_pass_axioms(xs):
    rules = []
    for i, (x, y) in enumerate(xs):
        rules.append(Rule(AxisParallel(i % 2, (x, y)[i % 2]), ((x, y),)))
    m = ancestry_matrix(rules)
    # a tuple of K rows of K entries in {-1, 0, +1}, zero on the diagonal
    assert type(m) is tuple and len(m) == len(rules)
    assert all(type(row) is tuple and len(row) == len(rules) for row in m)
    assert all(m[i][i] == 0 for i in range(len(m)))
    assert {e for row in m for e in row} <= {-1, 0, 1}


def test_matrix_antisymmetry_recheck():
    # +1 entries really mean every defining point classifies positive
    rules = [_vertical(1.0), _vertical(3.0), _vertical(5.0)]
    m = ancestry_matrix(rules)
    for i in range(3):
        for j in range(3):
            if m[i][j] == 1:
                assert all(classify(rules[i], q) == 1 for q in rules[j].defining_points)


def test_epsilon_stability():
    # nudging defining points well below the tolerance keeps the matrix fixed
    rules = [_vertical(1.0), _vertical(3.0), _vertical(5.0)]
    m = ancestry_matrix(rules)
    delta = 4e-10
    nudged = [
        Rule(r.kind, tuple((p[0] + delta, p[1] - delta) for p in r.defining_points))
        for r in rules
    ]
    assert ancestry_matrix(nudged) == m


def test_root_feasible():
    m = ((0, 1, 0), (-1, 0, 1), (0, -1, 0))
    assert root_feasible(1, (0, 1, 2), m)
    assert not root_feasible(0, (0, 1, 2), m)  # entry (0, 2) is 0
    assert root_feasible(0, (0,), m)  # vacuous on a singleton
    assert root_feasible(0, (0, 1), m)


def _reference_hyperplane(points):
    """One set at a time, as hyperplane_from_points computed it before batching."""
    pts = np.asarray(points, dtype=float)
    d = pts.shape[1]
    _, sigma, vt = np.linalg.svd(np.hstack([pts, np.ones((d, 1))]))
    if sigma[d - 1] <= 1e-9 * max(sigma[0], 1.0):
        return None
    w, b = vt[-1][:d], float(vt[-1][d])
    n = float(np.linalg.norm(w))
    if n <= 1e-12:
        return None
    w, b = w / n, b / n
    for c in w:
        if abs(c) > 1e-12:
            if c < 0:
                w, b = -w, -b
            break
    return Hyperplane(tuple(float(c) for c in w), float(b))


def _point_sets(d, rng, count=300):
    """Random D-point sets in R^D, some of them affinely dependent.

    Every third set repeats its first point (D >= 2); for D >= 3 every third
    set also has its last point on the line through the first two.
    """
    sets = []
    for i in range(count):
        pts = [tuple(rng.choice([rng.uniform(-5, 5), float(rng.randint(-3, 3))]) for _ in range(d))]
        pts += [tuple(rng.uniform(-5, 5) for _ in range(d)) for _ in range(d - 1)]
        if i % 3 == 1:  # the last point on the line through the first two
            t = rng.uniform(-2, 2)
            pts[-1] = tuple(a + t * (b - a) for a, b in zip(pts[0], pts[1 % d]))
        elif i % 3 == 2 and d > 1:  # a repeated point
            pts[-1] = pts[0]
        sets.append(pts)
    return sets


@pytest.mark.parametrize("d", [1, 2, 3])
def test_hyperplanes_from_points_batch_equals_single_calls(d):
    rng = random.Random(d)
    sets = _point_sets(d, rng)
    batch = hyperplanes_from_points(sets)
    single = [hyperplane_from_points(pts) for pts in sets]
    assert batch == single == [_reference_hyperplane(pts) for pts in sets]
    if d > 1:
        assert batch.count(None) >= len(sets) // 3


def test_hyperplanes_from_points_batch_equals_single_calls_lifted():
    # surface2 tables are hyperplanes through 5 lifted 2-D points; collinear
    # grid points and repeated ones make some sets affinely dependent
    rng = random.Random(5)
    sets = []
    for _ in range(400):
        raw = [(float(rng.randint(0, 3)), float(rng.randint(0, 3))) for _ in range(5)]
        sets.append([lift_degree2(p) for p in raw])
    batch = hyperplanes_from_points(sets)
    assert batch == [hyperplane_from_points(pts) for pts in sets]
    assert batch == [_reference_hyperplane(pts) for pts in sets]
    assert None in batch and any(plane is not None for plane in batch)


def test_hyperplanes_from_points_rejects_misshapen_sets():
    assert hyperplanes_from_points([]) == []
    with pytest.raises(ValueError):
        hyperplanes_from_points([[(0.0, 0.0, 1.0), (1.0, 0.0, 1.0)]])
    with pytest.raises(ValueError):
        hyperplane_from_points([(0.0, 1.0)])


def _near(points, direction, scale):
    """Each point moved along ``direction`` by 0, +-EPS/2, +-EPS and +-2 EPS times ``scale``."""
    out = []
    for p in points:
        for t in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
            out.append(tuple(c + t * EPS * scale * u for c, u in zip(p, direction)))
    return out


def _assert_sign_table_is_classify(kinds, points):
    table = sign_table(kinds, points)
    assert table.shape == (len(kinds), len(points)) and table.dtype == bool
    expected = [[classify(kind, p) > 0 for p in points] for kind in kinds]
    assert table.tolist() == expected
    assert sum(map(sum, expected)) not in (0, len(kinds) * len(points))  # both signs occur


def test_sign_table_equals_classify_axis():
    kinds = [AxisParallel(dim, t) for dim in (0, 1) for t in (-1.0, 0.0, 0.1, 2.5)]
    points = [(x, y) for x in (-1.0, 0.0, 0.1, 2.5) for y in (0.1, 2.5, -1.0)]
    points += [(math.nextafter(x, -math.inf), math.nextafter(x, math.inf)) for x in (0.1, 2.5)]
    _assert_sign_table_is_classify(kinds, points)


@pytest.mark.parametrize("d", [2, 3])
def test_sign_table_equals_classify_hyperplane(d):
    rng = random.Random(10 + d)
    kinds, points = [], []
    for pts in _point_sets(d, rng, count=40):
        plane = hyperplane_from_points(pts)
        if plane is None:
            continue
        kinds.append(plane)
        points += _near(pts, plane.weights, 1.0)
    # planes whose values are exact, with points at exactly -EPS and one ulp
    # either side of it
    for c in range(d):
        unit = tuple(float(c == e) for e in range(d))
        kinds += [Hyperplane(unit, 0.0), Hyperplane(tuple(-u for u in unit), 2.0)]
        for x in (-EPS, math.nextafter(-EPS, 0.0), math.nextafter(-EPS, -1.0), 2.0 + EPS):
            points.append(tuple(x if e == c else 0.5 for e in range(d)))
    _assert_sign_table_is_classify(kinds, points)


def test_sign_table_equals_classify_lifted_hyperplane():
    # integer grid points lie exactly on many lifted planes
    grid = [lift_degree2((float(x), float(y))) for x in range(4) for y in range(3)]
    rng = random.Random(3)
    kinds = []
    while len(kinds) < 30:
        plane = hyperplane_from_points(rng.sample(grid, 5))
        if plane is not None:
            kinds.append(plane)
    points = grid + _near(grid[:4], kinds[0].weights, 1.0)
    _assert_sign_table_is_classify(kinds, points)


def test_sign_table_mixed_kinds_and_empty_sides():
    kinds = [AxisParallel(1, 0.5), hyperplane((1.0, -1.0), 0.0), AxisParallel(0, 0.5)]
    points = [(0.0, 0.0), (1.0, 0.5), (-1.0, 2.0), (0.5, 0.5)]
    _assert_sign_table_is_classify(kinds, points)
    assert sign_table(kinds, []).shape == (3, 0)
    assert sign_table([], points).shape == (0, 4)


def test_sign_table_dimension_mismatch_raises_like_classify():
    points = [(0.0, 0.0), (1.0, 1.0)]
    for kind in (AxisParallel(2, 1.0), hyperplane((1.0, 1.0, 0.0), 0.0)):
        with pytest.raises(ValueError):
            classify(kind, points[0])
        with pytest.raises(ValueError):
            sign_table([AxisParallel(0, 1.0), kind], points)


def test_row_masks_put_column_c_at_bit_c():
    table = np.array([[True, False, True] + [False] * 8 + [True], [False] * 12, [True] * 12])
    assert row_masks(table) == [1 | 4 | 1 << 11, 0, (1 << 12) - 1]
    assert row_masks(np.zeros((2, 0), dtype=bool)) == [0, 0]
