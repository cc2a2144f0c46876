"""Rule enumeration and the per-application splits strategies."""

import itertools
import math
import random

import pytest

from opttree import (
    AncestryMatrix,
    Hyperplane,
    MatrixDim,
    Rule,
    SceneSegment,
    all_chain_trees,
    classify,
    enumerate_axis_rules,
    enumerate_hyperplane_rules,
    enumerate_surface2_rules,
    hyperplane_from_points,
    lift_dataset,
    lift_degree2,
    make_dataset,
    split_segments,
    splits_bsp,
    splits_generic,
    splits_kd,
    splits_mcmp,
)
from opttree import rule_systems


def test_axis_rules_counts():
    assert len(enumerate_axis_rules(make_dataset([(1, 2), (3, 4), (5, 6)]))) == 6
    # one rule per (dimension, distinct point): the tie at x=1 keeps both rules
    assert len(enumerate_axis_rules(make_dataset([(1, 2), (1, 5)]))) == 4
    assert len(enumerate_axis_rules(make_dataset([(1, 2), (1, 2)]))) == 2
    assert len(enumerate_axis_rules(make_dataset([(7,)]))) == 1
    with pytest.raises(ValueError):
        enumerate_axis_rules(())


def test_axis_rules_are_point_defined():
    data = make_dataset([(1, 2), (3, 4)])
    for rule in enumerate_axis_rules(data):
        (p,) = rule.defining_points
        assert p[rule.kind.dim] == rule.kind.threshold


def test_hyperplane_rules_general_position():
    data = make_dataset([(5, 7), (7, 4), (3, 7), (6, 0)])
    diag = {}
    rules = enumerate_hyperplane_rules(data, diagnostics=diag)
    assert len(rules) == 6  # C(4, 2), no behavioral collisions
    assert diag == {"degenerate": 0, "duplicate": 0}


def test_hyperplane_rules_collinear_dedupe():
    # (5,1), (6,3), (7,5) are collinear: three point pairs give the same line,
    # so 6 combinations collapse to 4 behaviorally distinct rules
    data = make_dataset([(5, 1), (6, 3), (7, 5), (1, -1)])
    diag = {}
    rules = enumerate_hyperplane_rules(data, diagnostics=diag)
    assert len(rules) == 4
    assert diag == {"degenerate": 0, "duplicate": 2}
    signatures = {tuple(classify(r, s.point) for s in data) for r in rules}
    assert len(signatures) == 4


def test_hyperplane_rules_single_combination():
    data = make_dataset([(0, 0), (1, 3)])
    assert len(enumerate_hyperplane_rules(data)) == 1
    with pytest.raises(ValueError):
        enumerate_hyperplane_rules(make_dataset([(0, 0)]))


def _per_combination_rules(data):
    """Hyperplane rules and diagnostics, one combination and one classify call at a time."""
    d = len(data[0].point)
    rules, seen, diag = [], set(), {"degenerate": 0, "duplicate": 0}
    for combo in itertools.combinations(range(len(data)), d):
        pts = tuple(data[i].point for i in combo)
        plane = hyperplane_from_points(pts)
        if plane is None:
            diag["degenerate"] += 1
            continue
        signature = tuple(classify(plane, s.point) for s in data)
        if signature in seen:
            diag["duplicate"] += 1
            continue
        seen.add(signature)
        rules.append(Rule(plane, pts))
    return rules, diag


def _enumeration_instances():
    rng = random.Random(9)
    return {
        "grid": make_dataset([(x, y) for x in range(4) for y in range(4)]),
        "collinear": make_dataset([(t, 2 * t + 1) for t in range(5)] + [(1, 0), (3, 9), (2, 2)]),
        "random": make_dataset([(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(12)]),
        "3d": make_dataset([tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(9)]),
        "surface2": lift_dataset(make_dataset([(x % 3, x // 3) for x in range(9)])),
    }


@pytest.mark.parametrize("batch", [None, 1, 7])
@pytest.mark.parametrize("name", list(_enumeration_instances()))
def test_hyperplane_rules_equal_per_combination_reference(name, batch, monkeypatch):
    # a small batch makes the dedup span several sign tables
    if batch is not None:
        monkeypatch.setattr(rule_systems, "_COMBINATION_BATCH", batch)
    data = _enumeration_instances()[name]
    diag = {}
    rules = enumerate_hyperplane_rules(data, diagnostics=diag)
    expected, expected_diag = _per_combination_rules(data)
    assert rules == expected
    assert diag == expected_diag
    assert diag["duplicate"] > 0 or name == "random"


def test_lift_degree2():
    assert lift_degree2((0.0, 0.0)) == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert lift_degree2((2.0, 3.0)) == (2.0, 3.0, 4.0, 6.0, 9.0)
    d = 3
    assert len(lift_degree2(tuple(range(d)))) == math.comb(d + 2, 2) - 1


def test_lifted_rules_match_polynomial_sign():
    # classify(lifted rule, lift(p)) must equal the sign of the degree-2
    # polynomial evaluated directly
    data = make_dataset([(0, 0), (1, 2), (2, 1), (3, 3), (1, 0), (0, 2)])
    rules = enumerate_surface2_rules(data)
    assert rules, "expected at least one surface rule"
    grid = [(x * 0.7, y * 0.9) for x in range(-3, 4) for y in range(-3, 4)]
    for rule in rules[:5]:
        kind = rule.kind
        assert isinstance(kind, Hyperplane)
        for p in grid:
            direct = kind.bias + sum(w * m for w, m in zip(kind.weights, lift_degree2(p)))
            expected = 1 if direct >= -1e-9 else -1
            assert classify(kind, lift_degree2(p)) == expected


def test_splits_generic_partition():
    m = AncestryMatrix(((0, 1, -1), (-1, 0, -1), (1, 1, 0)))
    triples = splits_generic((0, 1, 2), m)
    assert [t[1] for t in triples] == [0, 1, 2]  # ascending roots
    for left, root, right in triples:
        assert set(left) | set(right) | {root} == {0, 1, 2}
        assert not set(left) & set(right)


def test_splits_generic_singleton_and_infeasible():
    m = AncestryMatrix(((0, 0), (0, 0)))
    assert splits_generic((0,), m) == [((), 0, ())]
    assert splits_generic((0, 1), m) == []


def test_splits_generic_all_positive():
    m = AncestryMatrix(tuple(tuple(0 if i == j else 1 for j in range(3)) for i in range(3)))
    triples = splits_generic((0, 1, 2), m)
    assert len(triples) == 3
    for left, root, right in triples:
        assert set(left) == {0, 1, 2} - {root}
        assert right == ()


def _seg(x1, y1, x2, y2, payload):
    return SceneSegment((float(x1), float(y1)), (float(x2), float(y2)), payload)


def test_splits_bsp_parallel_segments():
    a = _seg(0, 0, 1, 0, 0)
    b = _seg(0, 1, 1, 1, 1)
    triples = splits_bsp([a, b])
    assert len(triples) == 2
    for pos, root, neg in triples:
        assert len(pos) + len(neg) == 1  # no fragmentation


def test_splits_bsp_crossing_creates_fragment():
    # the root's extending line (y = 0) cuts the other segment's interior
    root = _seg(0, 0, 1, 0, 0)
    crossing = _seg(2, -1, 2, 1, 1)
    (pos, r, neg) = next(t for t in splits_bsp([root, crossing]) if t[1] is root)
    assert len(pos) == 1 and len(neg) == 1  # one extra fragment in total
    assert {s.payload for s in pos + neg} == {1}
    cut_points = {pos[0].start, pos[0].end} & {neg[0].start, neg[0].end}
    assert cut_points == {(2.0, 0.0)}


def test_splits_bsp_collinear_goes_positive():
    root = _seg(0, 0, 1, 0, 0)
    collinear = _seg(3, 0, 4, 0, 1)
    (pos, _, neg) = next(t for t in splits_bsp([root, collinear]) if t[1] is root)
    assert pos == (collinear,)
    assert neg == ()


def _length(seg):
    return math.dist(seg.start, seg.end)


def test_splits_bsp_length_conservation():
    segs = [
        _seg(0, 0, 4, 0, 0),
        _seg(1, -2, 1, 2, 1),
        _seg(-1, 1, 5, 3, 2),
        _seg(2, -3, 3, 4, 3),
    ]
    total = sum(_length(s) for s in segs)
    for pos, root, neg in splits_bsp(segs):
        got = sum(_length(s) for s in pos) + sum(_length(s) for s in neg)
        assert math.isclose(got, total - _length(root), rel_tol=1e-9)


def test_split_segments_payload_inherited():
    root = _seg(0, 0, 1, 0, 7)
    crossing = _seg(5, -1, 5, 3, 9)
    pos, neg = split_segments(root, [crossing])
    assert all(s.payload == 9 for s in pos + neg)


def test_splits_mcmp_counts():
    dims = [MatrixDim(2, 3), MatrixDim(3, 4)]
    assert len(splits_mcmp(dims)) == 1
    four = [MatrixDim(i + 1, i + 2) for i in range(4)]
    triples = splits_mcmp(four)
    assert len(triples) == 3
    for prefix, marker, suffix in triples:
        assert prefix and suffix
        assert prefix + suffix == tuple(four)
        assert len(prefix) == marker
    assert splits_mcmp([MatrixDim(1, 2)]) == []


def test_chain_tree_counts_are_catalan():
    for n in range(2, 9):
        dims = [MatrixDim(i + 1, i + 2) for i in range(n)]
        assert len(all_chain_trees(dims)) == math.comb(2 * (n - 1), n - 1) // n


def test_splits_kd_dimensions_cycle():
    data = make_dataset([(1, 5), (2, 4), (3, 3)])
    by_x = splits_kd(0, data)
    by_y = splits_kd(1, data)
    # pivot (2, 4): dim 0 puts (1,5) left; dim 1 puts (3,3) left
    _, pivot, _ = by_x[1]
    assert pivot.point == (2.0, 4.0)
    assert [s.point for s in by_x[1][0]] == [(1.0, 5.0)]
    assert [s.point for s in by_y[1][0]] == [(3.0, 3.0)]
    assert splits_kd(2, data)[1][0] == by_x[1][0]  # depth 2 wraps back to dim 0


def test_splits_kd_single_point_and_ties():
    single = make_dataset([(4, 2)])
    assert splits_kd(0, single) == [((), single[0], ())]
    tied = make_dataset([(1, 1), (1, 2), (2, 3)])
    left, pivot, right = splits_kd(0, tied)[0]
    assert pivot.point == (1.0, 1.0)
    # the equal-coordinate point joins the left side per the boundary rule
    assert [s.point for s in left] == [(1.0, 2.0)]
    assert [s.point for s in right] == [(2.0, 3.0)]
    assert splits_kd(0, ()) == []
