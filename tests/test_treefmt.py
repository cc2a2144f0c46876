"""Tree text grammar: round-trips and formatting."""

import pytest

from opttree import (
    AxisParallel,
    DLeaf,
    DNode,
    Hyperplane,
    MatrixDim,
    Rule,
    SceneSegment,
    enumerate_axis_rules,
    make_dataset,
    parse,
    serialize,
    solve,
    solve_bsp,
    solve_kd,
    solve_mcmp,
    MISCLASSIFICATION,
)


def test_serialize_leaf_counts():
    data = make_dataset([(1.0,), (2.0,)], [0, 1])
    assert serialize(DLeaf(data)) == "(leaf 2)"
    assert serialize(DLeaf(())) == "(leaf 0)"
    assert serialize(DLeaf(3)) == "(leaf 3)"
    assert serialize(DLeaf(MatrixDim(2, 3))) == "(leaf 1)"


def test_serialize_rule_descriptions():
    leaf = DLeaf(0)
    axis = DNode(leaf, AxisParallel(1, 2.5), leaf)
    assert serialize(axis) == "(node axis 1 2.5 (leaf 0) (leaf 0))"
    hyp = DNode(leaf, Hyperplane((0.6, -0.8), 1.25), leaf)
    assert serialize(hyp) == "(node hyp 0.6 -0.8 1.25 (leaf 0) (leaf 0))"
    seg = DNode(leaf, SceneSegment((0.0, 1.0), (2.0, 3.0), 4), leaf)
    assert serialize(seg) == "(node seg 0 1 2 3 (leaf 0) (leaf 0))"
    cut = DNode(leaf, None, leaf)
    assert serialize(cut) == "(node cut (leaf 0) (leaf 0))"
    pivot = DNode(leaf, Rule(AxisParallel(1, 7.0), ((4.0, 7.0),)), leaf)
    assert serialize(pivot) == "(node axis 1 7 (leaf 0) (leaf 0))"


def test_indexed_tree_needs_rule_table():
    tree = DNode(DLeaf(0), 0, DLeaf(0))
    with pytest.raises(ValueError):
        serialize(tree)


def test_nine_significant_digits():
    tree = DNode(DLeaf(1), AxisParallel(0, 1.2345678949), DLeaf(2))
    text = serialize(tree)
    assert "1.23456789" in text
    assert "1.2345678949" not in text


def test_parse_round_trips_text():
    texts = [
        "(leaf 5)",
        "(node axis 0 1.5 (leaf 1) (leaf 2))",
        "(node hyp 0.707106781 -0.707106781 0 (leaf 0) (node axis 1 -3 (leaf 2) (leaf 2)))",
        # lifted-space rule: five weights plus bias under the same tag
        "(node hyp 0.1 0.2 -0.3 0.4 -0.5 1.25 (leaf 3) (leaf 4))",
        "(node seg 0 0 1 0 (leaf 1) (leaf 0))",
        "(node cut (node cut (leaf 1) (leaf 1)) (leaf 1))",
    ]
    for text in texts:
        tree = parse(text)
        assert serialize(tree) == text
        assert parse(serialize(tree)) == tree


def test_parse_rejects_malformed():
    for bad in [
        "",
        "(leaf )",
        "(leaf 2",
        "(node axis 0 (leaf 1) (leaf 1))",
        "(leaf 2) extra",
        "(twig 1)",
        "(node axis 0 nan (leaf 0) (leaf 3))",
        "(node axis 0 -inf (leaf 0) (leaf 3))",
        "(node hyp 1 inf -1e999 (leaf 0) (leaf 3))",
        "(node seg 0 0 1e999 1 (leaf 0) (leaf 3))",
        "(leaf \uff10)",
        "(leaf \u00b2)",
        "(leaf 1_0)",
        "(node axis 0 1_5 (leaf 0) (leaf 3))",
        "(node axis \u0661 2 (leaf 0) (leaf 3))",
    ]:
        with pytest.raises(ValueError):
            parse(bad)


def test_solver_outputs_round_trip():
    data = make_dataset([(1.0, 2.0), (3.0, 1.0), (5.0, 4.0), (2.0, 6.0)], [0, 1, 0, 1])
    rules = enumerate_axis_rules(data)
    fit = solve(rules, 2, data, MISCLASSIFICATION)
    for tree, table in [
        (fit, rules),
        (solve_mcmp([MatrixDim(10, 30), MatrixDim(30, 5), MatrixDim(5, 60)]), None),
        (solve_bsp([SceneSegment((0.0, 0.0), (1.0, 0.0), 0), SceneSegment((2.0, -1.0), (2.0, 1.0), 1)]), None),
        (solve_kd(data, 2), None),
    ]:
        text = serialize(tree, table)
        assert serialize(parse(text)) == text


def _preorder(tree):
    if isinstance(tree, DLeaf):
        return []
    return [tree.rule_id] + _preorder(tree.left) + _preorder(tree.right)


def test_kd_rules_round_trip_as_their_kinds():
    # grid points tie on both coordinates, and one point repeats: each k-d
    # branch is a point-defined axis rule, and its text parses to its kind
    data = make_dataset([(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3), (3, 3), (2, 3), (2, 2)])
    for max_depth in range(5):
        tree = solve_kd(data, max_depth)
        payloads = _preorder(tree)
        assert all(isinstance(rule, Rule) and rule.defining_points[0] in [s.point for s in data] for rule in payloads)
        assert _preorder(parse(serialize(tree))) == [rule.kind for rule in payloads]
