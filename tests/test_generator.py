"""Exhaustive generation against the permutation reference pipeline."""

import ast
import itertools
import math
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

import pytest

from opttree import (
    LEAF,
    AncestryMatrix,
    DLeaf,
    DNode,
    Rule,
    all_tree_shapes,
    all_trees,
    all_trees_constrained,
    ancestry_matrix,
    complete_shapes,
    count_tree_shapes,
    depth,
    enumerate_axis_rules,
    enumerate_hyperplane_rules,
    enumerate_permutation_trees,
    enumerate_surface2_rules,
    hyperplane_from_points,
    level_order,
    lift_dataset,
    make_dataset,
    misclassification_cost,
    MISCLASSIFICATION,
    Objective,
    shape_costs,
    tree_cost,
    tree_from_permutation,
)
import opttree.generator
from helpers import leaf_payloads, random_instance, relabel, route_leaf_contents, shape_of


def chain_matrix(k):
    """Every off-diagonal entry +1: any rule roots, all others go left."""
    return AncestryMatrix(tuple(tuple(0 if i == j else 1 for j in range(k)) for i in range(k)))


def test_all_tree_shapes_empty():
    assert all_tree_shapes((), AncestryMatrix(())) == [LEAF]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_all_one_side_matrix_counts_factorial(k):
    shapes = all_tree_shapes(range(k), chain_matrix(k))
    assert len(shapes) == math.factorial(k)
    assert len({level_order(t) for t in shapes}) == len(shapes)


# Four lines, each through two integer points; found by search so that rule 0
# and rule 2 are mutually unrelated while every other pair relates, leaving
# exactly three admissible trees among the 24 orderings.
FOUR_LINES = [
    ((-3.0, 6.0), (-3.0, -1.0)),
    ((4.0, 2.0), (5.0, 6.0)),
    ((1.0, 3.0), (-4.0, -3.0)),
    ((4.0, 1.0), (-3.0, -3.0)),
]


def four_line_rules():
    rules = []
    for p, q in FOUR_LINES:
        plane = hyperplane_from_points([p, q])
        assert plane is not None
        rules.append(Rule(plane, (p, q)))
    return rules


def test_four_line_configuration_has_three_trees():
    from opttree import root_feasible, splits_generic

    rules = four_line_rules()
    matrix = ancestry_matrix(rules)
    assert matrix.entry(0, 2) == 0  # rule 0 cannot head the full set
    assert not root_feasible(0, range(4), matrix)
    assert 0 not in [root for _, root, _ in splits_generic(range(4), matrix)]
    shapes = all_tree_shapes(range(4), matrix)
    assert len(shapes) == 3
    valid = [
        p
        for p in itertools.permutations(range(4))
        if tree_from_permutation(p, matrix) is not None
    ]
    assert len(valid) == 3
    assert {level_order(t) for t in shapes} == set(valid)
    assert all(p[0] != 0 for p in valid)


def test_oracle_base_case():
    assert list(enumerate_permutation_trees([], 0)) == [((), LEAF)]


def test_oracle_streams():
    # the pairs come one at a time, never held as a list
    rules = four_line_rules()
    pairs = enumerate_permutation_trees(rules, 4)
    assert isinstance(pairs, Iterator)
    perm, shape = next(pairs)
    assert level_order(shape) == perm
    assert 1 + sum(1 for _ in pairs) == count_tree_shapes([range(4)], ancestry_matrix(rules))


def test_oracle_rejects_oversized_k():
    # at the call, before any pair is drawn
    with pytest.raises(ValueError):
        enumerate_permutation_trees([], 1)


def test_oracle_matches_generator_on_random_instances():
    for seed in range(8):
        data = random_instance(seed, n_min=4, n_max=7)
        rules = enumerate_axis_rules(data)
        matrix = ancestry_matrix(rules)
        k = 2
        pairs = enumerate_permutation_trees(rules, k)
        by_combo = {}
        for perm, tree in pairs:
            by_combo.setdefault(tuple(sorted(perm)), set()).add(perm)
        for combo in itertools.combinations(range(len(rules)), k):
            generated = {level_order(t) for t in all_tree_shapes(combo, matrix)}
            assert by_combo.get(combo, set()) == generated


def test_all_trees_leaf_contents_match_point_routing():
    data = random_instance(42, n_min=6, n_max=8)
    rules = enumerate_axis_rules(data)[:5]
    matrix = ancestry_matrix(rules)
    trees = all_trees(range(len(rules))[:3], matrix, rules, data)
    assert trees
    for tree in trees:
        assert [list(leaf) for leaf in leaf_payloads(tree)] == route_leaf_contents(tree, rules, data)


def rule_table(kind, data):
    """The rule table of one kind and the dataset in the space it classifies."""
    if kind == "axis":
        return enumerate_axis_rules(data), data
    if kind == "hyperplane":
        return enumerate_hyperplane_rules(data), data
    return enumerate_surface2_rules(data), lift_dataset(data)


def counted_classify(monkeypatch):
    """Route the generator's classify through a per-(rule, point) counter."""
    calls = Counter()
    classify = opttree.generator.classify

    def counted(rule, point):
        calls[id(rule), point] += 1
        return classify(rule, point)

    monkeypatch.setattr(opttree.generator, "classify", counted)
    return calls


@pytest.mark.parametrize("kind", ["axis", "hyperplane", "surface2"])
def test_complete_shapes_equals_downward_accumulate(kind, monkeypatch):
    # every completed tree keeps its shape and holds, leaf by leaf, the
    # samples that walking each point down from the root puts there,
    # classifying each (rule, point) pair at most once per call
    calls = counted_classify(monkeypatch)
    compared = Counter()
    for seed in (3, 11):
        rules, space = rule_table(kind, random_instance(seed, n_min=6, n_max=7))
        for k in range(4):
            shapes = [shape for _, shape in enumerate_permutation_trees(rules, k)]
            calls.clear()
            completed = complete_shapes(shapes, rules, space)
            assert max(calls.values(), default=1) == 1
            assert [shape_of(t) for t in completed] == shapes
            routed = [[tuple(leaf) for leaf in route_leaf_contents(s, rules, space)] for s in shapes]
            assert [leaf_payloads(t) for t in completed] == routed
            compared[k] += len(shapes)
    assert all(compared[k] for k in range(4))


def test_complete_shapes_rejects_unknown_rule_id():
    data = random_instance(5, n_min=4, n_max=5)
    rules = enumerate_axis_rules(data)
    for rid in (len(rules), -1, "0"):
        shape = DNode(DNode(LEAF, 0, LEAF), 1, DNode(LEAF, rid, LEAF))
        want = f"path references unknown rule id {rid!r}"
        with pytest.raises(ValueError) as got:
            complete_shapes([shape], rules, data)
        assert str(got.value) == want
        with pytest.raises(ValueError) as scored:
            shape_costs([shape], rules, data, MISCLASSIFICATION)
        assert str(scored.value) == want


@pytest.mark.parametrize("kind", ["axis", "hyperplane", "surface2"])
def test_shape_costs_equals_tree_cost_of_completed_shapes(kind, monkeypatch):
    # an order- and rule-sensitive combine, so swapped sides or a dropped
    # branch payload show; leaf costs are counted per leaf dataset
    leaf_calls = Counter()

    def leaf_cost(data):
        leaf_calls[data] += 1
        return misclassification_cost(data) + 0.25 * len(data)

    def combine(a, b, rule_id):
        return 2 * a + 3 * b + rule_id

    objective = Objective(leaf_cost, combine)
    calls = counted_classify(monkeypatch)
    compared = Counter()
    for seed in (3, 11):
        rules, space = rule_table(kind, random_instance(seed, n_min=6, n_max=7))
        for k in range(4):
            shapes = [shape for _, shape in enumerate_permutation_trees(rules, k)]
            calls.clear()
            leaf_calls.clear()
            got = shape_costs(shapes, rules, space, objective)
            assert max(calls.values(), default=1) == 1
            assert max(leaf_calls.values(), default=1) == 1
            costed = set(leaf_calls)
            want = [tree_cost(complete_shapes([s], rules, space)[0], objective) for s in shapes]
            assert got == want
            completed = complete_shapes(shapes, rules, space)
            assert costed == {leaf for tree in completed for leaf in leaf_payloads(tree)}
            compared[k] += len(shapes)
    assert all(compared[k] for k in range(4))


@pytest.mark.parametrize("kind", ["axis", "hyperplane", "surface2"])
def test_count_tree_shapes_equals_generated_trees(kind, monkeypatch):
    seen = Counter()
    splits = opttree.generator.splits_generic

    def counted(indices, matrix):
        seen[tuple(indices)] += 1
        return splits(indices, matrix)

    for seed in (3, 11):
        rules, _ = rule_table(kind, random_instance(seed, n_min=6, n_max=7))
        matrix = ancestry_matrix(rules)
        for k in range(4):
            combos = list(itertools.combinations(range(len(rules)), k))
            want = sum(len(all_tree_shapes(c, matrix)) for c in combos)
            seen.clear()
            with monkeypatch.context() as patched:
                patched.setattr(opttree.generator, "splits_generic", counted)
                assert count_tree_shapes(combos, matrix) == want
            # one memo for the whole call: every index set is split once
            assert max(seen.values(), default=1) == 1


def test_count_tree_shapes_catalan_and_factorial():
    # 1D thresholds order every pair (the smaller threshold goes left), so
    # the trees over k of them are the binary search trees: Catalan(k)
    for k in range(8):
        data = make_dataset([(float(x),) for x in range(k)], [0] * k)
        rules = enumerate_axis_rules(data) if k else []
        matrix = ancestry_matrix(rules)
        assert all(matrix.entry(i, j) == (1 if j < i else -1) for i in range(k) for j in range(k) if i != j)
        assert count_tree_shapes([range(k)], matrix) == math.comb(2 * k, k) // (k + 1)
    # every entry +1: any rule roots and all others go left, k! chains
    for k in range(6):
        assert count_tree_shapes([range(k)], chain_matrix(k)) == math.factorial(k)
    assert count_tree_shapes([], chain_matrix(2)) == 0


@pytest.mark.parametrize("kind", ["axis", "hyperplane", "surface2"])
def test_permutation_trees_equal_sliced_and_relabeled_reference(kind):
    # the per-combination pipeline: each combination's own matrix (equal to
    # its slice of the table's matrix), local orderings, ids mapped back
    def reference(rules, k, matrix):
        out = []
        for combo in itertools.combinations(range(len(rules)), k):
            local = ancestry_matrix([rules[i] for i in combo])
            sliced = AncestryMatrix(tuple(tuple(matrix.entry(i, j) for j in combo) for i in combo))
            assert local == sliced
            for perm in itertools.permutations(range(k)):
                tree = tree_from_permutation(perm, local)
                if tree is not None:
                    out.append((tuple(combo[p] for p in perm), relabel(tree, combo)))
        return out

    compared = Counter()
    for seed in (3, 11):
        rules, _ = rule_table(kind, random_instance(seed, n_min=6, n_max=7))
        matrix = ancestry_matrix(rules)
        for k in range(4):
            want = reference(rules, k, matrix)
            assert list(enumerate_permutation_trees(rules, k)) == want
            assert list(enumerate_permutation_trees(rules, k, matrix)) == want
            compared[k] += len(want)
    assert all(compared[k] for k in range(4))


def test_all_trees_empty_and_single():
    data = make_dataset([(1.0,), (3.0,)], [0, 1])
    assert all_trees((), AncestryMatrix(()), [], data) == [DLeaf(data)]
    rules = enumerate_axis_rules(data)
    matrix = ancestry_matrix(rules)
    (tree,) = all_trees((0,), matrix, rules, data)
    # single split at x=1: the boundary point goes left, the rest right
    assert leaf_payloads(tree) == [(data[0],), (data[1],)]


def _satisfies(tree, min_leaf, max_depth):
    ok_leaves = all(len(leaf) >= min_leaf for leaf in leaf_payloads(tree))
    ok_depth = max_depth is None or depth(tree) <= max_depth
    return ok_leaves and ok_depth


@pytest.mark.parametrize("min_leaf,max_depth", [(0, None), (1, 2), (2, 3), (1, None)])
def test_constrained_generation_equals_post_filter(min_leaf, max_depth):
    for seed in (3, 11):
        data = random_instance(seed, n_min=5, n_max=8)
        rules = enumerate_axis_rules(data)[:4]
        matrix = ancestry_matrix(rules)
        idx = tuple(range(len(rules)))[:3]
        full = all_trees(idx, matrix, rules, data)
        filtered = [t for t in full if _satisfies(t, min_leaf, max_depth)]
        fused = all_trees_constrained(idx, matrix, rules, data, min_leaf, max_depth)
        assert fused == filtered


def test_constrained_generation_unsatisfiable():
    data = random_instance(1, n_min=4, n_max=5)
    rules = enumerate_axis_rules(data)[:2]
    matrix = ancestry_matrix(rules)
    assert all_trees_constrained((0, 1), matrix, rules, data, min_leaf=len(data) + 1) == []


def test_generation_properness():
    # every generated tree places each rule on the side its matrix entry says
    data = random_instance(9, n_min=5, n_max=7)
    rules = enumerate_axis_rules(data)[:4]
    matrix = ancestry_matrix(rules)

    def check(shape):
        if isinstance(shape, DLeaf):
            return

        def descendants(node, side):
            sub = node.left if side > 0 else node.right
            out = []
            stack = [sub]
            while stack:
                cur = stack.pop()
                if isinstance(cur, DNode):
                    out.append(cur.rule_id)
                    stack.extend([cur.left, cur.right])
            return out

        for side in (1, -1):
            for rid in descendants(shape, side):
                assert matrix.entry(shape.rule_id, rid) == side
        check(shape.left)
        check(shape.right)

    for shape in all_tree_shapes(range(4), matrix):
        check(shape)


PACKAGE = Path(opttree.__file__).parent


def _solver_names():
    """Names that solver.py defines at top level (not the ones it imports)."""
    names = {"solver"}
    for node in ast.parse((PACKAGE / "solver.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize(
    "path",
    [
        PACKAGE / "generator.py",
        PACKAGE / "trees.py",
        PACKAGE / "rule_systems.py",
        Path(__file__).parent / "helpers.py",
    ],
    ids=lambda path: path.name,
)
def test_oracle_modules_import_nothing_from_solver(path):
    # the brute-force oracles must not share code with the path they check
    solver_names = _solver_names()
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("opttree.solver")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "opttree" + ("." + module if module else "")
            if module.startswith("opttree.solver"):
                found.append(module)
            elif module == "opttree":
                found += [a.name for a in node.names if a.name in solver_names]
    assert found == [], f"{path.name} imports {found} from opttree.solver"


# the numpy sign-table path that builds the solver's masks
_VECTORIZED = {"sign_table", "row_masks", "ancestry_tables"}


def _names_used(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


@pytest.mark.parametrize(
    "path, kept",
    [
        (PACKAGE / "generator.py", {"classify", "ancestry_matrix"}),
        (PACKAGE / "trees.py", set()),
        (Path(__file__).parent / "helpers.py", {"classify"}),
    ],
    ids=["generator.py", "trees.py", "helpers.py"],
)
def test_oracle_modules_classify_without_the_sign_table(path, kept):
    # the oracles build signs and ancestry one classify call at a time,
    # independently of the vectorized tables the solver uses
    names = _names_used(path)
    assert names & _VECTORIZED == set(), f"{path.name} uses {names & _VECTORIZED}"
    assert kept <= names
