"""Exhaustive generation against the permutation reference pipeline."""

import ast
import itertools
import math
import random
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

import pytest

from opttree import (
    LEAF,
    DLeaf,
    DNode,
    Rule,
    ancestry_matrix,
    count_tree_shapes,
    depth,
    leaves,
    enumerate_axis_rules,
    enumerate_hyperplane_rules,
    enumerate_surface2_rules,
    hyperplane_from_points,
    lift_dataset,
    make_dataset,
    misclassification_cost,
    MISCLASSIFICATION,
    LEAF_BALANCE,
    Objective,
    permutation_costs,
    TREE_SIZE,
    tree_cost,
)
import opttree.generator
from helpers import (
    all_tree_shapes,
    all_trees,
    all_trees_constrained,
    complete_shapes,
    enumerate_permutation_trees,
    level_order,
    random_instance,
    relabel,
    root_feasible,
    route_leaf_contents,
    shape_of,
    spec_splits_generic,
    spec_tree_from_permutation,
)


def chain_matrix(k):
    """Every off-diagonal entry +1: any rule roots, all others go left."""
    return tuple(tuple(0 if i == j else 1 for j in range(k)) for i in range(k))


def test_all_tree_shapes_empty():
    assert all_tree_shapes((), ()) == [LEAF]


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
    rules = four_line_rules()
    matrix = ancestry_matrix(rules)
    assert matrix[0][2] == 0  # rule 0 cannot head the full set
    assert not root_feasible(0, range(4), matrix)
    assert 0 not in [root for _, root, _ in spec_splits_generic(range(4), matrix)]
    shapes = all_tree_shapes(range(4), matrix)
    assert len(shapes) == 3
    valid = [
        p
        for p in itertools.permutations(range(4))
        if spec_tree_from_permutation(p, matrix) is not None
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
    assert 1 + sum(1 for _ in pairs) == count_tree_shapes(range(4), 4, ancestry_matrix(rules))


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
        assert [list(leaf) for leaf in leaves(tree)] == route_leaf_contents(tree, rules, data)


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
            assert [leaves(t) for t in completed] == routed
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


def grid_instance(seed):
    """A 3 x 3 integer grid with seeded labels: rows, columns and diagonals of
    collinear points, so many defining points sit on other rules' lines."""
    rng = random.Random(seed)
    points = [(float(x), float(y)) for x in range(3) for y in range(3)]
    return make_dataset(points, [rng.randint(0, 1) for _ in points])


def costed_table(kind, seed, k):
    """A rule table, the dataset it classifies, and the table cut to its first
    twelve rules at k = 4, so every ordering can be rebuilt and completed."""
    if kind == "grid":
        space = grid_instance(seed)
        rules = enumerate_hyperplane_rules(space)
    else:
        # surface2 tables of six or seven points admit no four-rule tree
        n_min, n_max = (8, 8) if kind == "surface2" else (6, 7)
        rules, space = rule_table(kind, random_instance(seed, n_min=n_min, n_max=n_max))
    return (rules[:12] if k == 4 else rules), space


def _order_sensitive(leaf_calls):
    # swapped sides or a dropped branch payload show; leaf costs are counted
    # per leaf dataset
    def leaf_cost(data):
        leaf_calls[data] += 1
        return misclassification_cost(data) + 0.25 * len(data)

    return Objective(leaf_cost, lambda a, b, rule_id: 2 * a + 3 * b + rule_id)


@pytest.mark.parametrize("kind", ["axis", "hyperplane", "surface2", "grid"])
def test_permutation_costs_equals_tree_cost_of_completed_shapes(kind, monkeypatch):
    leaf_calls = Counter()
    objectives = [MISCLASSIFICATION, TREE_SIZE, LEAF_BALANCE, _order_sensitive(leaf_calls)]
    calls = counted_classify(monkeypatch)
    compared = Counter()
    for seed in (3, 11):
        for k in range(5):
            rules, space = costed_table(kind, seed, k)
            shapes = [shape for _, shape in enumerate_permutation_trees(rules, k)]
            completed = complete_shapes(shapes, rules, space)
            for objective in objectives:
                calls.clear()
                leaf_calls.clear()
                got = permutation_costs(rules, k, space, objective)
                assert max(calls.values(), default=1) == 1
                assert max(leaf_calls.values(), default=1) == 1
                want = [tree_cost(complete_shapes([s], rules, space)[0], objective) for s in shapes]
                assert got == want
                if leaf_calls:
                    assert set(leaf_calls) == {leaf for tree in completed for leaf in leaves(tree)}
            compared[k] += len(shapes)
    assert all(compared[k] for k in range(5))


@pytest.mark.parametrize("kind", ["axis", "hyperplane", "grid"])
def test_permutation_costs_rescores_only_the_last_rules_path(kind, monkeypatch):
    # a complete ordering folds only its last rule's path to the root, and a
    # prefix's other subtrees are costed once for all its last rules: fewer
    # combine calls than folding each of the trees from its leaves, k apiece
    k = 3
    calls = counted_classify(monkeypatch)
    leaf_calls = Counter()
    combines = []
    order_sensitive = _order_sensitive(leaf_calls)

    def combine(a, b, rule_id):
        combines.append(rule_id)
        return order_sensitive.combine(a, b, rule_id)

    rules, space = costed_table(kind, 3, k)
    got = permutation_costs(rules, k, space, Objective(order_sensitive.leaf_cost, combine))
    assert max(calls.values()) == 1
    assert max(leaf_calls.values()) == 1
    assert got
    assert len(combines) < k * len(got)
    shapes = [shape for _, shape in enumerate_permutation_trees(rules, k)]
    assert got == [tree_cost(t, order_sensitive) for t in complete_shapes(shapes, rules, space)]


def test_permutation_costs_rejects_oversized_k():
    data = random_instance(5, n_min=4, n_max=5)
    rules = enumerate_axis_rules(data)[:3]
    for table, k in (([], 1), (rules, 4)):
        with pytest.raises(ValueError) as got:
            permutation_costs(table, k, data, MISCLASSIFICATION)
        assert str(got.value) == f"cannot choose {k} of {len(table)} rules"


def test_below_two_rules_no_ancestry_matrix_is_built(monkeypatch):
    def refuse(rules):
        raise AssertionError("ancestry matrix built for a tree of fewer than two rules")

    monkeypatch.setattr(opttree.generator, "ancestry_matrix", refuse)
    data = random_instance(5, n_min=5, n_max=6)
    rules = enumerate_hyperplane_rules(data)
    for k in (0, 1):
        assert len(list(enumerate_permutation_trees(rules, k))) == math.comb(len(rules), k)
        assert len(permutation_costs(rules, k, data, MISCLASSIFICATION)) == math.comb(len(rules), k)


@pytest.mark.parametrize("kind", ["axis", "hyperplane", "surface2"])
def test_count_tree_shapes_equals_generated_trees(kind, monkeypatch):
    expanded = Counter()
    cache = opttree.generator.cache

    def counted(count):
        # the memo's misses: the (mask, j) states count_tree_shapes expands
        def expand(allowed, j):
            expanded[allowed, j] += 1
            return count(allowed, j)

        return cache(expand)

    for seed in (3, 11):
        rules, _ = rule_table(kind, random_instance(seed, n_min=6, n_max=7))
        matrix = ancestry_matrix(rules)
        for k in range(4):
            combos = itertools.combinations(range(len(rules)), k)
            want = sum(len(all_tree_shapes(c, matrix)) for c in combos)
            expanded.clear()
            with monkeypatch.context() as patched:
                patched.setattr(opttree.generator, "cache", counted)
                assert count_tree_shapes(range(len(rules)), k, matrix) == want
            # one memo for the whole call: every state is expanded once, and
            # a tree of at most one rule is counted without one
            assert max(expanded.values(), default=1) == 1
            assert ((1 << len(rules)) - 1, k) in expanded if k >= 2 else not expanded


def _random_sign_matrix(rng, n):
    """An n x n matrix of -1, 0 and +1 entries, asymmetric, with a zero diagonal."""
    return tuple(tuple(0 if i == j else rng.choice((-1, 0, 0, 1, 1)) for j in range(n)) for i in range(n))


def test_count_tree_shapes_equals_per_combination_count():
    # the mask recurrence over a whole index set against the per-combination
    # generator, on matrices where i may relate to j and not j to i, and
    # rules on opposite sides of a root need not relate to each other
    rng = random.Random(20)
    compared = Counter()
    for _ in range(12):
        n = rng.randint(5, 8)
        matrix = _random_sign_matrix(rng, n)
        indices = sorted(rng.sample(range(n), rng.randint(n - 2, n)))
        for k in range(6):
            want = sum(len(all_tree_shapes(c, matrix)) for c in itertools.combinations(indices, k))
            # a tree of at most one rule reads no entry
            assert count_tree_shapes(indices, k, matrix if k >= 2 else None) == want
            compared[k] += want
    assert all(compared[k] for k in range(6))


def test_count_tree_shapes_catalan_and_factorial():
    # 1D thresholds order every pair (the smaller threshold goes left), so
    # the trees over k of them are the binary search trees: Catalan(k)
    for k in range(8):
        data = make_dataset([(float(x),) for x in range(k)], [0] * k)
        rules = enumerate_axis_rules(data) if k else []
        matrix = ancestry_matrix(rules)
        assert all(matrix[i][j] == (1 if j < i else -1) for i in range(k) for j in range(k) if i != j)
        assert count_tree_shapes(range(k), k, matrix) == math.comb(2 * k, k) // (k + 1)
    # every entry +1: any rule roots and all others go left, k! chains
    for k in range(6):
        assert count_tree_shapes(range(k), k, chain_matrix(k)) == math.factorial(k)
    # more rules than indices: no tree
    assert count_tree_shapes(range(2), 3, chain_matrix(2)) == 0


@pytest.mark.parametrize("kind", ["axis", "hyperplane", "surface2"])
def test_permutation_trees_equal_sliced_and_relabeled_reference(kind):
    # the per-combination pipeline: each combination's own matrix (equal to
    # its slice of the table's matrix), local orderings, ids mapped back
    def reference(rules, k, matrix):
        out = []
        for combo in itertools.combinations(range(len(rules)), k):
            local = ancestry_matrix([rules[i] for i in combo])
            sliced = tuple(tuple(matrix[i][j] for j in combo) for i in combo)
            assert local == sliced
            for perm in itertools.permutations(range(k)):
                tree = spec_tree_from_permutation(perm, local)
                if tree is not None:
                    out.append((tuple(combo[p] for p in perm), relabel(tree, combo)))
        return out

    compared = Counter()
    for seed in (3, 11):
        rules, _ = rule_table(kind, random_instance(seed, n_min=6, n_max=7))
        matrix = ancestry_matrix(rules)
        for k in range(4):
            # orderings are distinct, so sorting on them alone is exact
            want = sorted(reference(rules, k, matrix), key=lambda pair: pair[0])
            assert list(enumerate_permutation_trees(rules, k)) == want
            assert list(enumerate_permutation_trees(rules, k, matrix)) == want
            compared[k] += len(want)
    assert all(compared[k] for k in range(4))


@pytest.mark.parametrize("kind", ["axis", "hyperplane", "surface2", "grid"])
def test_walk_places_each_prefix_once_per_call(kind, monkeypatch):
    # one walk over the table's k-permutations: a prefix that many
    # combinations share is placed once, so no (placement, rule) step
    # repeats within a call. A placement fixes its tree and so its ordering.
    # permutation_costs walks only its (k-1)-prefixes through descend: it
    # reads their completions off side masks (the next test), so none of
    # its steps extends a placement of k-1 rules.
    steps = Counter()
    descend = opttree.generator.descend

    def counted(placed, rid, matrix):
        steps[frozenset(placed.items()), rid] += 1
        return descend(placed, rid, matrix)

    monkeypatch.setattr(opttree.generator, "descend", counted)
    compared = Counter()
    for seed in (3, 11):
        for k in range(5):
            rules, space = costed_table(kind, seed, k)
            walks = (
                (k, lambda: list(enumerate_permutation_trees(rules, k))),
                (k - 1, lambda: permutation_costs(rules, k, space, MISCLASSIFICATION)),
            )
            for walked, walk in walks:
                steps.clear()
                walk()
                assert max(steps.values(), default=1) == 1
                assert all(len(placed) < walked for placed, _ in steps)
                compared[k] += len(steps)
    assert all(compared[k] for k in range(1, 5))


def _self_related_matrix(rng, n):
    """An n x n matrix of -1, 0 and +1 entries whose diagonal need not be 0,
    so a placed rule may reach a position below itself."""
    return tuple(tuple(rng.choice((-1, 0, 1, 1)) for _ in range(n)) for _ in range(n))


@pytest.mark.parametrize("kind", ["axis", "hyperplane", "surface2", "grid", "self-related"])
def test_completions_read_off_side_masks_equal_the_step_rule(kind):
    # every valid (k-1)-prefix gets completions, and the (rule, position)
    # pairs read off its side masks are exactly the valid steps (_step) of
    # its free rules, each rule at one position
    compared = Counter()
    rng = random.Random(24)
    for seed in (3, 11):
        for k in range(1, 5):
            if kind == "self-related":
                n = rng.randint(5, 8)
                matrix = _self_related_matrix(rng, n)
            else:
                rules, _ = costed_table(kind, seed, k)
                n = len(rules)
                matrix = ancestry_matrix(rules)
            walked = []
            opttree.generator._walk(
                range(n), n, k - 1, matrix, lambda order, placed, p: walked.append(tuple(order))
            )
            prefixes = [o for o in walked if len(o) == k - 1] if k > 1 else [()]
            completed = []

            def complete(order, placed, last, steps):
                completed.append(tuple(order))
                got = sorted((rid, q) for q, mask in steps for rid in range(n) if mask >> rid & 1)
                want = []
                for rid in range(n):
                    if rid not in order:
                        q = opttree.generator._step(placed, rid, matrix, last)
                        if q is not None:
                            want.append((rid, q))
                assert got == want
                assert all(mask for _, mask in steps)
                compared[k] += len(want)

            opttree.generator._walk_completions(n, k, matrix, lambda *visit: None, complete)
            assert completed == prefixes
    assert all(compared[k] for k in range(1, 5))


def test_all_trees_empty_and_single():
    data = make_dataset([(1.0,), (3.0,)], [0, 1])
    assert all_trees((), (), [], data) == [DLeaf(data)]
    rules = enumerate_axis_rules(data)
    matrix = ancestry_matrix(rules)
    (tree,) = all_trees((0,), matrix, rules, data)
    # single split at x=1: the boundary point goes left, the rest right
    assert leaves(tree) == [(data[0],), (data[1],)]


def _satisfies(tree, min_leaf, max_depth):
    ok_leaves = all(len(leaf) >= min_leaf for leaf in leaves(tree))
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
                assert matrix[shape.rule_id][rid] == side
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
