"""End-to-end command-line behavior: outputs, files, exit codes."""

import contextlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import opttree
from opttree.cli import CHECK_MAX_PERMUTATIONS, EXIT_CLOSED_STDOUT, build_parser, main

# Four lines around a square: each line's defining points sit strictly inside
# every other line's positive half-plane, so all 24 orderings of the four
# rules are admissible (chain trees only).
SQUARE_RULES = """\
hyp 10 0 10 1
hyp 0 10 1 10
hyp -10 0 -10 1
hyp 0 -10 1 -10
"""

# The lines from the generator fixture: rules 0 and 2 unrelated, three trees.
THREE_TREE_RULES = """\
hyp -3 6 -3 -1
hyp 4 2 5 6
hyp 1 3 -4 -3
hyp 4 1 -3 -3
"""


def write_csv(path, points, labels=None):
    d = len(points[0])
    header = ",".join(f"f{i}" for i in range(d))
    lines = []
    if labels is None:
        lines.append(header)
        for p in points:
            lines.append(",".join(str(c) for c in p))
    else:
        lines.append(header + ",label")
        for p, y in zip(points, labels):
            lines.append(",".join(str(c) for c in p) + f",{y}")
    path.write_text("\n".join(lines) + "\n")


def seeded_csv(path, seed, n=10):
    rng = random.Random(seed)
    points = [(round(rng.uniform(0, 10), 3), round(rng.uniform(0, 10), 3)) for _ in range(n)]
    labels = [rng.randint(0, 1) for _ in range(n)]
    write_csv(path, points, labels)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def grab(out, key):
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no '{key}:' line in output:\n{out}")


def test_fit_writes_tree_and_reports(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    write_csv(csv, [(1.0, 2.0), (3.0, 4.0), (5.0, 0.0), (2.0, 6.0)], [0, 1, 0, 1])
    out_file = tmp_path / "tree.txt"
    code, out = run(capsys, "fit", csv, "--rules", "axis", "--k", "2", "--out", out_file)
    assert code == 0
    assert grab(out, "score") == "0"
    assert grab(out, "misclassified") == "0"
    assert out_file.read_text().strip() == grab(out, "tree")
    assert "leaf 0:" in out


def test_fit_k_zero_scores_minority_count(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    write_csv(csv, [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [1, 1, 0])
    code, out = run(capsys, "fit", csv, "--k", "0")
    assert code == 0
    assert grab(out, "tree") == "(leaf 3)"
    assert grab(out, "score") == "1"


def test_fit_hyperplane_separable_k1(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    write_csv(
        csv,
        [(0.0, 0.0), (1.0, 0.0), (2.0, 3.0), (0.5, 2.0), (1.0, -2.0), (2.0, -1.0)],
        [1, 1, 1, 1, 0, 0],
    )
    code, out = run(capsys, "fit", csv, "--rules", "hyperplane", "--k", "1")
    assert code == 0
    assert grab(out, "score") == "0"


def test_fit_malformed_csv_exits_2(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text("a,b\n1,2\n")
    assert run(capsys, "fit", csv)[0] == 2
    # float() and int() would read 1_5 as 15 and the non-ASCII digits as 3
    for row in ("nan,3,1", "inf,3,1", "-inf,3,1", "1_5,3,1", "\uff13,3,1", "2,3,\u0663"):
        csv.write_text(f"f0,f1,label\n1,2,0\n{row}\n")
        assert main(["fit", str(csv), "--k", "1"]) == 2
        assert f"{csv}:3:" in capsys.readouterr().err
    for text, message in (
        ("", f"{csv}: empty file"),
        ("a,b,label\n1,2,0\n", f"{csv}: header must be f0..f1,label"),
        ("f0,f1,label\n1,2,0\n1,2\n", f"{csv}:3: expected 3 columns"),
        ("f0,f1,label\n", f"{csv}: no data rows"),
    ):
        csv.write_text(text)
        assert main(["fit", str(csv), "--k", "1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["fit", "--k", "1"], ["kd", "--max-depth", "2"]])
def test_duplicate_point_exits_2(tmp_path, capsys, argv):
    # no rule separates two rows at one point, whatever their labels
    csv = tmp_path / "d.csv"
    write_csv(csv, [(1, 2), (3, 4), (1, 2)], [0, 1, 1] if argv[0] == "fit" else None)
    assert main([argv[0], str(csv), *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: {csv}:4: duplicate point (first on line 2)\n"


def test_fit_rules_file_non_finite_exits_2(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    write_csv(csv, [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)], [0, 1, 0])
    rules = tmp_path / "r.txt"
    for line in ("axis 0 nan 0", "hyp 0 0 inf 1"):
        rules.write_text(f"axis 1 0 0\n{line}\n")
        assert main(["fit", str(csv), "--k", "1", "--rules-file", str(rules)]) == 2
        assert f"{rules}:2: non-finite value" in capsys.readouterr().err


def test_fit_rules_file_python_only_number_exits_2(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    write_csv(csv, [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)], [0, 1, 0])
    rules = tmp_path / "r.txt"
    for line in ("axis 0 1_0 0", "axis \u0661 1 0.5"):
        rules.write_text(f"axis 1 0 0\n{line}\n")
        assert main(["fit", str(csv), "--k", "1", "--rules-file", str(rules)]) == 2
        assert f"{rules}:2: malformed number" in capsys.readouterr().err


def test_fit_rules_file_fractional_dimension_exits_2(tmp_path, capsys):
    # a fractional dimension token must not be truncated to dimension 0
    csv = tmp_path / "d.csv"
    write_csv(csv, [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)], [0, 1, 0])
    rules = tmp_path / "r.txt"
    for line in ("axis 0.9 1 0.5", "axis -0.5 1 0.5"):
        rules.write_text(f"axis 1 0 0\n{line}\n")
        assert main(["fit", str(csv), "--k", "1", "--rules-file", str(rules)]) == 2
        assert f"{rules}:2: dimension must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        ("axis 1 0 0\naxis 0 1\n", "{rules}:2: axis needs a dimension and one point"),
        ("axis 1 0 0\naxis 2 1 1\n", "{rules}:2: dimension out of range"),
        ("axis 1 0 0\nhyp 0 0 1\n", "{rules}:2: hyp needs 2 points"),
        ("axis 1 0 0\nhyp 0 0 2 2 1 1\n", "{rules}:2: hyp needs 2 points"),
        ("axis 1 0 0\nhyp 1 1 1 1\n", "{rules}:2: points are affinely dependent"),
        ("axis 1 0 0\nsplit 0 1 1\n", "{rules}:2: unknown rule tag 'split'"),
        ("\n", "{rules}: no rules"),
    ],
)
def test_fit_rules_file_malformed_exits_2(tmp_path, capsys, text, message):
    csv = tmp_path / "d.csv"
    write_csv(csv, [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)], [0, 1, 0])
    rules = tmp_path / "r.txt"
    rules.write_text(text)
    assert main(["fit", str(csv), "--k", "1", "--rules-file", str(rules)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(rules=rules)}\n"


def test_surface2_rule_table_errors_exit_2(tmp_path, capsys):
    csv, line, rules = tmp_path / "d.csv", tmp_path / "line.csv", tmp_path / "r.txt"
    solid = tmp_path / "solid.csv"
    write_csv(csv, [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)], [0, 1, 0])
    write_csv(line, [(0.0,), (1.0,), (2.0,)], [0, 1, 0])
    write_csv(solid, [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)], [0, 1])
    rules.write_text("axis 1 0 0\n")
    for argv, message in (
        ([csv, "--rules-file", rules], "--rules-file cannot be combined with surface2"),
        ([line], "surface2 rules require 2D data"),
        # the lifted space has 5 dimensions; the message counts the user's points
        ([csv], "surface2 rules need at least 5 points, got 3"),
    ):
        assert main(["fit", *map(str, argv), "--k", "1", "--rules", "surface2"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    # a hyperplane in 3-D is defined by three points
    assert main(["fit", str(solid), "--k", "1", "--rules", "hyperplane"]) == 2
    assert capsys.readouterr().err == "error: need at least 3 points, got 2\n"


@pytest.mark.parametrize(
    "command,option,value",
    [
        ("fit", "--min-leaf", "-3"),
        ("fit", "--max-depth", "-1"),
        ("kd", "--max-depth", "-1"),
        ("check", "--k", "-1"),
    ],
)
def test_negative_constraint_exits_2(tmp_path, capsys, command, option, value):
    csv = tmp_path / "d.csv"
    write_csv(csv, [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)], [0, 1, 0])
    assert main([command, str(csv), option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {option} must be non-negative" in captured.err


@pytest.mark.parametrize("value", ["٢", "1_0", "２"])
@pytest.mark.parametrize(
    "command,option",
    [("fit", "--k"), ("check", "--k"), ("fit", "--min-leaf"), ("fit", "--max-depth"), ("kd", "--max-depth")],
)
def test_integer_option_python_only_number_exits_2(tmp_path, capsys, command, option, value):
    # int() reads these as 2, 10 and 2; an option takes plain ASCII digits only
    csv = tmp_path / "d.csv"
    write_csv(csv, [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)], [0, 1, 0])
    with pytest.raises(SystemExit) as exc:
        main([command, str(csv), option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: invalid int value: {value!r}" in captured.err


def test_fit_infeasible_exits_3(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    write_csv(csv, [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)], [0, 1, 0])
    code, _ = run(capsys, "fit", csv, "--k", "2", "--min-leaf", "5")
    assert code == 3


def test_fit_deterministic_outputs(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    seeded_csv(csv, 77)
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    c1, out1 = run(capsys, "fit", csv, "--k", "2", "--out", f1)
    c2, out2 = run(capsys, "fit", csv, "--k", "2", "--out", f2)
    assert c1 == c2 == 0
    assert out1 == out2
    assert f1.read_bytes() == f2.read_bytes()


def test_main_reuses_parser_without_leaking_options(tmp_path, capsys):
    # main parses every call with one parser per process; constrained and
    # plain calls in turn print what calls through a fresh parser print
    csv = tmp_path / "d.csv"
    seeded_csv(csv, 1, n=8)

    def fresh(*argv):
        args = build_parser().parse_args([str(a) for a in argv])
        code = args.func(args)
        return code, capsys.readouterr().out

    constrained = ("fit", csv, "--min-leaf", "2", "--max-depth", "2")
    calls = [constrained, ("fit", csv), ("check", csv, "--k", "2")] * 2
    want = [fresh(*argv) for argv in calls]
    # a leaked constraint or --k would change the plain fit's tree
    assert want[0] != want[1] != fresh("fit", csv, "--k", "2")
    assert [run(capsys, *argv) for argv in calls] == want


def test_fit_score_matches_check(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    seeded_csv(csv, 123, n=10)
    code_fit, out_fit = run(capsys, "fit", csv, "--rules", "axis", "--k", "2")
    code_check, out_check = run(capsys, "check", csv, "--rules", "axis", "--k", "2")
    assert code_fit == 0 and code_check == 0
    assert grab(out_fit, "score") == grab(out_check, "solver score")
    assert grab(out_check, "result") == "PASS"
    assert grab(out_check, "solver score") == grab(out_check, "oracle score")


def test_check_square_rules_chain_family(tmp_path, capsys):
    # all-positive matrix: every ordering of the 4 rules is a distinct chain
    csv = tmp_path / "d.csv"
    write_csv(csv, [(0.0, 0.0), (5.0, 5.0), (-5.0, 2.0), (3.0, -4.0)], [0, 1, 0, 1])
    rules = tmp_path / "rules.txt"
    rules.write_text(SQUARE_RULES)
    code, out = run(capsys, "check", csv, "--k", "4", "--rules-file", rules)
    assert code == 0
    assert grab(out, "permutations") == "24"
    assert grab(out, "valid permutations") == "24"
    assert grab(out, "trees generated") == "24"
    assert grab(out, "result") == "PASS"


def test_check_three_tree_configuration(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    write_csv(csv, [(0.0, 0.0), (2.0, 2.0), (-2.0, 1.0), (1.0, -2.0)], [0, 1, 1, 0])
    rules = tmp_path / "rules.txt"
    rules.write_text(THREE_TREE_RULES)
    code, out = run(capsys, "check", csv, "--k", "4", "--rules-file", rules)
    assert code == 0
    assert grab(out, "permutations") == "24"
    assert grab(out, "valid permutations") == "3"
    assert grab(out, "trees generated") == "3"
    assert grab(out, "result") == "PASS"


def test_check_fails_when_permutations_and_trees_disagree(tmp_path, capsys, monkeypatch):
    # each tree is rebuilt by exactly one permutation, so a tree count one
    # above the valid permutations is a mismatch even when the scores agree
    import opttree.cli

    count = opttree.cli.count_tree_shapes
    monkeypatch.setattr(opttree.cli, "count_tree_shapes", lambda indices, k, matrix: count(indices, k, matrix) + 1)
    csv = tmp_path / "d.csv"
    write_csv(csv, [(0.0, 0.0), (2.0, 2.0), (-2.0, 1.0), (1.0, -2.0)], [0, 1, 1, 0])
    rules = tmp_path / "rules.txt"
    rules.write_text(THREE_TREE_RULES)
    code, out = run(capsys, "check", csv, "--k", "4", "--rules-file", rules)
    assert code == 1
    assert grab(out, "valid permutations") == "3"
    assert grab(out, "trees generated") == "4"
    assert grab(out, "solver score") == grab(out, "oracle score")
    assert grab(out, "result") == "FAIL"


# Every line `check` prints for four seeded inputs. The counts and the oracle
# score come from the permutation pipeline alone, so these pin the oracle
# itself, not only its agreement with the solver. Keys: rules, seed, n, k.
CHECK_OUTPUTS = {
    ("axis", 21, 10, 3): [
        "combinations: 1140",
        "permutations: 6840",
        "valid permutations: 5700",
        "trees generated: 5700",
        "solver score: 1",
        "oracle score: 1",
        "result: PASS",
    ],
    ("hyperplane", 13, 8, 3): [
        "combinations: 3276",
        "permutations: 19656",
        "valid permutations: 4048",
        "trees generated: 4048",
        "solver score: 1",
        "oracle score: 1",
        "result: PASS",
    ],
    ("surface2", 31, 9, 2): [
        "combinations: 7875",
        "permutations: 15750",
        "valid permutations: 3295",
        "trees generated: 3295",
        "solver score: 1",
        "oracle score: 1",
        "result: PASS",
    ],
    # two points tie at y=1.124, so the axis table holds 14 rules, not 13
    ("axis", 31, 7, 4): [
        "combinations: 1001",
        "permutations: 24024",
        "valid permutations: 13538",
        "trees generated: 13538",
        "solver score: 0",
        "oracle score: 0",
        "result: PASS",
    ],
}


@pytest.mark.parametrize(
    "rules,seed,n,k",
    list(CHECK_OUTPUTS),
    ids=[f"{r}-{s}-{n}" + ("" if k == 3 else f"-k{k}") for r, s, n, k in CHECK_OUTPUTS],
)
def test_check_output_is_pinned(tmp_path, capsys, rules, seed, n, k):
    csv = tmp_path / "d.csv"
    seeded_csv(csv, seed, n=n)
    code, out = run(capsys, "check", csv, "--rules", rules, "--k", str(k))
    assert code == 0
    assert out.splitlines() == CHECK_OUTPUTS[rules, seed, n, k]


# `check` at k=0 and k=1 on 14 seeded points (seed 5), where no tree of
# fewer than two rules reads an ancestry entry. Keys: rules, k; values: the
# combination count (every count line equals it at k <= 1) and the score.
CHECK_ONE_RULE_OUTPUTS = {("axis", 1): (28, 2), ("surface2", 0): (1, 5), ("surface2", 1): (2002, 0)}


def test_check_below_two_rules_builds_no_ancestry_matrix(tmp_path, capsys, monkeypatch):
    import opttree.cli
    import opttree.generator

    def refuse(rules):
        raise AssertionError("ancestry matrix built for a tree of fewer than two rules")

    monkeypatch.setattr(opttree.cli, "ancestry_matrix", refuse)
    monkeypatch.setattr(opttree.generator, "ancestry_matrix", refuse)
    csv = tmp_path / "d.csv"
    seeded_csv(csv, 5, n=14)
    for (rules, k), (n, score) in CHECK_ONE_RULE_OUTPUTS.items():
        code, out = run(capsys, "check", csv, "--rules", rules, "--k", k)
        assert code == 0
        assert out.splitlines() == [
            *(f"{key}: {n}" for key in ("combinations", "permutations", "valid permutations", "trees generated")),
            f"solver score: {score}",
            f"oracle score: {score}",
            "result: PASS",
        ]


# A scene of five segments; three of them cross others and are fragmented.
PINNED_SCENE = "0 0 4 0\n1 -2 1 3\n3 -1 3 2\n-1 1 5 2\n2 -3 2 -1\n"

# Every line the other subcommands print for fixed inputs. Keys: an id, the
# (seed, n) of the seeded CSV (None for no CSV) and the arguments, where
# "{csv}" and "{scene}" stand for the input files.
PINNED_OUTPUTS = {
    ("fit-axis-k2", (41, 10), ("fit", "{csv}", "--rules", "axis", "--k", "2")): [
        "tree: (node axis 0 7.316 (node axis 1 5.764 (leaf 5) (leaf 3)) (leaf 2))",
        "score: 1",
        "leaf 0: size=5 majority=1 errors=1",
        "leaf 1: size=3 majority=0 errors=0",
        "leaf 2: size=2 majority=0 errors=0",
        "misclassified: 1",
    ],
    (
        "fit-axis-k3-constrained",
        (42, 10),
        ("fit", "{csv}", "--rules", "axis", "--k", "3", "--min-leaf", "2", "--max-depth", "2"),
    ): [
        "tree: (node axis 0 2.75 (node axis 1 2.232 (leaf 2) (leaf 2))"
        " (node axis 0 6.499 (leaf 3) (leaf 3)))",
        "score: 0",
        "leaf 0: size=2 majority=1 errors=0",
        "leaf 1: size=2 majority=0 errors=0",
        "leaf 2: size=3 majority=0 errors=0",
        "leaf 3: size=3 majority=1 errors=0",
        "misclassified: 0",
    ],
    ("fit-hyperplane-k1", (43, 10), ("fit", "{csv}", "--rules", "hyperplane", "--k", "1")): [
        "tree: (node hyp 0.208847765 -0.977948164 6.24404521 (leaf 7) (leaf 3))",
        "score: 1",
        "leaf 0: size=7 majority=0 errors=1",
        "leaf 1: size=3 majority=1 errors=0",
        "misclassified: 1",
    ],
    ("fit-surface2-k1", (44, 9), ("fit", "{csv}", "--rules", "surface2", "--k", "1")): [
        "tree: (node hyp 0.890556291 -0.442914007 -0.0754474008 -0.038136012 0.0599166874"
        " -0.894099353 (leaf 6) (leaf 3))",
        "score: 0",
        "leaf 0: size=6 majority=0 errors=0",
        "leaf 1: size=3 majority=1 errors=0",
        "misclassified: 0",
    ],
    ("bsp", None, ("bsp", "{scene}")): [
        "tree: (node seg 0 0 4 0 (node seg 1 0 1 3 (node seg -1 1 1 1.33333333 (leaf 0) (leaf 0))"
        " (node seg 3 0 3 2 (node seg 1 1.33333333 3 1.66666667 (leaf 0) (leaf 0))"
        " (node seg 3 1.66666667 5 2 (leaf 0) (leaf 0)))) (node seg 1 -2 1 0 (leaf 0)"
        " (node seg 3 -1 3 0 (node seg 2 -3 2 -1 (leaf 0) (leaf 0)) (leaf 0))))",
        "nodes: 19",
    ],
    ("mcmp-six", None, ("mcmp", "30,35,15,5,10,20,25")): [
        "tree: (node cut (node cut (leaf 1) (node cut (leaf 1) (leaf 1)))"
        " (node cut (node cut (leaf 1) (leaf 1)) (leaf 1)))",
        "cost: 15125",
        "order: ((A×(B×C))×((D×E)×F))",
    ],
    ("kd-depth3", (45, 10), ("kd", "{csv}", "--max-depth", "3")): [
        "tree: (node axis 0 2.719 (node axis 1 3.387 (node axis 0 0.723 (leaf 0) (leaf 0))"
        " (node axis 0 0.75 (leaf 1) (leaf 1))) (node axis 1 2.11 (node axis 0 2.839 (leaf 0) (leaf 0))"
        " (node axis 0 3.11 (leaf 0) (leaf 1))))",
        "score: 3",
        "levels: 0 1 0",
    ],
}


@pytest.mark.parametrize(
    "name,seeded,argv", list(PINNED_OUTPUTS), ids=[key[0] for key in PINNED_OUTPUTS]
)
def test_subcommand_output_is_pinned(tmp_path, capsys, name, seeded, argv):
    csv, scene = tmp_path / "d.csv", tmp_path / "scene.txt"
    if seeded is not None:
        seeded_csv(csv, *seeded)
    scene.write_text(PINNED_SCENE)
    code, out = run(capsys, *(a.format(csv=csv, scene=scene) for a in argv))
    assert code == 0
    assert out.splitlines() == PINNED_OUTPUTS[name, seeded, argv]


def test_check_guardrails(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    seeded_csv(csv, 5, n=15)
    assert run(capsys, "check", csv, "--k", "1")[0] == 2
    small = tmp_path / "small.csv"
    seeded_csv(small, 5, n=6)
    assert run(capsys, "check", small, "--k", "5")[0] == 2
    # 14 points give C(14, 5) = 2,002 surface2 rules: C(2002, 3) * 3! permutations
    seeded_csv(csv, 5, n=14)
    assert main(["check", str(csv), "--rules", "surface2", "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: check is limited to {CHECK_MAX_PERMUTATIONS} permutations, got 8012004000" in captured.err


def test_k_above_rule_count_exits_2(tmp_path, capsys):
    # 1-D data gives one axis rule per distinct value
    csv = tmp_path / "d.csv"
    for command, n, k in (("fit", 5, 6), ("check", 3, 4)):
        write_csv(csv, [(float(x),) for x in range(n)], [x % 2 for x in range(n)])
        assert run(capsys, command, csv, "--k", k - 1)[0] == 0
        assert main([command, str(csv), "--k", str(k)]) == 2
        assert f"error: cannot choose {k} of {n} rules" in capsys.readouterr().err


def test_check_rejects_out(tmp_path, capsys):
    # check writes no tree, so --out is a usage error rather than a no-op
    csv = tmp_path / "d.csv"
    seeded_csv(csv, 5, n=6)
    out_file = tmp_path / "t.txt"
    with pytest.raises(SystemExit) as exc:
        main(["check", str(csv), "--k", "1", "--out", str(out_file)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --out" in captured.err
    assert not out_file.exists()
    # the tree-writing commands keep it
    write_csv(csv, [(0.0,), (1.0,), (2.0,)])
    for argv in (["mcmp", "2,3,4"], ["kd", str(csv), "--max-depth", "1"]):
        out_file.unlink(missing_ok=True)
        code, out = run(capsys, *argv, "--out", out_file)
        assert code == 0
        assert out_file.read_text() == grab(out, "tree") + "\n"


def test_bsp_command(tmp_path, capsys):
    scene = tmp_path / "scene.txt"
    scene.write_text("0 0 1 0\n2 -1 2 1\n")
    out_file = tmp_path / "tree.txt"
    code, out = run(capsys, "bsp", scene, "--out", out_file)
    assert code == 0
    assert grab(out, "nodes") == "5"
    assert out_file.read_text().strip() == grab(out, "tree")


def test_bsp_malformed_scene(tmp_path, capsys):
    scene = tmp_path / "scene.txt"
    scene.write_text("0 0 1\n")
    assert run(capsys, "bsp", scene)[0] == 2
    for line in ("0 0 1 nan", "0 0 1_0 0", "0 0 \uff11 0"):
        scene.write_text(f"1 1 2 2\n{line}\n")
        assert main(["bsp", str(scene)]) == 2
        assert f"{scene}:2:" in capsys.readouterr().err
    for text, message in (("1 1 2 2\n1 1 1 1\n", f"{scene}:2: degenerate segment"), ("\n", f"{scene}: no segments")):
        scene.write_text(text)
        assert main(["bsp", str(scene)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_mcmp_command(capsys):
    code, out = run(capsys, "mcmp", "10,30,5,60")
    assert code == 0
    assert grab(out, "cost") == "4500"
    assert grab(out, "order") == "((A×B)×C)"


@pytest.mark.parametrize("command", ["mcmp", "check"])
def test_closed_stdout_exits_quietly(tmp_path, command):
    # the reader closes the pipe before the command starts, so the write
    # fails whatever the timing: no error line, no traceback from the
    # exit-time flush, and the documented code
    csv = tmp_path / "d.csv"
    seeded_csv(csv, 3, n=6)
    argv = {"mcmp": ["mcmp", "10,30,5,60"], "check": ["check", str(csv), "--rules", "axis", "--k", "2"]}[command]
    src = str(Path(opttree.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "opttree.cli", *argv], stdout=write, stderr=subprocess.PIPE, env=env, timeout=60
        )
    finally:
        os.close(write)
    assert proc.returncode == EXIT_CLOSED_STDOUT
    assert proc.stderr == b""


def test_main_writes_to_a_redirected_stdout():
    # in-process callers capture the output with a StringIO, as the benchmark does
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["mcmp", "10,30,5,60"]) == 0
    assert grab(out.getvalue(), "cost") == "4500"


def test_mcmp_single_matrix(capsys):
    code, out = run(capsys, "mcmp", "10,30")
    assert code == 0
    assert grab(out, "cost") == "0"
    assert grab(out, "order") == "A"


def test_mcmp_malformed(capsys):
    assert run(capsys, "mcmp", "10")[0] == 2
    assert run(capsys, "mcmp", "10,x,3")[0] == 2
    assert run(capsys, "mcmp", "10,3_0,3")[0] == 2
    assert run(capsys, "mcmp", "10,\u0663,3")[0] == 2
    # an empty field is malformed, not skipped
    for dims in ("10,,30", "10,30,", ",10,30"):
        assert main(["mcmp", dims]) == 2
        assert capsys.readouterr().err == f"error: malformed dimension list {dims!r}\n"
    for dims in ("10,0,3", "10,-3,3"):
        assert main(["mcmp", dims]) == 2
        assert capsys.readouterr().err == "error: dimensions must be positive\n"


def test_kd_command(tmp_path, capsys):
    csv = tmp_path / "points.csv"
    write_csv(csv, [(30, 40), (5, 25), (10, 12), (70, 70), (50, 30), (35, 45), (60, 10)])
    code, out = run(capsys, "kd", csv, "--max-depth", "3")
    assert code == 0
    assert grab(out, "levels") == "0 1 0"


def test_kd_requires_depth(tmp_path, capsys):
    csv = tmp_path / "points.csv"
    write_csv(csv, [(1, 2), (3, 4)])
    assert run(capsys, "kd", csv)[0] == 2
