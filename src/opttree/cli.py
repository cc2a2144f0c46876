"""Command-line front end.

Subcommands: fit, check, bsp, mcmp, kd. Exit codes: 0 ok, 1 check mismatch,
2 malformed input, 3 infeasible constraints.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Sequence

from .data import Dataset, dimension, load_csv, plain_number
from .generator import count_tree_shapes, permutation_costs
from .rules import AxisParallel, Rule, ancestry_matrix, hyperplane_from_points
from .rule_systems import (
    SceneSegment,
    MatrixDim,
    enumerate_axis_rules,
    enumerate_hyperplane_rules,
    enumerate_surface2_rules,
    lift_dataset,
)
from .solver import (
    CHAIN_COST,
    LEAF_BALANCE,
    MISCLASSIFICATION,
    TREE_SIZE,
    SolveConstraints,
    majority_label,
    parenthesization,
    solve,
    solve_bsp,
    solve_kd,
    solve_mcmp,
    tree_cost,
)
from .treefmt import serialize
from .trees import DecisionTree, DNode, leaves

CHECK_MAX_N = 14
CHECK_MAX_K = 4
# check refuses more than this many permutations, C(K, k)·k! = K!/(K-k)!:
# exactly the k-permutations of the K rule ids that its oracle walk may try
CHECK_MAX_PERMUTATIONS = 1_000_000


def load_scene(path: str) -> tuple[SceneSegment, ...]:
    """One segment per line: x1 y1 x2 y2."""
    segments = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 coordinates")
            try:
                x1, y1, x2, y2 = (float(plain_number(p)) for p in parts)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed coordinate") from None
            if not all(math.isfinite(c) for c in (x1, y1, x2, y2)):
                raise ValueError(f"{path}:{lineno}: non-finite coordinate")
            if (x1, y1) == (x2, y2):
                raise ValueError(f"{path}:{lineno}: degenerate segment")
            segments.append(SceneSegment((x1, y1), (x2, y2), len(segments)))
    if not segments:
        raise ValueError(f"{path}: no segments")
    return tuple(segments)


def load_rules_file(path: str, ndims: int) -> list[Rule]:
    """Explicit point-defined rules, one per line.

    axis <dim> <coords of one boundary point>
    hyp  <coords of D boundary points>
    """
    rules: list[Rule] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            tag, vals = parts[0], parts[1:]
            try:
                nums = [float(plain_number(v)) for v in vals]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed number") from None
            if not all(math.isfinite(v) for v in nums):
                raise ValueError(f"{path}:{lineno}: non-finite value")
            if tag == "axis":
                if len(nums) != 1 + ndims:
                    raise ValueError(f"{path}:{lineno}: axis needs a dimension and one point")
                try:
                    dim = int(vals[0])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: dimension must be an integer") from None
                point = tuple(nums[1:])
                if not 0 <= dim < ndims:
                    raise ValueError(f"{path}:{lineno}: dimension out of range")
                rules.append(Rule(AxisParallel(dim, point[dim]), (point,)))
            elif tag == "hyp":
                if len(nums) != ndims * ndims:
                    raise ValueError(f"{path}:{lineno}: hyp needs {ndims} points")
                pts = tuple(tuple(nums[i * ndims : (i + 1) * ndims]) for i in range(ndims))
                plane = hyperplane_from_points(pts)
                if plane is None:
                    raise ValueError(f"{path}:{lineno}: points are affinely dependent")
                rules.append(Rule(plane, pts))
            else:
                raise ValueError(f"{path}:{lineno}: unknown rule tag {tag!r}")
    if not rules:
        raise ValueError(f"{path}: no rules")
    return rules


def _build_rules(args, data: Dataset) -> tuple[list[Rule], Dataset]:
    """Rule table plus the dataset in the space the rules classify."""
    if args.rules_file:
        if args.rules == "surface2":
            raise ValueError("--rules-file cannot be combined with surface2")
        return load_rules_file(args.rules_file, dimension(data)), data
    if args.rules == "axis":
        return enumerate_axis_rules(data), data
    if args.rules == "hyperplane":
        return enumerate_hyperplane_rules(data), data
    # argparse's choices leave surface2
    if dimension(data) != 2:
        raise ValueError("surface2 rules require 2D data")
    return enumerate_surface2_rules(data), lift_dataset(data)


def _leaf_report(tree: DecisionTree) -> list[str]:
    lines = []
    for index, data in enumerate(leaves(tree)):
        m = majority_label(data)
        errors = sum(1 for s in data if s.label != m)
        shown = "-" if m is None else str(m)
        lines.append(f"leaf {index}: size={len(data)} majority={shown} errors={errors}")
    return lines


def _write_out(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")


def _require_non_negative(option: str, value: int | None) -> None:
    if value is not None and value < 0:
        raise ValueError(f"{option} must be non-negative, got {value}")


def _cmd_fit(args) -> int:
    _require_non_negative("--min-leaf", args.min_leaf)
    _require_non_negative("--max-depth", args.max_depth)
    data = load_csv(args.csv)
    rules, space = _build_rules(args, data)
    cons = SolveConstraints(min_leaf=args.min_leaf, max_depth=args.max_depth)
    tree = solve(rules, args.k, space, MISCLASSIFICATION, cons)
    if tree is None:
        print("infeasible: constraints eliminated every tree")
        return 3
    text = serialize(tree, rules)
    misclassified = tree_cost(tree, MISCLASSIFICATION)
    print(f"tree: {text}")
    print(f"score: {misclassified:g}")
    for line in _leaf_report(tree):
        print(line)
    print(f"misclassified: {misclassified:g}")
    _write_out(args, text)
    return 0


def _cmd_check(args) -> int:
    _require_non_negative("--k", args.k)
    data = load_csv(args.csv)
    if len(data) > CHECK_MAX_N:
        raise ValueError(f"check is limited to {CHECK_MAX_N} points, got {len(data)}")
    if args.k > CHECK_MAX_K:
        raise ValueError(f"check is limited to k<={CHECK_MAX_K}, got {args.k}")
    rules, space = _build_rules(args, data)
    n_combos = math.comb(len(rules), args.k)
    n_perms = n_combos * math.factorial(args.k)
    if n_perms > CHECK_MAX_PERMUTATIONS:
        raise ValueError(f"check is limited to {CHECK_MAX_PERMUTATIONS} permutations, got {n_perms}")
    objective = MISCLASSIFICATION

    tree = solve(rules, args.k, space, objective)
    solver_score = None if tree is None else tree_cost(tree, objective)

    # one matrix for the whole table, read by global rule ids; a tree of
    # fewer than two rules reads no entry, so none is built for it
    matrix = ancestry_matrix(rules) if args.k >= 2 else None
    costs = permutation_costs(rules, args.k, space, objective, matrix)
    oracle_score = min(costs, default=None)

    n_trees = count_tree_shapes(range(len(rules)), args.k, matrix)

    # each tree is rebuilt by exactly one permutation, its level order
    ok = solver_score == oracle_score and len(costs) == n_trees
    print(f"combinations: {n_combos}")
    print(f"permutations: {n_perms}")
    print(f"valid permutations: {len(costs)}")
    print(f"trees generated: {n_trees}")
    print(f"solver score: {'-' if solver_score is None else f'{solver_score:g}'}")
    print(f"oracle score: {'-' if oracle_score is None else f'{oracle_score:g}'}")
    print(f"result: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_bsp(args) -> int:
    segments = load_scene(args.scene)
    tree = solve_bsp(segments)
    text = serialize(tree)
    print(f"tree: {text}")
    print(f"nodes: {tree_cost(tree, TREE_SIZE):g}")
    _write_out(args, text)
    return 0


def _cmd_mcmp(args) -> int:
    try:
        values = [int(plain_number(v)) for v in args.dims.split(",")]
    except ValueError:
        raise ValueError(f"malformed dimension list {args.dims!r}") from None
    if len(values) < 2:
        raise ValueError("need at least two dimensions (one matrix)")
    if any(v <= 0 for v in values):
        raise ValueError("dimensions must be positive")
    dims = [MatrixDim(a, b) for a, b in zip(values, values[1:])]
    tree = solve_mcmp(dims)
    text = serialize(tree)
    print(f"tree: {text}")
    print(f"cost: {tree_cost(tree, CHAIN_COST)[0]:g}")
    print(f"order: {parenthesization(tree)}")
    _write_out(args, text)
    return 0


def _levels(tree: DecisionTree) -> list[int]:
    dims: list[int] = []
    frontier = [tree]
    while frontier:
        level_dims = {n.rule_id[1] for n in frontier if isinstance(n, DNode)}
        if not level_dims:
            break
        if len(level_dims) > 1:
            raise AssertionError(f"inconsistent split dimensions in one level: {level_dims}")
        dims.append(level_dims.pop())
        nxt = []
        for n in frontier:
            if isinstance(n, DNode):
                nxt.extend([n.left, n.right])
        frontier = nxt
    return dims


def _cmd_kd(args) -> int:
    data = load_csv(args.csv, require_label=False)
    if args.max_depth is None:
        raise ValueError("kd requires --max-depth")
    _require_non_negative("--max-depth", args.max_depth)
    tree = solve_kd(data, args.max_depth)
    text = serialize(tree)
    print(f"tree: {text}")
    print(f"score: {tree_cost(tree, LEAF_BALANCE):g}")
    print("levels: " + " ".join(str(d) for d in _levels(tree)))
    _write_out(args, text)
    return 0


def _plain_int(text: str) -> int:
    """An integer option's value; ``_`` separators and non-ASCII digits are usage errors."""
    try:
        return int(plain_number(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opttree", description="Exact decision-tree optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_rules=True, with_out=True):
        if with_rules:
            p.add_argument("--rules", choices=["axis", "hyperplane", "surface2"], default="axis")
            p.add_argument("--k", type=_plain_int, default=1)
            p.add_argument("--rules-file", default=None, help="explicit point-defined rules")
        if with_out:
            p.add_argument("--out", default=None, help="write the serialized tree here")

    p_fit = sub.add_parser("fit", help="fit an optimal classification tree")
    p_fit.add_argument("csv")
    common(p_fit)
    p_fit.add_argument("--min-leaf", type=_plain_int, default=0)
    p_fit.add_argument("--max-depth", type=_plain_int, default=None)
    p_fit.set_defaults(func=_cmd_fit)

    p_check = sub.add_parser("check", help="cross-check the solver against brute force")
    p_check.add_argument("csv")
    # check compares scores and writes no tree
    common(p_check, with_out=False)
    p_check.set_defaults(func=_cmd_check)

    p_bsp = sub.add_parser("bsp", help="smallest partition tree for a segment scene")
    p_bsp.add_argument("scene")
    common(p_bsp, with_rules=False)
    p_bsp.set_defaults(func=_cmd_bsp)

    p_mcmp = sub.add_parser("mcmp", help="optimal matrix-chain association order")
    p_mcmp.add_argument("dims", help="comma-separated dimensions, e.g. 10,30,5,60")
    common(p_mcmp, with_rules=False)
    p_mcmp.set_defaults(func=_cmd_mcmp)

    p_kd = sub.add_parser("kd", help="optimal depth-cycled split tree")
    p_kd.add_argument("csv")
    common(p_kd, with_rules=False)
    p_kd.add_argument("--max-depth", type=_plain_int, default=None)
    p_kd.set_defaults(func=_cmd_kd)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser unchanged, so one per process serves every call
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
