"""Seeded inputs for the workloads and the check attached to each instance.

Every workload is a fixed list of CLI instances. The inputs come only from the
workload name and the seed, so one seed always gives the same files and the
same expected answers. Each instance carries a check that reads the captured
stdout of one ``opttree.cli.main`` call and returns None when the output is
correct, or a message saying what is wrong.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("fit", "check-partition")

# The bsp layout every seed poses differently. Free random scenes of ten
# segments vary about 40x in solve time with their geometry, which would make
# the cross-seed spread of every time metric meaningless; a fixed layout in a
# seeded rotation and translation keeps the recursion identical and changes
# every coordinate. Built by bsp_template() from this seed; its smallest
# endpoint-to-line distance is 0.036, far above the solver's 1e-9 dead zone,
# so no pose flips a side test.
BSP_TEMPLATE_SEED = 7
BSP_SEGMENTS = 10


@dataclass(frozen=True)
class Instance:
    name: str
    argv: tuple[str, ...]
    check: Callable[[int, str], str | None]


def _points(rng: random.Random, n: int) -> list[tuple[float, float]]:
    """n points on a 0.01 grid in [0, 10)^2 with distinct x and distinct y."""
    xs = rng.sample(range(1000), n)
    ys = rng.sample(range(1000), n)
    return [(x / 100, y / 100) for x, y in zip(xs, ys)]


def _labels(rng: random.Random, pts) -> list[int]:
    """A noisy two-class XOR concept; both classes always occur."""
    cx, cy = rng.uniform(3, 7), rng.uniform(3, 7)
    labels = [int((x > cx) != (y > cy)) ^ (rng.random() < 0.15) for x, y in pts]
    if len(set(labels)) < 2:
        labels[0] ^= 1
    return labels


def _write_csv(path: Path, pts, labels=None) -> str:
    header = "f0,f1" + (",label" if labels is not None else "")
    rows = [header]
    for i, (x, y) in enumerate(pts):
        rows.append(f"{x!r},{y!r}" + (f",{labels[i]}" if labels is not None else ""))
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def _fit(rng, workdir: Path, tag: str, n: int, rules: str, k: int, min_leaf=0, max_depth=None) -> Instance:
    pts = _points(rng, n)
    labels = _labels(rng, pts)
    csv = _write_csv(workdir / f"{tag}.csv", pts, labels)
    argv = ["fit", csv, "--rules", rules, "--k", str(k)]
    if min_leaf:
        argv += ["--min-leaf", str(min_leaf)]
    if max_depth is not None:
        argv += ["--max-depth", str(max_depth)]
    data = list(zip(pts, labels))
    if rules == "axis":
        ceiling = checks.greedy_axis_ceiling(data, k, min_leaf, max_depth)
    elif rules == "hyperplane" and k == 1:
        ceiling = checks.best_line_split(data)
    else:
        ceiling = checks.errors(labels)
    lifted = rules == "surface2"

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        return checks.check_fit(out, data, lifted, k, min_leaf, max_depth, ceiling)

    return Instance(tag, tuple(argv), check)


def _check_cmd(rng, workdir: Path, tag: str, n: int, rules: str, k: int) -> Instance:
    pts = _points(rng, n)
    csv = _write_csv(workdir / f"{tag}.csv", pts, _labels(rng, pts))
    argv = ("check", csv, "--rules", rules, "--k", str(k))

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        return checks.check_check(out)

    return Instance(tag, argv, check)


def bsp_template() -> list[tuple[tuple[float, float], tuple[float, float]]]:
    rng = random.Random(BSP_TEMPLATE_SEED)
    segs = []
    for _ in range(BSP_SEGMENTS):
        x, y = rng.uniform(0, 10), rng.uniform(0, 10)
        a, length = rng.uniform(0, math.tau), rng.uniform(0.5, 3)
        segs.append(((x, y), (x + length * math.cos(a), y + length * math.sin(a))))
    return segs


def _bsp(rng, workdir: Path, tag: str) -> Instance:
    theta = rng.uniform(0, math.tau)
    dx, dy = rng.uniform(-50, 50), rng.uniform(-50, 50)
    c, s = math.cos(theta), math.sin(theta)

    def pose(p):
        return (c * p[0] - s * p[1] + dx, s * p[0] + c * p[1] + dy)

    segs = [(pose(a), pose(b)) for a, b in bsp_template()]
    path = workdir / f"{tag}.txt"
    path.write_text("".join(f"{a[0]!r} {a[1]!r} {b[0]!r} {b[1]!r}\n" for a, b in segs))
    ceiling = checks.bsp_order_ceiling(segs, rng)

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        return checks.check_bsp(out, segs, ceiling)

    return Instance(tag, ("bsp", str(path)), check)


def _mcmp(rng, tag: str, n: int) -> Instance:
    dims = [rng.randint(2, 60) for _ in range(n + 1)]
    optimum = checks.chain_dp(dims)

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        return checks.check_mcmp(out, dims, optimum)

    return Instance(tag, ("mcmp", ",".join(map(str, dims))), check)


def _kd(rng, workdir: Path, tag: str, n: int, max_depth: int) -> Instance:
    pts = _points(rng, n)
    csv = _write_csv(workdir / f"{tag}.csv", pts)
    ceiling = checks.median_kd_score(pts, max_depth)

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        return checks.check_kd(out, pts, max_depth, ceiling)

    return Instance(tag, ("kd", csv, "--max-depth", str(max_depth)), check)


def build(workload: str, seed: int, workdir: Path) -> list[Instance]:
    """The workload's instances in their fixed run order; writes input files to workdir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fit":
        # The ancestry-heavy hyperplane instances are kept shorter than the
        # axis ones: their times swing more with this machine's speed states,
        # and this way the median and the slowest instance are both axis fits,
        # whose work is the same on every seed.
        return [
            *(_fit(rng, workdir, f"axis{i}", 12, "axis", 3) for i in range(5)),
            _fit(rng, workdir, "axis-constrained", 12, "axis", 3, min_leaf=2, max_depth=2),
            _fit(rng, workdir, "hyperplane0", 26, "hyperplane", 1),
            _fit(rng, workdir, "hyperplane1", 26, "hyperplane", 1),
            _fit(rng, workdir, "surface2", 10, "surface2", 1),
        ]
    if workload == "check-partition":
        return [
            _check_cmd(rng, workdir, "check-axis", 10, "axis", 3),
            _check_cmd(rng, workdir, "check-hyperplane", 8, "hyperplane", 3),
            _bsp(rng, workdir, "bsp"),
            _mcmp(rng, "mcmp", 12),
            _kd(rng, workdir, "kd", 20, 4),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def warmup_argvs(workdir: Path) -> list[list[str]]:
    """Tiny calls into every subcommand, run once before the first timed instance."""
    pts = [(0.0, 0.0), (1.0, 0.5), (0.5, 1.0), (1.5, 1.5)]
    csv = _write_csv(workdir / "warm.csv", pts, [0, 1, 1, 0])
    scene = workdir / "warm.txt"
    scene.write_text("0 0 1 0\n0 1 1 2\n")
    return [
        ["fit", csv, "--rules", "axis", "--k", "1"],
        ["fit", csv, "--rules", "hyperplane", "--k", "1"],
        ["check", csv, "--rules", "axis", "--k", "1"],
        ["bsp", str(scene)],
        ["mcmp", "2,3,4"],
        ["kd", csv, "--max-depth", "1"],
    ]
