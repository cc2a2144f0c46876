"""Splitting rules: geometric sign predicates, ancestry matrices, axiom checks.

A rule cuts the ambient space into a positive and a negative region. Which
region a point falls in is decided by :func:`classify`; points exactly on a
boundary count as positive so that every predicate is two-valued and
deterministic. The pairwise placement constraints between rules are recorded
in an :class:`AncestryMatrix`: entry ``(i, j)`` is +1 when rule ``j`` may only
live in the left (positive) subtree of rule ``i``, -1 for the right subtree,
and 0 when neither placement is admissible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import Dataset, Point

# Dead zone for orientation tests on unit-normalized coefficients; doubles
# need a tolerance band around boundaries.
EPS = 1e-9


@dataclass(frozen=True)
class AxisParallel:
    """Axis-aligned cut: positive side is coordinate <= threshold."""

    dim: int
    threshold: float


@dataclass(frozen=True)
class Hyperplane:
    """Linear cut w.x + b; weights are expected to be unit-normalized."""

    weights: tuple[float, ...]
    bias: float


@dataclass(frozen=True)
class Segment2D:
    """Oriented line through two distinct points; positive side is the
    non-negative-orientation half-plane of the directed extending line."""

    start: Point
    end: Point


RuleKind = AxisParallel | Hyperplane | Segment2D


@dataclass(frozen=True)
class Rule:
    """A splitting rule plus the data points that define its boundary."""

    id: int
    kind: RuleKind
    defining_points: tuple[Point, ...] = ()


def hyperplane(weights: Sequence[float], bias: float) -> Hyperplane:
    """Normalize ||w|| = 1 without flipping orientation."""
    n = math.sqrt(sum(w * w for w in weights))
    if n == 0.0:
        raise ValueError("hyperplane weights are all zero")
    return Hyperplane(tuple(w / n for w in weights), bias / n)


def hyperplane_from_points(points: Sequence[Point]) -> Hyperplane | None:
    """Unique hyperplane through D points in R^D, or None when the points are
    affinely dependent.

    The result is unit-normalized with the first nonzero weight coordinate
    positive, so the same geometric plane always yields the same coefficients
    regardless of which points produced it.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] != pts.shape[1]:
        raise ValueError("need exactly D points of dimension D")
    d = pts.shape[1]
    a = np.hstack([pts, np.ones((d, 1))])
    _, sigma, vt = np.linalg.svd(a)
    if sigma[d - 1] <= 1e-9 * max(sigma[0], 1.0):
        return None
    v = vt[-1]
    w, b = v[:d], float(v[d])
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


def classify(rule: Rule | RuleKind, point: Point) -> int:
    """Sign of a point under a rule: +1 (positive side) or -1.

    Boundary points resolve to +1. Raises ValueError on dimension mismatch.
    """
    kind = rule.kind if isinstance(rule, Rule) else rule
    if isinstance(kind, AxisParallel):
        if kind.dim >= len(point):
            raise ValueError(f"point of dimension {len(point)} lacks coordinate {kind.dim}")
        return 1 if point[kind.dim] <= kind.threshold else -1
    if isinstance(kind, Hyperplane):
        w = kind.weights
        if len(w) != len(point):
            raise ValueError(f"expected {len(w)} coordinates, got {len(point)}")
        s = kind.bias
        for wi, pi in zip(w, point):
            s += wi * pi
        return 1 if s >= -EPS else -1
    if isinstance(kind, Segment2D):
        if len(point) != 2:
            raise ValueError("segment rules apply to 2D points")
        (sx, sy), (ex, ey) = kind.start, kind.end
        dx, dy = ex - sx, ey - sy
        cross = dx * (point[1] - sy) - dy * (point[0] - sx)
        return 1 if cross >= -EPS * math.hypot(dx, dy) else -1
    raise TypeError(f"unknown rule kind {type(kind).__name__}")


def split_dataset(rule: Rule | RuleKind, data: Dataset) -> tuple[Dataset, Dataset]:
    """Partition data into the rule's positive and negative sides."""
    pos = tuple(s for s in data if classify(rule, s.point) > 0)
    neg = tuple(s for s in data if classify(rule, s.point) < 0)
    return pos, neg


@dataclass(frozen=True)
class AncestryMatrix:
    """K x K placement constraints with entries in {-1, 0, +1}.

    Indices refer to positions in the rule sequence the matrix was built from.
    """

    entries: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]


def ancestry_matrix(rules: Sequence[Rule]) -> AncestryMatrix:
    """Pairwise placement matrix from each rule's defining points.

    Entry (i, j) is +1 when every defining point of rule j classifies positive
    under rule i, -1 when every one classifies negative, and 0 otherwise.
    """
    rows = []
    for i, ri in enumerate(rules):
        row = []
        for j, rj in enumerate(rules):
            if i == j:
                row.append(0)
                continue
            if not rj.defining_points:
                raise ValueError(f"rule {j} has no defining points; matrix entry undefined")
            signs = {classify(ri, q) for q in rj.defining_points}
            row.append(1 if signs == {1} else -1 if signs == {-1} else 0)
        rows.append(tuple(row))
    return AncestryMatrix(tuple(rows))


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the structural checks on an ancestry matrix."""

    diagonal_offenders: tuple[tuple[int, int], ...]
    range_offenders: tuple[tuple[int, int], ...]

    @property
    def diagonal_ok(self) -> bool:
        return not self.diagonal_offenders

    @property
    def range_ok(self) -> bool:
        return not self.range_offenders

    @property
    def passed(self) -> bool:
        return self.diagonal_ok and self.range_ok


def validate_axioms(matrix: AncestryMatrix) -> AxiomReport:
    """Check the zero diagonal and the {-1, 0, +1} value range."""
    diagonal = []
    valrange = []
    for i, row in enumerate(matrix.entries):
        for j, v in enumerate(row):
            if i == j and v != 0:
                diagonal.append((i, j))
            if v not in (-1, 0, 1):
                valrange.append((i, j))
    return AxiomReport(tuple(diagonal), tuple(valrange))


def root_feasible(i: int, indices: Iterable[int], matrix: AncestryMatrix) -> bool:
    """True when rule i relates to every other index, so it can head the set."""
    return all(matrix.entry(i, j) != 0 for j in indices if j != i)
