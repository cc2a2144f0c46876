"""Splitting rules: geometric sign predicates and ancestry matrices.

A :class:`Rule` is a kind (:class:`AxisParallel` or :class:`Hyperplane`) plus
the data points that define its boundary. Rules live in a table, a sequence,
and everything downstream names a rule by its position there.

A rule cuts the ambient space into a positive and a negative region. Which
region a point falls in is decided by :func:`classify`; points exactly on a
boundary count as positive so that every predicate is two-valued and
deterministic. The pairwise placement constraints between rules are recorded
in an ancestry matrix, a plain K x K tuple of rows (:data:`AncestryMatrix`):
entry ``matrix[i][j]`` is +1 when rule ``j`` may only live in the left
(positive) subtree of rule ``i``, -1 for the right subtree, and 0 when
neither placement is admissible; the diagonal is 0.

:func:`classify` and :func:`ancestry_matrix` are the specification, one point
at a time; the brute-force oracles use them. :func:`sign_table` computes the
signs of many rules on many points in one numpy pass with the same
arithmetic; the rule enumeration and the solver build their tables from it,
the solver reading both its row masks and the ancestry entries off one such
table per solve.
:func:`hyperplanes_from_points` constructs many planes at once, each from the
cofactors of its defining points, and :func:`plane_safe` tells which points
that arithmetic can take.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Point

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


RuleKind = AxisParallel | Hyperplane


@dataclass(frozen=True)
class Rule:
    """A splitting rule plus the data points that define its boundary. It has
    no id: trees, matrices and the solver name it by its table position."""

    kind: RuleKind
    defining_points: tuple[Point, ...] = ()


def hyperplane(weights: Sequence[float], bias: float) -> Hyperplane:
    """Normalize ||w|| = 1 without flipping orientation."""
    n = math.sqrt(sum(w * w for w in weights))
    if n == 0.0:
        raise ValueError("hyperplane weights are all zero")
    return Hyperplane(tuple(w / n for w in weights), bias / n)


def _plane_limit(d: int) -> float:
    """The largest coordinate size :func:`plane_safe` lets through in R^d:
    half the size B at which (4 d B^2)^d reaches the largest float, the half
    a margin for the rounding of the root."""
    return math.sqrt(sys.float_info.max ** (1.0 / d) / (4 * d)) / 2


def plane_safe(points: Sequence[Point] | np.ndarray) -> np.ndarray:
    """Per point, whether every hyperplane through D such points in R^D is
    computed in finite arithmetic by :func:`hyperplanes_from_points`.

    With every coordinate at most B in size, the differences from the first
    point are at most 2B, and Hadamard's inequality bounds each cofactor,
    each product of column norms, each squared weight and the bias by
    (4 D B^2)^D. A point passes when all its coordinates are at most half the
    B that makes this bound the largest float. Non-finite coordinates fail.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("need an N x D array of points")
    return (np.abs(pts) <= _plane_limit(pts.shape[1])).all(axis=1)


def _cofactors(m: np.ndarray) -> np.ndarray:
    """The cofactor vector of each R x (R+1) matrix in a stack, up to sign:
    entry j is (-1)^j times the determinant of the matrix without column j.

    Gauss-Jordan elimination with complete pivoting: each step takes the
    first largest entry, in row-major order, among the rows and columns not
    yet pivoted, and clears its column from every other row. Row operations
    leave every R x R minor as it was, so after R steps the column never
    pivoted, f, has minor +-(product of the pivots), and pivot column q_k
    has that product times -g_k / pivot_k, where g_k is the entry in column f
    of q_k's pivot row. A zero pivot makes every minor zero; it divides as 1
    to keep the arithmetic finite. Only subtraction, multiplication and true
    division are used, elementwise, so each matrix's result is the same in
    any stack.
    """
    count, r_max = m.shape[:2]
    a = m.transpose(1, 2, 0).copy()
    at = np.arange(count)
    # -inf on the rows and columns already pivoted keeps them out of the search
    taken = np.zeros_like(a)
    score = np.empty_like(a)
    total = np.ones(count)
    steps = []
    for _ in range(r_max):
        np.add(np.abs(a, out=score), taken, out=score)
        r, q = np.divmod(score.reshape(-1, count).argmax(axis=0), r_max + 1)
        pivot = a[r, q, at]
        divisor = np.where(pivot != 0, pivot, 1.0)
        factor = a[:, q, at] / divisor
        factor[r, at] = 0.0
        a -= factor[:, None] * a[r, :, at].T
        taken[r, :, at] = -np.inf
        taken[:, q, at] = -np.inf
        total = total * pivot
        steps.append((divisor, r, q))
    f = r_max * (r_max + 1) // 2 - sum(q for *_, q in steps)
    c = np.empty((count, r_max + 1))
    c[at, f] = total
    for divisor, r, q in steps:
        c[at, q] = -total * (a[r, f, at] / divisor)
    return c


def hyperplanes_from_points(point_sets: Sequence[Sequence[Point]]) -> list[Hyperplane | None]:
    """The unique hyperplane through each set of D points in R^D, or None for
    a set of affinely dependent points.

    The plane through p_1..p_D is the cofactor vector of the D x (D+1)
    matrix M of rows [p_i, 1], entry j being (-1)^j times the determinant of
    M without column j, so that M c = 0. Subtracting the first row from the
    others changes no minor, and leaves column D zero but in the first row;
    so the weights are the cofactor vector of the (D-1) x D matrix of
    differences p_i - p_1, and the bias is -w.p_1. One elimination over the
    whole stack (:func:`_cofactors`) gives every set's weights, up to a sign
    that the orientation rule below fixes.

    A set is degenerate when its weights are small against Hadamard's bound:
    with weight j divided by the product of the norms of the difference
    columns its minor keeps, the norm of the quotients is at most 1e-9.
    Moving the points or scaling one coordinate scales the weights and the
    bounds alike, so the test reads the same wherever the data lies and at
    every scale, and it needs no singular values.

    Each result is unit-normalized with the first weight above 1e-12
    positive, so the same geometric plane always yields the same
    coefficients regardless of which points produced it. Every step works on
    one set at a time (elementwise elimination, sums of products reduced
    within one set), so a set's plane is bit for bit the same in any batch.
    Raises ValueError when a coordinate fails :func:`plane_safe`.
    """
    if not len(point_sets):
        return []
    sets = np.asarray(point_sets, dtype=float)
    if sets.ndim != 3 or sets.shape[1] != sets.shape[2]:
        raise ValueError("need exactly D points of dimension D")
    count, d = sets.shape[:2]
    if not plane_safe(sets.reshape(-1, d)).all():
        raise ValueError("coordinates too large for plane arithmetic")
    first = sets[:, 0]
    diffs = sets[:, 1:] - first[:, None]
    w = _cofactors(diffs)
    b = -(w * first).sum(axis=-1)
    # weight j's minor keeps every difference column but column j
    keep = [[k for k in range(d) if k != j] for j in range(d)]
    bound = np.sqrt((diffs * diffs).sum(axis=1))[:, keep].prod(axis=2)
    # a zero bound means a zero column, which every such minor keeps
    scaled = np.divide(w, bound, out=np.zeros_like(w), where=bound > 0)
    n = np.sqrt((w * w).sum(axis=-1))
    valid = np.sqrt((scaled * scaled).sum(axis=-1)) > 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        w, b = w / n[:, None], b / n
    # a unit-normalized w has a coordinate above 1e-12, the first one leads
    lead = w[np.arange(count), (np.abs(w) > 1e-12).argmax(axis=1)]
    flip = np.where(lead < 0, -1.0, 1.0)
    w, b = w * flip[:, None], b * flip
    return [
        Hyperplane(tuple(wi), bi) if ok else None
        for ok, wi, bi in zip(valid.tolist(), w.tolist(), b.tolist())
    ]


def hyperplane_from_points(points: Sequence[Point]) -> Hyperplane | None:
    """Unique hyperplane through D points in R^D, or None when the points are
    affinely dependent; see :func:`hyperplanes_from_points`."""
    return hyperplanes_from_points([points])[0]


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
    raise TypeError(f"unknown rule kind {type(kind).__name__}")


# Table entries evaluated per numpy pass in sign_table, bounding its temporaries.
_BLOCK = 1 << 20


def sign_table(kinds: Sequence[RuleKind], points: Sequence[Point]) -> np.ndarray:
    """K x N booleans: entry [i, r] is true exactly when
    ``classify(kinds[i], points[r]) > 0``.

    The arithmetic is :func:`classify`'s, vectorized: a hyperplane's value
    starts from the bias and adds ``w_d * p_d`` one dimension at a time in the
    same order (elementwise numpy fuses no multiply-add), so every entry
    equals classify's, boundary points and the EPS band included. Raises
    classify's ValueError on a dimension mismatch and its TypeError on an
    unknown kind.
    """
    out = np.zeros((len(kinds), len(points)), dtype=bool)
    if not len(kinds) or not len(points):
        return out
    pts = np.asarray(points, dtype=float)
    step = max(1, _BLOCK // len(pts))
    for lo in range(0, len(kinds), step):
        out[lo : lo + step] = _signs(kinds[lo : lo + step], pts)
    return out


def _signs(kinds: Sequence[RuleKind], pts: np.ndarray) -> np.ndarray:
    """:func:`sign_table` of one block of rules over an N x D point array."""
    d = pts.shape[1]
    out = np.empty((len(kinds), len(pts)), dtype=bool)
    groups: dict[type, list[int]] = {}
    for i, kind in enumerate(kinds):
        if isinstance(kind, AxisParallel):
            cls = AxisParallel
            if kind.dim >= d:
                raise ValueError(f"point of dimension {d} lacks coordinate {kind.dim}")
        elif isinstance(kind, Hyperplane):
            cls = Hyperplane
            if len(kind.weights) != d:
                raise ValueError(f"expected {len(kind.weights)} coordinates, got {d}")
        else:
            raise TypeError(f"unknown rule kind {type(kind).__name__}")
        groups.setdefault(cls, []).append(i)
    for cls, idx in groups.items():
        group = [kinds[i] for i in idx]
        if cls is AxisParallel:
            dims = [rule.dim for rule in group]
            thresholds = np.array([rule.threshold for rule in group])
            out[idx] = pts[:, dims].T <= thresholds[:, None]
        else:
            weights = np.array([rule.weights for rule in group])
            s = np.array([rule.bias for rule in group])[:, None] + weights[:, 0, None] * pts[:, 0]
            for c in range(1, d):
                s += weights[:, c, None] * pts[:, c]
            out[idx] = s >= -EPS
    return out


# K x K placement constraints in {-1, 0, +1}; row and column indices are
# positions in the rule table the matrix was built from.
AncestryMatrix = tuple[tuple[int, ...], ...]


def ancestry_matrix(rules: Sequence[Rule]) -> AncestryMatrix:
    """Pairwise placement matrix from each rule's defining points.

    Entry (i, j) is +1 when every defining point of rule j classifies positive
    under rule i, -1 when every one classifies negative, and 0 otherwise.
    Rules share defining points, so row i classifies each distinct point
    once, the first time a rule's entry asks for it.
    """
    rows = []
    for i, ri in enumerate(rules):
        row = []
        # rule i's sign of each defining point met so far in this row
        sign_of: dict[Point, int] = {}
        for j, rj in enumerate(rules):
            if i == j:
                row.append(0)
                continue
            if not rj.defining_points:
                raise ValueError(f"rule {j} has no defining points; matrix entry undefined")
            signs = set()
            for q in rj.defining_points:
                if q not in sign_of:
                    sign_of[q] = classify(ri, q)
                signs.add(sign_of[q])
            row.append(1 if signs == {1} else -1 if signs == {-1} else 0)
        rows.append(tuple(row))
    return tuple(rows)
