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
arithmetic, :func:`ancestry_tables` reads the ancestry entries off such
tables, and :func:`row_masks` packs rows into bitmasks; the solver and the
rule enumeration build their tables from these.
:func:`hyperplanes_from_points` constructs many planes with one batched SVD.
"""

from __future__ import annotations

import math
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


def hyperplanes_from_points(point_sets: Sequence[Sequence[Point]]) -> list[Hyperplane | None]:
    """The unique hyperplane through each set of D points in R^D, or None for
    a set of affinely dependent points; one batched SVD for all sets.

    Each result is unit-normalized with the first nonzero weight coordinate
    positive, so the same geometric plane always yields the same coefficients
    regardless of which points produced it.
    """
    if not len(point_sets):
        return []
    sets = np.asarray(point_sets, dtype=float)
    if sets.ndim != 3 or sets.shape[1] != sets.shape[2]:
        raise ValueError("need exactly D points of dimension D")
    count, d = sets.shape[:2]
    _, sigma, vt = np.linalg.svd(np.concatenate([sets, np.ones((count, d, 1))], axis=2))
    v = vt[:, -1]
    w, b = v[:, :d], v[:, d]
    # the 1 x D @ D x 1 product runs the dot kernel of np.linalg.norm on one
    # vector, so each norm is bit-identical to the single-vector one
    n = np.sqrt(w[:, None, :] @ w[:, :, None])[:, 0, 0]
    valid = (sigma[:, d - 1] > 1e-9 * np.maximum(sigma[:, 0], 1.0)) & (n > 1e-12)
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


def row_masks(table: np.ndarray) -> list[int]:
    """Each row of a boolean table as a Python int, column c at bit c."""
    packed = np.packbits(table, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


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


def ancestry_tables(rules: Sequence[Rule]) -> tuple[np.ndarray, np.ndarray]:
    """The +1 and the -1 entries of :func:`ancestry_matrix`, as two K x K
    boolean arrays, read off sign tables instead of one classify call at a time.

    Row i holds rule i's sign over every rule's defining points, taken one
    defining point of each rule per :func:`sign_table` (a rule with fewer
    points repeats its last): rule j is +1 when all its defining points are
    positive, -1 when none is; the diagonal is 0.
    """
    counts = [len(rule.defining_points) for rule in rules]
    bare = [j for j, n in enumerate(counts) if n == 0]
    if len(rules) > 1 and bare:
        # the rule ancestry_matrix meets first: row 0 reads every other
        # column, and rule 0's own column is read from row 1
        j = next((j for j in bare if j), 0)
        raise ValueError(f"rule {j} has no defining points; matrix entry undefined")
    kinds = [rule.kind for rule in rules]
    left = np.ones((len(rules), len(rules)), dtype=bool)
    some = np.zeros_like(left)
    for c in range(max(counts, default=0)):
        points = [rule.defining_points[min(c, n - 1)] for rule, n in zip(rules, counts)]
        signs = sign_table(kinds, points)
        left &= signs
        some |= signs
    right = ~some
    np.fill_diagonal(left, False)
    np.fill_diagonal(right, False)
    return left, right

