"""Rule enumeration and per-application split strategies.

Each solver front end plugs in a splits strategy: a function producing
(left part, root, right part) candidate triples from the items still in
play. For classification trees the parts are rule indices constrained by an
ancestry matrix; for scene partitioning they are segment fragments; for chain
multiplication they are contiguous sub-chains; for k-d trees they are point
subsets split on the depth-cycled dimension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .data import Dataset, Point, Sample, dimension
from .rules import (
    EPS,
    AncestryMatrix,
    AxisParallel,
    Rule,
    hyperplanes_from_points,
    root_feasible,
    sign_table,
)

# Point combinations turned into planes per batched SVD, bounding its arrays.
_COMBINATION_BATCH = 4096


@dataclass(frozen=True)
class SceneSegment:
    """A scene segment; ``payload`` identifies the original object it came
    from, and is None for a segment parsed from tree text."""

    start: Point
    end: Point
    payload: int | None = None


@dataclass(frozen=True)
class MatrixDim:
    rows: int
    cols: int


def enumerate_axis_rules(data: Dataset) -> list[Rule]:
    """One axis-aligned rule per (dimension, distinct data point) pair.

    The threshold is the defining point's coordinate. Points tied in a
    dimension split the data alike, but other rules can see their defining
    points on different sides, so merging their rules could lose the optimum.
    Within a dimension rules run by threshold, ties in data order.
    """
    if not data:
        raise ValueError("cannot enumerate rules for an empty dataset")
    points = list(dict.fromkeys(s.point for s in data))
    return [
        Rule(AxisParallel(dim, p[dim]), (p,))
        for dim in range(dimension(data))
        for p in sorted(points, key=itemgetter(dim))
    ]


def enumerate_hyperplane_rules(data: Dataset, *, diagnostics: dict | None = None) -> list[Rule]:
    """One rule per D-combination of points, deduplicated by behavior.

    Combinations are taken in lexicographic order. Combinations of affinely
    dependent points are skipped; a combination whose hyperplane induces a
    sign pattern over the dataset already seen is dropped, since only
    distinct partitions matter. The planes of a batch of combinations come
    from one batched SVD (:func:`~opttree.rules.hyperplanes_from_points`)
    and their sign patterns from one :func:`~opttree.rules.sign_table`,
    which equals :func:`~opttree.rules.classify` entry for entry. If
    ``diagnostics`` is a dict it receives 'degenerate' and 'duplicate'
    counts.
    """
    n = len(data)
    if n == 0:
        raise ValueError("cannot enumerate rules for an empty dataset")
    d = dimension(data)
    if n < d:
        raise ValueError(f"need at least {d} points, got {n}")
    points = np.array([s.point for s in data])
    rules: list[Rule] = []
    seen: set[bytes] = set()
    degenerate = duplicate = 0
    combos = itertools.combinations(range(n), d)
    while batch := list(itertools.islice(combos, _COMBINATION_BATCH)):
        planes = hyperplanes_from_points(points[np.array(batch)])
        kept = [(combo, plane) for combo, plane in zip(batch, planes) if plane is not None]
        degenerate += len(batch) - len(kept)
        signs = np.packbits(sign_table([plane for _, plane in kept], points), axis=1)
        for (combo, plane), signature in zip(kept, signs):
            key = signature.tobytes()
            if key in seen:
                duplicate += 1
                continue
            seen.add(key)
            rules.append(Rule(plane, tuple(data[i].point for i in combo)))
    if diagnostics is not None:
        diagnostics["degenerate"] = degenerate
        diagnostics["duplicate"] = duplicate
    return rules


def lift_degree2(p: Point) -> Point:
    """All monomials of total degree 1..2 in fixed order.

    For D=2 the order is (x1, x2, x1^2, x1*x2, x2^2); the lifted dimension is
    C(D+2, 2) - 1.
    """
    d = len(p)
    quad = [p[i] * p[j] for i in range(d) for j in range(i, d)]
    return tuple(p) + tuple(quad)


def lift_dataset(data: Dataset) -> Dataset:
    return tuple(Sample(lift_degree2(s.point), s.label) for s in data)


def enumerate_surface2_rules(data: Dataset, *, diagnostics: dict | None = None) -> list[Rule]:
    """Degree-2 surface rules: hyperplanes over the monomial-lifted dataset."""
    return enumerate_hyperplane_rules(lift_dataset(data), diagnostics=diagnostics)


def splits_generic(
    indices: Iterable[int], matrix: AncestryMatrix
) -> list[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """Feasible-root triples for an index set under an ancestry matrix.

    A root must relate to every other index; the remaining indices fall on the
    side their matrix entry dictates. Roots come out in ascending order.
    """
    idx = sorted(indices)
    out = []
    for i in idx:
        if not root_feasible(i, idx, matrix):
            continue
        left = tuple(j for j in idx if j != i and matrix.entry(i, j) > 0)
        right = tuple(j for j in idx if j != i and matrix.entry(i, j) < 0)
        out.append((left, i, right))
    return out


def _orientation(seg: SceneSegment, p: Point) -> float:
    (sx, sy), (ex, ey) = seg.start, seg.end
    return (ex - sx) * (p[1] - sy) - (ey - sy) * (p[0] - sx)


def _seg_length(a: Point, b: Point) -> float:
    return math.hypot(b[0] - a[0], b[1] - a[1])


def split_segments(
    root: SceneSegment, others: Sequence[SceneSegment]
) -> tuple[tuple[SceneSegment, ...], tuple[SceneSegment, ...]]:
    """Place every segment relative to the root's extending line.

    Segments wholly on one side keep their identity; straddling segments are
    cut at the intersection into one fragment per side (payload inherited,
    fragments shorter than EPS dropped). Collinear segments count as positive.
    """
    scale = _seg_length(root.start, root.end)
    pos: list[SceneSegment] = []
    neg: list[SceneSegment] = []
    for seg in others:
        o1 = _orientation(root, seg.start)
        o2 = _orientation(root, seg.end)
        s1 = 0 if abs(o1) <= EPS * scale else (1 if o1 > 0 else -1)
        s2 = 0 if abs(o2) <= EPS * scale else (1 if o2 > 0 else -1)
        if s1 >= 0 and s2 >= 0:
            pos.append(seg)
        elif s1 <= 0 and s2 <= 0:
            neg.append(seg)
        else:
            t = o1 / (o1 - o2)
            cut = (
                seg.start[0] + t * (seg.end[0] - seg.start[0]),
                seg.start[1] + t * (seg.end[1] - seg.start[1]),
            )
            first = SceneSegment(seg.start, cut, seg.payload)
            second = SceneSegment(cut, seg.end, seg.payload)
            for frag, side in ((first, s1), (second, s2)):
                if _seg_length(frag.start, frag.end) < EPS:
                    continue
                (pos if side > 0 else neg).append(frag)
    return tuple(pos), tuple(neg)


def splits_bsp(
    segments: Sequence[SceneSegment],
) -> list[tuple[tuple[SceneSegment, ...], SceneSegment, tuple[SceneSegment, ...]]]:
    """Every segment as candidate root, with the rest split around its line."""
    out = []
    for i, root in enumerate(segments):
        rest = [s for j, s in enumerate(segments) if j != i]
        pos, neg = split_segments(root, rest)
        out.append((pos, root, neg))
    return out


def splits_mcmp(
    items: Sequence[MatrixDim],
) -> list[tuple[tuple[MatrixDim, ...], int, tuple[MatrixDim, ...]]]:
    """All contiguous cuts of a chain into two non-empty parts.

    The marker is the cut position; a chain of n items yields n-1 triples.
    """
    seq = tuple(items)
    if len(seq) < 2:
        return []
    return [(seq[:i], i, seq[i:]) for i in range(1, len(seq))]


def splits_kd(depth: int, data: Dataset) -> list[tuple[Dataset, Sample, Dataset]]:
    """One candidate per pivot point, split on dimension ``depth mod D``.

    Points tied with the pivot coordinate go left, matching the global
    boundary rule; the pivot itself lands on neither side.
    """
    seq = tuple(data)
    if not seq:
        return []
    d = depth % len(seq[0].point)
    out = []
    for i, pivot in enumerate(seq):
        c = pivot.point[d]
        left = tuple(s for j, s in enumerate(seq) if j != i and s.point[d] <= c)
        right = tuple(s for j, s in enumerate(seq) if j != i and s.point[d] > c)
        out.append((left, pivot, right))
    return out
