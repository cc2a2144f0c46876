"""Rule enumeration and per-application split strategies.

A splits strategy produces (left part, root, right part) candidate triples
from the items still in play. Every strategy's specification by definition
is in ``tests/helpers.py``: ``splits_bsp`` (segment fragments),
``splits_mcmp`` (contiguous sub-chains), ``spec_splits_generic`` (rule
indices constrained by an ancestry matrix) and ``splits_kd`` (point subsets
split on the depth-cycled dimension). The solvers in :mod:`opttree.solver`
run the same splits on cheaper states, and the tests compare each solver,
tree for tree, with an exhaustive recursion over its specification. The
placement of one segment against a root's line, :func:`split_segments`, is
shared by the bsp solver and its specification.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

import numpy as np

from .data import Dataset, Point, Sample, dimension
from .rules import (
    EPS,
    AxisParallel,
    Rule,
    hyperplanes_from_points,
)

# Point combinations turned into planes per hyperplanes_from_points call,
# bounding its arrays.
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
    """One rule per D-combination of affinely independent points.

    Combinations are taken in lexicographic order, and combinations of
    affinely dependent points are skipped. No two rules are merged, not even
    two that split the data alike: the ancestry matrix reads each rule's sign
    on the other rules' defining points, so two such rules can still place
    other rules differently, and dropping one could lose the optimum. The
    planes of a batch of combinations come from one call of
    :func:`~opttree.rules.hyperplanes_from_points`, which takes each plane
    from the cofactors of its points and raises ValueError on coordinates
    too large for that arithmetic. If ``diagnostics`` is a dict it receives
    the 'degenerate' count.
    """
    n = len(data)
    if n == 0:
        raise ValueError("cannot enumerate rules for an empty dataset")
    d = dimension(data)
    if n < d:
        raise ValueError(f"need at least {d} points, got {n}")
    coords = np.array([s.point for s in data])
    # itemgetter of one index returns that item, not a 1-tuple of it
    points = [s.point for s in data] if d > 1 else [(s.point,) for s in data]
    rules: list[Rule] = []
    degenerate = 0
    combos = itertools.combinations(range(n), d)
    while batch := list(itertools.islice(combos, _COMBINATION_BATCH)):
        for combo, plane in zip(batch, hyperplanes_from_points(coords[np.array(batch)])):
            if plane is None:
                degenerate += 1
            else:
                rules.append(Rule(plane, itemgetter(*combo)(points)))
    if diagnostics is not None:
        diagnostics["degenerate"] = degenerate
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
    """Degree-2 surface rules: hyperplanes over the monomial-lifted dataset.

    A surface needs as many defining points as the lifted dimension (5 for
    2-D data), and the error for fewer counts the caller's points.
    """
    lifted = lift_dataset(data)
    if lifted and len(lifted) < dimension(lifted):
        raise ValueError(f"surface2 rules need at least {dimension(lifted)} points, got {len(lifted)}")
    return enumerate_hyperplane_rules(lifted, diagnostics=diagnostics)


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
