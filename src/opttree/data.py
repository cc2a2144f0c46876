"""Dataset records and CSV ingestion."""

from __future__ import annotations

import csv
import math
from typing import Iterable, NamedTuple, Sequence

Point = tuple[float, ...]


class Sample(NamedTuple):
    point: Point
    label: int = 0


Dataset = tuple[Sample, ...]


def make_dataset(points: Iterable[Sequence[float]], labels: Iterable[int] | None = None) -> Dataset:
    """Build an immutable dataset from point coordinates and optional labels."""
    pts = [tuple(float(c) for c in p) for p in points]
    if labels is None:
        labs = [0] * len(pts)
    else:
        labs = [int(y) for y in labels]
        if len(labs) != len(pts):
            raise ValueError("points and labels differ in length")
    if pts:
        d = len(pts[0])
        if any(len(p) != d for p in pts):
            raise ValueError("points have mixed dimensions")
    return tuple(Sample(p, y) for p, y in zip(pts, labs))


def plain_number(token: str) -> str:
    """``token`` unchanged if it is ASCII and has no ``_``, else ValueError.

    ``float()`` and ``int()`` also read ``_`` digit separators and non-ASCII
    digits, which no input file means as a number; pass text tokens through
    this first.
    """
    if not token.isascii() or "_" in token:
        raise ValueError(f"not a plain number: {token!r}")
    return token


def dimension(data: Dataset) -> int:
    if not data:
        raise ValueError("empty dataset has no dimension")
    return len(data[0].point)


def load_csv(path: str, require_label: bool = True) -> Dataset:
    """Read a dataset from CSV with header f0..f{D-1} plus a final 'label' column.

    With require_label=False the label column may be omitted (labels default to 0).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        has_label = header and header[-1] == "label"
        if require_label and not has_label:
            raise ValueError(f"{path}: last column must be 'label'")
        d = len(header) - (1 if has_label else 0)
        expected = [f"f{i}" for i in range(d)] + (["label"] if has_label else [])
        if d < 1 or header != expected:
            raise ValueError(f"{path}: header must be f0..f{d - 1}" + (",label" if require_label else ""))
        points: list[Point] = []
        labels: list[int] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} columns")
            try:
                point = tuple(float(plain_number(c)) for c in row[:d])
                labels.append(int(plain_number(row[d])) if has_label else 0)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed numeric value") from None
            if not all(math.isfinite(c) for c in point):
                raise ValueError(f"{path}:{lineno}: non-finite value")
            points.append(point)
    if not points:
        raise ValueError(f"{path}: no data rows")
    return make_dataset(points, labels)
