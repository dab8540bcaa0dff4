"""Grid histograms with separate face, edge, and vertex counts.

A raw histogram stores, for every tracked component, how many bodies intersect
it. Summing faces alone over a query rectangle double-counts bodies that
straddle cell borders; subtracting the edge counts interior to the rectangle
and adding back the interior vertex counts cancels the duplicates exactly, so
rectangular range counting over raw counts is exact for convex bodies.

Histograms move through a fixed pipeline of states: RAW (exact counts), NOISY
(after perturbation), CONSISTENT (after constrained inference), ROUNDED (after
integer rounding and repair). Stages validate their input state so files
cannot be fed out of order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .geometry import ConvexBody, diameter, intersects_boxes
from .grid import GridPartition


class HistogramState(Enum):
    RAW = "raw"
    NOISY = "noisy"
    CONSISTENT = "consistent"
    ROUNDED = "rounded"


INTEGRAL_STATES = (HistogramState.RAW, HistogramState.ROUNDED)


class BodyValidationError(ValueError):
    """Raised by build when input bodies are rejected; carries per-body reports."""

    def __init__(self, reports: list[tuple[int, str]]):
        self.reports = reports
        lines = "; ".join(f"body {i}: {msg}" for i, msg in reports[:5])
        more = "" if len(reports) <= 5 else f" (+{len(reports) - 5} more)"
        super().__init__(f"{len(reports)} invalid bodies: {lines}{more}")


@dataclass
class EulerHistogram:
    partition: GridPartition
    counts: np.ndarray
    state: HistogramState
    epsilon: float | None = None
    diameter_bound: float | None = None

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.float64)
        if counts.shape != (self.partition.size,):
            raise ValueError(
                f"counts must have shape ({self.partition.size},), got {counts.shape}"
            )
        self.counts = counts

    # Section views, shaped so row/col indexing matches component ids.
    @property
    def faces(self) -> np.ndarray:
        n = self.partition.n
        return self.counts[: n * n].reshape(n, n)

    @property
    def hedges(self) -> np.ndarray:
        p = self.partition
        return self.counts[p.hedge_offset : p.vedge_offset].reshape(p.n - 1, p.n)

    @property
    def vedges(self) -> np.ndarray:
        p = self.partition
        return self.counts[p.vedge_offset : p.vertex_offset].reshape(p.n, p.n - 1)

    @property
    def vertices(self) -> np.ndarray:
        p = self.partition
        return self.counts[p.vertex_offset :].reshape(p.n - 1, p.n - 1)

    def with_counts(self, counts: np.ndarray, state: HistogramState) -> EulerHistogram:
        return replace(self, counts=counts, state=state)


@dataclass(frozen=True)
class QueryRegion:
    """Inclusive rectangle of faces: rows r0..r1, columns c0..c1."""

    r0: int
    r1: int
    c0: int
    c1: int

    def __post_init__(self) -> None:
        if self.r0 > self.r1 or self.c0 > self.c1:
            raise ValueError("query region must have r0 <= r1 and c0 <= c1")
        if self.r0 < 0 or self.c0 < 0:
            raise ValueError("query region indices must be non-negative")

    def validate(self, n: int) -> None:
        if self.r1 >= n or self.c1 >= n:
            raise ValueError(f"query region {self} exceeds grid of size {n}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.r1 - self.r0 + 1, self.c1 - self.c0 + 1


def validate_bodies(
    bodies: list[ConvexBody],
    p: GridPartition,
    diameter_bound: float | None = None,
    tol: float = 0.0,
) -> tuple[list[ConvexBody], list[tuple[int, str]]]:
    """Check bodies against the area and the diameter bound.

    Returns (accepted, rejected) where rejected holds (input index, reason).
    """
    xlo, xhi, ylo, yhi = p.area_box()
    kept: list[ConvexBody] = []
    rejected: list[tuple[int, str]] = []
    for i, body in enumerate(bodies):
        bx0, bx1, by0, by1 = body.bbox
        inside = (
            bx0 >= xlo - tol and bx1 <= xhi + tol and by0 >= ylo - tol and by1 <= yhi + tol
        )
        if not inside:
            rejected.append((i, "extends outside the area rectangle"))
            continue
        if diameter_bound is not None and diameter(body) > diameter_bound + tol:
            rejected.append((i, f"diameter exceeds the bound {diameter_bound}"))
            continue
        kept.append(body)
    return kept, rejected


def build(
    bodies: list[ConvexBody],
    p: GridPartition,
    diameter_bound: float | None = None,
    tol: float = 0.0,
) -> EulerHistogram:
    """Count, for every component, the bodies whose closed region meets it.

    Bodies must already lie within the area rectangle and satisfy the diameter
    bound when one is given; offenders raise :class:`BodyValidationError` with
    one report per body. Each body only touches components near its bounding
    box, so the scan is windowed rather than exhaustive.
    """
    _, rejected = validate_bodies(bodies, p, diameter_bound, tol=tol)
    if rejected:
        raise BodyValidationError(rejected)
    counts = np.zeros(p.size, dtype=np.float64)
    for body in bodies:
        xlo, xhi, ylo, yhi = body.bbox
        idx, boxes = p.window(xlo, xhi, ylo, yhi)
        hit = intersects_boxes(body, boxes, tol)
        counts[idx[hit]] += 1.0
    return EulerHistogram(p, counts, HistogramState.RAW, diameter_bound=diameter_bound)


def query(h: EulerHistogram, qr: QueryRegion) -> float | int:
    """Euler range count over the query rectangle.

    Faces inside the rectangle are added; edges and vertices are counted only
    when strictly interior to it, i.e. when every face they bound lies inside.
    Returns an int for integral states (RAW, ROUNDED), else a float.
    """
    qr.validate(h.partition.n)
    r0, r1, c0, c1 = qr.r0, qr.r1, qr.c0, qr.c1
    total = float(h.faces[r0 : r1 + 1, c0 : c1 + 1].sum())
    total -= float(h.hedges[r0:r1, c0 : c1 + 1].sum())
    total -= float(h.vedges[r0 : r1 + 1, c0:c1].sum())
    total += float(h.vertices[r0:r1, c0:c1].sum())
    if h.state in INTEGRAL_STATES:
        return int(round(total))
    return total


def min_rectangle_count(h: EulerHistogram) -> tuple[float, QueryRegion]:
    """Smallest Euler count over all rectangular query regions.

    Ties go to the first region in (r0, r1, c0, c1) lexicographic order;
    ``repair`` raises a face inside the region returned, so the choice fixes
    the release. O(n^3) time and O(n^2) memory: for each top row r0, the
    bands r0..r1 reduce to per-column sums, a rectangle's count becomes
    ``u[c1] - w[c0]``, and one suffix-minimum pass over ``u`` finds each
    band's minimum (the maximum-subarray scan, after Bentley's *Programming
    Pearls*).
    """
    n = h.partition.n

    def above(section: np.ndarray) -> np.ndarray:
        # above(s)[k] holds the column sums of rows < k of the section
        return np.vstack([np.zeros(section.shape[1]), section.cumsum(axis=0)])

    faces, hedges = above(h.faces), above(h.hedges)
    vedges, vertices = above(h.vedges), above(h.vertices)
    # Band r0..r1 holds faces and vertical edges of rows r0..r1, horizontal
    # edges and vertices of rows r0..r1-1; split each per-column band sum
    # into a term of r1 minus a term of r0.
    a_lo, a_hi = faces[:-1] - hedges, faces[1:] - hedges
    b_lo, b_hi = vedges[:-1] - vertices, vedges[1:] - vertices

    value, region = np.inf, None
    for r0 in range(n):
        # rows index r1 - r0; a[c] counts column c, b[c] the seam c | c+1
        a = a_hi[r0:] - a_lo[r0]
        b = b_hi[r0:] - b_lo[r0]
        # count(c0..c1) = sum a[c0..c1] - sum b[c0..c1-1] = u[c1] - w[c0]
        u = a.cumsum(axis=1)
        u[:, 1:] -= b.cumsum(axis=1)
        w = u - a
        reach = np.minimum.accumulate(u[:, ::-1], axis=1)[:, ::-1]  # min of u[c0:]
        best = reach - w
        k = int(np.argmin(best))
        if best.flat[k] < value:
            r, c0 = divmod(k, n)
            value = float(best.flat[k])
            region = QueryRegion(r0, r0 + r, c0, c0 + int(np.argmin(u[r, c0:])))
    return value, region
