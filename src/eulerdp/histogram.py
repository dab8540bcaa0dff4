"""Grid histograms with separate face, edge, and vertex counts.

A raw histogram stores, for every tracked component, how many bodies intersect
it. Summing faces alone over a query rectangle double-counts bodies that
straddle cell borders; subtracting the edge counts interior to the rectangle
and adding back the interior vertex counts cancels the duplicates exactly, so
rectangular range counting over raw counts is exact for convex bodies.

``build`` makes one pass over all bodies: every padded face window at once,
one separating-axis call per body into a stack of hits, edges and vertices
as ANDs over the grid's incidence table, and one bincount per section and
block of bodies. A convex body meets components with F - E + V = 1, which
is what lets a query count it once; ``build`` checks that on each body's
hits and refuses a body that breaks it.

Histograms move through a fixed pipeline of states: RAW (exact counts), NOISY
(after perturbation), CONSISTENT (after constrained inference), ROUNDED (after
integer rounding and repair). Stages validate their input state so files
cannot be fed out of order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .geometry import ConvexBody, intersects_boxes
from .grid import GridPartition, incidences


class HistogramState(Enum):
    RAW = "raw"
    NOISY = "noisy"
    CONSISTENT = "consistent"
    ROUNDED = "rounded"


INTEGRAL_STATES = (HistogramState.RAW, HistogramState.ROUNDED)

# counts per block of the integrality check
CHECK_BLOCK = 1 << 14
# window cells per block of build's hit stack
BUILD_BLOCK = 1 << 16


class BodyValidationError(ValueError):
    """Raised by build when input bodies are rejected; carries per-body
    reports (input index, reason). The message names a body by its index, or
    by ``user_ids[index]`` when those are given."""

    def __init__(self, reports: list[tuple[int, str]], user_ids: list[str] | None = None):
        self.reports = reports
        name = "body {}".format if user_ids is None else lambda i: f"user {user_ids[i]!r}"
        lines = "; ".join(f"{name(i)}: {msg}" for i, msg in reports[:5])
        more = "" if len(reports) <= 5 else f" (+{len(reports) - 5} more)"
        super().__init__(f"{len(reports)} invalid bodies: {lines}{more}")


@dataclass(frozen=True, eq=False)
class EulerHistogram:
    """Counts of one grid partition, in dense order, tagged with their state.

    Immutable: ``counts`` is copied once on construction and is read-only, so
    the corner tables cached on first use never go stale. ``with_counts``
    makes a new histogram. Counts must be finite, and integers under the
    integral states RAW and ROUNDED.
    """

    partition: GridPartition
    counts: np.ndarray
    state: HistogramState
    epsilon: float | None = None
    diameter_bound: float | None = None

    def __post_init__(self) -> None:
        counts = np.array(self.counts, dtype=np.float64)
        if counts.shape != (self.partition.size,):
            raise ValueError(
                f"counts must have shape ({self.partition.size},), got {counts.shape}"
            )
        if not np.isfinite(counts).all():
            raise ValueError("non-finite counts")
        if self.state in INTEGRAL_STATES and not all(
            (part == np.floor(part)).all()  # a block at a time: no full-size temporary
            for part in (counts[k : k + CHECK_BLOCK] for k in range(0, counts.size, CHECK_BLOCK))
        ):
            raise ValueError(f"{self.state.value} histogram contains non-integral counts")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def __reduce__(self):
        # copies and unpickled histograms go through __post_init__ too, so
        # their counts are read-only and they start with no cached tables
        fields = (self.partition, self.counts, self.state, self.epsilon, self.diameter_bound)
        return type(self), fields

    # Section views, shaped so row/col indexing matches component ids.
    @property
    def faces(self) -> np.ndarray:
        return self.partition.sections(self.counts)[0]

    @property
    def hedges(self) -> np.ndarray:
        return self.partition.sections(self.counts)[1]

    @property
    def vedges(self) -> np.ndarray:
        return self.partition.sections(self.counts)[2]

    @property
    def vertices(self) -> np.ndarray:
        return self.partition.sections(self.counts)[3]

    @cached_property
    def _corners(self) -> np.ndarray:
        """Corner tables A, B, C, D, stacked (4, n, n) and read-only.

        The Euler count of rows r0..r1 by columns c0..c1 is
        ``A[r1, c1] + B[r0, c1] + C[r1, c0] + D[r0, c0]``: each section's
        rectangle sum is four 2-d prefix-sum lookups, and the tables group
        the sixteen lookups by corner with the Euler signs folded in (a
        summed-area table, after Crow, SIGGRAPH 1984). O(n^2) to build.
        """
        n = self.partition.n

        def prefix(section: np.ndarray) -> np.ndarray:
            # prefix(s)[i, j] holds the sum of s[:i, :j]
            out = np.zeros((section.shape[0] + 1, section.shape[1] + 1))
            out[1:, 1:] = section.cumsum(axis=0).cumsum(axis=1)
            return out

        faces, hedges, vedges, vertices = map(prefix, self.partition.sections(self.counts))

        def corner(dr: int, dc: int) -> np.ndarray:
            # dr = 1 reads row r1 (faces and vertical edges end at r1 + 1),
            # dr = 0 row r0; dc likewise for columns
            return (
                faces[dr : dr + n, dc : dc + n]
                - hedges[:, dc : dc + n]
                - vedges[dr : dr + n, :]
                + vertices
            )

        tables = np.stack([corner(1, 1), -corner(0, 1), -corner(1, 0), corner(0, 0)])
        tables.flags.writeable = False
        return tables

    @cached_property
    def _corner_lists(self) -> list[list[list[float]]] | list[list[list[int]]]:
        # A nested-list lookup costs a fraction of numpy scalar indexing.
        # Integral states hold each entry rounded to an int, so ``query``
        # adds ints and rounds nothing. Integral counts make every entry an
        # exact integer below 2**53, so the ints equal the floats.
        if self.state in INTEGRAL_STATES:
            return np.rint(self._corners).astype(np.int64).tolist()
        return self._corners.tolist()

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
            raise ValueError(f"query region {self} does not fit an n={n} grid")


def validate_bodies(
    bodies: list[ConvexBody], p: GridPartition, diameter_bound: float | None = None
) -> tuple[list[ConvexBody], list[tuple[int, str]]]:
    """Check bodies against the area and the diameter bound, with no slack:
    a body is accepted only if its bbox lies inside the area rectangle and
    its diameter is at most the bound.

    Returns (accepted, rejected) where rejected holds (input index, reason).
    """
    (xlo, ylo), span = p.origin, p.n * p.cell_side
    xhi, yhi = xlo + span, ylo + span
    kept: list[ConvexBody] = []
    rejected: list[tuple[int, str]] = []
    for i, body in enumerate(bodies):
        bx0, bx1, by0, by1 = body.bbox
        if not (bx0 >= xlo and bx1 <= xhi and by0 >= ylo and by1 <= yhi):
            rejected.append((i, "extends outside the area rectangle"))
            continue
        if diameter_bound is not None and body.cached_diameter > diameter_bound:
            rejected.append((i, f"diameter exceeds the bound {diameter_bound}"))
            continue
        kept.append(body)
    return kept, rejected


def _blocks(heights: list[int], widths: list[int], cells: int):
    """Split bodies into runs ``(start, stop, h, w)`` whose windows, padded
    to the run's largest height ``h`` and width ``w``, take at most
    ``cells`` cells, or hold one body whose window alone takes more."""
    start = h = w = 0
    for i, (bh, bw) in enumerate(zip(heights, widths)):
        if i > start and (i - start + 1) * max(h, bh) * max(w, bw) > cells:
            yield start, i, h, w
            start, h, w = i, 0, 0
        h, w = max(h, bh), max(w, bw)
    if heights:
        yield start, len(heights), h, w


def _scatter(section: np.ndarray, hits: np.ndarray, r0: np.ndarray, c0: np.ndarray) -> None:
    """Add a stack of hits (bodies, h, w), body j's window placed at row
    ``r0[j]`` and column ``c0[j]`` of ``section``, with one bincount."""
    _, h, w = hits.shape
    width = section.shape[1]
    at = (r0 * width + c0)[:, None, None] + (np.arange(h)[:, None] * width + np.arange(w))
    section += np.bincount(at[hits], minlength=section.size).reshape(section.shape)


def build(bodies: list[ConvexBody], p: GridPartition, diameter_bound: float | None = None) -> EulerHistogram:
    """Count, for every component, the bodies whose closed region meets it.

    Bodies must already lie within the area rectangle and satisfy the diameter
    bound when one is given; offenders raise :class:`BodyValidationError` with
    one report per body. Only the faces in each body's padded window are
    tested, one predicate call per body: an edge is met exactly when both
    faces beside it are, a vertex when all four round it are (see
    :mod:`eulerdp.geometry`). Meets are exact closed-set meets: a body
    touching a grid line meets the closed cells on both sides, which the
    window's one-cell padding holds, and a body short of it by any margin
    does not.

    One pass serves all bodies: :meth:`GridPartition.windows` gives every
    window, the face boxes are slices of :meth:`GridPartition.face_boxes`,
    and each block of bodies writes its hits into one (bodies, h, w) stack,
    padded with False, of at most ``BUILD_BLOCK`` cells (a body whose window
    alone is larger makes a block of its own). Edge and vertex hits start
    True and take ``lower &= upper`` over :func:`eulerdp.grid.incidences`
    of the stacks, edges from their faces, then vertices from their edges;
    each section takes one bincount per block, and the counts are sums of
    integers, so their order does not matter.

    A convex body meets components with F - E + V = 1, the Euler
    characteristic every rectangle query relies on to count it once. Each
    body's F - E + V is taken from the same stack, and a body whose float
    hits give another value is refused with :class:`BodyValidationError`.
    """
    _, rejected = validate_bodies(bodies, p, diameter_bound)
    if rejected:
        raise BodyValidationError(rejected)
    counts = np.zeros(p.size, dtype=np.float64)
    faces, hedges, vedges, vertices = p.sections(counts)
    boxes = p.face_boxes()
    windows = p.windows(np.array([body.bbox for body in bodies]).reshape(-1, 4))
    c0, c1, r0, r1 = windows.T
    refused = []
    for start, stop, h, w in _blocks((r1 - r0 + 1).tolist(), (c1 - c0 + 1).tolist(), BUILD_BLOCK):
        hit = np.zeros((stop - start, h, w), dtype=bool)
        spans = windows[start:stop].tolist()
        for j, (body, (col0, col1, row0, row1)) in enumerate(zip(bodies[start:stop], spans)):
            window = boxes[row0 : row1 + 1, col0 : col1 + 1]
            hit[j, : row1 - row0 + 1, : col1 - col0 + 1] = intersects_boxes(
                body, window.reshape(-1, 4)
            ).reshape(window.shape[:2])
        shapes = ((h - 1, w), (h, w - 1), (h - 1, w - 1))  # of the edge and vertex stacks
        parts = (hit, *(np.ones((stop - start, *shape), dtype=bool) for shape in shapes))
        for lower, upper in incidences(*parts):
            lower &= upper
        f, e1, e2, v = (np.count_nonzero(part, axis=(1, 2)) for part in parts)
        euler = f - e1 - e2 + v
        refused += [
            (start + j, f"meets components with F - E + V = {euler[j]}, not 1")
            for j in np.flatnonzero(euler != 1).tolist()
        ]
        for section, part in zip((faces, hedges, vedges, vertices), parts):
            _scatter(section, part, r0[start:stop], c0[start:stop])
    if refused:
        raise BodyValidationError(refused)
    return EulerHistogram(p, counts, HistogramState.RAW, diameter_bound=diameter_bound)


def query(h: EulerHistogram, qr: QueryRegion) -> float | int:
    """Euler range count over the query rectangle.

    Faces inside the rectangle are added; edges and vertices are counted only
    when strictly interior to it, i.e. when every face they bound lies inside.
    O(1): four lookups in the histogram's corner tables, which are built once
    per histogram in O(n^2). Returns an int for integral states (RAW,
    ROUNDED), whose tables hold ints, else a float. A region that does not
    fit the grid raises ValueError; ``QueryRegion`` already rules out
    negative and reversed indices, so only an index past the grid can miss.
    """
    a, b, c, d = h._corner_lists
    try:
        return a[qr.r1][qr.c1] + b[qr.r0][qr.c1] + c[qr.r1][qr.c0] + d[qr.r0][qr.c0]
    except IndexError:
        qr.validate(h.partition.n)
        raise


# float64s per block of min_rectangle_count's top rows: the whole grid up
# to n=20, four rows at n=44, one row from n=91
SCAN_BLOCK = 1 << 13


def min_rectangle_count(h: EulerHistogram) -> tuple[float, QueryRegion]:
    """Smallest Euler count over all rectangular query regions.

    Ties go to the first region in (r0, r1, c0, c1) lexicographic order;
    ``repair`` raises a face inside the region returned, so the choice fixes
    the release. O(n^3) time and O(n^2) memory plus one block of
    ``SCAN_BLOCK`` float64s: for each top row r0, the corner tables write a
    rectangle's count as ``u[c1] + v[c0]`` per bottom row r1, and one
    suffix-minimum pass over ``u`` finds each band's minimum (the
    maximum-subarray scan, after Bentley's *Programming Pearls*). Top rows
    go in blocks of ``max(1, SCAN_BLOCK // n**2)``, each block one array of
    bands; values, regions and the tie order are those of one top row at a
    time.
    """
    n = h.partition.n
    a, b, c, d = h._corners
    value, region = np.inf, None
    step = max(1, SCAN_BLOCK // (n * n))
    for top in range(0, n, step):
        rows = min(step, n - top)
        # [j, r] is the band of rows top + j .. top + r:
        # count(r0..r1, c0..c1) = u[r0 - top, r1 - top, c1] + best[r0 - top, r1 - top, c0]
        u = a[None, top:] + b[top : top + rows, None]
        best = c[None, top:] + d[top : top + rows, None]
        best += np.minimum.accumulate(u[..., ::-1], axis=2)[..., ::-1]  # min of u[c0:]
        for j in range(1, rows):
            best[j, :j] = np.inf  # bottom rows above the top row
        for j, k in enumerate(best.reshape(rows, -1).argmin(axis=1).tolist()):
            r, c0 = divmod(k, n)
            if best[j, r, c0] < value:
                value = float(best[j, r, c0])
                region = QueryRegion(top + j, top + r, c0, c0 + int(np.argmin(u[j, r, c0:])))
    return value, region
