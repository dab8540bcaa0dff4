"""Shared oracles for the test suite.

The geometry oracles here are deliberately independent of the library: plain
point/segment/polygon predicates composed the textbook way. Tests that claim
exactness feed both sides coordinates on a dyadic lattice (multiples of
1/1024) so every intermediate product is exactly representable and the
comparison is legitimate. The rectangle oracle tabulates every rectangle's
Euler count at once, in O(n^4) time and memory, for small grids; the
slice-sum oracle counts one rectangle the direct way, and the float-table
query oracle is ``query`` as it was before integral states had integer
corner tables: a validation, four float lookups summed, and a rounding for
integral states. The row-scan oracle is ``min_rectangle_count`` one top row
at a time. The row oracle, ``ConstraintRows``, lists the C1, C2 and C3 rows
as dense-index tables, as ``ConstraintSet`` built them before every use of
the rows went through ``grid.incidences``; the violation oracle reads C1
and C2 off its index pairs, and the L-infinity oracle runs
``np.maximum.at`` and ``np.minimum.at`` over them. The hit-stack oracle is
the three ANDs ``build`` took edge and vertex hits from before it read them
off the incidence table. The LP oracle
assembles constrained inference as the linear program it is (residual rows,
then C1, C2 and C3 rows) and solves it with scipy's HiGHS; the min-cut
oracle runs the same threshold partitioning as ``infer``'s ``l1`` with one
scipy maximum flow per level. The grid
oracle lists every tracked component's label and closed box straight from the
geometry the ``grid`` module documents, and the window oracle rebuilds one
body's candidate faces, edges and vertices from meshgrids of grid-line
indices, as ``build`` tested them before it counted edges and vertices from
its face hits; ``partitions`` draws grids whose lines are often inexact. The
separating-axis oracle is ``intersects_boxes`` as it was before it formed
each box-corner product once: the same axes, and on each of them eight
products, two for each end of the box's projection; ``build_oracle_counts``
runs it on ``window_oracle``'s boxes. The
body oracles are the vectorised numpy form of ``ConvexBody``'s checks and
the Python-float form it ran, a turn at a time, before it shared the
library's block check. The extraction oracle turns GPS tracks into bodies
one user at a time, with the per-user numpy calls that ``ingest_tracks``
stacks across users, and the hull oracle checks its hull in Python floats.
The tracks oracle parses a tracks file the plain way, and the bodies oracle
reads a bodies file a record at a time, each checked in Python floats, as
the reader did before it checked blocks of bodies at once; the histogram oracle
reads a histogram file's counts row by row with ``float()``, as the reader
did before it used numpy's text reader. The repair oracle is
``repair`` as it was when it still clamped edges and vertices and raised
faces for the aggregate family before its rectangle pass.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from eulerdp import (
    ConvexBody,
    EulerHistogram,
    GridPartition,
    IngestError,
    QueryRegion,
    UserTrack,
    build_partition,
    convex_hull,
    min_rectangle_count,
)
from eulerdp import fileio
from eulerdp.histogram import INTEGRAL_STATES

LATTICE = 1.0 / 1024.0


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def point_in_box(pt, box) -> bool:
    xlo, xhi, ylo, yhi = box
    return xlo <= pt[0] <= xhi and ylo <= pt[1] <= yhi


def point_in_convex(pt, verts) -> bool:
    k = len(verts)
    if k == 1:
        return pt[0] == verts[0][0] and pt[1] == verts[0][1]
    if k == 2:
        a, b = verts
        if _cross(a, b, pt) != 0.0:
            return False
        return (
            min(a[0], b[0]) <= pt[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= pt[1] <= max(a[1], b[1])
        )
    return all(_cross(verts[i], verts[(i + 1) % k], pt) >= 0.0 for i in range(k))


def _on_segment(p, a, b) -> bool:
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def segments_intersect(a, b, c, d) -> bool:
    o1, o2 = _cross(a, b, c), _cross(a, b, d)
    o3, o4 = _cross(c, d, a), _cross(c, d, b)
    if o1 * o2 < 0.0 and o3 * o4 < 0.0:
        return True
    if o1 == 0 and _on_segment(c, a, b):
        return True
    if o2 == 0 and _on_segment(d, a, b):
        return True
    if o3 == 0 and _on_segment(a, c, d):
        return True
    if o4 == 0 and _on_segment(b, c, d):
        return True
    return False


def _polygon_edges(verts):
    k = len(verts)
    if k == 1:
        return []
    if k == 2:
        return [(verts[0], verts[1])]
    return [(verts[i], verts[(i + 1) % k]) for i in range(k)]


def body_intersects_box(body: ConvexBody, box) -> bool:
    """Closed-set intersection of a convex body with a (possibly degenerate)
    axis-aligned box: vertex containment both ways, else edge crossings."""
    xlo, xhi, ylo, yhi = box
    verts = [tuple(v) for v in body.vertices]
    if any(point_in_box(v, box) for v in verts):
        return True
    corners = []
    for c in ((xlo, ylo), (xhi, ylo), (xhi, yhi), (xlo, yhi)):
        if c not in corners:
            corners.append(c)
    if any(point_in_convex(c, verts) for c in corners):
        return True
    for e1 in _polygon_edges(verts):
        for e2 in _polygon_edges(corners):
            if segments_intersect(e1[0], e1[1], e2[0], e2[1]):
                return True
    return False


def euler_truth(bodies, rect) -> int:
    """Brute-force count of bodies meeting a world-coordinate rectangle."""
    return sum(1 for b in bodies if body_intersects_box(b, rect))


def numpy_body_oracle(vertices) -> tuple[float, float, float, float] | None:
    """Whole-array numpy form of ``ConvexBody``'s checks: the bbox
    (xmin, xmax, ymin, ymax) of a vertex list the checks accept, or None for
    one they reject (bad shape, non-finite, or a turn clockwise by more than
    the 1e-9 relative slack)."""
    pts = np.asarray(vertices, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
        return None
    if not np.all(np.isfinite(pts)):
        return None
    if pts.shape[0] >= 3:
        scale = float(np.abs(pts).max()) or 1.0
        with np.errstate(over="ignore", invalid="ignore"):  # inf and inf - inf, as in plain floats
            a = np.roll(pts, -1, axis=0) - pts
            b = np.roll(pts, -2, axis=0) - pts
            cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        if np.any(cross < -1e-9 * scale * scale):
            return None
    xs, ys = pts[:, 0], pts[:, 1]
    return float(xs.min()), float(xs.max()), float(ys.min()), float(ys.max())


def body_check_oracle(vertices) -> tuple[float, float, float, float]:
    """``ConvexBody``'s checks as they were written in Python floats, a turn
    at a time, before it ran the library's block check: the bbox
    (xmin, xmax, ymin, ymax) of a vertex list they accept, from min() and
    max(), or their ValueError. The scale's ``or 1.0`` is as it was written;
    a body all at zero turns by zero, within any slack."""
    pts = np.array(vertices, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
        raise ValueError("vertices must be a (k, 2) array with k >= 1")
    xs, ys = pts.T.tolist()
    if not all(map(math.isfinite, xs + ys)):
        raise ValueError("vertices must be finite")
    k = len(xs)
    if k >= 3:
        scale = max(map(abs, xs + ys)) or 1.0
        slack = -1e-9 * scale * scale
        for i in range(k):
            j, m = (i + 1) % k, (i + 2) % k
            ax, ay = xs[j] - xs[i], ys[j] - ys[i]
            bx, by = xs[m] - xs[i], ys[m] - ys[i]
            if ax * by - ay * bx < slack:
                raise ValueError("vertices must wind counterclockwise around a convex region")
    return min(xs), max(xs), min(ys), max(ys)


def lattice_points(rng: np.random.Generator, count: int, span: float) -> np.ndarray:
    """Random points snapped to the dyadic lattice inside [0, span]^2."""
    steps = int(round(span / LATTICE))
    return rng.integers(0, steps + 1, (count, 2)).astype(np.float64) * LATTICE


def lattice_body(rng: np.random.Generator, span: float, kmax: int = 6) -> ConvexBody:
    """Random convex body on the lattice; sometimes degenerate on purpose."""
    k = int(rng.integers(1, kmax + 1))
    return convex_hull(lattice_points(rng, k, span))


# area sides that are not dyadic multiples of n make the grid lines inexact
area_sides = st.sampled_from([10.0, 1.0, 7.3, 2.0e4, 1.0e-3]) | st.floats(1e-3, 1e5)
origins = st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)) | st.just((0.0, 0.0))
partitions = st.builds(build_partition, area_sides, st.integers(2, 12), origin=origins)


def grid_components(p) -> list[tuple[str, tuple[float, float, float, float]]]:
    """(label, closed box) of every tracked component of partition ``p``.

    Listed faces first, then horizontal edges, vertical edges and vertices,
    each family row by row. A box is (xlo, xhi, ylo, yhi): an edge's box has
    one zero side and a vertex's box is a point.
    """
    n, d = p.n, p.cell_side
    ox, oy = p.origin
    xs = [ox + i * d for i in range(n + 1)]
    ys = [oy + j * d for j in range(n + 1)]
    out = []
    for r in range(n):
        for c in range(n):
            out.append((f"f{r}_{c}", (xs[c], xs[c + 1], ys[r], ys[r + 1])))
    for r in range(n - 1):  # between faces (r, c) and (r+1, c)
        for c in range(n):
            out.append((f"he{r}_{c}", (xs[c], xs[c + 1], ys[r + 1], ys[r + 1])))
    for r in range(n):  # between faces (r, c) and (r, c+1)
        for c in range(n - 1):
            out.append((f"ve{r}_{c}", (xs[c + 1], xs[c + 1], ys[r], ys[r + 1])))
    for r in range(n - 1):  # shared by faces (r, c) .. (r+1, c+1)
        for c in range(n - 1):
            out.append((f"x{r}_{c}", (xs[c + 1], xs[c + 1], ys[r + 1], ys[r + 1])))
    return out


def window_oracle(p, xlo: float, xhi: float, ylo: float, yhi: float):
    """``GridPartition.window`` the direct way: the padded cell range of the
    bounding box, then each section's rows x columns as a meshgrid, with
    boxes gathered from the ``ox + arange(n+1)*d`` grid lines."""
    n, d = p.n, p.cell_side
    ox, oy = p.origin
    clo = max(int(np.floor((xlo - ox) / d)) - 1, 0)
    chi = min(int(np.floor((xhi - ox) / d)) + 1, n - 1)
    rlo = max(int(np.floor((ylo - oy) / d)) - 1, 0)
    rhi = min(int(np.floor((yhi - oy) / d)) + 1, n - 1)
    if clo > chi or rlo > rhi:
        return np.empty(0, dtype=np.int64), np.empty((0, 4))

    xs = ox + np.arange(n + 1) * d
    ys = oy + np.arange(n + 1) * d
    idx_parts: list[np.ndarray] = []
    box_parts: list[np.ndarray] = []

    def emit(rows, cols, offset, width, xa, xb, ya, yb) -> None:
        rr, cc = np.meshgrid(rows, cols, indexing="ij")
        idx_parts.append(offset + rr.ravel() * width + cc.ravel())
        box_parts.append(
            np.column_stack([xa[cc.ravel()], xb[cc.ravel()], ya[rr.ravel()], yb[rr.ravel()]])
        )

    frows = np.arange(rlo, rhi + 1)
    fcols = np.arange(clo, chi + 1)
    emit(frows, fcols, 0, n, xs[:-1], xs[1:], ys[:-1], ys[1:])
    hrows = np.arange(max(rlo - 1, 0), min(rhi, n - 2) + 1)
    if hrows.size:
        emit(hrows, fcols, p.hedge_offset, n, xs[:-1], xs[1:], ys[1:], ys[1:])
    vcols = np.arange(max(clo - 1, 0), min(chi, n - 2) + 1)
    if vcols.size:
        emit(frows, vcols, p.vedge_offset, n - 1, xs[1:], xs[1:], ys[:-1], ys[1:])
    if hrows.size and vcols.size:
        emit(hrows, vcols, p.vertex_offset, n - 1, xs[1:], xs[1:], ys[1:], ys[1:])
    return np.concatenate(idx_parts), np.concatenate(box_parts)


def intersects_boxes_oracle(body: ConvexBody, boxes) -> np.ndarray:
    """``intersects_boxes`` with eight products per axis: the two grid axes,
    then each nonzero edge's normal (and, for a segment, its direction), and
    a box kept while its projected gap is at most 0 on every one."""
    boxes = np.asarray(boxes, dtype=np.float64)
    verts = body.vertices
    k = len(verts)
    axes = [(1.0, 0.0), (0.0, 1.0)]
    for i in range(k if k >= 2 else 0):
        dx = verts[(i + 1) % k, 0] - verts[i, 0]
        dy = verts[(i + 1) % k, 1] - verts[i, 1]
        if dx == 0.0 and dy == 0.0:
            continue
        axes.append((-dy, dx))
        if k == 2:
            axes.append((dx, dy))
    alive = np.ones(len(boxes), dtype=bool)
    for ux, uy in axes:
        proj = verts[:, 0] * ux + verts[:, 1] * uy
        bmin, bmax = proj.min(), proj.max()
        px = np.minimum(ux * boxes[:, 0], ux * boxes[:, 1])
        qx = np.maximum(ux * boxes[:, 0], ux * boxes[:, 1])
        py = np.minimum(uy * boxes[:, 2], uy * boxes[:, 3])
        qy = np.maximum(uy * boxes[:, 2], uy * boxes[:, 3])
        alive &= np.maximum((px + py) - bmax, bmin - (qx + qy)) <= 0.0
    return alive


def build_oracle_counts(bodies, p) -> np.ndarray:
    """Raw counts of ``build`` from ``window_oracle`` and
    ``intersects_boxes_oracle``, without validation."""
    counts = np.zeros(p.size)
    for body in bodies:
        idx, boxes = window_oracle(p, *body.bbox)
        counts[idx[intersects_boxes_oracle(body, boxes)]] += 1.0
    return counts


def box_dimension(box) -> int:
    """2 for a face, 1 for an edge, 0 for a vertex."""
    return int(box[1] > box[0]) + int(box[3] > box[2])


def box_contains(outer, inner) -> bool:
    return (
        outer[0] <= inner[0] and inner[1] <= outer[1]
        and outer[2] <= inner[2] and inner[3] <= outer[3]
    )


class ConstantNoise:
    """Noise source drawing one fixed value for every component."""

    def __init__(self, value: float):
        self.value = value

    def laplace_at(self, lam: float, start: int, count: int) -> np.ndarray:
        return np.full(count, self.value)


def _section_prefix(section: np.ndarray) -> np.ndarray:
    out = np.zeros((section.shape[0] + 1, section.shape[1] + 1))
    out[1:, 1:] = section.cumsum(axis=0).cumsum(axis=1)
    return out


def slice_sum_query(h: EulerHistogram, qr) -> float:
    """Euler count of one rectangle from four section slice sums, in the
    order faces - horizontal edges - vertical edges + vertices."""
    r0, r1, c0, c1 = qr.r0, qr.r1, qr.c0, qr.c1
    total = float(h.faces[r0 : r1 + 1, c0 : c1 + 1].sum())
    total -= float(h.hedges[r0:r1, c0 : c1 + 1].sum())
    total -= float(h.vedges[r0 : r1 + 1, c0:c1].sum())
    total += float(h.vertices[r0:r1, c0:c1].sum())
    return total


def float_table_query(h: EulerHistogram, qr) -> float | int:
    qr.validate(h.partition.n)
    a, b, c, d = h._corners
    r0, r1, c0, c1 = qr.r0, qr.r1, qr.c0, qr.c1
    total = float(a[r1, c1]) + float(b[r0, c1]) + float(c[r1, c0]) + float(d[r0, c0])
    if h.state in INTEGRAL_STATES:
        return int(round(total))
    return total


def all_rectangle_counts(h: EulerHistogram) -> np.ndarray:
    """Euler counts of every rectangular query region at once.

    Returns a 4-d array indexed by (r0, r1, c0, c1); entries with r0 > r1 or
    c0 > c1 are meaningless and must be masked by the caller (see
    :func:`valid_region_mask`).
    """
    n = h.partition.n
    r = np.arange(n)

    def part(section: np.ndarray, dr: int, dc: int) -> np.ndarray:
        # Interior components of the rectangle span rows [r0, r1 - dr] and
        # cols [c0, c1 - dc] of the section; empty ranges cancel to zero.
        pre = _section_prefix(section)
        band = pre[r + 1 - dr][None, :, :] - pre[r][:, None, :]  # (r0, r1, C+1)
        return band[:, :, r + 1 - dc][:, :, None, :] - band[:, :, r][:, :, :, None]

    total = part(h.faces, 0, 0)
    total -= part(h.hedges, 1, 0)
    total -= part(h.vedges, 0, 1)
    total += part(h.vertices, 1, 1)
    return total


def valid_region_mask(n: int) -> np.ndarray:
    """Boolean mask over (r0, r1, c0, c1) marking well-formed rectangles."""
    r = np.arange(n)
    rows_ok = r[:, None] <= r[None, :]
    return rows_ok[:, :, None, None] & rows_ok[None, None, :, :]


def scan_by_row_oracle(h: EulerHistogram) -> tuple[float, QueryRegion]:
    """``min_rectangle_count`` one top row at a time, as it ran before its
    top rows went in blocks."""
    n = h.partition.n
    a, b, c, d = h._corners
    value, region = np.inf, None
    for r0 in range(n):
        u = a[r0:] + b[r0]
        w = -(c[r0:] + d[r0])
        reach = np.minimum.accumulate(u[:, ::-1], axis=1)[:, ::-1]
        best = reach - w
        k = int(np.argmin(best))
        if best.flat[k] < value:
            r, c0 = divmod(k, n)
            value = float(best.flat[k])
            region = QueryRegion(r0, r0 + r, c0, c0 + int(np.argmin(u[r, c0:])))
    return value, region


@dataclass(frozen=True)
class ConstraintRows:
    """The constraint rows of one partition as dense-index tables, each
    built on first access. ``c1`` holds (edge, face) pairs ordered by edge
    then by the edge's faces (below, above; left, right); ``c2`` holds
    (vertex, edge) pairs ordered by vertex then edge (the horizontal edges
    left and right of it, the vertical edges below and above it); ``c3``
    holds one row (vertex, f1..f4, e1..e4) per vertex."""

    partition: GridPartition

    @cached_property
    def c1(self) -> np.ndarray:
        p = self.partition
        faces, hedges, vedges, _ = p.sections(np.arange(p.size, dtype=np.int64))
        return np.concatenate([
            np.stack([hedges, faces[:-1], hedges, faces[1:]], axis=-1).reshape(-1, 2),
            np.stack([vedges, faces[:, :-1], vedges, faces[:, 1:]], axis=-1).reshape(-1, 2),
        ])

    @cached_property
    def c2(self) -> np.ndarray:
        return np.column_stack([np.repeat(self.c3[:, 0], 4), self.c3[:, 5:].ravel()])

    @cached_property
    def c3(self) -> np.ndarray:
        p = self.partition
        faces, hedges, vedges, vertices = p.sections(np.arange(p.size, dtype=np.int64))
        return np.stack([
            vertices, faces[:-1, :-1], faces[:-1, 1:], faces[1:, :-1], faces[1:, 1:],
            hedges[:, :-1], hedges[:, 1:], vedges[:-1], vedges[1:],
        ], axis=-1).reshape(-1, 9)


def hit_stacks_oracle(hit: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Horizontal edge, vertical edge and vertex hits of a (bodies, h, w)
    stack of face hits, as three ANDs of neighbouring slices."""
    across = hit[:, :-1] & hit[:, 1:]  # both faces of each horizontal edge
    beside = hit[:, :, :-1] & hit[:, :, 1:]  # both faces of each vertical edge
    corner = across[:, :, :-1] & across[:, :, 1:]  # all four faces of each vertex
    return across, beside, corner


def violation_counts_oracle(rows: ConstraintRows, counts: np.ndarray) -> tuple[int, int, int]:
    """Violated C1 and C2 rows, one index pair at a time, and negative
    components: the check as it ran before it compared section slices."""
    return (
        int((counts[rows.c1[:, 0]] > counts[rows.c1[:, 1]]).sum()),
        int((counts[rows.c2[:, 0]] > counts[rows.c2[:, 1]]).sum()),
        int((counts < 0).sum()),
    )


def isotonic_linf_oracle(h: np.ndarray, rows: ConstraintRows) -> np.ndarray:
    """The L-infinity isotonic regression ``infer`` clips, from unbuffered
    maximum and minimum passes over the C2 and C1 index pairs."""
    below = h.copy()
    np.maximum.at(below, rows.c2[:, 1], below[rows.c2[:, 0]])
    np.maximum.at(below, rows.c1[:, 1], below[rows.c1[:, 0]])
    above = h.copy()
    np.minimum.at(above, rows.c1[:, 0], above[rows.c1[:, 1]])
    np.minimum.at(above, rows.c2[:, 0], above[rows.c2[:, 1]])
    return (below + above) / 2


class LinearProgram(NamedTuple):
    """Minimize c @ x s.t. a_ub @ x <= b_ub, x >= 0.

    Rows are the lower residual rows of every component, then the upper
    ones, then the C1, C2 and C3 rows of the constraint set.
    """

    c: np.ndarray
    a_ub: sp.csr_matrix
    b_ub: np.ndarray
    kind: str

    @property
    def n_rows(self) -> int:
        return len(self.b_ub)


# C3 row coefficients in ConstraintRows.c3 column order: vertex, 4 faces, 4 edges.
_C3_COEFS = np.array([-1.0] * 5 + [1.0] * 4)


def _assemble(h: EulerHistogram, cs: ConstraintRows, kind: str) -> LinearProgram:
    """|x_i - h_i| <= r_i (``l1``) or <= r (``linf``), then
    ``x[a] - x[b] <= 0`` for each C1 and C2 pair, then the C3 rows."""
    n = cs.partition.size
    if kind == "l1":
        resid_col = np.arange(n, 2 * n)
        c = np.concatenate([np.zeros(n), np.ones(n)])
    else:
        resid_col = np.full(n, n)
        c = np.concatenate([np.zeros(n), [1.0]])
    i = np.arange(n)
    pair = np.column_stack([i, resid_col]).ravel()
    pairs = np.concatenate([cs.c1, cs.c2])
    k = len(pairs)
    rows = np.concatenate([
        np.repeat(np.arange(2 * n), 2),
        np.repeat(np.arange(2 * n, 2 * n + k), 2),
        np.repeat(np.arange(2 * n + k, 2 * n + k + len(cs.c3)), 9),
    ])
    cols = np.concatenate([pair, pair, pairs.ravel(), cs.c3.ravel()])
    vals = np.concatenate([
        np.tile([-1.0, -1.0], n),
        np.tile([1.0, -1.0], n),
        np.tile([1.0, -1.0], k),
        np.tile(_C3_COEFS, len(cs.c3)),
    ])
    total_rows = 2 * n + k + len(cs.c3)
    a_ub = sp.coo_matrix((vals, (rows, cols)), shape=(total_rows, len(c))).tocsr()
    b_ub = np.concatenate([-h.counts, h.counts, np.zeros(total_rows - 2 * n)])
    return LinearProgram(c, a_ub, b_ub, kind)


def build_lad_program(h: EulerHistogram, cs: ConstraintRows) -> LinearProgram:
    """Least-absolute-deviations program: one residual per component."""
    return _assemble(h, cs, "l1")


def build_linf_program(h: EulerHistogram, cs: ConstraintRows) -> LinearProgram:
    """Minimax program: a single residual bounds every deviation."""
    return _assemble(h, cs, "linf")


def lp_oracle(h: EulerHistogram, cs: ConstraintRows, objective: str) -> tuple[np.ndarray, float]:
    """Counts and objective of ``objective``'s program, solved by HiGHS."""
    lp = _assemble(h, cs, objective)
    res = linprog(lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.x[: cs.partition.size], float(res.fun)


def min_cut_oracle(h: np.ndarray, cs: ConstraintRows, method: str) -> tuple[np.ndarray, int]:
    """Smallest L1 isotonic regression of ``h`` under the C2 and C1 pairs
    (lower, upper), and the number of minimum-cut levels it took, with every
    level's cut from a ``maximum_flow(method=method)``.

    Each node keeps an index interval [lo, hi) into the sorted distinct
    values. A level cuts every open interval at mid: a node ranked at or
    above mid gains 1 by going up (source edge), any other node by going down
    (sink edge), and a pair inside one interval may not send its lower node
    up and its upper node down (capacity N+1, above any cut of unit edges).
    The nodes reachable from the source in the residual graph form the
    minimal minimum cut, the same for every maximum flow; they go up.
    """
    vals, rank = np.unique(h, return_inverse=True)
    size = len(h)
    source, sink = size, size + 1
    lower, upper = np.concatenate([cs.c2, cs.c1]).T
    lo = np.zeros(size, dtype=np.int64)
    hi = np.full(size, len(vals), dtype=np.int64)
    levels = 0
    while (is_open := hi - lo > 1).any():
        mid = (lo + hi) // 2
        nodes = np.flatnonzero(is_open)
        up = rank[nodes] >= mid[nodes]
        # intervals of one level are disjoint, so equal lo means one interval
        pairs = is_open[lower] & (lo[lower] == lo[upper])
        rows = np.concatenate([np.full(up.sum(), source), nodes[~up], lower[pairs]])
        cols = np.concatenate([nodes[up], np.full((~up).sum(), sink), upper[pairs]])
        caps = np.concatenate([
            np.ones(len(nodes), dtype=np.int32),
            np.full(pairs.sum(), size + 1, dtype=np.int32),
        ])
        graph = sp.csr_array((caps, (rows, cols)), shape=(size + 2, size + 2))
        residual = graph - maximum_flow(graph, source, sink, method=method).flow
        residual.eliminate_zeros()  # csgraph reads stored zeros as edges
        reached = np.zeros(size + 2, dtype=bool)
        reached[breadth_first_order(residual, source, return_predecessors=False)] = True
        lo = np.where(is_open & reached[:size], mid, lo)
        hi = np.where(is_open & ~reached[:size], mid, hi)
        levels += 1
    return vals[lo], levels


# The track-extraction oracle: one user at a time, each step the per-user
# numpy code that ``ingest_tracks`` stacks across users, and the hull with
# its own ``_cross``.
ORACLE_PAIRWISE_BLOCK = 1 << 22
EARTH_RADIUS_M = 6371000.0


class OracleEmptyTrack(Exception):
    """No points of a user lie inside the area; the oracle skips the user."""

    def __init__(self, user_id: str, reason: str):
        super().__init__(f"user {user_id!r}: {reason}")
        self.user_id = user_id
        self.reason = reason


def oracle_convex_hull(points) -> ConvexBody:
    pts = sorted({(x, y) for x, y in np.asarray(points, dtype=np.float64).tolist()})
    if not pts:
        raise ValueError("convex_hull needs at least one point")
    if len(pts) == 1:
        body_check_oracle(pts)
        return ConvexBody(pts)
    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all input points collinear
        hull = [pts[0], pts[-1]]
    body_check_oracle(hull)
    return ConvexBody(hull)


def oracle_diameter(body: ConvexBody) -> float:
    pts = body.vertices
    if len(pts) == 1:
        return 0.0
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff * diff).sum(axis=2).max()))


def oracle_project(track, config) -> np.ndarray:
    lat0, lon0 = config.center
    rad = math.pi / 180.0
    x = EARTH_RADIUS_M * (track.points[:, 1] - lon0) * rad * math.cos(lat0 * rad)
    y = EARTH_RADIUS_M * (track.points[:, 0] - lat0) * rad
    ox, oy = config.origin
    half = config.area_side / 2.0
    planar = np.column_stack([x + ox + half, y + oy + half])
    inside = (
        (planar[:, 0] >= ox)
        & (planar[:, 0] <= ox + config.area_side)
        & (planar[:, 1] >= oy)
        & (planar[:, 1] <= oy + config.area_side)
    )
    kept = planar[inside]
    if len(kept) == 0:
        raise OracleEmptyTrack(track.user_id, "no points inside the area")
    return kept


def oracle_scott_matrix(points: np.ndarray) -> np.ndarray:
    n = len(points)
    factor = n ** (-1.0 / 6.0)
    if n == 1:
        cov = np.eye(2)
    else:
        cov = np.cov(points.T, ddof=1)
    h = cov * factor**2
    scale = max(float(np.trace(h)), 1.0)
    ridge = 1e-12 * scale
    while True:
        try:
            np.linalg.cholesky(h + np.eye(2) * ridge)
            return h + np.eye(2) * ridge
        except np.linalg.LinAlgError:
            ridge *= 10.0
            if ridge > 1e6 * scale:
                raise


def oracle_kde_density(points: np.ndarray, at: np.ndarray) -> np.ndarray:
    h = oracle_scott_matrix(points)
    h_inv = np.linalg.inv(h)
    (a, b), (c, e) = h_inv.tolist()
    norm = 1.0 / (len(points) * 2.0 * math.pi * math.sqrt(float(np.linalg.det(h))))
    px, py = points.T.copy()
    out = np.empty(len(at))
    step = max(1, ORACLE_PAIRWISE_BLOCK // len(points))
    for lo in range(0, len(at), step):
        d0 = at[lo : lo + step, 0, None] - px
        d1 = at[lo : lo + step, 1, None] - py
        quad = (((d0 * a) * d0 + (d0 * b) * d1) + (d1 * c) * d0) + (d1 * e) * d1
        quad *= -0.5
        out[lo : lo + step] = np.exp(quad, out=quad).sum(axis=1) * norm
    return out


def oracle_kde_mode(points: np.ndarray) -> np.ndarray:
    if len(points) == 1:
        return points[0].copy()
    dens = oracle_kde_density(points, points)
    return points[int(np.argmax(dens))].copy()


def oracle_trim_to_diameter(ordered: np.ndarray, bound: float) -> np.ndarray:
    """Longest prefix whose point-set diameter is <= bound: drop the last
    point while the prefix's largest pairwise distance exceeds the bound."""
    m = len(ordered)
    reach2 = np.empty(m)
    step = max(1, ORACLE_PAIRWISE_BLOCK // (2 * m))
    for r in range(0, m, step):
        diff = ordered[r : r + step, None, :] - ordered[None, : r + step, :]
        reach2[r : r + step] = np.tril((diff * diff).sum(axis=2), r).max(axis=1)
    keep = m
    while keep > 1 and np.sqrt(reach2[:keep].max()) > bound:
        keep -= 1
    return ordered[:keep]


def extract_body_oracle(track, config) -> ConvexBody:
    """Project, locate the mode, keep k nearest, trim to the diameter bound, hull."""
    planar = oracle_project(track, config)
    mode = oracle_kde_mode(planar)
    dist2 = ((planar - mode) ** 2).sum(axis=1)
    order = np.argsort(dist2, kind="stable")
    nearest = planar[order[: config.k]]
    kept = oracle_trim_to_diameter(nearest, config.diameter_bound)
    return oracle_convex_hull(kept)


def ingest_tracks_oracle(tracks, config):
    """(bodies, ids, skipped) from ``extract_body_oracle``, user by user."""
    bodies, ids, skipped = [], [], []
    for track in tracks:
        try:
            bodies.append(extract_body_oracle(track, config))
            ids.append(track.user_id)
        except OracleEmptyTrack as e:
            skipped.append((e.user_id, e.reason))
    return bodies, ids, skipped


def read_tracks_oracle(stream) -> list[UserTrack]:
    """The tracks parser written plainly: strip each line, skip blanks and
    comments, strip each field, then convert; a fourth field is ignored."""
    points: dict[str, array] = {}  # flat lat, lon pairs; dicts keep first-appearance order
    first_data = True
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (3, 4):
            raise IngestError(f"tracks line {lineno}: expected 3 or 4 fields, got {len(parts)}")
        try:
            lat, lon = float(parts[1]), float(parts[2])
        except ValueError:
            if first_data and parts[0].lower() == "user_id":
                continue
            raise IngestError(f"tracks line {lineno}: bad coordinates {parts[1]!r}, {parts[2]!r}")
        first_data = False
        flat = points.setdefault(parts[0], array("d"))
        flat.append(lat)
        flat.append(lon)
    return [UserTrack(uid, np.frombuffer(flat).reshape(-1, 2)) for uid, flat in points.items()]


def read_bodies_oracle(stream) -> tuple[list[ConvexBody], list[str]]:
    """The bodies reader one line at a time: each record parsed alone,
    checked by the Python-float check and made a body by ``ConvexBody``,
    whose diameter is computed when asked."""
    bodies: list[ConvexBody] = []
    ids: list[str] = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(f"expected a JSON object, got {type(record).__name__}")
            uid = str(record["user_id"])
            body_check_oracle(record["vertices"])
            body = ConvexBody(record["vertices"])
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise fileio.FormatError(f"bodies line {lineno}: {e}") from e
        ids.append(uid)
        bodies.append(body)
    return bodies, ids


def read_histogram_oracle(stream) -> EulerHistogram:
    """The histogram reader converting each row with ``float()`` after
    checking its length: the same counts and FormatError texts as
    ``read_histogram``, which shares only the header parsing, except that
    ``read_histogram`` reads a ``-0`` token in an integral file as 0.0."""
    lines = stream.read().splitlines()
    p, state, epsilon, bound, i = fileio._read_header(lines)
    found, needed = len(lines) - i, 4 * p.n + 2
    if found < needed:
        raise fileio.FormatError(f"truncated histogram: n={p.n} needs {needed} section lines, found {found}")
    counts = np.empty(p.size)
    for name, block in zip(("faces", "horizontal-edges", "vertical-edges", "vertices"), p.sections(counts)):
        rows, cols = block.shape
        if lines[i] != f"{name} {rows} {cols}":
            raise fileio.FormatError(f"expected section header {name!r} at line {i + 1}")
        for r, line in enumerate(lines[i + 1 : i + 1 + rows]):
            tokens = line.split()
            if len(tokens) != cols:
                raise fileio.FormatError(f"section {name!r} row {r}: expected {cols} values")
            try:
                block[r] = [float(v) for v in tokens]
            except ValueError as e:
                raise fileio.FormatError(f"section {name!r} row {r}: {e}") from e
        i += 1 + rows
    for j in range(i, len(lines)):
        if lines[j].strip():
            raise fileio.FormatError(f"unexpected content after the vertices section at line {j + 1}")
    try:
        return EulerHistogram(p, counts, state, epsilon=epsilon, diameter_bound=bound)
    except ValueError as e:
        raise fileio.FormatError(str(e)) from e


def repair_oracle(h: EulerHistogram):
    """Counts and (c1, c2, c3, rect) fixes and cost of the clamp-pass repair.

    Passes run in a fixed order chosen so that no pass re-breaks an earlier
    one: edges are clamped down to their faces, vertices down to their
    (already-clamped) edges, then faces are raised where an aggregate row or
    a rectangle still falls short. Real-valued states get the 1e-7 dust
    tolerance this repair used to apply.
    """
    cs = ConstraintRows(h.partition)
    counts = h.counts.copy()
    tol = 0.0 if h.state in INTEGRAL_STATES else 1e-7

    # C1: edge <= min(incident faces). c1 rows come in pairs per edge.
    edge_idx = cs.c1[0::2, 0]
    face_pair = cs.c1[:, 1].reshape(-1, 2)
    cap = np.minimum(counts[face_pair[:, 0]], counts[face_pair[:, 1]])
    over = counts[edge_idx] > cap + tol
    c1_fixes = int(over.sum())
    counts[edge_idx[over]] = cap[over]

    # C2: vertex <= min(incident edges), against clamped edges.
    vert_idx = cs.c2[0::4, 0]
    edge_quad = cs.c2[:, 1].reshape(-1, 4)
    cap = counts[edge_quad].min(axis=1)
    over = counts[vert_idx] > cap + tol
    c2_fixes = int(over.sum())
    counts[vert_idx[over]] = cap[over]

    # C3: close any remaining deficit by raising the smallest incident face.
    c3 = cs.c3
    deficit = counts[c3[:, 5:9]].sum(axis=1) - counts[c3[:, 1:5]].sum(axis=1) - counts[c3[:, 0]]
    c3_fixes = 0
    for k in np.nonzero(deficit > tol)[0]:
        faces = c3[k, 1:5]
        counts[faces[np.argmin(counts[faces])]] += deficit[k]
        c3_fixes += 1

    n = h.partition.n
    face_counts = counts[: n * n].reshape(n, n)  # a view of counts
    rect_fixes = 0
    for _ in range((n * (n + 1) // 2) ** 2 + 1):
        worst, qr = min_rectangle_count(h.with_counts(counts, h.state))
        if worst >= 0:
            break
        block = face_counts[qr.r0 : qr.r1 + 1, qr.c0 : qr.c1 + 1]
        block[np.unravel_index(np.argmin(block), block.shape)] -= worst
        rect_fixes += 1
    else:
        raise RuntimeError("rectangle repair failed to converge")

    cost = float(np.abs(counts - h.counts).sum())
    return counts, (c1_fixes, c2_fixes, c3_fixes, rect_fixes), cost
