"""Convex planar bodies and closed-set intersection predicates.

All predicates treat both operands as closed point sets, so touching counts as
intersecting, and with no tolerance nothing short of touching does. Every grid
component (face, edge, vertex) is an axis-aligned box, possibly degenerate,
tested on the same axes and kept while its gap is at most 0 on each. A body
meets an edge box exactly when it meets both face boxes beside it, in floats
too: the edge's box is the faces' shared side, with bitwise-identical
coordinates, and on any axis its projected lower end is the same float sum as
one face's lower end and its upper end as the other face's upper end, so its
gap is at most the larger face gap. Containment gives the converse. A vertex
box is likewise the shared side of two horizontal edges' boxes, so it is met
exactly when all four faces round it are. ``build`` counts edges and vertices
from these ANDs of face hits, and raw histograms' constraints follow from them.

Hulls come from one monotone chain (Andrew, 1979) run over a stack of point
sets at once, in numpy: :func:`hull_vertices` sorts every set, drops repeated
points and advances all the chains one point per step, each set getting
exactly the hull the chain would build on it alone. :func:`convex_hulls`
makes bodies of a stack, and :func:`convex_hull` runs the stack of one set.
:func:`convex_bodies` checks a block of given vertex lists, as read from a
file, and makes bodies of it. ``ConvexBody``, the chains' junctions and
:func:`convex_bodies` all check through one vectorised block check.
Diameters, of a body or of every prefix of a point set, come from one
pairwise kernel, :func:`prefix_squared_diameters`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_NOT_FINITE = "vertices must be finite"
_NOT_CONVEX = "vertices must wind counterclockwise around a convex region"
# float64s per temporary of pairwise distances (512 KiB)
PAIRWISE_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class ConvexBody:
    """A convex region given by its hull vertices in counterclockwise order.

    Degenerate bodies are allowed: a single vertex is a point, two vertices
    are a segment. The convexity check carries a relative slack of 1e-9 so
    hulls of ingested float data validate; clockwise winding still fails.
    Construction runs the block check :func:`convex_bodies` and
    :func:`hull_vertices` run, on a block of one body.

    Immutable: ``vertices`` is copied once on construction and is read-only,
    so ``bbox`` (xmin, xmax, ymin, ymax), which the check gives, never goes
    stale. Bodies from :func:`convex_hulls` and :func:`convex_bodies` view
    one read-only block instead. ``cached_diameter`` is :func:`diameter`,
    computed on first use and kept; :func:`convex_bodies` fills it in.
    Bodies compare and hash by identity.
    """

    vertices: np.ndarray
    bbox: tuple[float, float, float, float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pts = np.array(self.vertices, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError("vertices must be a (k, 2) array with k >= 1")
        k = len(pts)
        [[bbox]] = _check([(pts[None, :, 0], pts[None, :, 1], k, np.arange(k))])
        pts.flags.writeable = False
        object.__setattr__(self, "vertices", pts)
        object.__setattr__(self, "bbox", tuple(bbox))

    def __reduce__(self):
        # copies and unpickled bodies go through __post_init__ too, so their
        # vertices are read-only, their bbox is recomputed and their
        # diameter is not cached yet
        return type(self), (self.vertices,)

    @cached_property
    def cached_diameter(self) -> float:
        # lazy, so making a body stays cheap; every build checks it again
        return diameter(self)


def _check(blocks: list) -> list:
    """Check blocks of bodies; return each block's bboxes.

    A block is (x, y, size, turns). Row r of x and y (g, h) is a body of
    ``size[r]`` vertices (or ``size``, for every row) in counterclockwise
    order, then copies of its first vertex, tested at its turns
    ``turns[r]`` (or ``turns``); turn i is at vertices o, a, p = i, i + 1,
    i + 2 mod the size. Raises ValueError ``_NOT_FINITE`` if any coordinate
    of any block is not finite, else ``_NOT_CONVEX`` if a tested turn of a
    body of three or more vertices has ``(a - o) x (p - o) <
    -1e-9 * scale**2``, scale being the body's largest absolute coordinate,
    in float64 as written out below: overflow gives inf, and inf - inf gives
    NaN, which never fails. A bbox is (xmin, xmax, ymin, ymax), each the
    first of equal extremes, as min() and max() pick, so 0.0 and -0.0 tie."""
    if not all(np.isfinite(x).all() and np.isfinite(y).all() for x, y, _, _ in blocks):
        raise ValueError(_NOT_FINITE)
    boxes = []
    with np.errstate(over="ignore", invalid="ignore"):
        for x, y, size, turns in blocks:
            size = np.reshape(size, (-1, 1))
            scale = np.maximum(np.abs(x).max(axis=1, initial=0.0), np.abs(y).max(axis=1, initial=0.0))[:, None]
            rows = np.arange(len(x))[:, None]
            o, a, p = turns % size, (turns + 1) % size, (turns + 2) % size
            ax, ay = x[rows, a] - x[rows, o], y[rows, a] - y[rows, o]
            px, py = x[rows, p] - x[rows, o], y[rows, p] - y[rows, o]
            if ((size >= 3) & (ax * py - ay * px < -1e-9 * scale * scale)).any():
                raise ValueError(_NOT_CONVEX)
            rows = rows[:, 0]
            extremes = [x.argmin(axis=1), x.argmax(axis=1), y.argmin(axis=1), y.argmax(axis=1)]
            boxes.append(np.stack([v[rows, i] for v, i in zip((x, x, y, y), extremes)], axis=1).tolist())
    return boxes


def hull_vertices(points: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Andrew's monotone chain over a stack of point sets at once.

    Set i is ``points[i, :counts[i]]`` of ``points`` (g, m, 2), with
    ``g >= 1`` and ``1 <= counts[i] <= m``. Returns the hulls' x and y
    coordinates, (g, h) each, their vertex counts (g,) and their bboxes;
    row i holds its hull's vertices in counterclockwise order from the
    lowest, then copies of that first vertex. Each set gets exactly what
    the chain run on it alone gives:

    - Entries past a set's count become copies of its first point. Each set
      is sorted by (x, y) with a stable sort, and a point equal to the one
      before it (0.0 == -0.0, NaN equals nothing) is dropped, so of equal
      points the first one given is kept.
    - The lower chain runs over each set in order and the upper chain over
      it reversed, both as rows of one stack of 2g chains. Step j pushes
      point j of every chain with more than j points, after popping, round
      by round, each chain whose top two vertices o, a and the point p make
      ``(a - o) x (p - o) <= 0``, evaluated elementwise as written out below.
      Two NaN entries under every chain's bottom stand in for the
      two-vertex minimum: a cross product with NaN never pops.
    - The hull is the lower chain without its last vertex, then the upper
      chain without its last; a single point is its own hull. No three
      hull vertices are collinear, and a collinear set gives its two ends.
    - Every turn inside a chain is strictly left, so ``ConvexBody``'s
      check runs on the two turns where the chains join, at the largest
      and the smallest point, only. A junction turn is never checked
      inside a chain, and it can fail: where cross products are subnormal
      the slack is zero, and a turn one chain kept at +5e-324 can compute
      to -5e-324 from the junction's coordinate differences.
    """
    g, m, _ = points.shape
    cols = np.arange(m)
    pad = cols >= counts[:, None]
    x = np.where(pad, points[:, :1, 0], points[:, :, 0])
    y = np.where(pad, points[:, :1, 1], points[:, :, 1])
    order = np.lexsort((y, x))
    x = np.take_along_axis(x, order, axis=1)
    y = np.take_along_axis(y, order, axis=1)
    repeat = np.zeros((g, m), dtype=bool)
    repeat[:, 1:] = (x[:, 1:] == x[:, :-1]) & (y[:, 1:] == y[:, :-1])
    n = m - repeat.sum(axis=1)
    order = np.argsort(repeat, axis=1, kind="stable")  # the distinct points first, in order
    order = np.concatenate([order, np.take_along_axis(order, np.maximum(n[:, None] - 1 - cols, 0), axis=1)])
    n = np.concatenate([n, n])
    x = np.take_along_axis(np.concatenate([x, x]), order, axis=1)
    y = np.take_along_axis(np.concatenate([y, y]), order, axis=1)

    width = m + 2
    sx = np.full((2 * g, width), np.nan)
    sy = np.full((2 * g, width), np.nan)
    sxf, syf = sx.reshape(-1), sy.reshape(-1)  # views
    top = np.full(2 * g, 2)  # where each chain's next vertex goes
    with np.errstate(all="ignore"):  # inf - inf and overflow, as in plain floats
        for j in range(int(n.max(initial=0))):
            live = np.flatnonzero(n > j)
            px, py = x[live, j], y[live, j]
            rows, qx, qy = live, px, py
            while rows.size:
                at = rows * width + top[rows]
                ox, oy = sxf[at - 2], syf[at - 2]
                ax, ay = sxf[at - 1], syf[at - 1]
                pop = (ax - ox) * (qy - oy) - (ay - oy) * (qx - ox) <= 0
                rows, qx, qy = rows[pop], qx[pop], qy[pop]
                top[rows] -= 1
            at = live * width + top[live]
            sxf[at], syf[at] = px, py
            top[live] += 1

        lower = top[:g] - 2
        below = np.maximum(lower - 1, 1)
        size = below + top[g:] - 3
        h = int(size.max(initial=0))
        cols = np.arange(h)
        pick = np.where(cols < below[:, None], cols + 2, cols - below[:, None] + width + 2)
        pick[cols >= size[:, None]] = 2
        hx = np.take_along_axis(np.concatenate([sx[:g], sx[g:]], axis=1), pick, axis=1)
        hy = np.take_along_axis(np.concatenate([sy[:g], sy[g:]], axis=1), pick, axis=1)

    [boxes] = _check([(hx, hy, size, np.stack([lower - 2, size - 1], axis=1))])  # the junction turns
    return hx, hy, size, boxes


def _block_bodies(block: np.ndarray, sizes, boxes: list, diameters: list | None = None) -> list[ConvexBody]:
    """Bodies viewing ``block`` (K, 2), made read-only, body i being the next
    ``sizes[i]`` rows, with bbox ``boxes[i]`` and, when given, cached
    diameter ``diameters[i]``. Nothing is checked: the caller has."""
    block.flags.writeable = False
    ends = np.cumsum(sizes).tolist()
    bodies = []
    for i, (start, end) in enumerate(zip([0] + ends, ends)):
        body = object.__new__(ConvexBody)
        object.__setattr__(body, "vertices", block[start:end])
        object.__setattr__(body, "bbox", tuple(boxes[i]))
        if diameters is not None:
            object.__setattr__(body, "cached_diameter", diameters[i])
        bodies.append(body)
    return bodies


def convex_hulls(points, counts) -> list[ConvexBody]:
    """The convex hulls of a stack of point sets, set i being
    ``points[i, :counts[i]]``, each the body :func:`convex_hull` makes of
    that set alone. The bodies view one compact, read-only vertex block."""
    counts = np.asarray(counts)
    if not counts.size:
        return []
    hx, hy, size, boxes = hull_vertices(np.asarray(points, dtype=np.float64), counts)
    kept = np.arange(hx.shape[1]) < size[:, None]
    return _block_bodies(np.stack([hx[kept], hy[kept]], axis=1), size, boxes)


def prefix_squared_diameters(points: np.ndarray) -> np.ndarray:
    """Squared diameter of every prefix of each of g ordered point sets,
    ``points`` (g, k, 2); returns (g, k), entry i for the first i + 1
    points, so a set's squared diameter is its last entry.

    Each point's squared distance dx * dx + dy * dy to its farthest
    predecessor, then a running maximum, with at most ``PAIRWISE_BLOCK``
    float64s per temporary (one row of one set at least). Overflow gives
    inf, as in plain floats.
    """
    g, k, _ = points.shape
    x, y = np.ascontiguousarray(points.transpose(2, 0, 1))
    reach2 = np.empty((g, k))
    sets = max(1, PAIRWISE_BLOCK // (k * k))
    rows = max(1, min(k, PAIRWISE_BLOCK // k))
    with np.errstate(over="ignore"):
        for lo in range(0, g, sets):
            for r in range(0, k, rows):
                dx = x[lo : lo + sets, r : r + rows, None] - x[lo : lo + sets, None, : r + rows]
                dy = y[lo : lo + sets, r : r + rows, None] - y[lo : lo + sets, None, : r + rows]
                dx *= dx
                dy *= dy
                dx += dy
                reach2[lo : lo + sets, r : r + rows] = np.tril(dx, r).max(axis=2)
    return np.maximum.accumulate(reach2, axis=1)


def convex_bodies(vertices: np.ndarray, sizes: np.ndarray) -> list[ConvexBody]:
    """The bodies of a (K, 2) float64 vertex block, body i being the next
    ``sizes[i] >= 1`` rows in counterclockwise order, each checked as
    ``ConvexBody`` checks it, with its ValueError texts: bodies of equal
    size form one block of the check. The bodies view the block, made
    read-only, with their bbox and their cached diameter filled in."""
    starts = np.cumsum(sizes) - sizes
    groups = [np.flatnonzero(sizes == k) for k in np.unique(sizes).tolist()]
    stacks, blocks = [], []
    for group in groups:
        k = int(sizes[group[0]])
        stacks.append(vertices[starts[group, None] + np.arange(k)])
        blocks.append((stacks[-1][..., 0], stacks[-1][..., 1], k, np.arange(k)))
    boxes: list = [None] * len(sizes)
    diameters = np.empty(len(sizes))
    for group, stack, group_boxes in zip(groups, stacks, _check(blocks)):
        for i, box in zip(group.tolist(), group_boxes):
            boxes[i] = box
        diameters[group] = np.sqrt(prefix_squared_diameters(stack)[:, -1])
    return _block_bodies(vertices, sizes, boxes, diameters.tolist())


def convex_hull(points) -> ConvexBody:
    """Andrew monotone chain; strict turns only, so no three output vertices
    are collinear. Handles degenerate input (single point, collinear set).
    One set through :func:`convex_hulls`."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        raise ValueError("convex_hull needs at least one point")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be a (k, 2) array")
    return convex_hulls(pts[None], [len(pts)])[0]


def diameter(body: ConvexBody) -> float:
    """Largest pairwise distance between hull vertices: the square root of
    the last of :func:`prefix_squared_diameters` of the one body."""
    return float(np.sqrt(prefix_squared_diameters(body.vertices[None])[0, -1]))


def _axes(vertices: np.ndarray) -> list[tuple[float, float]]:
    """Candidate separating axes: the two grid axes plus the body's edge
    normals; degenerate bodies also contribute edge directions, which the
    endpoint-beyond-segment case needs."""
    axes: list[tuple[float, float]] = [(1.0, 0.0), (0.0, 1.0)]
    k = len(vertices)
    if k < 2:
        return axes
    degenerate = k == 2
    for i in range(k):
        dx = vertices[(i + 1) % k, 0] - vertices[i, 0]
        dy = vertices[(i + 1) % k, 1] - vertices[i, 1]
        if dx == 0.0 and dy == 0.0:
            continue
        axes.append((-dy, dx))
        if degenerate:
            axes.append((dx, dy))
    return axes


def intersects_boxes(body: ConvexBody, boxes: np.ndarray) -> np.ndarray:
    """Vectorized closed-set intersection of one body against many boxes.

    ``boxes`` has rows (xlo, xhi, ylo, yhi); degenerate rows encode segments
    and points. A box is kept while the gap between its projection and the
    body's is at most 0 on every axis, so touching counts and a box 1e-12
    away does not.

    On an axis (ux, uy) the box's projection runs from
    min(ux*xlo, ux*xhi) + min(uy*ylo, uy*yhi) to the same sum of maxima;
    each of the four products is formed once and feeds both ends.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.size == 0:
        return np.zeros(0, dtype=bool)
    alive = np.ones(len(boxes), dtype=bool)
    verts = body.vertices
    xlo, xhi, ylo, yhi = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
    for ux, uy in _axes(verts):
        proj = verts[:, 0] * ux + verts[:, 1] * uy
        bmin, bmax = proj.min(), proj.max()
        x0, x1 = ux * xlo, ux * xhi
        y0, y1 = uy * ylo, uy * yhi
        gap = np.maximum(
            (np.minimum(x0, x1) + np.minimum(y0, y1)) - bmax,
            bmin - (np.maximum(x0, x1) + np.maximum(y0, y1)),
        )
        alive &= gap <= 0.0
        if not alive.any():
            break
    return alive
