"""Convex planar bodies and closed-set intersection predicates.

All predicates treat both operands as closed point sets, so touching counts as
intersecting. Every grid component (face, edge, vertex) is an axis-aligned
box, possibly degenerate, tested on the same axes with the same ``tol * scale``.
A body meets an edge box exactly when it meets both face boxes beside it, in
floats too: the edge's box is the faces' shared side, with bitwise-identical
coordinates, and on any axis its projected lower end is the same float sum as
one face's lower end and its upper end as the other face's upper end, so its
gap is at most the larger face gap. Containment gives the converse. A vertex
box is likewise the shared side of two horizontal edges' boxes, so it is met
exactly when all four faces round it are. ``build`` counts edges and vertices
from these ANDs of face hits, and raw histograms' constraints follow from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class ConvexBody:
    """A convex region given by its hull vertices in counterclockwise order.

    Degenerate bodies are allowed: a single vertex is a point, two vertices
    are a segment. The convexity check carries a relative slack of 1e-9 so
    hulls of ingested float data validate; clockwise winding still fails.

    Immutable: ``vertices`` is copied once on construction and is read-only,
    so ``bbox`` (xmin, xmax, ymin, ymax), stored in the same pass, never goes
    stale. ``cached_diameter`` is :func:`diameter`, computed on first use
    and kept. Bodies compare and hash by identity.
    """

    vertices: np.ndarray
    bbox: tuple[float, float, float, float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pts = np.array(self.vertices, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError("vertices must be a (k, 2) array with k >= 1")
        xs, ys = pts.T.tolist()
        self._seal(pts, xs, ys, range(len(xs)))

    def _seal(self, pts: np.ndarray, xs, ys, turns) -> None:
        """Check that the vertices are finite and that each listed turn i
        (vertices i, i + 1, i + 2, cyclically) bends left within the slack,
        then store them read-only with their bbox."""
        # Plain floats from here: each test below is the IEEE operation the
        # elementwise numpy form would do, at a fraction of the call overhead.
        if not all(map(math.isfinite, xs + ys)):
            raise ValueError("vertices must be finite")
        k = len(xs)
        if k >= 3:
            scale = max(map(abs, xs + ys)) or 1.0
            slack = -1e-9 * scale * scale
            for i in turns:
                j, m = (i + 1) % k, (i + 2) % k
                ax, ay = xs[j] - xs[i], ys[j] - ys[i]
                bx, by = xs[m] - xs[i], ys[m] - ys[i]
                if ax * by - ay * bx < slack:
                    raise ValueError("vertices must wind counterclockwise around a convex region")
        pts.flags.writeable = False
        object.__setattr__(self, "vertices", pts)
        object.__setattr__(self, "bbox", (min(xs), max(xs), min(ys), max(ys)))

    def __reduce__(self):
        # copies and unpickled bodies go through __post_init__ too, so their
        # vertices are read-only, their bbox is recomputed and their
        # diameter is not cached yet
        return type(self), (self.vertices,)

    @cached_property
    def cached_diameter(self) -> float:
        # lazy, so making a body stays cheap; every build checks it again
        return diameter(self)


def _chain(pts) -> list[tuple[float, float]]:
    """One side of the monotone chain: each point in turn, after popping
    every vertex that would not make a strict left turn. The turn test is
    the cross product (a - o) x (p - o), written out inline."""
    chain: list[tuple[float, float]] = []
    for p in pts:
        px, py = p
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0:
                chain.pop()
            else:
                break
        chain.append(p)
    return chain


def convex_hull(points) -> ConvexBody:
    """Andrew monotone chain; strict turns only, so no three output vertices
    are collinear. Handles degenerate input (single point, collinear set)."""
    pts = sorted({(x, y) for x, y in np.asarray(points, dtype=np.float64).tolist()})
    if not pts:
        raise ValueError("convex_hull needs at least one point")
    if len(pts) == 1:
        return ConvexBody(pts)
    lower = _chain(pts)
    hull = lower[:-1] + _chain(reversed(pts))[:-1]
    if len(hull) < 2:  # all input points collinear
        hull = [pts[0], pts[-1]]
    # Every turn inside a chain passed the constructor's own cross product,
    # so only the two turns where the chains join, at pts[-1] and pts[0],
    # are left to check.
    body = object.__new__(ConvexBody)
    xs, ys = zip(*hull)
    body._seal(np.array(hull), xs, ys, (len(lower) - 2, len(hull) - 1))
    return body


def diameter(body: ConvexBody) -> float:
    """Largest pairwise distance between hull vertices."""
    pts = body.vertices
    if len(pts) == 1:
        return 0.0
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff * diff).sum(axis=2).max()))


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


def intersects_boxes(body: ConvexBody, boxes: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Vectorized closed-set intersection of one body against many boxes.

    ``boxes`` has rows (xlo, xhi, ylo, yhi); degenerate rows encode segments
    and points. ``tol > 0`` turns the test into within-distance-tol along
    every axis.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.size == 0:
        return np.zeros(0, dtype=bool)
    alive = np.ones(len(boxes), dtype=bool)
    verts = body.vertices
    for ux, uy in _axes(verts):
        proj = verts[:, 0] * ux + verts[:, 1] * uy
        bmin, bmax = proj.min(), proj.max()
        px = np.minimum(ux * boxes[:, 0], ux * boxes[:, 1])
        qx = np.maximum(ux * boxes[:, 0], ux * boxes[:, 1])
        py = np.minimum(uy * boxes[:, 2], uy * boxes[:, 3])
        qy = np.maximum(uy * boxes[:, 2], uy * boxes[:, 3])
        gap = np.maximum((px + py) - bmax, bmin - (qx + qy))
        scale = max(abs(ux), abs(uy))
        alive &= gap <= tol * scale
        if not alive.any():
            break
    return alive
