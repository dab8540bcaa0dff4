"""Square grid partition over a bounded area.

The partition splits an axis-aligned square of side ``area_side`` into ``n * n``
closed cells (faces) and tracks the lower-dimensional components between them:
the ``2n(n-1)`` interior edge segments and the ``(n-1)^2`` interior grid
vertices. Components on the outer boundary of the area are not tracked.

A component has one address, its dense integer index. The dense layout is
four sections, each row-major: the ``n x n`` faces, the ``(n-1) x n``
horizontal edges, the ``n x (n-1)`` vertical edges and the ``(n-1) x (n-1)``
vertices, starting at offsets ``0``, ``hedge_offset``, ``vedge_offset`` and
``vertex_offset``. So horizontal edge ``(r, c)`` is index
``hedge_offset + r*n + c`` and vertex ``(r, c)`` is
``vertex_offset + r*(n-1) + c``. File formats and noise streams are keyed by
the dense index, so the layout is load-bearing and must stay stable.

Rows grow with y and columns grow with x. Face ``(r, c)`` covers
``[x0 + c*d, x0 + (c+1)*d] x [y0 + r*d, y0 + (r+1)*d]`` where ``d`` is the
cell side. The horizontal edge ``(r, c)`` is the segment between faces
``(r, c)`` and ``(r+1, c)``; the vertical edge ``(r, c)`` sits between faces
``(r, c)`` and ``(r, c+1)``; vertex ``(r, c)`` is the grid point shared by
faces ``(r, c)``, ``(r, c+1)``, ``(r+1, c)`` and ``(r+1, c+1)``.

:meth:`GridPartition.sections` views a dense array as the four sections,
and :func:`incidences` pairs neighbouring slices of them: each edge under
its two faces, each vertex under its four edges. That one table is the
incidence ``build`` counts edge and vertex hits from, and the C1 and C2
rows that inference checks and projects onto.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def require_finite_positive(**values: float) -> None:
    """Raise ValueError naming the first value that is not a finite number
    above zero (an infinite epsilon would draw no noise at all)."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")


def require_integer(**values: object) -> None:
    """Raise ValueError naming the first value that is neither an ``int`` nor
    a numpy integer, the rule ``GridPartition`` applies to ``n``: a float,
    even a whole one, is refused here rather than failing deep in numpy."""
    for name, value in values.items():
        if not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def require_finite_pair(**pairs: tuple[float, float]) -> None:
    """Raise ValueError naming the first coordinate pair, such as an origin,
    that holds a NaN or an infinity."""
    for name, pair in pairs.items():
        if not all(map(math.isfinite, pair)):
            raise ValueError(f"{name} must be finite, got {pair}")


@dataclass(frozen=True)
class GridPartition:
    """Immutable description of the grid: origin, area side, and resolution."""

    origin: tuple[float, float]
    area_side: float
    n: int

    def __post_init__(self) -> None:
        require_finite_pair(origin=self.origin)
        require_finite_positive(area_side=self.area_side)
        require_integer(n=self.n)
        if self.n < 2:
            raise ValueError("grid resolution n must be at least 2")
        object.__setattr__(self, "n", int(self.n))

    @property
    def cell_side(self) -> float:
        # Derived, never stored: n * cell_side reproduces area_side exactly
        # up to one float division.
        return self.area_side / self.n

    # ---- component census ------------------------------------------------

    @property
    def n_faces(self) -> int:
        return self.n * self.n

    @property
    def n_hedges(self) -> int:
        return (self.n - 1) * self.n

    @property
    def n_vedges(self) -> int:
        return self.n * (self.n - 1)

    @property
    def n_edges(self) -> int:
        return self.n_hedges + self.n_vedges

    @property
    def n_vertices(self) -> int:
        return (self.n - 1) * (self.n - 1)

    @property
    def size(self) -> int:
        """Total number of tracked components."""
        return self.n_faces + self.n_edges + self.n_vertices

    # Dense-layout section offsets.
    @property
    def hedge_offset(self) -> int:
        return self.n_faces

    @property
    def vedge_offset(self) -> int:
        return self.n_faces + self.n_hedges

    @property
    def vertex_offset(self) -> int:
        return self.n_faces + self.n_edges

    def sections(self, dense: np.ndarray) -> list[np.ndarray]:
        """Views of a dense array's faces, horizontal edges, vertical edges
        and vertices, shaped so ``[r, c]`` addresses component ``(r, c)``."""
        n = self.n
        cuts = np.split(dense, [self.hedge_offset, self.vedge_offset, self.vertex_offset])
        shapes = ((n, n), (n - 1, n), (n, n - 1), (n - 1, n - 1))
        return [cut.reshape(shape) for cut, shape in zip(cuts, shapes)]

    def windows(self, bboxes: np.ndarray) -> np.ndarray:
        """Padded face window of each bounding box, one pass over all of them.

        ``bboxes`` is (m, 4) with rows (xlo, xhi, ylo, yhi); the result is
        (m, 4) int64 with rows (c0, c1, r0, r1), the first and last column
        and row of the faces that could meet the box. The cell range of the
        box is padded by one ring of cells, so boundary-touching
        intersections are never missed, and clamped to the grid; a box
        that misses the padded grid gets ``c0 > c1`` or ``r0 > r1``. A NaN
        coordinate raises ValueError.
        """
        n, d = self.n, self.cell_side
        ox, oy = self.origin
        lines = np.floor((np.asarray(bboxes, dtype=np.float64) - (ox, ox, oy, oy)) / d)
        if np.isnan(lines).any():
            raise ValueError("bounding box coordinates must not be NaN")
        # floor - 1 and floor + 1 are clamped to [0, n] and [-1, n - 1], so
        # an empty window stays empty and every bound fits an int64
        lines += (-1.0, 1.0, -1.0, 1.0)
        np.clip(lines, (0, -1, 0, -1), (n, n - 1, n, n - 1), out=lines)
        return lines.astype(np.int64)

    def face_boxes(self, rows: slice = slice(None), cols: slice = slice(None)) -> np.ndarray:
        """Boxes of the faces in ``rows`` x ``cols`` of the grid (all of it
        by default), shaped (rows, cols, 4) with ``[i, j] = (xlo, xhi, ylo,
        yhi)``, taken from the grid lines ``origin + k * cell_side``."""
        n, d = self.n, self.cell_side
        ox, oy = self.origin
        k = np.arange(n + 1)
        xs, ys = ox + k * d, oy + k * d
        xlo, xhi, ylo, yhi = xs[:-1][cols], xs[1:][cols], ys[:-1][rows], ys[1:][rows]
        boxes = np.empty((len(ylo), len(xlo), 4))
        boxes[..., 0], boxes[..., 1] = xlo, xhi
        boxes[..., 2], boxes[..., 3] = ylo[:, None], yhi[:, None]
        return boxes

    def window(
        self, xlo: float, xhi: float, ylo: float, yhi: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense indices and boxes of every face that could meet the given
        bounding box: the one-box case of :meth:`windows`.

        Returns ``(indices, boxes)`` row-major, with ``boxes[i] = (xlo, xhi,
        ylo, yhi)`` for the face at ``indices[i]``, from
        :meth:`face_boxes`.
        """
        c0, c1, r0, r1 = self.windows([(xlo, xhi, ylo, yhi)])[0].tolist()
        if c0 > c1 or r0 > r1:
            return np.empty(0, dtype=np.int64), np.empty((0, 4))
        rows, cols = np.arange(r0, r1 + 1), np.arange(c0, c1 + 1)
        boxes = self.face_boxes(slice(r0, r1 + 1), slice(c0, c1 + 1))
        return (rows[:, None] * self.n + cols).ravel(), boxes.reshape(-1, 4)


def incidences(faces, hedges, vedges, vertices) -> tuple:
    """The C1 and C2 rows as eight (lower, upper) pairs of same-shaped views
    of the four sections, which may carry leading axes (``[..., r, c]`` is
    component ``(r, c)``).

    Rows 0-3 put each horizontal edge under the face below it, then above
    it, and each vertical edge under the face left of it, then right of it
    (C1). Rows 4-7 put each vertex under the horizontal edge left of it,
    then right of it, and under the vertical edge below it, then above it
    (C2).
    """
    return (
        (hedges, faces[..., :-1, :]), (hedges, faces[..., 1:, :]),
        (vedges, faces[..., :, :-1]), (vedges, faces[..., :, 1:]),
        (vertices, hedges[..., :, :-1]), (vertices, hedges[..., :, 1:]),
        (vertices, vedges[..., :-1, :]), (vertices, vedges[..., 1:, :]),
    )


def build_partition(
    area_side: float, n: int, origin: tuple[float, float] = (0.0, 0.0)
) -> GridPartition:
    return GridPartition((float(origin[0]), float(origin[1])), float(area_side), n)
