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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridPartition:
    """Immutable description of the grid: origin, area side, and resolution."""

    origin: tuple[float, float]
    area_side: float
    n: int

    def __post_init__(self) -> None:
        ox, oy = self.origin
        if not (np.isfinite(ox) and np.isfinite(oy)):
            raise ValueError("origin must be finite")
        if not (np.isfinite(self.area_side) and self.area_side > 0):
            raise ValueError("area_side must be positive and finite")
        if self.n < 2:
            raise ValueError("grid resolution n must be at least 2")

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

    def window(
        self, xlo: float, xhi: float, ylo: float, yhi: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense indices and boxes of every face that could meet the given
        bounding box.

        The face rectangle is padded by one ring of cells so boundary-touching
        intersections are never missed; the caller's predicate makes the final
        call. Returns ``(indices, boxes)`` row-major, with ``boxes[i] = (xlo,
        xhi, ylo, yhi)`` for the face at ``indices[i]``, taken from the grid
        lines ``origin + k * cell_side``.
        """
        n, d = self.n, self.cell_side
        ox, oy = self.origin
        clo = max(math.floor((xlo - ox) / d) - 1, 0)
        chi = min(math.floor((xhi - ox) / d) + 1, n - 1)
        rlo = max(math.floor((ylo - oy) / d) - 1, 0)
        rhi = min(math.floor((yhi - oy) / d) + 1, n - 1)
        if clo > chi or rlo > rhi:
            return np.empty(0, dtype=np.int64), np.empty((0, 4))
        cols, rows = np.arange(clo, chi + 2), np.arange(rlo, rhi + 2)
        xs, ys = ox + cols * d, oy + rows * d
        boxes = np.empty((rhi - rlo + 1, chi - clo + 1, 4))
        boxes[..., 0], boxes[..., 1] = xs[:-1], xs[1:]
        boxes[..., 2], boxes[..., 3] = ys[:-1, None], ys[1:, None]
        return (rows[:-1, None] * n + cols[:-1]).ravel(), boxes.reshape(-1, 4)


def build_partition(
    area_side: float, n: int, origin: tuple[float, float] = (0.0, 0.0)
) -> GridPartition:
    return GridPartition((float(origin[0]), float(origin[1])), float(area_side), int(n))
