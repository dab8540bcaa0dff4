"""Shared oracles for the test suite.

The geometry oracles here are deliberately independent of the library: plain
point/segment/polygon predicates composed the textbook way. Tests that claim
exactness feed both sides coordinates on a dyadic lattice (multiples of
1/1024) so every intermediate product is exactly representable and the
comparison is legitimate. The rectangle oracle tabulates every rectangle's
Euler count at once, in O(n^4) time and memory, for small grids.
"""

from __future__ import annotations

import numpy as np

from eulerdp import ConvexBody, EulerHistogram, convex_hull

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


def lattice_points(rng: np.random.Generator, count: int, span: float) -> np.ndarray:
    """Random points snapped to the dyadic lattice inside [0, span]^2."""
    steps = int(round(span / LATTICE))
    return rng.integers(0, steps + 1, (count, 2)).astype(np.float64) * LATTICE


def lattice_body(rng: np.random.Generator, span: float, kmax: int = 6) -> ConvexBody:
    """Random convex body on the lattice; sometimes degenerate on purpose."""
    k = int(rng.integers(1, kmax + 1))
    return convex_hull(lattice_points(rng, k, span))


def _section_prefix(section: np.ndarray) -> np.ndarray:
    out = np.zeros((section.shape[0] + 1, section.shape[1] + 1))
    out[1:, 1:] = section.cumsum(axis=0).cumsum(axis=1)
    return out


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
