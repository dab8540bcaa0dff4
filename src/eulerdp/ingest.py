"""Turn per-user GPS tracks into bounded-diameter convex bodies.

The pipeline per user: project latitude/longitude to local planar meters,
find the densest point of the track (a Gaussian KDE evaluated at the data
points), keep the k points nearest that mode, shed the farthest stragglers
until the set fits the diameter budget, and take the convex hull. One body
per user; users whose tracks leave nothing usable are skipped and reported,
never silently dropped.

Users are extracted together, not one at a time. Every ping is projected in
one pass; users with equal counts of points inside the area then find their
modes and nearest points as stacks, and users keeping equal numbers of
nearest points trim and hull as stacks, each step the same floating-point
operations a lone user's extraction does, so the bodies are identical to
extracting users one at a time. A user keeps the longest prefix of its
nearest points whose largest pairwise distance is within the diameter
bound, read off the prefixes' running diameters, and the kept prefixes
hull in one batched monotone chain (see :mod:`eulerdp.geometry`).

Also provides synthetic body generators so experiments can run without any
real tracks: ``uniform`` scatters bodies evenly, ``clustered`` draws centers
from a small Gaussian mixture, ``concentrated`` puts most mass in a single
hotspot over a sparse background. Each body's random draws come one body at
a time; its polygon's arithmetic and hull run for all bodies at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PAIRWISE_BLOCK, ConvexBody, convex_hulls, prefix_squared_diameters
from .grid import require_finite_positive, require_integer

EARTH_RADIUS_M = 6371000.0
_LAT_LON_LIMITS = np.array([90.0, 180.0])
# float64s per scratch array of the KDE's row blocks, four of them in cache
KDE_BLOCK = 1 << 15
# most vertices a synthetic body draws
MAX_SIDES = 8


class IngestError(ValueError):
    pass


@dataclass(frozen=True)
class UserTrack:
    user_id: str
    points: np.ndarray  # (k, 2) of (latitude, longitude) degrees

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
            raise IngestError(f"user {self.user_id!r}: expected a non-empty (k, 2) point array")
        object.__setattr__(self, "points", pts)
        if not (np.abs(pts) <= _LAT_LON_LIMITS).all():  # NaN fails too
            raise IngestError(f"user {self.user_id!r}: coordinates outside valid ranges")


@dataclass(frozen=True)
class IngestConfig:
    """Knobs for body extraction.

    ``center`` is the (latitude, longitude) that projects onto the middle of
    the area square. The neighbour count ``k`` is exposed directly; pick it
    to taste for the sampling rate of the source data.
    """

    area_side: float
    diameter_bound: float
    k: int
    center: tuple[float, float] | None = None
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        try:
            require_finite_positive(area_side=self.area_side, diameter_bound=self.diameter_bound)
            require_integer(k=self.k)
        except ValueError as e:
            raise IngestError(str(e)) from None
        if self.k < 1:
            raise IngestError("k must be >= 1")
        for name in ("origin", "center"):
            pair = getattr(self, name)
            if pair is not None and not all(map(math.isfinite, pair)):
                raise IngestError(f"{name} must be finite, got {pair}")
        if self.center is not None:
            lat, lon = self.center
            if not (abs(lat) <= 90 and abs(lon) <= 180):
                raise IngestError("projection center outside valid coordinate ranges")


def _planar(points: np.ndarray, config: IngestConfig) -> tuple[np.ndarray, np.ndarray]:
    """Planar meters of (latitude, longitude) rows, and which of them lie in
    the area square.

    Equirectangular about the configured center: cheap, and over a
    city-sized window the distortion is far below the grid resolution.
    """
    if config.center is None:
        raise IngestError("projection requires a configured center")
    lat0, lon0 = config.center
    rad = math.pi / 180.0
    ox, oy = config.origin
    half = config.area_side / 2.0
    x = EARTH_RADIUS_M * (points[:, 1] - lon0) * rad * math.cos(lat0 * rad) + ox + half
    y = EARTH_RADIUS_M * (points[:, 0] - lat0) * rad + oy + half
    inside = (x >= ox) & (x <= ox + config.area_side) & (y >= oy) & (y <= oy + config.area_side)
    return np.column_stack([x, y]), inside


def _scott_matrices(stack: np.ndarray) -> np.ndarray:
    """Kernel covariance of each of g point sets of m points, (g, m, 2):
    the sample covariance scaled by m^(-1/(d+4)), d=2, by Scott's rule.

    Each covariance is ``np.cov``'s: the same mean, and the same BLAS
    product of the centred points with their own transpose, which one
    stacked ``np.matmul`` runs set by set.
    A degenerate covariance (repeated or collinear points) gets a small
    ridge so the density stays evaluable: 1e-12 of its scale, times 10
    until its Cholesky factorisation succeeds.
    """
    g, m, _ = stack.shape
    factor = m ** (-1.0 / 6.0)
    if m == 1:
        cov = np.tile(np.eye(2), (g, 1, 1))
    else:
        centred = stack - stack.mean(axis=1, keepdims=True)
        cov = np.matmul(centred.transpose(0, 2, 1), centred)
        cov *= np.true_divide(1, m - 1)
    h = cov * factor**2
    scale = np.maximum(h[:, 0, 0] + h[:, 1, 1], 1.0)
    ridge = 1e-12 * scale
    ridged = h + np.eye(2) * ridge[:, None, None]
    try:
        np.linalg.cholesky(ridged)
        return ridged
    except np.linalg.LinAlgError:
        pass
    for u in range(g):  # some set in the stack is degenerate: ridge each alone
        while True:
            try:
                np.linalg.cholesky(ridged[u])
                break
            except np.linalg.LinAlgError:
                ridge[u] *= 10.0
                if ridge[u] > 1e6 * scale[u]:
                    raise
                ridged[u] = h[u] + np.eye(2) * ridge[u]
    return ridged


def _kde(stack: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Gaussian-kernel density of each point set in ``stack`` (g, m, 2),
    evaluated at the rows of its ``at`` (g, r, 2); returns (g, r).

    The quadratic form d^T H^-1 d is summed from the per-axis differences
    in the order ``einsum("ijk,kl,ijl->ij", d, h_inv, d)`` accumulates it
    (k outer, l inner, each term multiplied left to right), so the result is
    bitwise the einsum value at a fraction of its per-call cost. A block of
    rows is worked in four scratch arrays, reused from block to block, of
    at most ``KDE_BLOCK`` float64s each (one row at least). A set's part
    of a scratch array is one contiguous run, so a product with the set's
    entry of H^-1 is one long loop, not one per row.
    """
    g, m, _ = stack.shape
    h = _scott_matrices(stack)
    h_inv = np.linalg.inv(h)
    a, b, c, e = h_inv[:, 0, 0, None], h_inv[:, 0, 1, None], h_inv[:, 1, 0, None], h_inv[:, 1, 1, None]
    norm = 1.0 / (m * 2.0 * math.pi * np.sqrt(np.linalg.det(h)))[:, None]
    px = np.ascontiguousarray(stack[:, None, :, 0])
    py = np.ascontiguousarray(stack[:, None, :, 1])
    qx = np.ascontiguousarray(at[:, :, 0, None])
    qy = np.ascontiguousarray(at[:, :, 1, None])
    r = at.shape[1]
    out = np.empty((g, r))
    step = max(1, KDE_BLOCK // (g * m))
    scratch = np.empty((4, g, min(step, r) * m))
    for lo in range(0, r, step):
        rows = min(step, r - lo)
        d0, d1, quad, term = scratch[:, :, : rows * m]  # views, (g, rows * m) each
        np.subtract(qx[:, lo : lo + rows], px, out=d0.reshape(g, rows, m))
        np.subtract(qy[:, lo : lo + rows], py, out=d1.reshape(g, rows, m))
        np.multiply(d0, a, out=quad)
        quad *= d0
        for u, v, w in ((d0, b, d1), (d1, c, d0), (d1, e, d1)):
            np.multiply(u, v, out=term)
            term *= w
            quad += term
        quad *= -0.5
        np.exp(quad, out=quad)
        np.multiply(quad.reshape(g, rows, m).sum(axis=2), norm, out=out[:, lo : lo + rows])
    return out


def _modes(stack: np.ndarray) -> np.ndarray:
    """Densest input point of each set in ``stack`` (g, m, 2): the argmax of
    its KDE over its own points."""
    if stack.shape[1] == 1:
        return stack[:, 0]
    return stack[np.arange(len(stack)), _kde(stack, stack).argmax(axis=1)]


def _trim_lengths(prefix2: np.ndarray, bound: float) -> np.ndarray:
    """Per user, the length of the longest prefix of its nearest points,
    ordered by distance from the mode, whose largest distance between two
    points is within the bound, given the prefixes' squared diameters
    ``prefix2`` (g, k). They are a running maximum, so never fall, in
    floats too, and the prefixes within the bound are the first ones. The
    hull keeps a subset of the prefix's points, with the same squared
    distance between each pair, so its diameter is within the bound too."""
    return np.maximum(1, np.count_nonzero(np.sqrt(prefix2) <= bound, axis=1))


def _nearest(stack: np.ndarray, config: IngestConfig) -> tuple[np.ndarray, np.ndarray]:
    """For g users with m projected points each, ``stack`` (g, m, 2): the
    min(k, m) points nearest each user's mode, nearest first, and the
    squared diameters of their prefixes."""
    mode = _modes(stack)
    dx = stack[:, :, 0] - mode[:, 0, None]
    dy = stack[:, :, 1] - mode[:, 1, None]
    dist2 = dx * dx + dy * dy
    order = np.argsort(dist2, axis=1, kind="stable")[:, : config.k]
    nearest = np.take_along_axis(stack, order[:, :, None], axis=1)
    return nearest, prefix_squared_diameters(nearest)


def ingest_tracks(
    tracks: list[UserTrack], config: IngestConfig
) -> tuple[list[ConvexBody], list[str], list[tuple[str, str]]]:
    """Extract one body per user; returns (bodies, user ids, skipped users).

    Every ping is projected in one pass. Users with the same number m of
    points inside the area then find their modes and nearest points
    together, in stacks of ``PAIRWISE_BLOCK // m**2`` users (one at least).
    Users keeping the same number of nearest points trim and hull together.
    The output is identical to extracting each user alone.
    len(tracks) == len(bodies) + len(skipped) always holds.
    """
    if not tracks:
        return [], [], []
    planar, inside = _planar(np.concatenate([t.points for t in tracks]), config)
    kept = planar[inside]
    del planar
    lengths = np.array([len(t.points) for t in tracks])
    counts = np.add.reduceat(inside, np.cumsum(lengths) - lengths, dtype=np.intp)
    starts = np.cumsum(counts) - counts  # of each user's points in kept
    by_size: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
    for m in np.unique(counts[counts > 0]).tolist():
        users = np.flatnonzero(counts == m)
        step = max(1, PAIRWISE_BLOCK // (m * m))
        for lo in range(0, len(users), step):
            group = users[lo : lo + step]
            stack = kept[starts[group, None] + np.arange(m)]
            by_size.setdefault(min(m, config.k), []).append((group, *_nearest(stack, config)))
    found: list[ConvexBody | None] = [None] * len(tracks)
    for size, parts in by_size.items():
        users, nearest, prefix2 = (np.concatenate(a) for a in zip(*parts))
        step = max(1, PAIRWISE_BLOCK // size)
        for lo in range(0, len(users), step):
            block = slice(lo, lo + step)
            keep = _trim_lengths(prefix2[block], config.diameter_bound)
            for u, body in zip(users[block].tolist(), convex_hulls(nearest[block], keep)):
                found[u] = body
    bodies: list[ConvexBody] = []
    ids: list[str] = []
    skipped: list[tuple[str, str]] = []
    for track, body in zip(tracks, found):
        if body is None:
            skipped.append((track.user_id, "no points inside the area"))
        else:
            bodies.append(body)
            ids.append(track.user_id)
    return bodies, ids, skipped


def generate_synthetic(
    kind: str,
    count: int,
    config: IngestConfig,
    rng: np.random.Generator,
) -> list[ConvexBody]:
    """Random convex bodies with diameter <= the configured bound, inside the area.

    Body size scales with the diameter bound but shrinks near the walls so
    every body stays inside without clipping.
    """
    try:
        require_integer(count=count)
    except ValueError as e:
        raise IngestError(str(e)) from None
    if count < 0:
        raise IngestError("count must be >= 0")
    ox, oy = config.origin
    a, b = config.area_side, config.diameter_bound

    if kind == "uniform":
        centers = rng.uniform(0.0, a, (count, 2))
    elif kind == "clustered":
        mix = rng.uniform(0.1 * a, 0.9 * a, (5, 2))
        pick = rng.integers(0, 5, count)
        centers = np.clip(mix[pick] + rng.normal(0.0, a / 15.0, (count, 2)), 0.0, a)
    elif kind == "concentrated":
        hot = np.full(2, a / 2.0)
        centers = np.clip(hot + rng.normal(0.0, a / 25.0, (count, 2)), 0.0, a)
        bg = rng.random(count) < 0.15
        centers[bg] = rng.uniform(0.0, a, (int(bg.sum()), 2))
    else:
        raise IngestError(f"unknown synthetic kind {kind!r}")
    centers += np.array([ox, oy])

    # Each body draws its size, its vertex count, then that many angles and
    # radii, in this order; the arithmetic after the draws runs on all
    # bodies at once, elementwise as it would on each alone.
    rmax = np.empty(count)
    sides = np.empty(count, dtype=np.intp)
    ang = np.full((count, MAX_SIDES), np.inf)  # sorts after every angle
    rad = np.empty((count, MAX_SIDES))
    for i, (cx, cy) in enumerate(centers.tolist()):
        walls = min(cx - ox, ox + a - cx, cy - oy, oy + a - cy)
        rmax[i] = min(float(rng.uniform(0.3, 1.0)) * b / 2.0, max(walls, 0.0))
        nv = sides[i] = rng.integers(3, MAX_SIDES + 1)
        ang[i, :nv] = rng.uniform(0.0, 2.0 * math.pi, nv)
        rad[i, :nv] = rng.uniform(0.4, 1.0, nv)
    ang.sort(axis=1)
    used = np.arange(MAX_SIDES) < sides[:, None]
    ang = ang[used]
    rad = rad[used] * np.repeat(rmax, sides)
    pts = np.empty((count, MAX_SIDES, 2))
    pts[used, 0] = np.repeat(centers[:, 0], sides) + rad * np.cos(ang)
    pts[used, 1] = np.repeat(centers[:, 1], sides) + rad * np.sin(ang)
    return convex_hulls(pts, sides)
