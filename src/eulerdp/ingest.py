"""Turn per-user GPS tracks into bounded-diameter convex bodies.

The pipeline per user: project latitude/longitude to local planar meters,
find the densest point of the track (a Gaussian KDE evaluated at the data
points), keep the k points nearest that mode, shed the farthest stragglers
until the set fits the diameter budget, and take the convex hull. One body
per user; users whose tracks leave nothing usable are skipped and reported,
never silently dropped.

Also provides synthetic body generators so experiments can run without any
real tracks: ``uniform`` scatters bodies evenly, ``clustered`` draws centers
from a small Gaussian mixture, ``concentrated`` puts most mass in a single
hotspot over a sparse background.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ConvexBody, convex_hull, diameter

EARTH_RADIUS_M = 6371000.0
# float64s per block of pairwise work (32 MiB), so an n-point track never
# materializes an n x n matrix
PAIRWISE_BLOCK = 1 << 22


class IngestError(ValueError):
    pass


class EmptyTrackError(IngestError):
    """No usable points remain for a user; callers skip and log."""

    def __init__(self, user_id: str, reason: str):
        super().__init__(f"user {user_id!r}: {reason}")
        self.user_id = user_id
        self.reason = reason


@dataclass(frozen=True)
class UserTrack:
    user_id: str
    points: np.ndarray  # (k, 2) of (latitude, longitude) degrees
    timestamps: tuple[str, ...] | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
            raise IngestError(f"user {self.user_id!r}: expected a non-empty (k, 2) point array")
        object.__setattr__(self, "points", pts)
        lat, lon = pts[:, 0], pts[:, 1]
        if not (np.all(np.abs(lat) <= 90) and np.all(np.abs(lon) <= 180)):
            raise IngestError(f"user {self.user_id!r}: coordinates outside valid ranges")
        if self.timestamps is not None and len(self.timestamps) != len(pts):
            raise IngestError(f"user {self.user_id!r}: timestamp count mismatch")


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
        if not (self.area_side > 0 and self.diameter_bound > 0):
            raise IngestError("area_side and diameter_bound must be positive")
        if self.k < 1:
            raise IngestError("k must be >= 1")
        if self.center is not None:
            lat, lon = self.center
            if not (abs(lat) <= 90 and abs(lon) <= 180):
                raise IngestError("projection center outside valid coordinate ranges")


def project(track: UserTrack, config: IngestConfig) -> np.ndarray:
    """Project to local planar meters; drop points outside the area square.

    Equirectangular about the configured center: cheap, and over a
    city-sized window the distortion is far below the grid resolution.
    """
    if config.center is None:
        raise IngestError("projection requires a configured center")
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
        raise EmptyTrackError(track.user_id, "no points inside the area")
    return kept


def _scott_matrix(points: np.ndarray) -> np.ndarray:
    """Kernel covariance by Scott's rule: sample covariance scaled by
    n^(-1/(d+4)), d=2.

    Degenerate covariance (repeated or collinear points) gets a small ridge
    so the density stays evaluable.
    """
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


def kde_density(points: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Gaussian-kernel density of ``points`` evaluated at rows of ``at``.

    The quadratic form d^T H^-1 d is summed from the per-axis differences
    in the order ``einsum("ijk,kl,ijl->ij", d, h_inv, d)`` accumulates it
    (k outer, l inner, each term multiplied left to right), so the result is
    bitwise the einsum value at a fraction of its per-call cost. With the
    same chunks and numpy reusing the temporaries, peak allocation is no
    higher than the einsum's.
    """
    pts = np.asarray(points, dtype=np.float64)
    at = np.atleast_2d(np.asarray(at, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise IngestError("kde_density expects a non-empty (k, 2) points array")
    if at.ndim != 2 or at.shape[1] != 2:
        raise IngestError("kde_density expects an (m, 2) array of evaluation points")
    h = _scott_matrix(pts)
    h_inv = np.linalg.inv(h)
    (a, b), (c, e) = h_inv.tolist()
    norm = 1.0 / (len(pts) * 2.0 * math.pi * math.sqrt(float(np.linalg.det(h))))
    px, py = pts.T.copy()
    out = np.empty(len(at))
    step = max(1, PAIRWISE_BLOCK // len(pts))
    for lo in range(0, len(at), step):
        d0 = at[lo : lo + step, 0, None] - px
        d1 = at[lo : lo + step, 1, None] - py
        quad = (((d0 * a) * d0 + (d0 * b) * d1) + (d1 * c) * d0) + (d1 * e) * d1
        quad *= -0.5
        out[lo : lo + step] = np.exp(quad, out=quad).sum(axis=1) * norm
    return out


def kde_mode(points: np.ndarray) -> np.ndarray:
    """Densest input point: argmax of the KDE over the data points themselves."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise IngestError("kde_mode expects a non-empty (k, 2) array")
    if len(pts) == 1:
        return pts[0].copy()
    dens = kde_density(pts, pts)
    return pts[int(np.argmax(dens))].copy()


def _trim_to_diameter(ordered: np.ndarray, bound: float) -> np.ndarray:
    """Largest prefix of mode-distance-ordered points with diameter <= bound.

    Prefix diameter is nondecreasing in length, so binary search lands on
    the same set as repeatedly dropping the farthest point. Each probe asks
    whether ``diameter(convex_hull(prefix)) <= bound``. The hull's vertices
    are a subset of the same floats, and every pair's squared distance is
    the same ``(diff * diff).sum`` in both, so the squared diameter of the
    prefix's whole point set is never below the hull's; as sqrt is
    monotone, a probe whose point-set diameter is within the bound gets the
    hull's answer without a hull. Every other probe builds the hull, so the
    probes, and the result, are the same as with hulls alone.
    """
    m = len(ordered)
    # squared distance from each point to its farthest predecessor
    reach2 = np.empty(m)
    step = max(1, PAIRWISE_BLOCK // (2 * m))
    for r in range(0, m, step):
        diff = ordered[r : r + step, None, :] - ordered[None, : r + step, :]
        reach2[r : r + step] = np.tril((diff * diff).sum(axis=2), r).max(axis=1)
    prefix2 = np.maximum.accumulate(reach2)  # squared diameter of prefix i + 1
    lo, hi = 1, m  # prefix of 1 has diameter 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if np.sqrt(prefix2[mid - 1]) <= bound or diameter(convex_hull(ordered[:mid])) <= bound:
            lo = mid
        else:
            hi = mid - 1
    return ordered[:lo]


def extract_body(track: UserTrack, config: IngestConfig) -> ConvexBody:
    """Project, locate the mode, keep k nearest, trim to the diameter bound, hull."""
    planar = project(track, config)
    mode = kde_mode(planar)
    dist2 = ((planar - mode) ** 2).sum(axis=1)
    order = np.argsort(dist2, kind="stable")
    nearest = planar[order[: config.k]]
    kept = _trim_to_diameter(nearest, config.diameter_bound)
    return convex_hull(kept)


def ingest_tracks(
    tracks: list[UserTrack], config: IngestConfig
) -> tuple[list[ConvexBody], list[str], list[tuple[str, str]]]:
    """Extract one body per user; returns (bodies, user ids, skipped users).

    len(tracks) == len(bodies) + len(skipped) always holds.
    """
    bodies: list[ConvexBody] = []
    ids: list[str] = []
    skipped: list[tuple[str, str]] = []
    for track in tracks:
        try:
            bodies.append(extract_body(track, config))
            ids.append(track.user_id)
        except EmptyTrackError as e:
            skipped.append((e.user_id, e.reason))
    return bodies, ids, skipped


def _random_polygon(rng: np.random.Generator, cx: float, cy: float, rmax: float) -> ConvexBody:
    nv = int(rng.integers(3, 9))
    ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, nv))
    rad = rng.uniform(0.4, 1.0, nv) * rmax
    return convex_hull(np.array([cx + rad * np.cos(ang), cy + rad * np.sin(ang)]).T)


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

    bodies = []
    for cx, cy in centers.tolist():
        walls = min(cx - ox, ox + a - cx, cy - oy, oy + a - cy)
        rmax = min(float(rng.uniform(0.3, 1.0)) * b / 2.0, max(walls, 0.0))
        bodies.append(_random_polygon(rng, cx, cy, rmax))
    return bodies
