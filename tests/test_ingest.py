"""Track projection, KDE mode finding, body extraction, synthetic data."""

from __future__ import annotations

import hashlib
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerdp import (
    ConvexBody,
    EmptyTrackError,
    IngestConfig,
    IngestError,
    UserTrack,
    diameter,
    convex_hull,
    extract_body,
    generate_synthetic,
    ingest_tracks,
    kde_density,
    kde_mode,
    project,
)
from eulerdp import ingest
from eulerdp.fileio import write_bodies
from eulerdp.ingest import _scott_matrix, _trim_to_diameter

CENTER = (47.62, -122.33)


def _config(area=10000.0, bound=1000.0, k=50, **kw):
    return IngestConfig(area_side=area, diameter_bound=bound, k=k, center=CENTER, **kw)


def test_project_center_lands_mid_area():
    track = UserTrack("u", np.array([CENTER]))
    got = project(track, _config())
    assert np.allclose(got, [[5000.0, 5000.0]], atol=1e-9)
    shifted = project(track, _config(origin=(200.0, -300.0)))
    assert np.allclose(shifted, [[5200.0, 4700.0]], atol=1e-9)


def test_project_degree_scale():
    lat0, lon0 = 40.0, 5.0
    cfg = IngestConfig(4e6, 1000.0, 5, center=(lat0, lon0))
    track = UserTrack("u", np.array([[lat0 + 1.0, lon0], [lat0, lon0 + 1.0]]))
    got = project(track, cfg) - 2e6
    assert got[0, 1] == pytest.approx(111194.92664455873, rel=1e-12)
    assert got[0, 0] == pytest.approx(0.0, abs=1e-9)
    # one longitude degree shrinks with cos(latitude)
    assert got[1, 0] == pytest.approx(111194.92664455873 * math.cos(math.radians(40.0)), rel=1e-12)


def test_project_drops_outside_and_raises_when_empty():
    far = UserTrack("wanderer", np.array([[48.9, -122.33], [47.62, -122.33]]))
    got = project(far, _config())  # the 1.4-degree point is way outside 10 km
    assert got.shape == (1, 2)
    all_out = UserTrack("ghost", np.array([[48.9, -122.33]]))
    with pytest.raises(EmptyTrackError) as exc:
        project(all_out, _config())
    assert exc.value.user_id == "ghost"
    assert "area" in exc.value.reason


def test_project_requires_center():
    cfg = IngestConfig(100.0, 10.0, 5)
    with pytest.raises(IngestError):
        project(UserTrack("u", np.array([CENTER])), cfg)


def test_track_validation():
    with pytest.raises(IngestError):
        UserTrack("u", np.empty((0, 2)))
    with pytest.raises(IngestError):
        UserTrack("u", np.array([1.0, 2.0]))
    with pytest.raises(IngestError):
        UserTrack("u", np.array([[91.0, 0.0]]))
    with pytest.raises(IngestError):
        UserTrack("u", np.array([[0.0, 181.0]]))
    with pytest.raises(IngestError):
        UserTrack("u", np.array([[0.0, 0.0]]), timestamps=("a", "b"))
    ok = UserTrack("u", [[0.0, 0.0]], timestamps=("2024-01-01T00:00:00",))
    assert ok.points.dtype == np.float64


def test_config_validation():
    with pytest.raises(IngestError):
        IngestConfig(0.0, 1.0, 5)
    with pytest.raises(IngestError):
        IngestConfig(1.0, -1.0, 5)
    with pytest.raises(IngestError):
        IngestConfig(1.0, 1.0, 0)
    with pytest.raises(IngestError):
        IngestConfig(1.0, 1.0, 5, center=(95.0, 0.0))


def test_kde_density_matches_quadratic_reference():
    rng = np.random.default_rng(8)
    pts = rng.normal(0.0, 3.0, (120, 2))
    at = rng.normal(0.0, 3.0, (40, 2))
    got = kde_density(pts, at)

    n = len(pts)
    h = np.cov(pts.T, ddof=1) * n ** (-1.0 / 3.0)
    h_inv = np.linalg.inv(h)
    norm = 1.0 / (n * 2.0 * math.pi * math.sqrt(np.linalg.det(h)))
    want = np.zeros(len(at))
    for i, q in enumerate(at):
        for p in pts:
            d = q - p
            want[i] += math.exp(-0.5 * float(d @ h_inv @ d))
    want *= norm
    assert np.allclose(got, want, rtol=1e-9)


def _einsum_density(pts, at):
    """kde_density as a single einsum over the unchunked difference array."""
    h = _scott_matrix(pts)
    norm = 1.0 / (len(pts) * 2.0 * math.pi * math.sqrt(float(np.linalg.det(h))))
    d = at[:, None, :] - pts[None, :, :]
    quad = np.einsum("ijk,kl,ijl->ij", d, np.linalg.inv(h), d)
    return np.exp(-0.5 * quad).sum(axis=1) * norm


@given(
    n=st.integers(1, 300),
    extra=st.integers(0, 40),
    scale=st.sampled_from([1e-3, 1.0, 37.5, 1e4, 3e6]),
    shape=st.sampled_from(["spread", "elongated", "collinear", "repeated"]),
    chunk_rows=st.sampled_from([None, 1, 7]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_kde_density_matches_einsum_bitwise(n, extra, scale, shape, chunk_rows, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(0.0, scale, (n, 2)) + rng.uniform(-10.0, 10.0, 2) * scale
    if shape == "elongated":  # a strongly correlated, nearly singular Scott matrix
        pts[:, 1] = 0.3 * pts[:, 0] + rng.normal(0.0, 1e-6 * scale, n)
    elif shape == "collinear":  # rank-1 covariance: the ridge kicks in
        pts[:, 1] = 2.0 * pts[:, 0]
    elif shape == "repeated":  # zero covariance: the ridge is all there is
        pts[:] = pts[0]
    at = np.vstack([pts, rng.normal(0.0, scale, (extra, 2))])
    block = ingest.PAIRWISE_BLOCK if chunk_rows is None else chunk_rows * n
    with mock.patch.object(ingest, "PAIRWISE_BLOCK", block):
        got = kde_density(pts, at)
    want = _einsum_density(pts, at)
    assert got.tobytes() == want.tobytes()


def test_kde_density_handles_degenerate_spreads():
    # identical points: covariance is zero, the ridge must keep this evaluable
    pts = np.zeros((10, 2))
    dens = kde_density(pts, np.array([[0.0, 0.0], [5.0, 5.0]]))
    assert np.isfinite(dens).all()
    assert dens[0] > dens[1]
    # collinear points: rank-1 covariance
    line = np.column_stack([np.linspace(0, 1, 20), np.zeros(20)])
    dens = kde_density(line, line[:3])
    assert np.isfinite(dens).all() and (dens > 0).all()


@pytest.mark.parametrize(
    "points, at",
    [
        (np.empty((0, 2)), np.zeros((1, 2))),
        (np.zeros((5, 3)), np.zeros((1, 2))),
        (np.zeros(4), np.zeros((1, 2))),
        (np.ones((5, 2)), np.zeros((1, 3))),
    ],
    ids=["empty-points", "points-3-columns", "points-1d", "at-3-columns"],
)
def test_kde_density_rejects_bad_shapes(points, at):
    with pytest.raises(IngestError, match="kde_density expects"):
        kde_density(points, at)


def test_kde_mode_is_argmax_over_data():
    rng = np.random.default_rng(19)
    pts = np.vstack([
        rng.normal(10.0, 0.3, (60, 2)),
        rng.uniform(0.0, 30.0, (8, 2)),
    ])
    mode = kde_mode(pts)
    dens = kde_density(pts, pts)
    assert np.array_equal(mode, pts[int(np.argmax(dens))])
    assert np.linalg.norm(mode - 10.0) < 2.0  # lands inside the tight cluster
    assert np.array_equal(kde_mode(pts), mode)  # deterministic


def test_kde_mode_degenerate_inputs():
    only = np.array([[3.0, 4.0]])
    assert np.array_equal(kde_mode(only), only[0])
    with pytest.raises(IngestError):
        kde_mode(np.empty((0, 2)))


def test_trim_matches_iterative_oracle():
    """Uniform random points, then dyadic-lattice points (every squared
    distance exact) with duplicates and collinear runs and bounds set to a
    pairwise distance or one ulp below it, where the point-set diameter and
    the hull's meet on the bound. Each case also runs with one- and
    three-row distance blocks, so the blocks' seams are crossed."""
    rng = np.random.default_rng(4)
    cases = [
        (rng.uniform(0.0, 10.0, (int(rng.integers(1, 25)), 2)), float(rng.uniform(0.5, 12.0)))
        for _ in range(60)
    ]
    rng = np.random.default_rng(41)
    for _ in range(150):
        m = int(rng.integers(1, 30))
        pts = rng.integers(0, 48, (m, 2)) / 16.0
        if m > 2:
            dup = rng.integers(0, m, m // 3)
            pts[dup] = pts[rng.integers(0, m, len(dup))]
            run = rng.integers(0, m, m // 2)  # a collinear run along a diagonal
            pts[run] = pts[run[0]] + np.outer(rng.integers(-8, 9, len(run)), [1.0, 2.0]) / 16.0
        diff = pts[:, None, :] - pts[None, :, :]
        dists = np.unique(np.sqrt((diff * diff).sum(axis=2)))
        picked = rng.choice(dists[dists > 0.0], min(3, len(dists) - 1), replace=False)
        cases += [(pts, bound) for bound in np.concatenate([picked, np.nextafter(picked, 0.0)]).tolist()]
    on_bound = 0
    for pts, bound in cases:
        keep = len(pts)
        while keep > 1 and diameter(convex_hull(pts[:keep])) > bound:
            keep -= 1
        for rows in (None, 1, 3):
            block = ingest.PAIRWISE_BLOCK if rows is None else 2 * len(pts) * rows
            with mock.patch.object(ingest, "PAIRWISE_BLOCK", block):
                got = _trim_to_diameter(pts, bound)
            assert len(got) == keep
            assert np.array_equal(got, pts[:keep])
        assert diameter(convex_hull(got)) <= bound or keep == 1
        on_bound += diameter(convex_hull(got)) == bound
    assert on_bound >= 40  # the lattice sweep must keep prefixes right on the bound


def test_extract_body_respects_diameter_bound():
    rng = np.random.default_rng(77)
    lat, lon = CENTER
    spread = rng.normal(0.0, 0.002, (300, 2))  # a few hundred meters
    track = UserTrack("u", np.array([lat, lon]) + spread)
    cfg = _config(bound=250.0, k=200)
    body = extract_body(track, cfg)
    assert diameter(body) <= 250.0 + 1e-9
    again = extract_body(track, cfg)
    assert np.array_equal(body.vertices, again.vertices)


def test_extract_body_no_trim_equals_hull_of_nearest():
    lat, lon = CENTER
    offsets = np.array([
        [0.0, 0.0], [0.0001, 0.0], [0.0, 0.0001], [-0.0001, 0.0], [0.0, -0.0001],
    ])
    track = UserTrack("u", np.array([lat, lon]) + offsets)
    cfg = _config(bound=100000.0, k=10)  # bound and k both slack
    body = extract_body(track, cfg)
    want = convex_hull(project(track, cfg))
    assert set(map(tuple, body.vertices)) == set(map(tuple, want.vertices))


def test_ingest_tracks_accounting():
    lat, lon = CENTER
    good1 = UserTrack("a", np.array([[lat, lon], [lat + 1e-4, lon]]))
    ghost = UserTrack("b", np.array([[lat + 2.0, lon]]))
    good2 = UserTrack("c", np.array([[lat, lon + 1e-4]]))
    bodies, ids, skipped = ingest_tracks([good1, ghost, good2], _config())
    assert len(bodies) + len(skipped) == 3
    assert ids == ["a", "c"]
    assert skipped == [("b", "no points inside the area")]


@pytest.mark.parametrize("kind", ["uniform", "clustered", "concentrated"])
def test_generate_synthetic_kinds(kind):
    cfg = IngestConfig(2000.0, 300.0, 5, origin=(500.0, -100.0))
    rng = np.random.default_rng(2)
    bodies = generate_synthetic(kind, 200, cfg, rng)
    assert len(bodies) == 200
    for b in bodies:
        xlo, xhi, ylo, yhi = b.bbox
        assert 500.0 - 1e-9 <= xlo and xhi <= 2500.0 + 1e-9
        assert -100.0 - 1e-9 <= ylo and yhi <= 1900.0 + 1e-9
        assert diameter(b) <= 300.0 + 1e-9


def test_generate_synthetic_edge_cases():
    cfg = IngestConfig(2000.0, 300.0, 5)
    rng = np.random.default_rng(3)
    assert generate_synthetic("uniform", 0, cfg, rng) == []
    with pytest.raises(IngestError):
        generate_synthetic("uniform", -1, cfg, rng)
    with pytest.raises(IngestError):
        generate_synthetic("blobs", 5, cfg, rng)


def test_generate_synthetic_deterministic_per_seed():
    cfg = IngestConfig(2000.0, 300.0, 5)
    a = generate_synthetic("clustered", 50, cfg, np.random.default_rng(11))
    b = generate_synthetic("clustered", 50, cfg, np.random.default_rng(11))
    assert all(np.array_equal(x.vertices, y.vertices) for x, y in zip(a, b))


def test_concentrated_really_concentrates():
    cfg = IngestConfig(10000.0, 500.0, 5)
    bodies = generate_synthetic("concentrated", 400, cfg, np.random.default_rng(5))
    centers = np.array([b.vertices.mean(axis=0) for b in bodies])
    near_hot = np.linalg.norm(centers - 5000.0, axis=1) < 2000.0
    assert near_hot.mean() > 0.6  # hotspot mass dominates the background


def test_body_type():
    cfg = IngestConfig(2000.0, 300.0, 5)
    bodies = generate_synthetic("uniform", 3, cfg, np.random.default_rng(1))
    assert all(isinstance(b, ConvexBody) for b in bodies)


def _golden_tracks():
    """Seeded users around CENTER: Gaussian pings with far stragglers, some
    with repeated pings at one spot or pings along one street, and one user
    wholly outside the area."""
    rng = np.random.default_rng(20240611)
    lat0, lon0 = CENTER
    per_m_lat = 180.0 / (math.pi * 6371000.0)
    per_m_lon = per_m_lat / math.cos(math.radians(lat0))
    tracks = []
    for u in range(36):
        home = rng.uniform(-3500.0, 3500.0, 2)
        spread = float(rng.choice([15.0, 60.0, 150.0, 400.0]))
        pts = home + rng.normal(0.0, spread, (int(rng.integers(1, 90)), 2))
        far = rng.random(len(pts)) < 0.12
        pts[far] += rng.normal(0.0, 1500.0, (int(far.sum()), 2))
        if u % 9 == 4:
            pts[: len(pts) // 2] = pts[0]
        if u % 9 == 7:
            pts[:, 1] = pts[0, 1]
        latlon = np.column_stack([lat0 + pts[:, 1] * per_m_lat, lon0 + pts[:, 0] * per_m_lon])
        tracks.append(UserTrack(f"u{u}", latlon))
    tracks.append(UserTrack("ghost", np.array([[lat0 + 2.0, lon0], [lat0 - 2.0, lon0 + 1.0]])))
    return tracks


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _bodies_text(bodies, ids=None) -> str:
    buf = io.StringIO()
    write_bodies(bodies, buf, ids)
    return buf.getvalue()


# sha256 of the bodies file plus the skipped list; under every (k, bound)
# some users are trimmed and some trim probes build a hull
INGEST_SHA256 = {
    (5, 100.0): "5a74505e15d9e7dbc3e5ba3cfca42da13bccb6271b9b36a664b4df95fa7b6a55",
    (5, 500.0): "0ceaaa01dcff8d5dd7c9f3c3c58cce769c80201901bc2bb80e4edec5125dab9e",
    (20, 100.0): "c12aeee59eec332142320f16fa58243b94aae6f09034336c89a74ff5602bb0e1",
    (20, 500.0): "d5b4dd31817d080e5babb54ac8b0b44dcb5f1120f01f83ab62bcb14d10fd93c9",
    (60, 100.0): "6cd48ad463f2d792be38ab91af25683ac9455bf84bc9645d691e2a5d1a953b6e",
    (60, 500.0): "f2637a913d8697e8e49ebe6d891a47b2dba2d9c765c9844002ac983fdeea06be",
}


@pytest.mark.parametrize("k, bound", sorted(INGEST_SHA256))
def test_ingest_tracks_golden(k, bound):
    cfg = IngestConfig(area_side=10000.0, diameter_bound=bound, k=k, center=CENTER)
    bodies, ids, skipped = ingest_tracks(_golden_tracks(), cfg)
    assert skipped[-1] == ("ghost", "no points inside the area")
    assert _sha256(_bodies_text(bodies, ids) + json.dumps(skipped)) == INGEST_SHA256[k, bound]


SYNTHETIC_SHA256 = {
    "uniform": "31f35bc1bc1df28b46b5834145fb9e5976dc663da1769ccbf5eabc61819795f4",
    "clustered": "2274a9c631c599134c50a42a7d204443403656a545ef2c6db35d90e828da6efb",
    "concentrated": "fd7926c9a162b0b9329348a4db9386d11211fef2f1f46882d0b69c842f22565d",
}


@pytest.mark.parametrize("kind", sorted(SYNTHETIC_SHA256))
def test_generate_synthetic_golden(kind):
    cfg = IngestConfig(2000.0, 300.0, 5, origin=(500.0, -100.0))
    bodies = generate_synthetic(kind, 300, cfg, np.random.default_rng(6))
    assert _sha256(_bodies_text(bodies)) == SYNTHETIC_SHA256[kind]
