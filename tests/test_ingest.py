"""Track projection, KDE mode finding, body extraction, synthetic data."""

from __future__ import annotations

import hashlib
import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from eulerdp import (
    ConvexBody,
    IngestConfig,
    IngestError,
    UserTrack,
    diameter,
    convex_hull,
    generate_synthetic,
    ingest_tracks,
)
from eulerdp import geometry, ingest
from eulerdp.fileio import write_bodies
from eulerdp.geometry import prefix_squared_diameters
from eulerdp.ingest import _kde, _modes, _planar, _scott_matrices, _trim_lengths

from conftest import (
    ingest_tracks_oracle,
    oracle_convex_hull,
    oracle_diameter,
    oracle_kde_density,
    oracle_kde_mode,
    oracle_project,
    oracle_scott_matrix,
)

CENTER = (47.62, -122.33)


def _config(area=10000.0, bound=1000.0, k=50, **kw):
    return IngestConfig(area_side=area, diameter_bound=bound, k=k, center=CENTER, **kw)


def _project(track, config):
    """A track's planar points inside the area."""
    planar, inside = _planar(track.points, config)
    return planar[inside]


def _density(points, at):
    """One point set's densities at the rows of ``at``."""
    return _kde(points[None], at[None])[0]


def _extract(track, config):
    """The body of a lone user."""
    (body,), _, _ = ingest_tracks([track], config)
    return body


def test_project_center_lands_mid_area():
    track = UserTrack("u", np.array([CENTER]))
    got = _project(track, _config())
    assert np.allclose(got, [[5000.0, 5000.0]], atol=1e-9)
    shifted = _project(track, _config(origin=(200.0, -300.0)))
    assert np.allclose(shifted, [[5200.0, 4700.0]], atol=1e-9)


def test_project_degree_scale():
    lat0, lon0 = 40.0, 5.0
    cfg = IngestConfig(4e6, 1000.0, 5, center=(lat0, lon0))
    track = UserTrack("u", np.array([[lat0 + 1.0, lon0], [lat0, lon0 + 1.0]]))
    got = _project(track, cfg) - 2e6
    assert got[0, 1] == pytest.approx(111194.92664455873, rel=1e-12)
    assert got[0, 0] == pytest.approx(0.0, abs=1e-9)
    # one longitude degree shrinks with cos(latitude)
    assert got[1, 0] == pytest.approx(111194.92664455873 * math.cos(math.radians(40.0)), rel=1e-12)


def test_project_drops_outside_and_raises_when_empty():
    far = UserTrack("wanderer", np.array([[48.9, -122.33], [47.62, -122.33]]))
    got = _project(far, _config())  # the 1.4-degree point is way outside 10 km
    assert got.shape == (1, 2)
    all_out = UserTrack("ghost", np.array([[48.9, -122.33]]))
    assert ingest_tracks([all_out], _config()) == ([], [], [("ghost", "no points inside the area")])


def test_project_requires_center():
    cfg = IngestConfig(100.0, 10.0, 5)
    with pytest.raises(IngestError, match="projection requires a configured center"):
        ingest_tracks([UserTrack("u", np.array([CENTER]))], cfg)


def test_track_validation():
    with pytest.raises(IngestError):
        UserTrack("u", np.empty((0, 2)))
    with pytest.raises(IngestError):
        UserTrack("u", np.array([1.0, 2.0]))
    with pytest.raises(IngestError):
        UserTrack("u", np.array([[91.0, 0.0]]))
    with pytest.raises(IngestError):
        UserTrack("u", np.array([[0.0, 181.0]]))
    ok = UserTrack("u", [[0.0, 0.0]])
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


def test_config_refuses_a_non_integer_k_by_name():
    """k = 2.5 used to be accepted, and ``ingest_tracks`` then failed on a slice."""
    with pytest.raises(IngestError, match=r"^k must be an integer, got 2.5$"):
        IngestConfig(1000.0, 100.0, 2.5, center=CENTER)
    assert IngestConfig(1000.0, 100.0, np.int64(5)).k == 5


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["area_side", "diameter_bound"])
def test_config_refuses_non_finite_sizes(field, bad):
    sizes = {"area_side": 1000.0, "diameter_bound": 100.0, field: bad}
    with pytest.raises(IngestError, match=f"^{field} must be finite and positive, got "):
        IngestConfig(k=5, center=CENTER, **sizes)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["origin", "center"])
def test_config_refuses_non_finite_coordinates(field, bad):
    for pair in ((bad, 0.0), (0.0, bad)):
        with pytest.raises(IngestError, match=f"^{field} must be finite, got "):
            IngestConfig(1000.0, 100.0, 5, **{field: pair})


def test_kde_density_matches_quadratic_reference():
    rng = np.random.default_rng(8)
    pts = rng.normal(0.0, 3.0, (120, 2))
    at = rng.normal(0.0, 3.0, (40, 2))
    got = _density(pts, at)

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
    """One set's density as a single einsum over the unchunked difference array."""
    h = oracle_scott_matrix(pts)
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
    block = ingest.KDE_BLOCK if chunk_rows is None else chunk_rows * n
    with mock.patch.object(ingest, "KDE_BLOCK", block):
        got = _density(pts, at)
    want = _einsum_density(pts, at)
    assert got.tobytes() == want.tobytes()


def test_scott_matrices_ridge_each_degenerate_set_alone():
    """When a stack holds a set whose first ridge fails, every set gets the
    ridge the one-set oracle gives it. Real covariances never fail the first
    ridge, so a stricter factorisation stands in: it refuses any matrix
    whose determinant is below 1e-6 of its squared trace."""
    real_cholesky = np.linalg.cholesky

    def strict(h):
        for m in h.reshape(-1, 2, 2):
            if m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] < 1e-6 * (m[0, 0] + m[1, 1]) ** 2:
                raise np.linalg.LinAlgError("not positive definite enough")
        return real_cholesky(h)

    rng = np.random.default_rng(12)
    line = rng.normal(0.0, 40.0, (25, 2))
    line[:, 1] = 3.0 * line[:, 0]
    stack = np.stack([rng.normal(0.0, 40.0, (25, 2)), np.full((25, 2), 7.0), line])
    with mock.patch.object(np.linalg, "cholesky", strict):
        got = _scott_matrices(stack)
        want = [oracle_scott_matrix(pts) for pts in stack]
    assert [h.tobytes() for h in got] == [h.tobytes() for h in want]
    plain = _scott_matrices(stack)
    assert [np.array_equal(a, b) for a, b in zip(got, plain)] == [True, True, False]


@given(
    users=st.integers(1, 12),
    m=st.integers(2, 90),
    shape=st.sampled_from(["spread", "collinear", "repeated", "mixed"]),
    block=st.sampled_from([None, 50, 2000]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_stacked_densities_equal_one_set_at_a_time(users, m, shape, block, seed):
    """The stacked covariance, inverse, determinant, quadratic form, exp and
    row sums give each set's densities at its own points bit for bit as the
    one-set oracle does, whatever the stack's blocks."""
    rng = np.random.default_rng(seed)
    stack = rng.normal(0.0, 1.0, (users, m, 2)) * 10.0 ** rng.uniform(-2.0, 4.0, (users, 1, 1))
    stack += rng.uniform(0.0, 1e4, (users, 1, 2))
    if shape in ("collinear", "mixed"):
        stack[0, :, 1] = 0.5 * stack[0, :, 0]
    if shape in ("repeated", "mixed"):
        stack[-1] = stack[-1, 0]
    with mock.patch.object(ingest, "KDE_BLOCK", block or ingest.KDE_BLOCK):
        got = ingest._kde(stack, stack)
    want = np.array([oracle_kde_density(pts, pts) for pts in stack])
    assert got.tobytes() == want.tobytes()


def test_kde_density_handles_degenerate_spreads():
    # identical points: covariance is zero, the ridge must keep this evaluable
    pts = np.zeros((10, 2))
    dens = _density(pts, np.array([[0.0, 0.0], [5.0, 5.0]]))
    assert np.isfinite(dens).all()
    assert dens[0] > dens[1]
    # collinear points: rank-1 covariance
    line = np.column_stack([np.linspace(0, 1, 20), np.zeros(20)])
    dens = _density(line, line[:3])
    assert np.isfinite(dens).all() and (dens > 0).all()


def test_kde_mode_is_argmax_over_data():
    rng = np.random.default_rng(19)
    pts = np.vstack([
        rng.normal(10.0, 0.3, (60, 2)),
        rng.uniform(0.0, 30.0, (8, 2)),
    ])
    mode = _modes(pts[None])[0]
    dens = _density(pts, pts)
    assert np.array_equal(mode, pts[int(np.argmax(dens))])
    assert np.linalg.norm(mode - 10.0) < 2.0  # lands inside the tight cluster
    assert np.array_equal(_modes(pts[None])[0], mode)  # deterministic


def test_kde_mode_degenerate_inputs():
    only = np.array([[3.0, 4.0]])
    assert np.array_equal(_modes(only[None])[0], only[0])


def _set_diameter(pts: np.ndarray) -> float:
    """Largest distance between two of the points, pair by pair in Python
    floats, each squared distance dx * dx + dy * dy."""
    best = 0.0
    for i, (xi, yi) in enumerate(pts.tolist()):
        for xj, yj in pts[:i].tolist():
            dx, dy = xi - xj, yi - yj
            best = max(best, math.sqrt(dx * dx + dy * dy))
    return best


def test_trim_matches_iterative_oracle():
    """Uniform random points, then dyadic-lattice points (every squared
    distance exact) with duplicates and collinear runs and bounds set to a
    pairwise distance or one ulp below it, so prefixes end right on the
    bound. Sets of equal length trim as one stack, under every bound drawn
    for any of them, against dropping the last point while the prefix's
    point-set diameter exceeds the bound. The prefix diameters also run
    with one- and three-row distance blocks, so the blocks' seams are
    crossed."""
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
    # v2 and its copy one ulp inside the hull: the float distance from the
    # copy to v0 is an ulp above the hull's diameter, which the copy's hull
    # attains at v2's place. With the bound at that hull diameter, the
    # prefix hulls' diameters are not monotone; the point sets' are. Last
    # in order, v0 ends the kept prefix at four points, where a search on
    # hull diameters kept all five; first in order, at two.
    v0, v1, v2, v3 = [6.836964691807789, 9.830996612973529], [1.1519820797950842, 5.508379534654338], \
        [0.09721205146171252, 0.3297968512938043], [0.008861027567544921, 6.073772318463245]
    v2_inside = [0.09721205146171254, 0.32979685129380437]
    bound = oracle_diameter(oracle_convex_hull(np.array([v0, v1, v2, v3, v2_inside])))
    for pts, keep in ((np.array([v1, v3, v2, v2_inside, v0]), 4), (np.array([v0, v1, v2, v3, v2_inside]), 2)):
        assert _set_diameter(pts[:keep]) <= bound < _set_diameter(pts[: keep + 1])
        assert _trim_lengths(prefix_squared_diameters(pts[None]), bound).tolist() == [keep]
        cases.append((pts, bound))
    by_length: dict[int, list] = {}
    for pts, bound in cases:
        by_length.setdefault(len(pts), []).append((pts, bound))
    on_bound = mixed = 0
    for group in by_length.values():
        stack = np.array(list({id(pts): pts for pts, _ in group}.values()))
        prefix2 = prefix_squared_diameters(stack)
        for rows in (1, 3):
            with mock.patch.object(geometry, "PAIRWISE_BLOCK", stack.shape[1] * rows):
                assert prefix_squared_diameters(stack).tobytes() == prefix2.tobytes()
        spans = [[_set_diameter(pts[:keep]) for keep in range(1, len(pts) + 1)] for pts in stack]
        for bound in sorted({bound for _, bound in group}):
            want = []
            for span in spans:
                keep = len(span)
                while keep > 1 and span[keep - 1] > bound:
                    keep -= 1
                want.append(keep)
                on_bound += span[keep - 1] == bound
            assert _trim_lengths(prefix2, bound).tolist() == want
            mixed += len(set(want)) > 1
    assert on_bound >= 40  # the lattice sweep must keep prefixes right on the bound
    assert mixed >= 40  # and stacks whose users keep different lengths


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=1, max_size=12),
       st.floats(1e-3, 2e3))
def test_trim_keeps_the_longest_prefix_within_the_bound(points, bound):
    """The kept prefix's point-set diameter is within the bound, the next
    longer prefix's is not, and the hull of the kept points is too."""
    pts = np.array(points)
    keep = int(_trim_lengths(prefix_squared_diameters(pts[None]), bound)[0])
    assert keep == 1 or _set_diameter(pts[:keep]) <= bound
    assert keep == len(pts) or _set_diameter(pts[: keep + 1]) > bound
    assert diameter(convex_hull(pts[:keep])) <= _set_diameter(pts[:keep])


def test_extract_body_respects_diameter_bound():
    rng = np.random.default_rng(77)
    lat, lon = CENTER
    spread = rng.normal(0.0, 0.002, (300, 2))  # a few hundred meters
    track = UserTrack("u", np.array([lat, lon]) + spread)
    cfg = _config(bound=250.0, k=200)
    body = _extract(track, cfg)
    assert diameter(body) <= 250.0 + 1e-9
    again = _extract(track, cfg)
    assert np.array_equal(body.vertices, again.vertices)


def test_extract_body_no_trim_equals_hull_of_nearest():
    lat, lon = CENTER
    offsets = np.array([
        [0.0, 0.0], [0.0001, 0.0], [0.0, 0.0001], [-0.0001, 0.0], [0.0, -0.0001],
    ])
    track = UserTrack("u", np.array([lat, lon]) + offsets)
    cfg = _config(bound=100000.0, k=10)  # bound and k both slack
    body = _extract(track, cfg)
    want = convex_hull(_project(track, cfg))
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


def test_generate_synthetic_refuses_a_non_integer_count_by_name():
    cfg = IngestConfig(2000.0, 300.0, 5)
    with pytest.raises(IngestError, match=r"^count must be an integer, got 2.5$"):
        generate_synthetic("uniform", 2.5, cfg, np.random.default_rng(3))
    assert len(generate_synthetic("uniform", np.int64(3), cfg, np.random.default_rng(3))) == 3


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


_PER_M_LAT = 180.0 / (math.pi * 6371000.0)
_PER_M_LON = _PER_M_LAT / math.cos(math.radians(CENTER[0]))


def _track(uid: str, metres: np.ndarray) -> UserTrack:
    """A track from planar offsets in meters about CENTER."""
    lat0, lon0 = CENTER
    return UserTrack(uid, np.column_stack([lat0 + metres[:, 1] * _PER_M_LAT, lon0 + metres[:, 0] * _PER_M_LON]))


_SHAPES = [
    "spread", "stragglers", "repeated", "half-repeated", "collinear", "diagonal", "outside", "straddling",
]


@given(
    counts=st.lists(
        st.one_of(st.sampled_from([1, 2, 3, 7, 20, 60]), st.integers(1, 120)), min_size=1, max_size=14
    ),
    shapes=st.lists(st.sampled_from(_SHAPES), min_size=14, max_size=14),
    spread=st.sampled_from([2.0, 15.0, 60.0, 150.0, 400.0]),
    k=st.sampled_from([1, 2, 5, 20, 60, 150]),
    bound=st.sampled_from([30.0, 100.0, 500.0, 5000.0, 2.0, 3.0, 4.0, 5.0]),
    block=st.sampled_from([None, 64, 1000]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_ingest_tracks_matches_per_user_oracle(counts, shapes, spread, k, bound, block, seed):
    """Stacked extraction gives the oracle's vertex arrays bit for bit, with
    the same ids and skipped list. Users share point counts or have their
    own; their pings repeat, lie on one street, leave the area wholly or in
    part, or spread past the bound so the trim searches with hull probes.
    A bound below 10 is in units of the spread, which puts many users' k
    nearest just above or below it. Small blocks split stacks into one user
    and one row at a time."""
    if bound < 10.0:
        bound *= spread
    rng = np.random.default_rng(seed)
    tracks = []
    for u, (count, shape) in enumerate(zip(counts, shapes)):
        home = rng.uniform(-4000.0, 4000.0, 2)
        pts = home + rng.normal(0.0, spread, (count, 2))
        if shape == "stragglers":
            far = rng.random(count) < 0.2
            pts[far] += rng.normal(0.0, 3.0 * bound, (int(far.sum()), 2))
        elif shape == "repeated":
            pts[:] = pts[0]
        elif shape == "half-repeated":
            pts[: count // 2 + 1] = pts[0]
        elif shape == "collinear":
            pts[:, 1] = pts[0, 1]
        elif shape == "diagonal":
            pts[:, 1] = home[1] + 0.7 * (pts[:, 0] - home[0])
        elif shape == "outside":
            pts += 20000.0
        elif shape == "straddling":  # some pings beyond the area's edge
            pts[:, 0] += 4999.0 - home[0]
        tracks.append(_track(f"u{u}", pts))
    cfg = IngestConfig(area_side=10000.0, diameter_bound=bound, k=k, center=CENTER)
    with mock.patch.multiple(
        ingest, PAIRWISE_BLOCK=block or ingest.PAIRWISE_BLOCK, KDE_BLOCK=block or ingest.KDE_BLOCK
    ):
        bodies, ids, skipped = ingest_tracks(tracks, cfg)
    want_bodies, want_ids, want_skipped = ingest_tracks_oracle(tracks, cfg)
    assert ids == want_ids
    assert skipped == want_skipped
    assert [b.vertices.tobytes() for b in bodies] == [b.vertices.tobytes() for b in want_bodies]


def test_ingest_tracks_bound_on_a_users_diameter():
    """With the bound at, or one ulp below, a user's k-nearest point-set
    diameter, the first keeps that user's k nearest whole and the second
    makes it search, both exactly as the oracle does."""
    tracks = [t for t in _golden_tracks() if t.user_id != "ghost"]
    cfg = IngestConfig(area_side=10000.0, diameter_bound=1.0, k=20, center=CENTER)
    checked = 0
    for track in tracks[::5]:
        planar = oracle_project(track, cfg)
        mode = oracle_kde_mode(planar)
        nearest = planar[np.argsort(((planar - mode) ** 2).sum(axis=1), kind="stable")[:20]]
        diff = nearest[:, None, :] - nearest[None, :, :]
        span = float(np.sqrt((diff * diff).sum(axis=2).max()))
        if span == 0.0:
            continue
        for bound in (span, float(np.nextafter(span, 0.0))):
            cfg = IngestConfig(area_side=10000.0, diameter_bound=bound, k=20, center=CENTER)
            bodies, ids, skipped = ingest_tracks(tracks, cfg)
            want_bodies, want_ids, want_skipped = ingest_tracks_oracle(tracks, cfg)
            assert (ids, skipped) == (want_ids, want_skipped)
            assert [b.vertices.tobytes() for b in bodies] == [b.vertices.tobytes() for b in want_bodies]
        checked += 1
    assert checked >= 5


def test_ingest_tracks_memory_is_bounded():
    """1000 users x 60 pings: every pairwise temporary is blocked, so the
    tracemalloc peak stays near the projected points and the bodies."""
    rng = np.random.default_rng(5)
    tracks = []
    for u in range(1000):
        pts = rng.uniform(-4500.0, 4500.0, 2) + rng.normal(0.0, 80.0, (60, 2))
        far = rng.random(60) < 0.1
        pts[far] += rng.normal(0.0, 1500.0, (int(far.sum()), 2))
        tracks.append(_track(f"u{u}", pts))
    cfg = IngestConfig(area_side=10000.0, diameter_bound=500.0, k=20, center=CENTER)
    tracemalloc.start()
    try:
        bodies, _, _ = ingest_tracks(tracks, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(bodies) == 1000
    assert peak <= 5 * 2**20, f"ingest_tracks peaked at {peak / 2**20:.2f} MB"
