"""Histogram construction and exact rectangular range counting."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import all_rectangle_counts, euler_truth, lattice_body, valid_region_mask
from eulerdp import (
    BodyValidationError,
    ConvexBody,
    EulerHistogram,
    HistogramState,
    QueryRegion,
    build,
    build_partition,
    convex_hull,
    min_rectangle_count,
    query,
    validate_bodies,
)
from eulerdp.grid import ComponentKind


def slow_query(h: EulerHistogram, qr: QueryRegion) -> float:
    """Reference query via the incidence API, no prefix sums."""
    p = h.partition

    def face_in(f) -> bool:
        return qr.r0 <= f.row <= qr.r1 and qr.c0 <= f.col <= qr.c1

    total = 0.0
    for i in range(p.size):
        cid = p.component_at(i)
        if cid.kind is ComponentKind.FACE:
            if face_in(cid):
                total += h.counts[i]
        elif cid.kind is ComponentKind.EDGE:
            if all(face_in(f) for f in p.incident_faces(cid)):
                total -= h.counts[i]
        elif all(face_in(f) for f in p.incident_faces_of_vertex(cid)):
            total += h.counts[i]
    return total


def all_regions(n: int):
    for r0 in range(n):
        for r1 in range(r0, n):
            for c0 in range(n):
                for c1 in range(c0, n):
                    yield QueryRegion(r0, r1, c0, c1)


def test_build_hand_example():
    """One square straddling the first four cells hits 4 faces, 4 edges, 1 vertex."""
    p = build_partition(4.0, 4)
    body = convex_hull([(0.25, 0.25), (1.75, 0.25), (1.75, 1.75), (0.25, 1.75)])
    h = build([body], p)
    assert h.state is HistogramState.RAW
    want_faces = np.zeros((4, 4))
    want_faces[0:2, 0:2] = 1.0
    assert np.array_equal(h.faces, want_faces)
    want_h = np.zeros((3, 4))
    want_h[0, 0] = want_h[0, 1] = 1.0
    assert np.array_equal(h.hedges, want_h)
    want_v = np.zeros((4, 3))
    want_v[0, 0] = want_v[1, 0] = 1.0
    assert np.array_equal(h.vedges, want_v)
    want_x = np.zeros((3, 3))
    want_x[0, 0] = 1.0
    assert np.array_equal(h.vertices, want_x)
    # inclusion-exclusion collapses to a single body everywhere it fits
    assert query(h, QueryRegion(0, 1, 0, 1)) == 1
    assert query(h, QueryRegion(0, 3, 0, 3)) == 1
    assert query(h, QueryRegion(0, 0, 0, 0)) == 1
    assert query(h, QueryRegion(3, 3, 3, 3)) == 0


def test_query_matches_truth_on_lattice_bodies():
    rng = np.random.default_rng(7)
    n = 6
    p = build_partition(float(n), n)
    bodies = [lattice_body(rng, float(n)) for _ in range(40)]
    h = build(bodies, p)
    d = p.cell_side
    for qr in all_regions(n):
        rect = (qr.c0 * d, (qr.c1 + 1) * d, qr.r0 * d, (qr.r1 + 1) * d)
        assert query(h, qr) == euler_truth(bodies, rect)


def test_query_matches_slow_oracle_on_arbitrary_counts():
    # exactness of the prefix arithmetic, independent of geometry
    n = 5
    p = build_partition(5.0, n)
    rng = np.random.default_rng(3)
    counts = rng.integers(0, 11, p.size).astype(np.float64)
    h = EulerHistogram(p, counts, HistogramState.RAW)
    for qr in all_regions(n):
        assert query(h, qr) == int(slow_query(h, qr))


def test_all_rectangle_counts_agrees_with_query():
    n = 5
    p = build_partition(5.0, n)
    rng = np.random.default_rng(11)
    counts = rng.normal(0.0, 3.0, p.size)
    h = EulerHistogram(p, counts, HistogramState.NOISY)
    table = all_rectangle_counts(h)
    assert table.shape == (n, n, n, n)
    for qr in all_regions(n):
        assert table[qr.r0, qr.r1, qr.c0, qr.c1] == pytest.approx(query(h, qr), abs=1e-9)


def test_valid_region_mask():
    mask = valid_region_mask(3)
    assert mask.shape == (3, 3, 3, 3)
    for r0 in range(3):
        for r1 in range(3):
            for c0 in range(3):
                for c1 in range(3):
                    assert mask[r0, r1, c0, c1] == (r0 <= r1 and c0 <= c1)


def test_min_rectangle_count_brute_force():
    n = 4
    p = build_partition(4.0, n)
    rng = np.random.default_rng(5)
    for _ in range(20):
        counts = rng.normal(0.0, 2.0, p.size)
        h = EulerHistogram(p, counts, HistogramState.NOISY)
        val, qr = min_rectangle_count(h)
        brute = min(query(h, q) for q in all_regions(n))
        assert val == pytest.approx(brute, abs=1e-9)
        assert query(h, qr) == pytest.approx(val, abs=1e-9)


def test_min_rectangle_count_matches_oracle_tie_break():
    """Value and region equal the oracle table's masked argmin, i.e. the first
    minimal region in (r0, r1, c0, c1) order; small integer counts tie often."""
    rng = np.random.default_rng(2016)
    for n in range(2, 13):
        p = build_partition(float(n), n)
        for trial in range(20):
            if trial % 2:
                counts = rng.normal(0.0, 2.0, p.size)
            else:
                counts = rng.integers(-2, 3, p.size).astype(np.float64)
            h = EulerHistogram(p, counts, HistogramState.NOISY)
            masked = np.where(valid_region_mask(n), all_rectangle_counts(h), np.inf)
            r0, r1, c0, c1 = np.unravel_index(int(np.argmin(masked)), masked.shape)
            val, qr = min_rectangle_count(h)
            assert (qr.r0, qr.r1, qr.c0, qr.c1) == (r0, r1, c0, c1)
            if trial % 2:
                assert val == pytest.approx(masked[r0, r1, c0, c1], abs=1e-9)
            else:
                assert val == masked[r0, r1, c0, c1]


def test_query_region_validation():
    with pytest.raises(ValueError):
        QueryRegion(2, 1, 0, 0)
    with pytest.raises(ValueError):
        QueryRegion(0, 0, -1, 0)
    qr = QueryRegion(0, 4, 0, 0)
    p = build_partition(4.0, 4)
    h = EulerHistogram(p, np.zeros(p.size), HistogramState.RAW)
    with pytest.raises(ValueError):
        query(h, qr)
    assert QueryRegion(1, 3, 0, 2).shape == (3, 3)


def test_query_return_types():
    p = build_partition(4.0, 4)
    h = EulerHistogram(p, np.zeros(p.size), HistogramState.RAW)
    assert isinstance(query(h, QueryRegion(0, 0, 0, 0)), int)
    hf = h.with_counts(np.full(p.size, 0.25), HistogramState.CONSISTENT)
    out = query(hf, QueryRegion(0, 0, 0, 0))
    assert isinstance(out, float) and out == 0.25
    hr = h.with_counts(np.ones(p.size), HistogramState.ROUNDED)
    assert isinstance(query(hr, QueryRegion(0, 0, 0, 0)), int)


def test_validate_bodies_rejects_outside_and_oversized():
    p = build_partition(4.0, 4)
    inside = convex_hull([(1.0, 1.0), (2.0, 1.0), (2.0, 2.0)])
    straddle = convex_hull([(3.0, 3.0), (5.0, 3.0), (5.0, 5.0), (3.0, 5.0)])
    outside = convex_hull([(9.0, 9.0), (10.0, 9.0), (10.0, 10.0)])

    kept, rejected = validate_bodies([inside, straddle, outside], p)
    assert len(kept) == 1 and [i for i, _ in rejected] == [1, 2]

    kept, rejected = validate_bodies([inside], p, diameter_bound=1.0)
    assert not kept and "diameter" in rejected[0][1]
    kept, _ = validate_bodies([inside], p, diameter_bound=1.5)
    assert len(kept) == 1


def test_validate_bodies_tol_absorbs_dust():
    p = build_partition(4.0, 4)
    hair_out = ConvexBody(np.array([[0.0, 0.0], [4.0 + 5e-10, 0.0], [0.0, 1.0]]))
    kept, rejected = validate_bodies([hair_out], p)
    assert rejected
    kept, rejected = validate_bodies([hair_out], p, tol=1e-9)
    assert kept and not rejected


def test_build_raises_on_invalid_bodies():
    p = build_partition(4.0, 4)
    outside = convex_hull([(9.0, 9.0), (10.0, 9.0), (10.0, 10.0)])
    with pytest.raises(BodyValidationError) as exc:
        build([outside], p)
    assert exc.value.reports[0][0] == 0
    with pytest.raises(BodyValidationError):
        build([convex_hull([(0.0, 0.0), (3.0, 0.0)])], p, diameter_bound=2.0)


def test_build_records_metadata():
    p = build_partition(4.0, 4)
    body = convex_hull([(1.0, 1.0), (2.0, 1.0), (2.0, 2.0)])
    h = build([body], p, diameter_bound=2.0)
    assert h.diameter_bound == 2.0
    assert h.epsilon is None
    assert h.counts.dtype == np.float64
    assert np.array_equal(h.counts, np.round(h.counts))


def test_histogram_shape_validation():
    p = build_partition(4.0, 4)
    with pytest.raises(ValueError):
        EulerHistogram(p, np.zeros(p.size - 1), HistogramState.RAW)
