"""Histogram construction and exact rectangular range counting."""

from __future__ import annotations

import copy
import math
import pickle
import re
import tracemalloc
from dataclasses import FrozenInstanceError
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_rectangle_counts,
    box_dimension,
    euler_truth,
    float_table_query,
    grid_components,
    lattice_body,
    scan_by_row_oracle,
    slice_sum_query,
    valid_region_mask,
)
from eulerdp import (
    BodyValidationError,
    ConvexBody,
    EulerHistogram,
    HistogramState,
    IngestConfig,
    QueryRegion,
    build,
    build_partition,
    convex_hull,
    generate_synthetic,
    min_rectangle_count,
    query,
    validate_bodies,
)
from eulerdp import geometry, histogram


def slow_query(h: EulerHistogram, qr: QueryRegion) -> float:
    """Reference query from grid geometry, no prefix sums: a component counts,
    with sign (-1)^(2 - dimension), when the centre of its box lies strictly
    inside the query rectangle."""
    p = h.partition
    (ox, oy), d = p.origin, p.cell_side
    qxlo, qxhi = ox + qr.c0 * d, ox + (qr.c1 + 1) * d
    qylo, qyhi = oy + qr.r0 * d, oy + (qr.r1 + 1) * d
    total = 0.0
    for count, (_, box) in zip(h.counts, grid_components(p)):
        cx, cy = (box[0] + box[1]) / 2, (box[2] + box[3]) / 2
        if qxlo < cx < qxhi and qylo < cy < qyhi:
            total += count if box_dimension(box) != 1 else -count
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


@given(
    n=st.integers(min_value=2, max_value=60),
    state=st.sampled_from(list(HistogramState)),
    high=st.integers(min_value=1, max_value=2**40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_query_equals_slice_sums(n, state, high, seed):
    """Integral states answer exactly as the slice sums do; real-valued ones
    may differ in the last bits, because the corner tables add in another
    order."""
    p = build_partition(float(n), n)
    rng = np.random.default_rng(seed)
    if state in (HistogramState.RAW, HistogramState.ROUNDED):
        counts = rng.integers(0, high, p.size, endpoint=True).astype(np.float64)
    else:
        counts = rng.random(p.size) * high
    h = EulerHistogram(p, counts, state)
    rows = np.sort(rng.integers(0, n, (200, 2)), axis=1)
    cols = np.sort(rng.integers(0, n, (200, 2)), axis=1)
    regions = [QueryRegion(0, n - 1, 0, n - 1), QueryRegion(n - 1, n - 1, n - 1, n - 1)]
    regions += [QueryRegion(*map(int, q)) for q in np.hstack([rows, cols])]
    tol = 1e-9 * np.abs(counts).sum()
    for qr in regions:
        got, want = query(h, qr), slice_sum_query(h, qr)
        if state in (HistogramState.RAW, HistogramState.ROUNDED):
            assert isinstance(got, int) and got == want
        else:
            assert isinstance(got, float) and abs(got - want) <= tol


@given(
    n=st.integers(min_value=2, max_value=60),
    state=st.sampled_from(list(HistogramState)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_query_matches_the_float_table_sum(n, state, seed):
    """Integral states answer from integer tables with the value the float
    tables' rounded sum gave; real-valued states answer bit for bit as the
    four float lookups summed. Regions on the last row or column answer;
    regions past it raise the validation's ValueError."""
    p = build_partition(float(n), n)
    rng = np.random.default_rng(seed)
    integral = state in (HistogramState.RAW, HistogramState.ROUNDED)
    if integral:
        counts = rng.integers(-(2**30), 2**30, p.size, endpoint=True).astype(np.float64)
    else:
        counts = rng.normal(0.0, 1.0, p.size) * 10.0 ** rng.integers(-6, 9, p.size)
    h = EulerHistogram(p, counts, state)
    rows = np.sort(rng.integers(0, n, (100, 2)), axis=1)
    cols = np.sort(rng.integers(0, n, (100, 2)), axis=1)
    rows[::4, 1] = n - 1  # the last row
    cols[1::4, 1] = n - 1  # the last column
    regions = [QueryRegion(*map(int, q)) for q in np.hstack([rows, cols])]
    regions += [QueryRegion(n - 1, n - 1, n - 1, n - 1), QueryRegion(0, n - 1, 0, n - 1)]
    for qr in regions:
        got, want = query(h, qr), float_table_query(h, qr)
        if integral:
            assert type(got) is int and got == want
        else:
            assert type(got) is float and got.hex() == want.hex()
    past = int(rng.integers(n, n + 3))
    outside = (QueryRegion(0, past, 0, 0), QueryRegion(0, 0, 0, past), QueryRegion(past, past, 0, n - 1))
    for qr in outside:
        message = re.escape(f"query region {qr} does not fit an n={n} grid")
        with pytest.raises(ValueError, match=message):
            query(h, qr)


def test_counts_are_read_only():
    p = build_partition(3.0, 3)
    source = np.arange(p.size, dtype=np.float64)
    h = EulerHistogram(p, source, HistogramState.RAW)
    source[0] = 99.0  # construction copied the array
    assert h.counts[0] == 0.0
    with pytest.raises(ValueError):
        h.counts[0] = 1.0
    with pytest.raises(ValueError):
        h.faces[0, 0] = 1.0
    with pytest.raises(FrozenInstanceError):
        h.counts = np.zeros(p.size)
    with pytest.raises(FrozenInstanceError):
        h.epsilon = 1.0
    query(h, QueryRegion(0, 2, 0, 2))  # fills the table caches
    for twin in (copy.deepcopy(h), pickle.loads(pickle.dumps(h, protocol=2))):
        assert np.array_equal(twin.counts, h.counts)
        with pytest.raises(ValueError):
            twin.counts[0] = 1.0


def test_with_counts_answers_from_its_own_counts():
    p = build_partition(4.0, 4)
    h = EulerHistogram(p, np.ones(p.size), HistogramState.ROUNDED)
    full = QueryRegion(0, 3, 0, 3)
    assert query(h, full) == 16 - 24 + 9
    bumped = h.counts.copy()
    bumped[:16] += 1.0
    h2 = h.with_counts(bumped, HistogramState.ROUNDED)
    assert query(h2, full) == 1 + 16
    assert query(h, full) == 1
    for qr in all_regions(4):
        assert query(h2, qr) == slice_sum_query(h2, qr)


def test_histograms_compare_and_hash_by_identity():
    p = build_partition(3.0, 3)
    h = EulerHistogram(p, np.arange(p.size, dtype=np.float64), HistogramState.RAW)
    twin = h.with_counts(h.counts, h.state)
    assert h == h
    assert h != twin
    assert len({h, twin}) == 2 and hash(h) == hash(h)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_counts_are_rejected(bad):
    p = build_partition(3.0, 3)
    counts = np.zeros(p.size)
    counts[p.vertex_offset] = bad
    with pytest.raises(ValueError, match="finite"):
        EulerHistogram(p, counts, HistogramState.NOISY)


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


@pytest.mark.parametrize("n", [2, 3, 7, 20, 44, 91])
@pytest.mark.parametrize("kind", ["integral", "real", "equal", "overflow"])
def test_blocked_scan_equals_the_row_scan(n, kind):
    """Value and region equal one top row at a time, with the block budget
    as set and cut to one and three top rows per block, so block seams are
    crossed. All-equal counts make every region of one size tie; counts of
    +-1e308 overflow the corner tables to infinities and NaN."""
    p = build_partition(float(n), n)
    rng = np.random.default_rng(n)
    draws = {
        "integral": lambda: rng.integers(-2, 3, p.size).astype(np.float64),
        "real": lambda: rng.normal(0.0, 2.0, p.size),
        "equal": lambda: np.full(p.size, float(rng.integers(-1, 2))),
        "overflow": lambda: rng.choice([-1e308, 0.0, 1e308], p.size),
    }
    for _ in range(3 if n < 44 else 1):
        h = EulerHistogram(p, draws[kind](), HistogramState.NOISY)
        with np.errstate(over="ignore", invalid="ignore"):
            want = scan_by_row_oracle(h)
            assert min_rectangle_count(h) == want
            for rows in (1, 3):
                with mock.patch.object(histogram, "SCAN_BLOCK", rows * n * n):
                    assert min_rectangle_count(h) == want


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


@pytest.mark.parametrize("field", ["r0", "r1", "c0", "c1"])
def test_query_region_refuses_a_non_integer_index_by_name(field):
    """A float index is refused when the region is made, not as a list
    index inside ``query``; numpy integers pass, as for ``GridPartition.n``."""
    bounds = {"r0": 0, "r1": 1, "c0": 0, "c1": 1}
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got 1.0$"):
        QueryRegion(**{**bounds, field: 1.0})
    assert QueryRegion(**{**bounds, field: np.int64(1)}) == QueryRegion(**{**bounds, field: 1})


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_build_refuses_a_bound_that_is_not_finite_and_positive(bad):
    """NaN and inf would admit every body, and no file could record the
    bound: validate_bodies and build refuse it by name, with or without
    bodies."""
    p = build_partition(4.0, 4)
    inside = convex_hull([(1.0, 1.0), (2.0, 1.0), (2.0, 2.0)])
    for bodies in ([], [inside]):
        with pytest.raises(ValueError, match=f"^diameter_bound must be finite and positive, got {bad}$"):
            validate_bodies(bodies, p, diameter_bound=bad)
        with pytest.raises(ValueError, match=f"^diameter_bound must be finite and positive, got {bad}$"):
            build(bodies, p, diameter_bound=bad)
    assert build([inside], p).diameter_bound is None  # no bound is still no bound


def test_validate_bodies_computes_each_diameter_once(monkeypatch):
    calls = []
    real = geometry.diameter
    monkeypatch.setattr(geometry, "diameter", lambda body: calls.append(body) or real(body))
    p = build_partition(4.0, 4)
    bodies = [convex_hull([(1.0, 1.0), (2.0, 1.0), (2.0, 2.0)]), convex_hull([(3.0, 3.0)])]
    for _ in range(2):
        kept, rejected = validate_bodies(bodies, p, diameter_bound=1.5)
        assert kept == bodies and not rejected
    build(bodies, p, diameter_bound=1.5)
    assert calls == bodies
    twin = copy.copy(bodies[0])  # copies start uncached
    assert twin.cached_diameter == bodies[0].cached_diameter and calls == [*bodies, twin]


def test_validate_bodies_refuses_dust_past_the_edge():
    """A vertex 5e-10 past the area edge is outside it: no slack admits it."""
    p = build_partition(4.0, 4)
    hair_out = ConvexBody(np.array([[0.0, 0.0], [4.0 + 5e-10, 0.0], [0.0, 1.0]]))
    kept, rejected = validate_bodies([hair_out], p)
    assert not kept and rejected == [(0, "extends outside the area rectangle")]
    with pytest.raises(BodyValidationError, match="body 0: extends outside the area rectangle"):
        build([hair_out], p)


def test_build_raises_on_invalid_bodies():
    p = build_partition(4.0, 4)
    outside = convex_hull([(9.0, 9.0), (10.0, 9.0), (10.0, 10.0)])
    with pytest.raises(BodyValidationError) as exc:
        build([outside], p)
    assert exc.value.reports[0][0] == 0
    with pytest.raises(BodyValidationError):
        build([convex_hull([(0.0, 0.0), (3.0, 0.0)])], p, diameter_bound=2.0)


def test_build_refuses_a_body_whose_hits_break_euler(monkeypatch):
    """A body met by two separated faces only has F - E + V = 2, so a query
    covering both would count it twice: build refuses it and names it."""
    p = build_partition(6.0, 6)
    bodies = [
        convex_hull([(1.0, 1.0)]),
        convex_hull([(2.5, 2.5), (3.5, 2.5), (3.5, 3.5)]),
        convex_hull([(4.5, 4.5)]),
    ]
    real = histogram.intersects_boxes

    def split(body, boxes):
        hit = real(body, boxes)
        if body is bodies[1]:  # the first and last faces of its 4x4 window
            hit[:] = False
            hit[[0, -1]] = True
        return hit

    monkeypatch.setattr(histogram, "intersects_boxes", split)
    refusal = r"body 1: meets components with F - E \+ V = 2, not 1"
    with pytest.raises(BodyValidationError, match=refusal) as exc:
        build(bodies, p)
    assert [i for i, _ in exc.value.reports] == [1]


def test_build_memory_is_bounded_by_blocks(monkeypatch):
    """build holds one block of at most BUILD_BLOCK window cells at a time,
    plus about a hundred bytes per body for the windows. Unblocked, the 30k
    bodies peak near 17 MB and the mixed set near 2.3 GB, every small body
    padded to the wide one's 200x200 window.

    The predicate is stubbed to hit every face it is given: traced, the real
    one's many small allocations take ten times longer, and every cell hit
    is the scatter's largest case (an all-hit window has F - E + V = 1)."""
    monkeypatch.setattr(
        histogram, "intersects_boxes", lambda body, boxes: np.ones(len(boxes), dtype=bool)
    )
    config = IngestConfig(area_side=20000.0, diameter_bound=2000.0, k=20)
    crowd = generate_synthetic("concentrated", 30000, config, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    points = [convex_hull([pt]) for pt in rng.uniform(0.0, 200.0, (5000, 2))]
    wide = convex_hull([(0.0, 0.0), (200.0, 0.0), (200.0, 200.0), (0.0, 200.0)])
    cases = [
        (crowd, build_partition(20000.0, 20), 2000.0, 5),
        (points[:2500] + [wide] + points[2500:], build_partition(200.0, 200), None, 7),
    ]
    for bodies, p, bound, megabytes in cases:
        validate_bodies(bodies, p, bound)  # diameters are cached on the bodies
        tracemalloc.start()
        try:
            h = build(bodies, p, diameter_bound=bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.counts.sum() > 0
        assert peak <= megabytes * 2**20, f"build peaked at {peak / 2**20:.2f} MB"


def test_build_records_metadata():
    p = build_partition(4.0, 4)
    body = convex_hull([(1.0, 1.0), (2.0, 1.0), (2.0, 2.0)])
    h = build([body], p, diameter_bound=2.0)
    assert h.diameter_bound == 2.0
    assert h.epsilon is None
    assert h.counts.dtype == np.float64
    assert np.array_equal(h.counts, np.round(h.counts))
    empty = build([], p, diameter_bound=2.0)
    assert empty.state is HistogramState.RAW and empty.partition == p
    assert (empty.diameter_bound, empty.epsilon) == (2.0, None)
    assert empty.counts.shape == (p.size,) and not empty.counts.any()


def test_histogram_shape_validation():
    p = build_partition(4.0, 4)
    with pytest.raises(ValueError):
        EulerHistogram(p, np.zeros(p.size - 1), HistogramState.RAW)
