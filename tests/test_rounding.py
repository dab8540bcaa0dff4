"""Rounding, verification, and covert repair."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import ConstraintRows, lattice_body, repair_oracle
from eulerdp import (
    EulerHistogram,
    HistogramState,
    PrivacyParams,
    RandomSource,
    build,
    build_constraints,
    build_partition,
    infer,
    min_rectangle_count,
    perturb,
    repair,
    round_counts,
    verify_violations,
)


def _consistent_fixture(seed=17, n=5, eps=0.5):
    rng = np.random.default_rng(23)
    p = build_partition(float(n), n)
    bodies = [lattice_body(rng, float(n)) for _ in range(30)]
    raw = build(bodies, p, diameter_bound=1.5 * n)  # above the area's diagonal
    noisy = perturb(raw, PrivacyParams.for_partition(eps, 1.5 * n, p), RandomSource(seed))
    consistent, _ = infer(noisy)
    return consistent


def _hist(counts, state=HistogramState.ROUNDED, n=2):
    p = build_partition(float(n), n)
    return EulerHistogram(p, np.asarray(counts, dtype=np.float64), state)


def test_round_half_up():
    # faces, then hedges (faces 0, 2 and 1, 3), vedges (faces 0, 1 and 2, 3)
    # and the vertex, each at or below the counts it is bounded by
    vals = [0.5, 1.4, 1.5, 2.5, 0.49, 1.4, 0.5, 1.5, 0.0]
    h = _hist(vals, HistogramState.CONSISTENT)
    out = round_counts(h)
    assert out.counts.tolist() == [1.0, 1.0, 2.0, 3.0, 0.0, 1.0, 1.0, 2.0, 0.0]
    assert out.state is HistogramState.ROUNDED


@pytest.mark.parametrize(
    "counts, named",
    [
        # an edge a hair above faces of 0.5: rounding would send all to 1
        ([0.5] * 4 + [0.50000004, 0.0, 0.0, 0.0, 0.0], "c1=2 c2=0 negative=0"),
        ([0.5] * 4 + [0.0] * 4 + [0.25], "c1=0 c2=4 negative=0"),
        ([0.5] * 4 + [0.0] * 4 + [-0.5], "c1=0 c2=0 negative=1"),
    ],
)
def test_round_refuses_counts_that_fail_verify(counts, named):
    """A CONSISTENT tag whose counts break C1, C2 or x >= 0 is refused by
    name, even where the rounded counts would pass."""
    h = _hist(counts, HistogramState.CONSISTENT)
    with pytest.raises(ValueError, match=f"^round_counts needs counts that satisfy C1, C2 and x >= 0, got violations {named}$"):
        round_counts(h)
    with pytest.raises(ValueError, match=f"got violations {named}$"):
        round_counts(h, build_constraints(h.partition))


def test_round_requires_consistent_state():
    for state in (HistogramState.RAW, HistogramState.NOISY, HistogramState.ROUNDED):
        with pytest.raises(ValueError):
            round_counts(_hist(np.zeros(9), state))


def test_round_moves_at_most_half():
    consistent = _consistent_fixture()
    rounded = round_counts(consistent)
    assert np.abs(rounded.counts - consistent.counts).max() <= 0.5


def test_rounding_preserves_constraint_families():
    """Round-half-up is monotone, so pairwise families survive it; the
    aggregate family follows from C1 plus non-negativity."""
    for seed in (17, 18, 19, 20):
        consistent = _consistent_fixture(seed=seed)
        assert verify_violations(consistent) == (0, 0, 0)
        rounded = round_counts(consistent)
        assert verify_violations(rounded) == (0, 0, 0)
        assert np.array_equal(rounded.counts, np.round(rounded.counts))


def test_verify_is_exact_in_every_state():
    p = build_partition(2.0, 2)
    counts = np.ones(9)
    counts[4] = 1.0 + 5e-8  # hedge a hair above both faces
    for state in (HistogramState.NOISY, HistogramState.CONSISTENT):
        assert verify_violations(EulerHistogram(p, counts, state)) == (2, 0, 0)
    assert build_constraints(p).violation_counts(counts) == (2, 0, 0)
    # integral states hold integers, so the dusty counts cannot be tagged so
    for state in (HistogramState.RAW, HistogramState.ROUNDED):
        with pytest.raises(ValueError, match=f"{state.value} histogram contains non-integral"):
            EulerHistogram(p, counts, state)
    counts[4] = 2.0
    assert verify_violations(EulerHistogram(p, counts, HistogramState.ROUNDED)) == (2, 0, 0)


def _assert_refused(counts, violations):
    """repair raises ValueError naming the violation counts and leaves its
    input as it was."""
    h = _hist(counts)
    before = h.counts.copy()
    assert verify_violations(h) == violations
    named = "c1={} c2={} negative={}".format(*violations)
    with pytest.raises(ValueError, match=f"satisfy C1, C2 and x >= 0, got violations {named}$"):
        repair(h)
    assert np.array_equal(h.counts, before)


def test_repair_refuses_edge_above_face():
    # the edge between faces 0 and 2 counts 2, both faces count 1
    _assert_refused([1, 1, 1, 1, 2, 0, 0, 0, 0], (2, 0, 0))


def test_repair_refuses_vertex_above_edge():
    _assert_refused([1, 1, 1, 1, 1, 1, 1, 1, 3], (0, 4, 0))


def test_repair_refuses_aggregate_deficit():
    # a negative vertex breaks x >= 0 and the aggregate row while pairwise
    # rows hold
    _assert_refused([0, 0, 0, 0, 0, 0, 0, 0, -1], (0, 0, 1))
    # faces 5, edges 2, vertex -1: 20 - 8 - 1 >= 0 meets the aggregate row,
    # yet the negative count exposes the noise
    _assert_refused([5, 5, 5, 5, 2, 2, 2, 2, -1], (0, 0, 1))


def test_repair_covertness_gap():
    """Families can all hold while a wide rectangle still goes negative;
    the rectangle pass must close that gap without reopening anything."""
    p = build_partition(3.0, 3)
    counts = np.concatenate([np.ones(9), np.ones(12), np.zeros(4)])
    h = EulerHistogram(p, counts, HistogramState.ROUNDED)
    assert verify_violations(h) == (0, 0, 0)
    worst, _ = min_rectangle_count(h)
    assert worst == -3.0  # full grid: 9 faces - 12 interior edges

    fixed, report = repair(h)
    assert report.rect_fixes >= 1
    assert min_rectangle_count(fixed)[0] >= 0.0
    assert verify_violations(fixed) == (0, 0, 0)
    assert np.array_equal(fixed.counts, np.round(fixed.counts))
    assert np.all(fixed.counts >= h.counts - 1e-12)  # nothing was lowered
    counts, fixes, cost = repair_oracle(h)
    assert fixed.counts.tobytes() == counts.tobytes()
    assert fixes == (0, 0, 0, report.rect_fixes) and report.cost == cost


def test_repair_is_idempotent_on_clean_input():
    consistent = _consistent_fixture(seed=29)
    rounded = round_counts(consistent)
    fixed, first = repair(rounded)
    again, second = repair(fixed)
    assert second.rect_fixes == 0 and second.cost == 0.0
    assert np.array_equal(again.counts, fixed.counts)


def test_repair_refuses_solver_dust_on_real_states():
    consistent = _consistent_fixture(seed=31)
    p = consistent.partition
    counts = consistent.counts.copy()
    counts[p.hedge_offset : p.vertex_offset] += 5e-8  # edges drift up a hair
    dusty = consistent.with_counts(counts, HistogramState.CONSISTENT)
    c1, c2, negative = verify_violations(dusty)
    assert c1 > 0 and negative == 0
    named = f"c1={c1} c2={c2} negative={negative}"
    with pytest.raises(ValueError, match=f"got violations {named}$"):
        repair(dusty)


def test_full_pipeline_release_is_covert_and_integral():
    consistent = _consistent_fixture(seed=37)
    released, _ = repair(round_counts(consistent))
    assert released.state is HistogramState.ROUNDED
    assert np.array_equal(released.counts, np.round(released.counts))
    assert released.counts.min() >= 0.0
    assert verify_violations(released) == (0, 0, 0)
    assert min_rectangle_count(released)[0] >= 0.0


@given(
    n=st.integers(2, 12),
    bodies=st.integers(0, 40),
    objective=st.sampled_from(["l1", "linf"]),
    log_epsilon=st.floats(-2.0, 1.3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_repair_matches_clamp_pass_oracle(n, bodies, objective, log_epsilon, seed):
    """On every rounded inference output the rectangle pass alone gives the
    counts, fixes and cost that the clamp passes plus rectangle pass gave:
    the clamps found nothing to do. A few percent of the releases need
    rectangle fixes, mostly under ``l1``."""
    epsilon = 10.0**log_epsilon
    rng = np.random.default_rng(seed)
    p = build_partition(float(n), n)
    raw = build([lattice_body(rng, float(n)) for _ in range(bodies)], p, diameter_bound=1.5 * n)
    noisy = perturb(raw, PrivacyParams.for_partition(epsilon, 1.5 * n, p), RandomSource(seed))
    rounded = round_counts(infer(noisy, objective=objective)[0])
    released, report = repair(rounded)
    counts, fixes, cost = repair_oracle(rounded)
    assert released.counts.tobytes() == counts.tobytes()
    assert fixes == (0, 0, 0, report.rect_fixes)
    assert report.cost == cost


@st.composite
def consistent_histograms(draw) -> EulerHistogram:
    """CONSISTENT histograms at n = 2..6 drawn from a small pool of values in
    [0, 20], halves and dust around them included. Each edge is lowered to
    its faces and each vertex to its edges, so ties are common; then, in
    some draws, a share of the counts gains 5e-8 of solver dust, which can
    lift an edge just above a face."""
    n = draw(st.integers(2, 6))
    p = build_partition(float(n), n)
    cs = ConstraintRows(p)
    half = st.integers(0, 40).map(lambda k: k / 2)
    dust = st.sampled_from([-5e-8, 0.0, 5e-8])
    value = st.one_of(st.floats(0.0, 20.0), st.builds(lambda v, d: max(v + d, 0.0), half, dust))
    pool = np.array(draw(st.lists(value, min_size=1, max_size=12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = pool[rng.integers(0, len(pool), p.size)]
    edges = cs.c1[0::2, 0]
    counts[edges] = np.minimum(counts[edges], counts[cs.c1[:, 1]].reshape(-1, 2).min(axis=1))
    vertices = cs.c2[0::4, 0]
    counts[vertices] = np.minimum(counts[vertices], counts[cs.c2[:, 1]].reshape(-1, 4).min(axis=1))
    counts[rng.random(p.size) < draw(st.sampled_from([0.0, 0.05]))] += 5e-8
    return EulerHistogram(p, counts, HistogramState.CONSISTENT)


@given(consistent_histograms())
@settings(max_examples=150, deadline=None)
def test_counts_that_verify_round_and_repair(h):
    """Rounding keeps what ``verify_violations`` checks: CONSISTENT counts
    that pass it round and repair without refusal into a release that
    passes it, with no negative rectangle."""
    assume(verify_violations(h) == (0, 0, 0))
    released, _ = repair(round_counts(h))
    assert verify_violations(released) == (0, 0, 0)
    assert min_rectangle_count(released)[0] >= 0
