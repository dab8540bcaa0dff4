"""Rounding, verification, and covert repair."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import lattice_body
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
    raw = build(bodies, p)
    noisy = perturb(raw, PrivacyParams.for_partition(eps, 1.0, p), RandomSource(seed))
    consistent, _ = infer(noisy)
    return consistent


def _hist(counts, state=HistogramState.ROUNDED, n=2):
    p = build_partition(float(n), n)
    return EulerHistogram(p, np.asarray(counts, dtype=np.float64), state)


def test_round_half_up():
    vals = [0.5, 1.4, 1.5, 2.5, -0.5, -1.5, 0.49, 3.0, 0.0]
    h = _hist(vals, HistogramState.CONSISTENT)
    out = round_counts(h)
    assert out.counts.tolist() == [1.0, 1.0, 2.0, 3.0, 0.0, -1.0, 0.0, 3.0, 0.0]
    assert out.state is HistogramState.ROUNDED


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


def test_verify_tolerance_tracks_state():
    p = build_partition(2.0, 2)
    counts = np.ones(9)
    counts[4] = 1.0 + 5e-8  # hedge a hair above both faces
    noisy = EulerHistogram(p, counts, HistogramState.NOISY)
    assert verify_violations(noisy) == (0, 0, 0)  # absorbed by the real tol
    assert build_constraints(p).violation_counts(noisy.counts, 0.0) == (2, 0, 0)
    rounded = EulerHistogram(p, counts, HistogramState.ROUNDED)
    assert verify_violations(rounded) == (2, 0, 0)  # integral states check exactly


def test_repair_clamps_edge_to_faces():
    h = _hist([1, 1, 1, 1, 2, 0, 0, 0, 0])
    fixed, report = repair(h)
    assert fixed.counts[4] == 1.0
    assert report.c1_fixes == 1 and report.c2_fixes == 0
    assert report.cost == 1.0
    assert fixed.state is HistogramState.ROUNDED
    assert verify_violations(fixed) == (0, 0, 0)


def test_repair_clamps_vertex_to_edges():
    h = _hist([1, 1, 1, 1, 1, 1, 1, 1, 3])
    fixed, report = repair(h)
    assert fixed.counts[8] == 1.0
    assert report.c2_fixes == 1 and report.c1_fixes == 0
    assert verify_violations(fixed) == (0, 0, 0)


def test_repair_closes_aggregate_deficit():
    # negative vertex makes the aggregate row fail while pairwise rows hold
    h = _hist([0, 0, 0, 0, 0, 0, 0, 0, -1])
    fixed, report = repair(h)
    assert report.c3_fixes == 1
    assert verify_violations(fixed) == (0, 0, 0)
    assert fixed.counts[:4].sum() == 1.0  # one face raised by the deficit


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


def test_repair_is_idempotent_on_clean_input():
    consistent = _consistent_fixture(seed=29)
    rounded = round_counts(consistent)
    fixed, first = repair(rounded)
    again, second = repair(fixed)
    fixes = second.c1_fixes + second.c2_fixes + second.c3_fixes + second.rect_fixes
    assert fixes == 0 and second.cost == 0.0
    assert np.array_equal(again.counts, fixed.counts)


def test_repair_tolerates_solver_dust_on_real_states():
    consistent = _consistent_fixture(seed=31)
    p = consistent.partition
    counts = consistent.counts.copy()
    counts[p.hedge_offset : p.vertex_offset] += 5e-8  # edges drift up a hair
    dusty = consistent.with_counts(counts, HistogramState.CONSISTENT)
    _, report = repair(dusty)
    assert report.c1_fixes == 0 and report.c2_fixes == 0 and report.c3_fixes == 0


def test_full_pipeline_release_is_covert_and_integral():
    consistent = _consistent_fixture(seed=37)
    released, _ = repair(round_counts(consistent))
    assert released.state is HistogramState.ROUNDED
    assert np.array_equal(released.counts, np.round(released.counts))
    assert released.counts.min() >= 0.0
    assert verify_violations(released) == (0, 0, 0)
    assert min_rectangle_count(released)[0] >= 0.0
