"""Sensitivity arithmetic and the counter-based Laplace mechanism.

The stream goldens pinned here are a compatibility surface: histograms
perturbed with one release of this library must reproduce bit-for-bit under
later releases, so any change to the mixing constants is a format break.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ConstantNoise
from eulerdp import (
    EulerHistogram,
    HistogramState,
    PrivacyParams,
    RandomSource,
    build_partition,
    derive_seed,
    global_sensitivity,
    perturb,
    sensitivity_closed_form,
    utility_bound_dp,
    utility_bound_end_to_end,
)
from eulerdp.privacy import laplace_inverse_cdf


def test_sensitivity_goldens():
    # one extra cell per axis: a body of diameter B spans ceil(B/d) + 1 cells
    assert global_sensitivity(1.0, 1.0) == 9
    assert global_sensitivity(2.0, 1.0) == 25
    assert global_sensitivity(3.0, 1.0) == 49
    assert global_sensitivity(12.5, 1.0) == 729
    assert global_sensitivity(0.2, 1.0) == 9  # sub-cell bodies still straddle corners


def test_sensitivity_ratio_snap():
    # 2 / (2/3) = 3.0000000000000004 in floats; must not round up to m = 5
    assert global_sensitivity(2.0, 2.0 / 3.0) == global_sensitivity(3.0, 1.0)
    assert global_sensitivity(2.0 + 1e-6, 1.0) == global_sensitivity(3.0, 1.0)


@given(st.integers(min_value=1, max_value=400), st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=100)
def test_closed_form_dominates_exact(c, d):
    b = c * d
    exact = global_sensitivity(b, d)
    closed = sensitivity_closed_form(b, d)
    assert closed >= exact
    if c == 1:
        assert closed == exact == 9


def test_sensitivity_validation():
    with pytest.raises(ValueError):
        global_sensitivity(0.0, 1.0)
    with pytest.raises(ValueError):
        global_sensitivity(1.0, -2.0)
    with pytest.raises(ValueError):
        sensitivity_closed_form(-1.0, 1.0)


def test_privacy_params_for_partition():
    p = build_partition(20000.0, 20)  # d = 1000
    params = PrivacyParams.for_partition(1.0, 2000.0, p)
    assert params.sensitivity == 25
    assert params.lam == 25.0
    params = PrivacyParams.for_partition(0.5, 2000.0, p)
    assert params.lam == 50.0


def test_privacy_params_validation():
    with pytest.raises(ValueError):
        PrivacyParams(0.0, 1.0, 9, 9.0)
    with pytest.raises(ValueError):
        PrivacyParams(1.0, -1.0, 9, 9.0)
    with pytest.raises(ValueError):
        PrivacyParams(1.0, 1.0, 0, 0.0)
    with pytest.raises(ValueError):
        PrivacyParams(1.0, 1.0, 9, 10.0)  # lam inconsistent with sens/eps


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_parameters_are_refused_by_name(bad):
    """An infinite epsilon would draw no noise, and an infinite bound has no
    sensitivity: each is refused with the field's name, never computed with."""
    with pytest.raises(ValueError, match="epsilon must be finite and positive"):
        PrivacyParams(bad, 1.0, 9, 0.0)
    with pytest.raises(ValueError, match="diameter_bound must be finite and positive"):
        PrivacyParams(1.0, bad, 9, 9.0)
    p = build_partition(4.0, 4)
    with pytest.raises(ValueError, match="epsilon must be finite and positive"):
        PrivacyParams.for_partition(bad, 1.0, p)
    for sensitivity in (global_sensitivity, sensitivity_closed_form):
        with pytest.raises(ValueError, match="diameter_bound must be finite and positive"):
            sensitivity(bad, 1.0)
        with pytest.raises(ValueError, match="cell_side must be finite and positive"):
            sensitivity(1.0, bad)


def test_vanishing_epsilon_is_refused_by_name():
    """A positive epsilon so small that sensitivity / epsilon overflows would
    draw infinite noise: the params refuse it, naming epsilon."""
    p = build_partition(4.0, 4)
    assert math.isinf(global_sensitivity(1.0, p.cell_side) / 1e-308)
    with pytest.raises(ValueError, match="epsilon 1e-308 is too small"):
        PrivacyParams.for_partition(1e-308, 1.0, p)
    with pytest.raises(ValueError, match="epsilon 1e-308 is too small"):
        PrivacyParams(1e-308, 1.0, 9, math.inf)
    assert PrivacyParams(1e-308, 1.0, 1, 1e308).lam == 1e308


def test_derive_seed_goldens():
    assert derive_seed(0, 0) == 13441156890354882375
    assert derive_seed(1, 0) == 13957987245808512451
    assert derive_seed(2024, 17) == 1756883607707676917
    assert derive_seed(2**63, 5) == 12450491411820197951


def test_derive_seed_spreads():
    seen = {derive_seed(99, i) for i in range(10_000)}
    assert len(seen) == 10_000


def test_uniform_stream_goldens():
    rs = RandomSource(42)
    got = rs.uniforms_at(0, 4)
    want = [
        0.7415648787718233,
        0.15991039287692022,
        0.27860113025513866,
        0.34419071652363764,
    ]
    assert got.tolist() == want


def test_uniforms_strictly_inside_unit_interval():
    rs = RandomSource(7)
    u = rs.uniforms_at(0, 200_000)
    assert u.min() > 0.0 and u.max() < 1.0


def test_counter_addressing_stitches():
    """Draw i depends only on (seed, i), not on batch boundaries."""
    rs = RandomSource(1234)
    whole = rs.uniforms_at(0, 100)
    parts = np.concatenate([rs.uniforms_at(0, 37), rs.uniforms_at(37, 63)])
    assert np.array_equal(whole, parts)
    again = RandomSource(1234).uniforms_at(0, 100)
    assert np.array_equal(whole, again)
    other = RandomSource(1235).uniforms_at(0, 100)
    assert not np.array_equal(whole, other)


def test_inverse_cdf_quantiles():
    lam = 2.5
    assert laplace_inverse_cdf(0.5, lam) == 0.0
    assert laplace_inverse_cdf(0.75, lam) == pytest.approx(lam * math.log(2.0), rel=1e-15)
    assert laplace_inverse_cdf(0.25, lam) == pytest.approx(-lam * math.log(2.0), rel=1e-15)
    arr = laplace_inverse_cdf(np.array([0.5, 0.75]), lam)
    assert arr.shape == (2,)


def test_laplace_scale_empirical():
    # mean |X| of Laplace(0, lam) is lam; at 1e6 draws the SE is lam/1000
    lam = 4.0
    draws = RandomSource(2718).laplace_at(lam, 0, 1_000_000)
    assert abs(np.abs(draws).mean() - lam) < 0.01 * lam
    assert abs(np.median(draws)) < 0.01 * lam


def test_laplace_zero_scale_and_validation():
    rs = RandomSource(1)
    assert np.array_equal(rs.laplace_at(0.0, 0, 8), np.zeros(8))
    with pytest.raises(ValueError):
        rs.laplace_at(-1.0, 0, 4)


def _raw(p, value=0.0):
    return EulerHistogram(p, np.full(p.size, value), HistogramState.RAW, diameter_bound=1.0)


def test_perturb_requires_raw_state():
    p = build_partition(4.0, 4)
    params = PrivacyParams.for_partition(1.0, 1.0, p)
    noisy = perturb(_raw(p), params, ConstantNoise(0.0))
    with pytest.raises(ValueError):
        perturb(noisy, params, ConstantNoise(0.0))


def test_perturb_refuses_an_unchecked_bound():
    """The noise is calibrated to the params' bound, so the raw histogram
    must record one its bodies were checked against, no larger: no bound
    and a larger bound are refused, naming both values; an equal or smaller
    recorded bound passes."""
    p = build_partition(4.0, 4)
    params = PrivacyParams.for_partition(1.0, 1.0, p)
    unchecked = EulerHistogram(p, np.zeros(p.size), HistogramState.RAW)
    with pytest.raises(ValueError, match="records no diameter bound, so the bound 1.0 was never checked"):
        perturb(unchecked, params, ConstantNoise(0.0))
    wider = EulerHistogram(p, np.zeros(p.size), HistogramState.RAW, diameter_bound=1.5)
    with pytest.raises(ValueError, match="diameter bound 1.0 is below the diameter bound 1.5 "):
        perturb(wider, params, ConstantNoise(0.0))
    for recorded in (1.0, 0.5):
        raw = EulerHistogram(p, np.zeros(p.size), HistogramState.RAW, diameter_bound=recorded)
        assert perturb(raw, params, ConstantNoise(0.0)).diameter_bound == 1.0


def test_perturb_zero_noise_is_identity_with_metadata():
    p = build_partition(4.0, 4)
    params = PrivacyParams.for_partition(0.7, 2.0, p)
    h = _raw(p, 3.0)
    out = perturb(h, params, ConstantNoise(0.0))
    assert out.state is HistogramState.NOISY
    assert out.epsilon == 0.7
    assert out.diameter_bound == 2.0
    assert np.array_equal(out.counts, h.counts)
    assert h.state is HistogramState.RAW  # input untouched
    assert h.epsilon is None


def test_perturb_truncates_negatives_to_zero():
    p = build_partition(4.0, 4)
    params = PrivacyParams.for_partition(1.0, 1.0, p)
    out = perturb(_raw(p, 0.0), params, ConstantNoise(-3.2))
    assert np.array_equal(out.counts, np.zeros(p.size))
    out = perturb(_raw(p, 5.0), params, ConstantNoise(-3.2))
    assert np.allclose(out.counts, 1.8)


def test_perturb_matches_stream_by_dense_index():
    p = build_partition(4.0, 4)
    params = PrivacyParams.for_partition(1.0, 1.0, p)
    seed = 909
    out = perturb(_raw(p, 10.0), params, RandomSource(seed))
    want = np.maximum(10.0 + RandomSource(seed).laplace_at(params.lam, 0, p.size), 0.0)
    assert np.array_equal(out.counts, want)


def test_utility_bound_dp():
    assert utility_bound_dp(0.05, 18.0, 361) == pytest.approx(18.0 * math.log(361 / 0.05))
    with pytest.raises(ValueError):
        utility_bound_dp(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        utility_bound_dp(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        utility_bound_dp(0.1, 1.0, 0)


def test_utility_bound_end_to_end_golden():
    # A = 20 km, d = 2 km, B = 2 km, eps = 1, delta = 0.05:
    # coefficient 9 * 2 * 1 = 18 over (2n-1)^2 = 361 components, plus 0.5 rounding
    got = utility_bound_end_to_end(0.05, 1.0, 2000.0, 2000.0, 20000.0)
    assert got == pytest.approx(18.0 * math.log(361 / 0.05) + 0.5, rel=1e-12)


def test_utility_bound_end_to_end_identities():
    kw = dict(delta=0.03, diameter_bound=2000.0, cell_side=1000.0, area_side=20000.0)
    base = utility_bound_end_to_end(epsilon=1.0, **kw)
    half = utility_bound_end_to_end(epsilon=0.5, **kw)
    assert half - 0.5 == pytest.approx(2.0 * (base - 0.5), rel=1e-12)
    # coefficient is twice the closed-form sensitivity over epsilon
    n = 20
    comp = (2 * n - 1) ** 2
    want = utility_bound_dp(0.03, 2.0 * sensitivity_closed_form(2000.0, 1000.0), comp) + 0.5
    assert base == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        utility_bound_end_to_end(0.5, 0.0, 2000.0, 1000.0, 20000.0)


def test_swap_sensitivity_empirical():
    """Swapping one body changes the raw histogram by at most 2 * GS in L1;
    adding or removing one body by at most GS."""
    from conftest import lattice_body
    from eulerdp import build

    rng = np.random.default_rng(31)
    n = 8
    p = build_partition(8.0, n)
    gs = global_sensitivity(2.0, p.cell_side)
    # bodies kept under diameter 2 by sampling inside small windows
    def small_body():
        while True:
            b = lattice_body(rng, 2.0)
            if np.ptp(b.vertices, axis=0).max() <= 2.0 / np.sqrt(2.0):
                return b

    base = [small_body() for _ in range(12)]
    h0 = build(base, p)
    for _ in range(10):
        swapped = list(base)
        swapped[int(rng.integers(len(base)))] = small_body()
        h1 = build(swapped, p)
        assert np.abs(h1.counts - h0.counts).sum() <= 2 * gs
        h2 = build(base + [small_body()], p)
        assert np.abs(h2.counts - h0.counts).sum() <= gs
