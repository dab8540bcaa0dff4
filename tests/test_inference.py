"""Constraint extraction and isotonic-regression inference, checked against
the linear programs it solves and against a maximum-flow minimum cut."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching

from conftest import (
    box_contains,
    box_dimension,
    build_lad_program,
    build_linf_program,
    grid_components,
    isotonic_linf_oracle,
    lattice_body,
    lp_oracle,
    min_cut_oracle,
    violation_counts_oracle,
)
from eulerdp import (
    EulerHistogram,
    HistogramState,
    PrivacyParams,
    RandomSource,
    build,
    build_constraints,
    build_partition,
    infer,
    perturb,
    verify_violations,
)
from eulerdp import inference


def test_family_census():
    p20 = build_partition(20000.0, 20)
    assert build_constraints(p20).counts_by_family == (1520, 1444, 361)
    p2 = build_partition(2.0, 2)
    assert build_constraints(p2).counts_by_family == (8, 4, 1)


def test_constraints_match_incidence_api():
    """The vectorized index arithmetic must agree, row for row, with
    incidence read off the component boxes: an edge lies in its two faces,
    a vertex in its four edges and four faces."""
    p = build_partition(5.0, 5)
    cs = build_constraints(p)
    boxes = [box for _, box in grid_components(p)]

    def within(i: int, dim: int) -> list[int]:
        return [
            j for j, b in enumerate(boxes) if box_dimension(b) == dim and box_contains(b, boxes[i])
        ]

    edges = [i for i, b in enumerate(boxes) if box_dimension(b) == 1]
    vertices = [i for i, b in enumerate(boxes) if box_dimension(b) == 0]
    assert cs.c1.tolist() == [[e, f] for e in edges for f in within(e, 2)]
    assert cs.c2.tolist() == [[v, e] for v in vertices for e in within(v, 1)]
    assert cs.c3.tolist() == [[v] + within(v, 2) + within(v, 1) for v in vertices]


def test_excess_and_violation_counts():
    p = build_partition(2.0, 2)
    cs = build_constraints(p)
    # dense layout: faces 0..3, hedges 4..5, vedges 6..7, vertex 8
    counts = np.array([1, 1, 1, 1, 2, 0, 0, 0, 0], dtype=np.float64)
    assert cs.violation_counts(counts) == (2, 0, 0)

    counts = np.array([1, 1, 1, 1, 0, 0, 0, 0, 1], dtype=np.float64)
    assert cs.violation_counts(counts) == (0, 4, 0)

    counts = np.array([1, 1, 1, 1, 2, 2, 2, 2, 0], dtype=np.float64)
    c1, c2, negative = cs.violation_counts(counts)
    assert (c1, negative) == (8, 0)

    # a negative vertex breaks neither pairwise family
    counts = np.array([5, 5, 5, 5, 2, 2, 2, 2, -1], dtype=np.float64)
    assert cs.violation_counts(counts) == (0, 0, 1)

    # no tolerance: an edge a hair above its faces is a violation
    counts = np.array([1, 1, 1, 1, np.nextafter(1.0, 2.0), 0, 0, 0, 0])
    assert cs.violation_counts(counts) == (2, 0, 0)

    # raw histograms are consistent by construction
    raw = np.array([2, 1, 1, 2, 1, 1, 1, 1, 1], dtype=np.float64)
    assert cs.violation_counts(raw) == (0, 0, 0)


def test_constraint_arrays_wait_for_first_access():
    cs = build_constraints(build_partition(30.0, 30))
    assert cs.counts_by_family == (2 * 2 * 30 * 29, 4 * 29 * 29, 29 * 29)
    cs.violation_counts(np.zeros(cs.partition.size))
    assert not {"c1", "c2", "c3"} & vars(cs).keys()
    noisy = EulerHistogram(cs.partition, np.random.default_rng(3).laplace(2.0, 3.0, cs.partition.size),
                           HistogramState.NOISY)
    infer(noisy, cs)  # the l1 projection builds its pairs and keeps none
    assert not {"c1", "c2", "c3"} & vars(cs).keys()
    assert (len(cs.c1), len(cs.c2), len(cs.c3)) == cs.counts_by_family


@settings(max_examples=120, deadline=None)
@given(
    st.integers(2, 60),
    st.sampled_from(list(HistogramState)),
    st.sampled_from(["pool", "consistent", "nudged"]),
    st.integers(0, 2**32 - 1),
)
def test_slice_violation_counts_equal_the_index_pairs(n, state, kind, seed):
    """Counts from a small pool (ties and zeros common), consistent counts
    (edges and vertices at the minimum of their neighbours), and consistent
    counts with a few components moved by one, or by an ulp where the state
    allows: each check counts what the index pairs count."""
    p = build_partition(float(n), n)
    cs = build_constraints(p)
    rng = np.random.default_rng(seed)
    integral = state in (HistogramState.RAW, HistogramState.ROUNDED)
    pool = np.array([-1.0, -0.0, 0.0, 1.0, 2.0, 3.0] if integral else [-0.5, -0.0, 0.0, 0.25, 1.0, 1.0 + 2**-52])
    counts = pool[rng.integers(0, len(pool), p.size)]
    if kind != "pool":
        faces, hedges, vedges, vertices = p.sections(counts)
        hedges[:] = np.minimum(faces[:-1], faces[1:])
        vedges[:] = np.minimum(faces[:, :-1], faces[:, 1:])
        vertices[:] = np.minimum.reduce([hedges[:, :-1], hedges[:, 1:], vedges[:-1], vedges[1:]])
    if kind == "nudged":
        at = rng.integers(0, p.size, rng.integers(1, 6))
        step = 1.0 if integral else np.nextafter(1.0, 2.0) - 1.0
        counts[at] += rng.choice([-step, step], len(at))
    h = EulerHistogram(p, counts, state)
    want = violation_counts_oracle(cs, h.counts)
    assert verify_violations(h) == want
    assert cs.violation_counts(h.counts) == want


def test_lad_program_rows_dense():
    p = build_partition(2.0, 2)
    cs = build_constraints(p)
    h = EulerHistogram(p, np.zeros(9), HistogramState.NOISY)
    a = build_lad_program(h, cs).a_ub.toarray()
    # lo_f0_0: -x_0 - r_0 <= -h_0
    assert a[0, 0] == -1.0 and a[0, 9] == -1.0 and np.count_nonzero(a[0]) == 2
    # hi_f0_0: x_0 - r_0 <= h_0
    assert a[9, 0] == 1.0 and a[9, 9] == -1.0 and np.count_nonzero(a[9]) == 2
    # c1 first row: hedge(0,0) dense 4 minus face f0_0 dense 0
    assert a[18, 4] == 1.0 and a[18, 0] == -1.0 and np.count_nonzero(a[18]) == 2
    # c2 first row: vertex dense 8 minus hedge(0,0) dense 4
    assert a[26, 8] == 1.0 and a[26, 4] == -1.0 and np.count_nonzero(a[26]) == 2
    # c3: -faces + edges - vertex
    row = a[30]
    assert row[:4].tolist() == [-1.0] * 4
    assert row[4:8].tolist() == [1.0] * 4
    assert row[8] == -1.0 and np.count_nonzero(row) == 9


def test_linf_program_shape():
    p = build_partition(2.0, 2)
    cs = build_constraints(p)
    h = EulerHistogram(p, np.zeros(9), HistogramState.NOISY)
    lp = build_linf_program(h, cs)
    assert lp.kind == "linf"
    assert len(lp.c) == 10 and lp.n_rows == 31
    assert np.array_equal(lp.c, np.concatenate([np.zeros(9), [1.0]]))
    a = lp.a_ub.toarray()
    assert a[0, 0] == -1.0 and a[0, 9] == -1.0
    assert a[9, 0] == 1.0 and a[9, 9] == -1.0


def _noisy_fixture(seed=101, n=4, eps=0.8):
    rng = np.random.default_rng(9)
    p = build_partition(float(n), n)
    bodies = [lattice_body(rng, float(n)) for _ in range(25)]
    raw = build(bodies, p)
    params = PrivacyParams.for_partition(eps, 1.0, p)
    return raw, perturb(raw, params, RandomSource(seed))


def test_infer_restores_consistency_and_never_overshoots():
    raw, noisy = _noisy_fixture()
    cs = build_constraints(raw.partition)
    consistent, report = infer(noisy, cs)
    assert consistent.state is HistogramState.CONSISTENT
    assert cs.violation_counts(consistent.counts) == (0, 0, 0)
    assert consistent.counts.min() >= 0.0
    # raw counts are feasible, so the optimum is at most the noise L1
    moved = np.abs(consistent.counts - noisy.counts).sum()
    noise_l1 = np.abs(raw.counts - noisy.counts).sum()
    assert moved <= noise_l1 + 1e-6
    assert report.objective == pytest.approx(moved, abs=1e-6)
    assert consistent.epsilon == noisy.epsilon
    assert consistent.diameter_bound == noisy.diameter_bound


def test_infer_linf_objective():
    raw, noisy = _noisy_fixture()
    cs = build_constraints(raw.partition)
    consistent, report = infer(noisy, cs, objective="linf")
    assert cs.violation_counts(consistent.counts) == (0, 0, 0)
    moved = np.abs(consistent.counts - noisy.counts).max()
    noise_max = np.abs(raw.counts - noisy.counts).max()
    assert moved <= noise_max + 1e-6
    assert report.objective == pytest.approx(moved, abs=1e-6)


def test_infer_state_and_objective_validation():
    raw, noisy = _noisy_fixture()
    with pytest.raises(ValueError):
        infer(raw)
    with pytest.raises(ValueError):
        infer(noisy, objective="l2")


def test_infer_refuses_to_tag_violating_counts(monkeypatch):
    _, noisy = _noisy_fixture()
    cs = build_constraints(noisy.partition)
    violating = np.zeros(noisy.partition.size)
    violating[cs.c1[0, 0]] = 1.0  # an edge above its two empty faces
    assert cs.violation_counts(violating)[0] > 0
    monkeypatch.setattr(inference, "_isotonic_l1", lambda h, p: (violating, 1))
    with pytest.raises(RuntimeError, match="rows still violated"):
        infer(noisy, cs)


@st.composite
def noisy_histograms(draw) -> EulerHistogram:
    """NOISY histograms at n = 2..12 whose counts come from a small pool, so
    ties and zeros are common; magnitudes run from 1e-6 to 1e6, either sign."""
    n = draw(st.integers(2, 12))
    p = build_partition(float(n), n)
    magnitude = st.floats(1e-6, 1e6)
    value = st.one_of(st.just(0.0), magnitude, magnitude, magnitude.map(lambda v: -v))
    pool = np.array(draw(st.lists(value, min_size=1, max_size=30)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return EulerHistogram(p, pool[rng.integers(0, len(pool), p.size)], HistogramState.NOISY)


_RAW = _noisy_fixture()[0]


@settings(max_examples=150, deadline=None)
@given(noisy_histograms())
@example(_RAW.with_counts(_RAW.counts, HistogramState.NOISY))  # consistent: objective 0
def test_infer_matches_the_lp_oracle(noisy):
    cs = build_constraints(noisy.partition)
    dust = 1e-9 * np.abs(noisy.counts).max()
    for objective in ("l1", "linf"):
        consistent, report = infer(noisy, cs, objective=objective)
        oracle_x, oracle = lp_oracle(noisy, cs, objective)
        assert report.objective == pytest.approx(oracle, rel=1e-9, abs=1e-12)
        x = consistent.counts
        if objective == "l1":
            # the smallest optimum lies at or below every other, HiGHS's too
            assert np.all(x <= oracle_x + dust)
        assert cs.violation_counts(x) == (0, 0, 0)
        assert x.min() >= 0.0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.data())
def test_hopcroft_karp_phases_reach_a_maximum_matching(n_up, n_down, data):
    """From an empty matching, where a phase's shortest paths compete for
    the same nodes, the phases leave a consistent matching as large as
    scipy's, and the last search's layers reach no free down-node."""
    pairs = data.draw(st.sets(st.tuples(st.integers(0, n_up - 1), st.integers(0, n_down - 1))))
    eu = np.array([u for u, _ in sorted(pairs)], dtype=np.int64)
    ed = np.array([n_up + d for _, d in sorted(pairs)], dtype=np.int64)
    size = n_up + n_down
    mate_u, mate_d = np.full(size, -1), np.full(size, -1)
    dist_u = inference._maximize(eu, ed, mate_u, mate_d, size)
    matched = np.flatnonzero(mate_u >= 0)
    assert np.array_equal(mate_d[mate_u[matched]], matched)
    assert set(zip(matched.tolist(), mate_u[matched].tolist())) <= set(zip(eu.tolist(), ed.tolist()))
    assert (mate_d >= 0).sum() == len(matched)
    graph = csr_array((np.ones(len(eu)), (eu, ed - n_up)), shape=(n_up, n_down))
    assert len(matched) == (maximum_bipartite_matching(graph, perm_type="column") >= 0).sum()
    assert np.all(mate_d[ed[dist_u[eu] >= 0]] >= 0)


def _laplace_44() -> EulerHistogram:
    p = build_partition(44.0, 44)
    rng = np.random.default_rng(44)
    counts = rng.integers(0, 30, p.size) + rng.laplace(0.0, 8.0, p.size)
    return EulerHistogram(p, counts, HistogramState.NOISY)


@settings(max_examples=200, deadline=None)
@given(noisy_histograms())
@example(_laplace_44())
def test_l1_equals_the_min_cut_oracle(noisy):
    """The matching's cut is the minimal minimum cut of every level, the one
    a maximum flow leaves reachable whichever flow it finds."""
    cs = build_constraints(noisy.partition)
    x, levels = inference._isotonic_l1(noisy.counts, noisy.partition)
    for method in ("dinic", "edmonds_karp"):
        oracle_x, oracle_levels = min_cut_oracle(noisy.counts, cs, method)
        assert x.tobytes() == oracle_x.tobytes()
        assert levels == oracle_levels


def _signed_zero_ties() -> list[EulerHistogram]:
    """Ties only the order of the pair passes settles: at n=2 a vertex at
    -0.0 under edges at 0.0 and -0.0 whose other neighbours are larger, at
    n=3 a face at -0.0 over edges at 0.0 and -0.0 whose other neighbours are
    smaller."""
    p2, p3 = build_partition(2.0, 2), build_partition(3.0, 3)
    under = np.array([1.0, 1.0, 1.0, 1.0, 0.0, -0.0, 1.0, 1.0, -0.0])
    over = np.full(p3.size, -1.0)
    over[[4, 13]] = -0.0  # face (1, 1), horizontal edge (1, 1)
    over[10] = 0.0  # horizontal edge (0, 1)
    return [EulerHistogram(p2, under, HistogramState.NOISY), EulerHistogram(p3, over, HistogramState.NOISY)]


@settings(max_examples=200, deadline=None)
@given(noisy_histograms(), st.integers(0, 2**32 - 1), st.booleans())
@example(_laplace_44(), 0, False)
@example(_signed_zero_ties()[0], 0, False)
@example(_signed_zero_ties()[1], 0, False)
def test_linf_slices_equal_the_pair_passes(noisy, seed, signed_zeros):
    """``infer``'s ``linf`` output, bit for bit, is the pair passes' regression
    clipped at 0. With ``signed_zeros`` the counts are zeros of either sign
    and one of 1 and -1, so max and min ties between 0.0 and -0.0 are
    common and must resolve as the pair passes resolve them."""
    if signed_zeros:
        rng = np.random.default_rng(seed)
        counts = rng.choice([0.0, -0.0, (1.0, -1.0)[seed % 2]], noisy.partition.size)
        noisy = noisy.with_counts(counts, HistogramState.NOISY)
    want = isotonic_linf_oracle(noisy.counts, build_constraints(noisy.partition))
    assert inference._isotonic_linf(noisy.counts, noisy.partition).tobytes() == want.tobytes()
    consistent, _ = infer(noisy, objective="linf")
    assert consistent.counts.tobytes() == np.maximum(want, 0.0).tobytes()
