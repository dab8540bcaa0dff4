"""Constraint extraction and the inference linear programs."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from conftest import box_contains, box_dimension, grid_components, lattice_body
from eulerdp import (
    EulerHistogram,
    HistogramState,
    PrivacyParams,
    RandomSource,
    SolveReport,
    build,
    build_constraints,
    build_lad_program,
    build_linf_program,
    build_partition,
    infer,
    perturb,
    solve,
    write_lp_text,
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
    assert sorted(cs.c1_excess(counts).tolist()).count(1.0) == 2

    counts = np.array([1, 1, 1, 1, 0, 0, 0, 0, 1], dtype=np.float64)
    assert cs.violation_counts(counts) == (0, 4, 0)

    counts = np.array([1, 1, 1, 1, 2, 2, 2, 2, 0], dtype=np.float64)
    assert cs.c3_excess(counts).tolist() == [4.0]  # 8 edge mass - 4 face mass - 0
    c1, c2, c3 = cs.violation_counts(counts)
    assert (c1, c3) == (8, 1)

    # raw histograms are consistent by construction
    raw = np.array([2, 1, 1, 2, 1, 1, 1, 1, 1], dtype=np.float64)
    assert cs.violation_counts(raw) == (0, 0, 0)
    assert cs.violation_counts(raw, tol=1e-7) == (0, 0, 0)


def _lp_rows(text: str) -> list[tuple[str, str]]:
    """(row label, left-hand side) pairs of the Subject To section."""
    lines = text.splitlines()
    body = lines[lines.index("Subject To") + 1 : lines.index("Bounds")]
    return [
        (label.strip(), lhs.strip())
        for label, lhs in (line.split(" <= ")[0].split(":") for line in body)
    ]


def test_lad_program_shape_and_labels():
    p = build_partition(2.0, 2)
    cs = build_constraints(p)
    h = EulerHistogram(p, np.arange(9, dtype=np.float64), HistogramState.NOISY)
    lp = build_lad_program(h, cs)
    assert lp.kind == "l1"
    assert len(lp.c) == 18 and lp.n_rows == 31  # 2N residual rows + 8 + 4 + 1
    rows = _lp_rows(write_lp_text(lp))
    assert len(rows) == lp.n_rows
    assert rows[0] == ("lo_f0_0", "- x_f0_0 - r_f0_0")
    assert rows[9] == ("hi_f0_0", "x_f0_0 - r_f0_0")
    assert rows[18][0] == "c1_he0_0_f0_0"
    assert rows[-1][0] == "c3_x0_0"
    assert np.array_equal(lp.b_ub[:9], -h.counts)
    assert np.array_equal(lp.b_ub[9:18], h.counts)
    assert np.array_equal(lp.b_ub[18:], np.zeros(13))
    assert np.array_equal(lp.c, np.concatenate([np.zeros(9), np.ones(9)]))


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
    text = write_lp_text(lp)
    assert " obj: r_max" in text.splitlines()
    assert _lp_rows(text)[0] == ("lo_f0_0", "- x_f0_0 - r_max")
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


def test_solve_consistent_input_has_zero_objective():
    raw, _ = _noisy_fixture()
    cs = build_constraints(raw.partition)
    pretend_noisy = raw.with_counts(raw.counts, HistogramState.NOISY)
    for builder in (build_lad_program, build_linf_program):
        counts, report = solve(builder(pretend_noisy, cs))
        assert report.status == "optimal"
        assert report.objective == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(counts, raw.counts, atol=1e-9)


def test_infer_restores_consistency_and_never_overshoots():
    raw, noisy = _noisy_fixture()
    cs = build_constraints(raw.partition)
    consistent, report = infer(noisy, cs)
    assert consistent.state is HistogramState.CONSISTENT
    assert report.status == "optimal"
    assert cs.violation_counts(consistent.counts, tol=1e-7) == (0, 0, 0)
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
    assert cs.violation_counts(consistent.counts, tol=1e-7) == (0, 0, 0)
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


def test_infer_dump_writes_program(tmp_path):
    _, noisy = _noisy_fixture()
    path = tmp_path / "program.lp"
    infer(noisy, dump_path=str(path))
    text = path.read_text()
    assert text.startswith("\\ kind=l1")
    for marker in ("Minimize", "Subject To", "Bounds", "End"):
        assert marker in text


def test_write_lp_text_deterministic():
    _, noisy = _noisy_fixture()
    cs = build_constraints(noisy.partition)
    lp = build_lad_program(noisy, cs)
    first, second = write_lp_text(lp), write_lp_text(lp)
    assert first == second
    assert "c3_x0_0:" in first


# sha256 of write_lp_text on _golden_histogram(): a change here changes the
# program every solve sees, not only its text.
LP_TEXT_SHA256 = {
    "l1": "e630d52f7ec5c76ab5f89faed51089360df9d9fa58115295320c34dca7718bf7",
    "linf": "73bfcaf3f8be7eb7a3132728540e92847a99336396054f06162b73e9c1240bcf",
}


def _golden_histogram() -> EulerHistogram:
    p = build_partition(3.0, 3)
    counts = 10.0 * RandomSource(2016).uniforms_at(0, p.size)
    return EulerHistogram(p, counts, HistogramState.NOISY)


@pytest.mark.parametrize("objective", ["l1", "linf"])
def test_write_lp_text_golden(objective):
    h = _golden_histogram()
    builder = build_lad_program if objective == "l1" else build_linf_program
    text = write_lp_text(builder(h, build_constraints(h.partition)))
    assert hashlib.sha256(text.encode()).hexdigest() == LP_TEXT_SHA256[objective]


def test_write_lp_text_names_follow_dense_order_n12():
    # two-digit row and column indices; the golden above only reaches 2
    p = build_partition(12.0, 12)
    comps = grid_components(p)
    labels = [label for label, _ in comps]
    vertices = [label for label, box in comps if box_dimension(box) == 0]
    cs = build_constraints(p)
    h = EulerHistogram(p, np.zeros(p.size), HistogramState.NOISY)
    text = write_lp_text(build_lad_program(h, cs))
    lines = text.splitlines()
    objective = " ".join(lines[lines.index("Minimize") + 1 : lines.index("Subject To")])
    assert [t.strip() for t in objective.replace("obj:", "").split("+")] == [
        f"r_{lab}" for lab in labels
    ]
    rows = _lp_rows(text)
    size = p.size
    assert rows[:size] == [(f"lo_{lab}", f"- x_{lab} - r_{lab}") for lab in labels]
    assert rows[size : 2 * size] == [(f"hi_{lab}", f"x_{lab} - r_{lab}") for lab in labels]
    names = [name for name, _ in rows[2 * size :]]
    c1, c2 = len(cs.c1), len(cs.c2)
    assert names[:c1] == [f"c1_{labels[e]}_{labels[f]}" for e, f in cs.c1.tolist()]
    assert names[c1 : c1 + c2] == [f"c2_{labels[v]}_{labels[e]}" for v, e in cs.c2.tolist()]
    assert names[c1 + c2 :] == [f"c3_{lab}" for lab in vertices]


@pytest.mark.parametrize("objective", ["l1", "linf"])
def test_write_lp_text_numbers_are_plain_floats(objective):
    h = _golden_histogram()
    builder = build_lad_program if objective == "l1" else build_linf_program
    text = write_lp_text(builder(h, build_constraints(h.partition)))
    assert "np." not in text
    lines = text.splitlines()
    rows = lines[lines.index("Subject To") + 1 : lines.index("Bounds")]
    assert rows
    for line in rows:
        float(line.rsplit(" <= ", 1)[1])


def test_infer_refuses_to_tag_violating_counts(monkeypatch):
    _, noisy = _noisy_fixture()
    cs = build_constraints(noisy.partition)
    violating = np.zeros(noisy.partition.size)
    violating[cs.c1[0, 0]] = 1.0  # an edge above its two empty faces
    assert cs.violation_counts(violating)[0] > 0
    stopped = SolveReport("iteration-limit", 1.0, 1, 0.0)
    monkeypatch.setattr(inference, "solve", lambda lp: (violating, stopped))
    with pytest.raises(RuntimeError, match="iteration-limit"):
        infer(noisy, cs)
