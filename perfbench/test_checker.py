"""Tests of the benchmark's own output checker.

    python3 -m pytest perfbench/test_checker.py
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checker  # noqa: E402
from workloads import Record, check_release  # noqa: E402


def brute_counts(counts: np.ndarray, n: int) -> dict[tuple[int, int, int, int], float]:
    """Every rectangle's Euler count by direct summation over its components."""
    f, h, v, x = checker.sections(counts, n)
    out = {}
    for r0, r1, c0, c1 in itertools.product(range(n), repeat=4):
        if r0 <= r1 and c0 <= c1:
            out[r0, r1, c0, c1] = (
                f[r0 : r1 + 1, c0 : c1 + 1].sum()
                - h[r0:r1, c0 : c1 + 1].sum()
                - v[r0 : r1 + 1, c0:c1].sum()
                + x[r0:r1, c0:c1].sum()
            )
    return out


# Satisfies C1-C3 at every vertex, yet the whole 3x3 grid counts 8 - 4 - 5 = -1:
# the local rows do not bound long rectangles, which is why releases need the scan.
LOCALLY_CONSISTENT_NEGATIVE = np.array(
    [1, 1, 1, 0, 1, 1, 1, 1, 1]  # faces
    + [0, 1, 1, 0, 1, 1]  # horizontal edges
    + [1, 1, 0, 1, 1, 1]  # vertical edges
    + [0, 0, 0, 0],  # vertices
    dtype=np.float64,
)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_scan_and_prefix_answers_match_brute_force(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        counts = rng.integers(-3, 6, (2 * n - 1) ** 2).astype(np.float64)
        brute = brute_counts(counts, n)
        worst, where = checker.min_rectangle(counts, n)
        assert worst == min(brute.values())
        assert brute[where] == worst
        keys = np.array(list(brute))
        got = checker.rectangle_counts(counts, n, *keys.T)
        assert np.array_equal(got, np.array(list(brute.values())))


def valid_release(n: int = 6) -> np.ndarray:
    """Faces, edges clamped to their faces, vertices to their edges: every
    row holds and every rectangle is non-negative."""
    f = np.random.default_rng(0).integers(2, 9, (n, n)).astype(np.float64)
    h = np.minimum(f[:-1], f[1:])
    v = np.minimum(f[:, :-1], f[:, 1:])
    x = np.minimum.reduce([h[:, :-1], h[:, 1:], v[:-1], v[1:]])
    return np.concatenate([f.ravel(), h.ravel(), v.ravel(), x.ravel()])


def test_valid_release_passes():
    assert checker.release_problems("rounded", valid_release(), 6) == []


def test_locally_consistent_negative_rectangle_is_caught():
    assert checker.constraint_violations(LOCALLY_CONSISTENT_NEGATIVE, 3) == (0, 0, 0)
    assert checker.min_rectangle(LOCALLY_CONSISTENT_NEGATIVE, 3) == (-1.0, (0, 2, 0, 2))
    problems = checker.release_problems("rounded", LOCALLY_CONSISTENT_NEGATIVE, 3)
    assert problems == ["rectangle (0, 2, 0, 2) counts -1"]


def test_broken_c1_row_is_caught():
    counts = valid_release()
    f, h, _, _ = checker.sections(counts, 6)
    counts[36 + 7] = max(f[1, 1], f[2, 1]) + 1  # horizontal edge (1, 1)
    assert checker.constraint_violations(counts, 6)[0] == 2


def test_state_and_integrality_are_checked():
    counts = valid_release()
    counts[0] += 0.5
    problems = checker.release_problems("consistent", counts, 6)
    assert problems[:2] == ["state is 'consistent', not 'rounded'", "counts are not integral"]


class FakeRelease:
    def __init__(self, counts, n, state="rounded"):
        self.counts = counts
        self.state = type("State", (), {"value": state})
        self.partition = type("Partition", (), {"n": n})


def test_corrupted_releases_count_as_failed_without_aborting():
    rec = Record()
    broken_c1 = valid_release()
    broken_c1[36 + 7] += 100
    for counts, n in [(valid_release(), 6), (LOCALLY_CONSISTENT_NEGATIVE, 3), (broken_c1, 6)]:
        check_release(rec, FakeRelease(counts, n))
    assert (rec.tally.attempted, rec.tally.failed) == (3, 2)
    assert rec.tally.ratio == pytest.approx(2 / 3)


def test_exception_counts_one_failed_operation():
    tally = checker.Tally()
    assert tally.guard("boom", lambda: 1 / 0) is None
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "ZeroDivisionError" in tally.reasons[0]
