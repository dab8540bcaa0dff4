"""Independent checks of released histograms and rectangle answers.

The checks are written against the published count layout (faces, then
horizontal edges, vertical edges and vertices, each section row-major) and
use none of eulerdp's own constraint rows, rectangle scan or query code, so a
defect in those cannot hide itself. Nothing here is timed, and a failed check
is counted, never raised.
"""

from __future__ import annotations

import traceback

import numpy as np


def sections(counts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Faces (n, n), horizontal edges (n-1, n), vertical edges (n, n-1) and
    vertices (n-1, n-1) of a dense count vector."""
    c = np.asarray(counts, dtype=np.float64)
    if c.shape != ((2 * n - 1) ** 2,):
        raise ValueError(f"expected {(2 * n - 1) ** 2} counts for n={n}, got {c.shape}")
    o1, o2, o3 = n * n, n * n + (n - 1) * n, n * n + 2 * (n - 1) * n
    return (
        c[:o1].reshape(n, n),
        c[o1:o2].reshape(n - 1, n),
        c[o2:o3].reshape(n, n - 1),
        c[o3:].reshape(n - 1, n - 1),
    )


def constraint_violations(counts: np.ndarray, n: int) -> tuple[int, int, int]:
    """Violated rows of C1 (edge <= each incident face), C2 (vertex <= each
    incident edge) and C3 (faces - edges + vertex >= 0 around each vertex)."""
    f, h, v, x = sections(counts, n)
    c1 = (h > f[:-1]).sum() + (h > f[1:]).sum() + (v > f[:, :-1]).sum() + (v > f[:, 1:]).sum()
    around = (h[:, :-1], h[:, 1:], v[:-1, :], v[1:, :])
    c2 = sum(int((x > e).sum()) for e in around)
    faces = f[:-1, :-1] + f[:-1, 1:] + f[1:, :-1] + f[1:, 1:]
    c3 = (faces - sum(around) + x < 0).sum()
    return int(c1), int(c2), int(c3)


def _row_prefix(a: np.ndarray) -> np.ndarray:
    return np.vstack([np.zeros((1, a.shape[1])), np.cumsum(a, axis=0)])


def min_rectangle(counts: np.ndarray, n: int) -> tuple[float, tuple[int, int, int, int]]:
    """Smallest Euler count over every rectangle (r0, r1, c0, c1), inclusive.

    O(n^3) time and memory. For a row band r0..r1 the count of columns
    c0..c1 is U[c1] - W[c0], with U and W prefix sums over columns of the
    band's faces minus interior horizontal edges, and of its interior
    vertical edges minus interior vertices. The band minimum is therefore
    min over c1 of U[c1] - max(W[:c1 + 1]), the maximum-subarray idea.
    """
    f, h, v, x = sections(counts, n)
    F, H, V, X = (_row_prefix(a) for a in (f, h, v, x))
    r = np.arange(n)
    # (r0, r1, column) band sums; faces and vertical edges cover rows r0..r1,
    # horizontal edges and vertices the interior rows r0..r1-1.
    per_col = (F[r + 1][None] - F[r][:, None]) - (H[r][None] - H[r][:, None])
    per_gap = (V[r + 1][None] - V[r][:, None]) - (X[r][None] - X[r][:, None])
    zeros = np.zeros((n, n, 1))
    A = np.concatenate([zeros, np.cumsum(per_col, axis=2)], axis=2)
    B = np.concatenate([zeros, np.cumsum(per_gap, axis=2)], axis=2)
    U = A[:, :, 1:] - B
    W = A[:, :, :-1] - B
    best = U - np.maximum.accumulate(W, axis=2)
    best[r[:, None] > r[None, :]] = np.inf
    r0, r1, c1 = np.unravel_index(int(np.argmin(best)), best.shape)
    c0 = int(np.argmax(W[r0, r1, : c1 + 1]))
    return float(best[r0, r1, c1]), (int(r0), int(r1), c0, int(c1))


def rectangle_counts(
    counts: np.ndarray, n: int, r0: np.ndarray, r1: np.ndarray, c0: np.ndarray, c1: np.ndarray
) -> np.ndarray:
    """Euler counts of many inclusive rectangles from 2-d prefix sums."""
    out = np.zeros(len(r0))
    for section, sign, dr, dc in zip(sections(counts, n), (1, -1, -1, 1), (0, 1, 0, 1), (0, 0, 1, 1)):
        p = np.zeros((section.shape[0] + 1, section.shape[1] + 1))
        p[1:, 1:] = section.cumsum(axis=0).cumsum(axis=1)
        # interior components span rows r0..r1-dr and columns c0..c1-dc
        lo_r, hi_r, lo_c, hi_c = r0, r1 + 1 - dr, c0, c1 + 1 - dc
        out += sign * (p[hi_r, hi_c] - p[lo_r, hi_c] - p[hi_r, lo_c] + p[lo_r, lo_c])
    return out


def release_problems(state: str, counts: np.ndarray, n: int) -> list[str]:
    """Everything wrong with a release; empty when it is publishable."""
    problems = []
    if state != "rounded":
        problems.append(f"state is {state!r}, not 'rounded'")
    c = np.asarray(counts, dtype=np.float64)
    if not np.all(np.isfinite(c)) or not np.array_equal(c, np.floor(c)):
        problems.append("counts are not integral")
    c1, c2, c3 = constraint_violations(c, n)
    if (c1, c2, c3) != (0, 0, 0):
        problems.append(f"constraint violations c1={c1} c2={c2} c3={c3}")
    worst, where = min_rectangle(c, n)
    if worst < 0:
        problems.append(f"rectangle {where} counts {worst:g}")
    return problems


class Tally:
    """Operations attempted and failed; keeps the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, problems: list[str], attempted: int = 1) -> None:
        """Count ``attempted`` operations, of which one per problem failed
        (all of them, at most)."""
        self.attempted += attempted
        self.failed += min(len(problems), attempted)
        if problems and len(self.reasons) < 20:
            self.reasons.append(f"{what}: {'; '.join(problems[:3])}")

    def guard(self, what: str, fn, *args, **kwargs):
        """Run ``fn``; an exception counts one failed operation and returns None."""
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.record(what, [traceback.format_exc(limit=3).strip().replace("\n", " | ")])
            return None

    @property
    def ratio(self) -> float:
        return self.failed / max(self.attempted, 1)
