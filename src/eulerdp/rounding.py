"""Rounding and covert repair of released histograms.

Rounding to integers hides the fact that noise was added: raw histograms are
integral, so a released table full of fractional counts would advertise the
perturbation. Round-half-up is monotone (x <= y implies round(x) <= round(y)),
which is what keeps the pairwise constraint families intact through rounding.

Rounding alone cannot guarantee that every rectangle query stays
non-negative: the constraint families bound components only locally, and a
long thin rectangle can still sum to a negative value. ``repair`` closes that
gap after rounding by raising face counts, which never breaks any constraint
family (faces appear only as upper bounds in C1 and with positive sign in
C3) and never lowers any rectangle answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .histogram import (
    EulerHistogram,
    HistogramState,
    INTEGRAL_STATES,
    min_rectangle_count,
)
from .inference import REAL_TOL, ConstraintSet, build_constraints


def round_counts(h: EulerHistogram) -> EulerHistogram:
    """Round half up, elementwise. CONSISTENT -> ROUNDED."""
    if h.state is not HistogramState.CONSISTENT:
        raise ValueError(f"round_counts expects a CONSISTENT histogram, got {h.state.value}")
    rounded = np.floor(h.counts + 0.5)
    return h.with_counts(rounded, HistogramState.ROUNDED)


def verify_violations(
    h: EulerHistogram, cs: ConstraintSet | None = None
) -> tuple[int, int, int]:
    """Count violated rows per constraint family.

    Integral states are checked exactly; real-valued states get a small
    tolerance so solver dust does not count as a violation.
    """
    if cs is None:
        cs = build_constraints(h.partition)
    tol = 0.0 if h.state in INTEGRAL_STATES else REAL_TOL
    return cs.violation_counts(h.counts, tol)


@dataclass
class RepairReport:
    c1_fixes: int = 0
    c2_fixes: int = 0
    c3_fixes: int = 0
    rect_fixes: int = 0
    cost: float = 0.0

    @property
    def total_fixes(self) -> int:
        return self.c1_fixes + self.c2_fixes + self.c3_fixes + self.rect_fixes


def repair(
    h: EulerHistogram, cs: ConstraintSet | None = None
) -> tuple[EulerHistogram, RepairReport]:
    """Restore constraints and rectangle non-negativity.

    Passes run in a fixed order chosen so that no pass re-breaks an earlier
    one: edges are clamped down to their faces, vertices down to their
    (already-clamped) edges, then faces are raised where an aggregate row or
    a rectangle still falls short. The state tag is preserved; on integral
    states every adjustment is an integer.
    """
    if cs is None:
        cs = build_constraints(h.partition)
    counts = h.counts.copy()
    before = counts.copy()
    report = RepairReport()
    tol = 0.0 if h.state in INTEGRAL_STATES else REAL_TOL

    # C1: edge <= min(incident faces). c1 rows come in pairs per edge.
    edge_idx = cs.c1[0::2, 0]
    face_pair = cs.c1[:, 1].reshape(-1, 2)
    cap = np.minimum(counts[face_pair[:, 0]], counts[face_pair[:, 1]])
    over = counts[edge_idx] > cap + tol
    report.c1_fixes = int(over.sum())
    counts[edge_idx[over]] = cap[over]

    # C2: vertex <= min(incident edges), against clamped edges.
    vert_idx = cs.c2[0::4, 0]
    edge_quad = cs.c2[:, 1].reshape(-1, 4)
    cap = counts[edge_quad].min(axis=1)
    over = counts[vert_idx] > cap + tol
    report.c2_fixes = int(over.sum())
    counts[vert_idx[over]] = cap[over]

    # C3 cannot be violated once C1 holds and counts are non-negative, but
    # repair accepts arbitrary inputs, so close any remaining deficit by
    # raising the smallest incident face. Face raises loosen every family.
    deficit = cs.c3_excess(counts)
    for k in np.nonzero(deficit > tol)[0]:
        faces = cs.c3[k, 1:5]
        counts[faces[np.argmin(counts[faces])]] += deficit[k]
        report.c3_fixes += 1

    hist = h.with_counts(counts, h.state)
    # Each bump zeroes the current worst rectangle and face raises can never
    # push any rectangle back down, so the rectangle count bounds the number
    # of iterations.
    n = h.partition.n
    for _ in range((n * (n + 1) // 2) ** 2 + 1):
        worst, qr = min_rectangle_count(hist)
        if worst >= 0:
            break
        block = hist.faces[qr.r0 : qr.r1 + 1, qr.c0 : qr.c1 + 1]  # a view of hist.counts
        block[np.unravel_index(np.argmin(block), block.shape)] -= worst
        report.rect_fixes += 1
    else:
        raise RuntimeError("rectangle repair failed to converge")

    report.cost = float(np.abs(hist.counts - before).sum())
    return hist, report
