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
C3) and never lowers any rectangle answer. It only closes that gap: input
that breaks C1-C3 is refused, not mended, so a ROUNDED tag never hides a
broken constraint.
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
    rect_fixes: int = 0
    cost: float = 0.0


def repair(
    h: EulerHistogram, cs: ConstraintSet | None = None
) -> tuple[EulerHistogram, RepairReport]:
    """Raise faces until every rectangle query is non-negative.

    The input must already satisfy C1-C3, as the rounding of any
    CONSISTENT histogram does; anything else raises ValueError naming the
    violation counts, and nothing is changed. Face raises keep every family
    intact, so the output satisfies C1-C3 too. The state tag is preserved;
    on integral states every adjustment is an integer.
    """
    if cs is None:
        cs = build_constraints(h.partition)
    c1, c2, c3 = verify_violations(h, cs)
    if c1 or c2 or c3:
        raise ValueError(
            f"repair needs counts that satisfy C1-C3, got violations c1={c1} c2={c2} c3={c3}"
        )
    counts = h.counts.copy()
    fixes = 0

    # Each bump zeroes the current worst rectangle and face raises can never
    # push any rectangle back down, so the rectangle count bounds the number
    # of iterations. Histograms are read-only, so each scan reads a new one
    # made from the bumped counts.
    n = h.partition.n
    face_counts = counts[: n * n].reshape(n, n)  # a view of counts
    for _ in range((n * (n + 1) // 2) ** 2 + 1):
        hist = h.with_counts(counts, h.state)
        worst, qr = min_rectangle_count(hist)
        if worst >= 0:
            break
        block = face_counts[qr.r0 : qr.r1 + 1, qr.c0 : qr.c1 + 1]
        block[np.unravel_index(np.argmin(block), block.shape)] -= worst
        fixes += 1
    else:
        raise RuntimeError("rectangle repair failed to converge")

    return hist, RepairReport(fixes, float(np.abs(counts - h.counts).sum()))
