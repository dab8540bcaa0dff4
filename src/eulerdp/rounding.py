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
that breaks C1, C2 or x >= 0 is refused, not mended, by rounding and repair
alike, so a ROUNDED tag never hides a broken constraint, nor comes from a
CONSISTENT tag that did not hold. C3 is implied by C1 and x >= 0 and not checked;
the checks left are exact comparisons, which round-half-up preserves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .histogram import EulerHistogram, HistogramState, min_rectangle_count
from .inference import ConstraintSet, build_constraints


def round_counts(h: EulerHistogram, cs: ConstraintSet | None = None) -> EulerHistogram:
    """Round half up, elementwise. CONSISTENT -> ROUNDED.

    The input must satisfy C1, C2 and x >= 0, as every ``infer`` output
    does, so a CONSISTENT tag that does not hold is refused even where
    rounding would hide the violation; the ValueError names the counts.
    """
    if h.state is not HistogramState.CONSISTENT:
        raise ValueError(f"round_counts expects a CONSISTENT histogram, got {h.state.value}")
    _require_constraints("round_counts", h, cs)
    rounded = np.floor(h.counts + 0.5)
    return h.with_counts(rounded, HistogramState.ROUNDED)


def verify_violations(
    h: EulerHistogram, cs: ConstraintSet | None = None
) -> tuple[int, int, int]:
    """Violated C1 rows, violated C2 rows and negative components, exactly."""
    return (cs or build_constraints(h.partition)).violation_counts(h.counts)


def _require_constraints(stage: str, h: EulerHistogram, cs: ConstraintSet | None) -> None:
    """ValueError naming the violation counts unless ``h`` satisfies C1, C2
    and x >= 0."""
    c1, c2, negative = verify_violations(h, cs)
    if c1 or c2 or negative:
        raise ValueError(
            f"{stage} needs counts that satisfy C1, C2 and x >= 0, "
            f"got violations c1={c1} c2={c2} negative={negative}"
        )


@dataclass
class RepairReport:
    rect_fixes: int = 0
    cost: float = 0.0


def repair(
    h: EulerHistogram, cs: ConstraintSet | None = None
) -> tuple[EulerHistogram, RepairReport]:
    """Raise faces until every rectangle query is non-negative.

    The input must already satisfy C1, C2 and x >= 0, as every
    ``round_counts`` output does; anything else raises ValueError naming
    the violation counts, and nothing is changed. Face raises keep every
    family intact, so the output satisfies them too. The state tag is
    preserved; on integral states every adjustment is an integer.
    """
    _require_constraints("repair", h, cs)
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
