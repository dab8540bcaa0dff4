"""Laplace perturbation of histograms and the sensitivity that calibrates it.

Changing one body in the input can change at most the components that a
single body of diameter at most B can touch. A body spans at most
``m = ceil(B/d) + 1`` cells per axis, so it meets at most ``m^2`` faces,
``2m(m-1)`` edges and ``(m-1)^2`` vertices, i.e. ``4m(m-1) + 1`` components
in total. Laplace noise with scale ``sensitivity / epsilon`` on every
component then provides epsilon-differential privacy for the whole histogram,
and post-processing (inference, rounding) cannot weaken it.

:class:`PrivacyParams` holds only epsilon and B, and is immutable. The noise
scale also needs d, so ``perturb`` derives it from the histogram's own grid:
the scale it draws with is always the one epsilon, B and that d give.

Noise draws come from a counter-based stream: draw ``i`` is a pure function of
``(seed, i)``, so perturbation is reproducible, order-independent, and safe to
parallelize. Uniforms are produced by hashing the counter with the SplitMix64
finalizer and mapped through the inverse Laplace CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import GridPartition, require_finite_positive
from .histogram import EulerHistogram, HistogramState

_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def derive_seed(master: int, index: int) -> int:
    """Stable child seed for stream ``index`` under ``master``."""
    # plain-int modular arithmetic; numpy warns on uint64 scalar wraparound
    base = (master ^ 0x5851F42D4C957F2D) & _MASK
    z = (base + (index + 1) * 0x9E3779B97F4A7C15) & _MASK
    return int(_mix64(np.atleast_1d(np.uint64(z)))[0])


def laplace_inverse_cdf(u: np.ndarray | float, lam: float) -> np.ndarray | float:
    """Map uniform u in (0, 1) to a Laplace(0, lam) variate.

    Centered form: with t = u - 1/2, the variate is -lam * sign(t) *
    log(1 - 2|t|). log1p keeps precision near t = 0.
    """
    t = np.asarray(u, dtype=np.float64) - 0.5
    out = -lam * np.sign(t) * np.log1p(-2.0 * np.abs(t))
    return out if out.ndim else float(out)


class RandomSource:
    """Deterministic counter-based noise stream for one seed.

    ``uniforms_at`` / ``laplace_at`` address draws by absolute counter, which
    is what perturbation uses (counter = component dense index). A seed is
    an integer in [0, 2**64); anything else raises ValueError rather than
    wrapping onto another seed's stream (1.5, -1 and 2**64 would draw the
    streams of 1, 2**64 - 1 and 0).
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)) or not 0 <= seed <= _MASK:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
        self.seed = int(seed)
        self._base = np.uint64(self.seed)

    def uniforms_at(self, start: int, count: int) -> np.ndarray:
        idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        h = _mix64(self._base + idx * _GOLDEN)
        # 52-bit mantissa keeps k + 0.5 exact, so u stays strictly inside (0, 1).
        return ((h >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52

    def laplace_at(self, lam: float, start: int, count: int) -> np.ndarray:
        if lam < 0:
            raise ValueError("Laplace scale must be non-negative")
        return laplace_inverse_cdf(self.uniforms_at(start, count), lam)


def _snapped_ceil(ratio: float) -> int:
    # Ratios that are integers up to float dust (e.g. 2 / (20/30)) must not
    # jump to the next integer.
    nearest = round(ratio)
    if abs(ratio - nearest) <= 1e-9 * max(1.0, abs(ratio)):
        return int(nearest)
    return int(math.ceil(ratio))


def global_sensitivity(diameter_bound: float, cell_side: float) -> int:
    """Largest L1 change of the histogram when one body changes.

    Exact component-count form ``4m(m-1) + 1`` with ``m = ceil(B/d) + 1``.
    """
    require_finite_positive(diameter_bound=diameter_bound, cell_side=cell_side)
    m = _snapped_ceil(diameter_bound / cell_side) + 1
    return 4 * m * (m - 1) + 1


def sensitivity_closed_form(diameter_bound: float, cell_side: float) -> float:
    """Closed-form upper bound 4.5 * (ceil(B/d) + 1) * ceil(B/d); always at
    least the exact value."""
    require_finite_positive(diameter_bound=diameter_bound, cell_side=cell_side)
    c = _snapped_ceil(diameter_bound / cell_side)
    return 4.5 * (c + 1) * c


@dataclass(frozen=True)
class PrivacyParams:
    """Immutable epsilon and diameter bound B; the noise scale derives from
    them and the cell side of the grid being perturbed."""

    epsilon: float
    diameter_bound: float

    def __post_init__(self) -> None:
        require_finite_positive(epsilon=self.epsilon, diameter_bound=self.diameter_bound)

    def noise_scale(self, cell_side: float) -> float:
        """Laplace scale ``global_sensitivity(B, cell_side) / epsilon``."""
        lam = global_sensitivity(self.diameter_bound, cell_side) / self.epsilon
        if not math.isfinite(lam):
            raise ValueError(f"epsilon {self.epsilon} is too small: the noise scale overflows")
        return lam

    @classmethod
    def for_partition(cls, epsilon: float, diameter_bound: float, p: GridPartition) -> PrivacyParams:
        """Params for histograms on ``p``, refused now if their noise scale there overflows."""
        params = cls(epsilon, diameter_bound)
        params.noise_scale(p.cell_side)
        return params


def perturb(h: EulerHistogram, params: PrivacyParams, rng) -> EulerHistogram:
    """Add Laplace(lam) noise to every count, then truncate negatives to zero.

    Pure in (histogram, params, seed): draw ``i`` is keyed by component dense
    index ``i``, independent of call order. The input histogram is not
    modified.

    The noise is calibrated to ``params.diameter_bound`` and the
    histogram's cell side, so ``build`` must have checked every body against
    that bound or a smaller one: a histogram that records no bound or a
    larger one raises ValueError, as does an epsilon whose noise scale
    overflows.
    """
    if h.state is not HistogramState.RAW:
        raise ValueError(f"perturb expects a RAW histogram, got {h.state.value}")
    if h.diameter_bound is None:
        raise ValueError(
            f"the raw histogram records no diameter bound, so the bound {params.diameter_bound} "
            "was never checked against its bodies: build it with diameter_bound"
        )
    if params.diameter_bound < h.diameter_bound:
        raise ValueError(
            f"diameter bound {params.diameter_bound} is below the diameter bound "
            f"{h.diameter_bound} the raw histogram's bodies were checked against"
        )
    lam = params.noise_scale(h.partition.cell_side)
    noise = rng.laplace_at(lam, 0, h.counts.size)
    noisy = np.maximum(h.counts + noise, 0.0)
    return replace(
        h,
        counts=noisy,
        state=HistogramState.NOISY,
        epsilon=params.epsilon,
        diameter_bound=params.diameter_bound,
    )


def utility_bound_dp(delta: float, lam: float, component_count: int) -> float:
    """Sup-norm error bound of the noisy histogram that holds with
    probability at least 1 - delta: lam * ln(component_count / delta)."""
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    if component_count < 1:
        raise ValueError("component count must be positive")
    return lam * math.log(component_count / delta)


def utility_bound_end_to_end(
    delta: float, epsilon: float, diameter_bound: float, cell_side: float, area_side: float
) -> float:
    """Sup-norm error bound of the full release (noise + inference + rounding)
    holding with probability at least 1 - delta, in closed form over the
    grid parameters."""
    require_finite_positive(epsilon=epsilon)
    components = 4.0 * area_side**2 / cell_side**2 - 4.0 * area_side / cell_side + 1.0
    lam = 2 * sensitivity_closed_form(diameter_bound, cell_side) / epsilon
    return utility_bound_dp(delta, lam, components) + 0.5
