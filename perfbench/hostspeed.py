"""The host's speed, read off fixed reference kernels timed around units.

On a shared cloud host a vCPU flips between a fast and a slow level, about
1.3x to 1.7x apart depending on the code, in spells from tens of
milliseconds to minutes, and the share of time spent at each level drifts
between runs minutes apart. Steal time stays near zero, so CPU time moves
with wall time, and longer runs do not help: medians snap between the
levels as the share drifts. What does: time a fixed kernel just before and
just after every unit the benchmark times (a verify, a block of ``query``
calls, each stage of a release or step of a set-up), and express the unit's
time in reference seconds, i.e. scaled by (the kernel's nominal time) /
(the mean of those two probes). A reported time then reads as seconds on a
host where the kernel takes exactly its nominal time.

Code of different kinds slows by different amounts between the levels, so
there are three kernels, and each unit is scaled by the kernels that
tracked it best:

* ``interp``: a plain interpreter loop.
* ``calls``: numpy reductions over small slices, dominated by call
  overhead, as ``query`` is. Blocks of ``query`` calls are scaled by it.
* ``bulk``: a 4-d broadcast over arrays the size of the workload's
  all-rectangle scans, which is what ``eulerdp verify`` spends its time on.
  Verifies are scaled by it.

Set-up steps and release stages (``generate_synthetic``, ``build``,
``infer``, ``eulerdp ingest``, ...) mix interpreted code, numpy calls and
compiled solvers; they are scaled by the geometric mean of the ``interp``
and ``calls`` scales.

The kernels live here, not in eulerdp, so a change to the program moves a
unit's time and never the scale; the unscaled seconds are printed beside
the scaled ones.
"""

from __future__ import annotations

import math
import time

import numpy as np

KINDS = ("interp", "calls", "bulk")
INTERP_LOOPS = 30_000
INTERP_REF_S = 0.0025
CALLS_SLICES = 150
CALLS_REF_S = 0.0004
# Nominal seconds per cell of the bulk kernel's 4-d array.
BULK_REF_S_PER_CELL = 4e-9


class Meter:
    """The reference kernels for one grid size, and every probe of one run."""

    def __init__(self, n: int) -> None:
        rng = np.random.default_rng(0)
        self._small = rng.random((41, 41))
        self._slices = [(int(a), int(a) + 5, int(b), int(b) + 7) for a, b in rng.integers(0, 30, (CALLS_SLICES, 2))]
        self._x = rng.random((n + 1, n + 1))
        self._y = rng.random((n + 1, n + 1))
        self.ref_s = {"interp": INTERP_REF_S, "calls": CALLS_REF_S, "bulk": BULK_REF_S_PER_CELL * (n + 1) ** 4}
        self.probes: dict[str, list[float]] = {kind: [] for kind in KINDS}

    def _interp(self) -> int:
        acc = 0
        for i in range(INTERP_LOOPS):
            acc += i * i % 7
        return acc

    def _calls(self) -> float:
        total, a = 0.0, self._small
        for r0, r1, c0, c1 in self._slices:
            total += float(a[r0:r1, c0:c1].sum())
        return total

    def _bulk(self) -> float:
        x, y = self._x, self._y
        cells = x[:, None, :, None] - y[None, :, None, :]
        cells -= x[None, :, None, :]
        return float(cells.min())

    def probe(self, kind: str) -> float:
        """Seconds one run of the ``kind`` kernel takes now."""
        kernel = getattr(self, "_" + kind)
        t0 = time.perf_counter()
        kernel()
        d = time.perf_counter() - t0
        self.probes[kind].append(d)
        return d

    def scale(self, kind: str, before: float, after: float) -> float:
        """Scale for a unit timed between two probes of ``kind``."""
        return 2.0 * self.ref_s[kind] / (before + after)


class Lap:
    """Times one unit made of parts, each part scaled by the probes of
    ``kinds`` just before and just after it (by the geometric mean of their
    scales when there are several): ``lap(fn, *args)`` runs one part. A unit
    of several parts (a release's stages, the two commands of a CLI release)
    is thus scaled part by part, each by the level it ran at.
    """

    def __init__(self, meter: Meter, *kinds: str) -> None:
        self.meter, self.kinds = meter, kinds
        self.seconds = 0.0
        self.scaled = 0.0
        self._before = self._probe()

    def _probe(self) -> list[float]:
        return [self.meter.probe(kind) for kind in self.kinds]

    def __call__(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        d = time.perf_counter() - t0
        after = self._probe()
        scales = [self.meter.scale(k, b, a) for k, b, a in zip(self.kinds, self._before, after)]
        self.seconds += d
        self.scaled += d * math.prod(scales) ** (1.0 / len(scales))
        self._before = after
        return result
