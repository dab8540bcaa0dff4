"""The workloads: what each sets up, what one loop iteration does, and
how its outputs are checked.

Every workload is a closed loop with one caller in one process. Inputs come
from the workload seed alone: bodies from ``default_rng([seed, 0])``, queries
from ``default_rng([seed, 1])``, tracks from ``default_rng([seed, 2])``, and
the noise of release ``i`` from ``derive_seed(seed, i)``. The library is driven
only through its public calls and ``cli.main``.
"""

from __future__ import annotations

import hashlib
import io
import os
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from eulerdp import (
    IngestConfig,
    PrivacyParams,
    QueryRegion,
    RandomSource,
    build,
    build_constraints,
    build_partition,
    cli,
    derive_seed,
    fileio,
    generate_synthetic,
    infer,
    perturb,
    query,
    repair,
    round_counts,
)

import checker
from hostspeed import Lap, Meter

EPSILON = 1.0
K_NEIGHBOURS = 20
# Calls between two host-speed probes in a query pass: a few milliseconds,
# shorter than the host's speed levels last.
QUERY_BLOCK = 200
# A verify takes tens of milliseconds, a release seconds: verifying a release
# a few times gives verify_s as many samples as the run's releases times this.
VERIFY_REPS = 3


@dataclass
class Record:
    """Everything a run measures, plus the check tally and the run's
    host-speed probes (see hostspeed.py)."""

    tally: checker.Tally = field(default_factory=checker.Tally)
    meter: Meter | None = None
    # (seconds, reference seconds) per unit, and whether a release was traced
    setup_s: list[tuple[float, float]] = field(default_factory=list)
    release_s: list[tuple[float, float, bool]] = field(default_factory=list)
    verify_s: list[tuple[float, float]] = field(default_factory=list)
    # one pass each: (ns per call, scale per call, traced)
    query_ns: list[tuple[np.ndarray, np.ndarray, bool]] = field(default_factory=list)
    l1_ratios: list[float] = field(default_factory=list)
    rel_errs: list[np.ndarray] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    probe: tuple | None = None  # (noisy, released) of release 0, for the allocation probe
    release_bytes: int = 0
    raw_hits: float = 0.0  # components hit, summed over bodies, in release 0's raw counts


def _sha(counts: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(counts, dtype=np.float64).tobytes()).hexdigest()


class QuerySet:
    """A fixed list of random rectangles, as library objects and as arrays."""

    def __init__(self, rng: np.random.Generator, n: int, count: int):
        rows = np.sort(rng.integers(0, n, (count, 2)), axis=1)
        cols = np.sort(rng.integers(0, n, (count, 2)), axis=1)
        self.r0, self.r1 = rows[:, 0], rows[:, 1]
        self.c0, self.c1 = cols[:, 0], cols[:, 1]
        self.n = n
        self.regions = [QueryRegion(*map(int, q)) for q in zip(self.r0, self.r1, self.c0, self.c1)]

    def truth(self, counts: np.ndarray) -> np.ndarray:
        return checker.rectangle_counts(counts, self.n, self.r0, self.r1, self.c0, self.c1)


def answer_queries(h, qs: QuerySet, t, rec: Record) -> list:
    """Every query of the set once, each call timed on its own. The host
    speed is probed before the first call and after every QUERY_BLOCK calls;
    a call's scale is that of the two ``calls`` probes around its block."""
    answers = []
    count = len(qs.regions)
    ns = np.empty(count, dtype=np.int64)
    scale = np.empty(count)
    clock = time.perf_counter_ns
    meter = rec.meter
    before = meter.probe("calls")
    for lo in range(0, count, QUERY_BLOCK):
        hi = min(lo + QUERY_BLOCK, count)
        with t.span("histogram.query_block", count=hi - lo):
            for j in range(lo, hi):
                t0 = clock()
                a = query(h, qs.regions[j])
                ns[j] = clock() - t0
                answers.append(a)
        after = meter.probe("calls")
        scale[lo:hi] = meter.scale("calls", before, after)
        before = after
    rec.query_ns.append((ns, scale, t.enabled))
    return answers


def check_answers(rec: Record, counts: np.ndarray, qs: QuerySet, answers: list) -> None:
    expect = qs.truth(counts)
    bad = [
        f"query {qs.regions[j]} answered {a!r}, expected {expect[j]:g}"
        for j, a in enumerate(answers)
        if type(a) is not int or a != expect[j] or a < 0
    ]
    rec.tally.record("query", bad, attempted=len(answers))


def note_accuracy(rec: Record, i: int, raw, noisy, released, qs: QuerySet, path: str) -> None:
    """Accuracy of one of the first releases; release 0 also gives the
    fingerprint digests, the file size and the allocation probe's inputs."""
    rec.l1_ratios.append(
        float(np.abs(released.counts - raw.counts).sum() / np.abs(noisy.counts - raw.counts).sum())
    )
    truth = qs.truth(raw.counts)
    rec.rel_errs.append(np.abs(qs.truth(released.counts) - truth) / np.maximum(truth, 1.0))
    if i == 0:
        rec.digests = {"raw_sha256": _sha(raw.counts), "release_sha256": _sha(released.counts)}
        rec.probe = (noisy, released)
        rec.release_bytes = os.path.getsize(path)
        rec.raw_hits = float(raw.counts.sum())


def run_cli(t, name: str, argv: list[str]) -> tuple[int, str]:
    """``eulerdp <argv>`` in this process, output captured; untraced when
    ``t`` is None."""
    out = io.StringIO()
    with t.span(name) if t else nullcontext(), redirect_stdout(out), redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def plain(fn, *args, **kwargs):
    """An untimed stand-in for a :class:`Lap`."""
    return fn(*args, **kwargs)


def verify_release(t, rec: Record, path: str) -> None:
    """``eulerdp verify``, which a publisher runs before publishing:
    VERIFY_REPS times, or once while tracing so that a traced unit holds one
    verify's spans. Each verify is scaled by the ``bulk`` probes around it."""
    for _ in range(1 if t.enabled else VERIFY_REPS):
        lap = Lap(rec.meter, "bulk")
        code, out = lap(run_cli, t, "cli.verify", ["verify", "--in", path])
        rec.verify_s.append((lap.seconds, lap.scaled))
        rec.tally.record("verify", [] if code == 0 else [f"exit {code}: {out.strip()}"])


def check_release(rec: Record, h, problems: list[str] = ()) -> None:
    found = checker.release_problems(h.state.value, h.counts, h.partition.n)
    rec.tally.record("release", [*problems, *found])


class InMemory:
    """Bodies in memory -> released file -> verify -> the query set.

    Releases 0 to ``accuracy_releases`` - 1 feed the accuracy metrics, and
    release 0 the fingerprint; every run makes at least that many releases,
    so those figures never depend on speed.
    """

    def __init__(
        self, seed: int, kind: str, bodies: int, area: float, n: int, bound: float, queries: int,
        accuracy_releases: int,
    ):
        self.accuracy_releases = accuracy_releases
        self.seed, self.kind, self.count = seed, kind, bodies
        self.area, self.n, self.bound = area, n, bound
        self.p = build_partition(area, n)
        self.params = PrivacyParams.for_partition(EPSILON, bound, self.p)
        self.qs = QuerySet(np.random.default_rng([seed, 1]), n, queries)

    def make_bodies(self, t):
        cfg = IngestConfig(area_side=self.area, diameter_bound=self.bound, k=K_NEIGHBOURS)
        rng = np.random.default_rng([self.seed, 0])
        return t.call("ingest.generate", generate_synthetic, self.kind, self.count, cfg, rng)

    def setup(self, t, lap, tmp: str) -> None:
        """Make the inputs, each step through ``lap`` (a Lap, or ``plain``)."""
        self.bodies = lap(self.make_bodies, t)
        self.path = os.path.join(tmp, "release.hist")

    def release(self, t, rec: Record, i: int):
        """One release of ``self.bodies`` with the noise of release ``i``."""
        lap = Lap(rec.meter, "interp", "calls")
        noise = RandomSource(derive_seed(self.seed, i))
        with t.span("bench.release"):
            raw = lap(t.call, "histogram.build", build, self.bodies, self.p, diameter_bound=self.bound)
            noisy = lap(t.call, "privacy.perturb", perturb, raw, self.params, noise)
            cs = lap(t.call, "inference.constraints", build_constraints, self.p)
            consistent, _ = lap(t.call, "inference.infer", infer, noisy, cs)
            rounded = lap(t.call, "rounding.round", round_counts, consistent)
            released, _ = lap(t.call, "rounding.repair", repair, rounded, cs)
            lap(t.call, "fileio.write_hist", fileio.write_histogram_file, released, self.path)
        rec.release_s.append((lap.seconds, lap.scaled, t.enabled))
        verify_release(t, rec, self.path)
        return raw, noisy, released

    def iteration(self, t, rec: Record, i: int):
        raw, noisy, released = self.release(t, rec, i)
        answers = answer_queries(released, self.qs, t, rec)
        return raw, noisy, released, answers

    def check(self, rec: Record, i: int, out) -> None:
        raw, noisy, released, answers = out
        check_release(rec, released)
        if i < self.accuracy_releases:
            note_accuracy(rec, i, raw, noisy, released, self.qs, self.path)
        check_answers(rec, released.counts, self.qs, answers)


class TracksCli(InMemory):
    """A tracks file through ``eulerdp ingest``, ``release``, ``verify`` and
    ``query``, all in this process, files in a temporary directory."""

    pings = 60
    straggler_share = 0.10
    center = (47.62, -122.33)
    cli_queries = 5

    def setup(self, t, lap, tmp: str) -> None:
        homes = lap(self.make_bodies, t)
        self.tmp = tmp
        self.tracks = os.path.join(tmp, "tracks.txt")
        self.bodies_path = os.path.join(tmp, "bodies.jsonl")
        self.path = os.path.join(tmp, "release.hist")
        with t.span("bench.write_tracks"):
            lap(self.write_tracks, homes)

    def write_tracks(self, homes) -> None:
        """Pings inside each home body, a share of them far stragglers, as
        ``user_id,lat,lon`` rows about ``self.center`` (equirectangular)."""
        rng = np.random.default_rng([self.seed, 2])
        lat0, lon0 = self.center
        per_m_lat = 180.0 / (np.pi * 6371000.0)
        per_m_lon = per_m_lat / np.cos(np.radians(lat0))
        half = self.area / 2.0
        lines = ["user_id,lat,lon"]
        for u, body in enumerate(homes):
            weights = rng.dirichlet(np.ones(len(body.vertices)), self.pings)
            pts = weights @ body.vertices
            far = rng.random(self.pings) < self.straggler_share
            pts[far] += rng.normal(0.0, 3.0 * self.bound, (int(far.sum()), 2))
            lat = lat0 + (pts[:, 1] - half) * per_m_lat
            lon = lon0 + (pts[:, 0] - half) * per_m_lon
            lines.extend(f"u{u},{a!r},{b!r}" for a, b in zip(lat.tolist(), lon.tolist()))
        with open(self.tracks, "w") as f:
            f.write("\n".join(lines) + "\n")

    def grid_flags(self) -> list[str]:
        return ["--area", repr(self.area), "--n", str(self.n)]

    def iteration(self, t, rec: Record, i: int):
        lap = Lap(rec.meter, "interp", "calls")
        with t.span("bench.release"):
            codes = [
                lap(run_cli, t, "cli.ingest", [
                    "ingest", "--tracks", self.tracks, "--out", self.bodies_path,
                    "--area", repr(self.area), "--diameter-bound", repr(self.bound),
                    "--k", str(K_NEIGHBOURS), "--center", "{},{}".format(*self.center),
                ]),
                lap(run_cli, t, "cli.release", [
                    "release", "--bodies", self.bodies_path, "--out", self.path,
                    *self.grid_flags(), "--epsilon", repr(EPSILON),
                    "--diameter-bound", repr(self.bound), "--seed", str(derive_seed(self.seed, i)),
                ]),
            ]
        rec.release_s.append((lap.seconds, lap.scaled, t.enabled))
        verify_release(t, rec, self.path)
        qs = self.qs
        printed = [
            run_cli(t, "cli.query", ["query", "--in", self.path, "--qr",
                                     f"{qs.r0[j]}:{qs.r1[j]},{qs.c0[j]}:{qs.c1[j]}"])
            for j in range(self.cli_queries)
        ]
        released = t.call("fileio.read_hist", fileio.read_histogram_file, self.path)
        answers = answer_queries(released, self.qs, t, rec)
        return codes, printed, released, answers

    def check(self, rec: Record, i: int, out) -> None:
        codes, printed, released, answers = out
        exits = [f"exit {code}: {text.strip()}" for code, text in codes if code != 0]
        check_release(rec, released, exits)
        expect = self.qs.truth(released.counts)
        bad = [
            f"eulerdp query printed {text.strip()!r} (exit {code}), expected {expect[j]:g}"
            for j, (code, text) in enumerate(printed)
            if code != 0 or text.strip() != str(int(expect[j]))
        ]
        rec.tally.record("cli query", bad, attempted=len(printed))
        check_answers(rec, released.counts, self.qs, answers)
        if i < self.accuracy_releases:
            raw, noisy = self.reference(i)
            note_accuracy(rec, i, raw, noisy, released, self.qs, self.path)

    def reference(self, i: int):
        """The raw and noisy histograms behind release ``i``, remade through
        ``eulerdp build`` and ``privatize`` from the ingested bodies."""
        raw_path = os.path.join(self.tmp, "raw.hist")
        noisy_path = os.path.join(self.tmp, "noisy.hist")
        steps = [["privatize", "--in", raw_path, "--out", noisy_path, "--epsilon", repr(EPSILON),
                  "--seed", str(derive_seed(self.seed, i))]]
        if i == 0:
            self.bodies, _ = fileio.read_bodies_file(self.bodies_path)
            steps.insert(0, ["build", "--bodies", self.bodies_path, "--out", raw_path,
                             *self.grid_flags(), "--diameter-bound", repr(self.bound)])
        for argv in steps:
            code, text = run_cli(None, "", argv)
            if code != 0:
                raise RuntimeError(f"eulerdp {argv[0]} exit {code}: {text.strip()}")
        return fileio.read_histogram_file(raw_path), fileio.read_histogram_file(noisy_path)
