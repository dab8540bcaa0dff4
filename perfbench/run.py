"""Release-and-query benchmark for eulerdp.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process as a closed loop with one caller: set up
the inputs, then repeat the workload's iteration for S seconds (and at
least as many times as the workload has accuracy releases, and SETUP_REPS
times), timing a fresh set-up after
each of the first SETUP_REPS iterations. Every output is checked by
perfbench/checker.py, untimed. The run prints a fingerprint and every metric
by name with its unit, and ends with one JSON line holding ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``. A traced run alternates
traced and untraced iterations and writes its spans to
``.perfbench/spans-<workload>-<seed>.jsonl``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from statistics import fmean, median

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPS = 7

# Only the checkout's own library is measured, never an installed copy.
sys.path.insert(0, str(ROOT / "src"))
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import eulerdp  # noqa: E402
from eulerdp import build_constraints, cli, fileio, infer, min_rectangle_count, repair, round_counts  # noqa: E402

import spans  # noqa: E402
from hostspeed import KINDS, Lap, Meter  # noqa: E402
from workloads import InMemory, Record, TracksCli, plain  # noqa: E402

# Why each workload exists is recorded in BENCHMARK.json and README.md. The
# last argument is the number of releases the accuracy metrics pool: at n=20
# one release's median query error swings by half its value with the noise
# draw, and 20 releases hold it to a few percent across seeds.
WORKLOADS = {
    "coarse-crowd": lambda seed: InMemory(seed, "concentrated", 3000, 20000.0, 20, 2000.0, 10000, 20),
    "fine-grid": lambda seed: InMemory(seed, "uniform", 1500, 11000.0, 44, 500.0, 5000, 5),
    "tracks-cli": lambda seed: TracksCli(seed, "uniform", 1000, 10000.0, 40, 500.0, 10000, 5),
}

# Printed by tracks-cli's traced run, not in the JSON line: layers no other
# workload runs, and the wall time of each CLI command.
TRACKS_CLI_EXTRAS = {
    "ingest.extract_s": "ingest.extract",
    "fileio.read_tracks_s": "fileio.read_tracks",
    "fileio.write_bodies_s": "fileio.write_bodies",
    "fileio.read_bodies_s": "fileio.read_bodies",
    "cli.ingest_s": "cli.ingest",
    "cli.release_s": "cli.release",
    "cli.verify_s": "cli.verify",
    "cli.query_s": "cli.query",
}


def measure(w, seconds: float, traced: bool, tmp: str, tracer: spans.Tracer) -> Record:
    """Set up once, then loop; each of the first SETUP_REPS iterations is
    followed by a timed set-up. In a traced run every other iteration and
    set-up is traced."""
    rec = Record(meter=Meter(w.n))
    # The first set-up of a process pays for first calls into numpy and the
    # library and for growing the heap; it is not timed. The timed ones are
    # spread over the run, so that they meet the host's mix of speeds as the
    # releases do instead of all falling into one slow or fast second.
    w.setup(tracer, plain, tmp)
    start, last, i = time.perf_counter(), 0.0, 0
    # Stop before an iteration that would overrun the budget.
    while i < max(w.accuracy_releases, SETUP_REPS) or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        with tracer.active(traced and i % 2 == 0), tracer.span("bench.iteration"):
            out = rec.tally.guard("iteration", w.iteration, tracer, rec, i)
        if out is not None:
            rec.tally.guard("check", w.check, rec, i, out)
        if i < SETUP_REPS:
            with tracer.active(traced and i % 2 == 0), tracer.span("bench.setup"):
                lap = Lap(rec.meter, "interp", "calls")
                w.setup(tracer, lap, tmp)
                rec.setup_s.append((lap.seconds, lap.scaled))
        last = time.perf_counter() - t0
        i += 1
    return rec


def iqm(values) -> float:
    """Interquartile mean: the mean of the middle half (all of it below four
    values)."""
    v = sorted(values)
    k = len(v) // 4
    return float(np.mean(v[k : len(v) - k]))


def release_s(rec: Record, traced: bool, scaled: bool = True) -> float:
    """Release time, traced or untraced, in reference seconds: the
    interquartile mean over the run's releases. A release's work depends on
    its noise draw (one more repair scan costs about a tenth of a fine-grid
    release), so release times cluster round a few levels; a median snaps
    between them as the draws change, the interquartile mean moves
    smoothly."""
    return iqm(ref if scaled else d for d, ref, on in rec.release_s if on == traced)


def query_us(rec: Record, scaled: bool = True) -> np.ndarray:
    """Every untraced query call's time in reference microseconds."""
    return np.concatenate([ns * (scale if scaled else 1.0) for ns, scale, on in rec.query_ns if not on]) / 1e3


def end_to_end(rec: Record, scaled: bool = True) -> dict[str, float]:
    """Times in reference seconds (hostspeed.py) unless ``scaled`` is
    false: medians over the run's set-ups and verifies, the interquartile
    mean over its releases, and percentiles over all its query calls
    (queries per second from their mean)."""
    us = query_us(rec, scaled)
    return {
        "setup_s": median(ref if scaled else d for d, ref in rec.setup_s),
        "release_s": release_s(rec, False, scaled),
        "verify_s": median(ref if scaled else d for d, ref in rec.verify_s),
        "queries_per_s": 1e6 / float(us.mean()),
        "query_p50_us": float(np.percentile(us, 50)),
        "query_p90_us": float(np.percentile(us, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "release_l1_ratio": median(rec.l1_ratios),
        "query_rel_err_p50": float(np.median(np.concatenate(rec.rel_errs))),
    }


def alloc_peaks(noisy, released) -> dict[str, float]:
    """Peak numpy/Python allocation of infer, repair and the rectangle scan
    on release 0's inputs, each under tracemalloc in isolation. HiGHS's own
    memory is not seen."""

    def peak(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    (consistent, _), infer_mb = peak(infer, noisy)
    _, repair_mb = peak(repair, round_counts(consistent))
    _, scan_mb = peak(min_rectangle_count, released)
    return {
        "inference.peak_alloc_mb": infer_mb,
        "rounding.peak_alloc_mb": repair_mb,
        "histogram.min_rect_peak_alloc_mb": scan_mb,
    }


def per_layer(w, rec: Record, tracer: spans.Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics from the traced units; also the tracks-only extras
    and self time per layer, which are printed but not in the JSON line."""
    units = spans.per_unit(tracer.spans)

    def total(name):
        return spans.median_over(units, lambda u: u[name]["total"] if name in u else None)

    def first(name, key):
        return next(u[name][key] for u in units if name in u)

    infer_units = [u["inference.infer"] for u in units if "inference.infer" in u]
    fixes = first("rounding.repair", "rect_fixes")
    c1, c2, c3 = build_constraints(w.p).counts_by_family
    size = w.p.size
    windows = sum(len(w.p.window(*body.bbox)[0]) for body in w.bodies)
    build_s = total("histogram.build")
    m = {
        "ingest.generate_s": total("ingest.generate"),
        "histogram.build_s": build_s,
        "histogram.build_us_per_body": build_s / len(w.bodies) * 1e6,
        "histogram.build_hit_ratio": rec.raw_hits / windows,
        "privacy.perturb_s": total("privacy.perturb"),
        "inference.constraints_s": total("inference.constraints"),
        "inference.assemble_s": median(a["total"] - a["solve_s"] for a in infer_units),
        "inference.solve_s": median(a["solve_s"] for a in infer_units),
        "inference.lp_iterations": first("inference.infer", "lp_iterations"),
        # rows and nonzeros of the l1 program: two residual rows per
        # component (2 nonzeros each), then 2, 2 and 9 nonzeros per C1, C2, C3 row
        "inference.lp_rows": 2 * size + c1 + c2 + c3,
        "inference.lp_nnz": 4 * size + 2 * c1 + 2 * c2 + 9 * c3,
        "rounding.round_s": total("rounding.round"),
        "rounding.repair_s": total("rounding.repair"),
        "rounding.rect_fixes": fixes,
        "rounding.scan_yield": fixes / (fixes + 1),
        "rounding.repair_cost": first("rounding.repair", "repair_cost"),
        "rounding.repair_scan_s_derived": (fixes + 1) * total("histogram.min_rect"),
        "rounding.verify_violations_s": total("rounding.verify_violations"),
        "histogram.min_rect_s": total("histogram.min_rect"),
        **alloc_peaks(*rec.probe),
        "histogram.query_us": float(np.median(np.concatenate([ns for ns, _, on in rec.query_ns if on]))) / 1e3,
        "fileio.write_hist_s": total("fileio.write_hist"),
        "fileio.read_hist_s": total("fileio.read_hist"),
        "fileio.release_bytes": rec.release_bytes,
        "cli.overhead_s": spans.median_over(units, lambda u: layer_self(u, "cli")),
        "trace.overhead_s": release_s(rec, True) - release_s(rec, False),
    }
    extras = {}
    if isinstance(w, TracksCli):
        extras = {name: total(span) for name, span in TRACKS_CLI_EXTRAS.items()}
        extras["ingest.us_per_user"] = extras["ingest.extract_s"] / len(w.bodies) * 1e6
    for layer in sorted({k.split(".")[0] for u in units for k in u}):
        extras[f"self.{layer}_s"] = spans.median_over(units, lambda u: layer_self(u, layer))
    return m, extras


def layer_self(unit: dict[str, dict], layer: str) -> float | None:
    """Self time of one layer's spans in one unit; None if it has none."""
    own = [a["self"] for k, a in unit.items() if k.split(".")[0] == layer]
    return sum(own) if own else None


def fingerprint(args, rec: Record) -> str:
    return " ".join([
        f"nproc={os.cpu_count()}",
        f"python={platform.python_version()}",
        f"numpy={np.__version__}",
        f"scipy={scipy.__version__}",
        f"workload={args.workload}",
        f"seed={args.seed}",
        *(f"{k}={v}" for k, v in rec.digests.items()),
    ])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(eulerdp.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"eulerdp was imported from {eulerdp.__file__}, not from {ROOT / 'src'}")
    # Metric names and units are those BENCHMARK.json lists.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    w = WORKLOADS[args.workload](args.seed)
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = spans.Tracer(run_id, cli, fileio)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        rec = measure(w, args.seconds, bool(args.trace), tmp, tracer)
        if args.trace:
            metrics, extras = per_layer(w, rec, tracer)
            units = per_layer_units
        else:
            metrics, units = end_to_end(rec), end_to_end_units
            timed = ("setup_s", "release_s", "verify_s", "queries_per_s", "query_p50_us", "query_p90_us")
            unscaled = end_to_end(rec, scaled=False)
            extras = {f"unscaled.{k}": unscaled[k] for k in timed}
            extras["query_p99_us"] = float(np.percentile(query_us(rec), 99))

    if metrics.keys() != units.keys():
        sys.exit(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    tally = rec.tally
    print(f"fingerprint: {fingerprint(args, rec)}")
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    print(f"failed_ratio {tally.ratio:.6g} 1 ({tally.failed} of {tally.attempted} operations)")
    samples = sum(len(ns) for ns, _, on in rec.query_ns if on == bool(args.trace))
    print(f"query samples: {samples} calls; releases: {len(rec.release_s)}; setups: {len(rec.setup_s)}")
    meter = rec.meter
    for kind in KINDS:
        probes = meter.probes[kind]
        print(f"host speed: {kind} kernel {median(probes) * 1e3:.4g} ms median, {fmean(probes) * 1e3:.4g} ms mean over {len(probes)} probes, {meter.ref_s[kind] * 1e3:.4g} ms nominal")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, value in extras.items():
        unit = units.get(name.removeprefix("unscaled."), "s")
        print(f"{name} {value:.6g} {'us' if name.endswith(('_per_user', '_us')) else unit} (not in JSON)")
    if args.trace:
        path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(str(path))
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
