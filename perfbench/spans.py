"""In-memory spans around the public calls the benchmark makes.

A span records its name, start, end, parent span and the run id. Spans are
kept in a list and written out once, when the run ends. While a tracer is
active the names ``eulerdp.cli`` resolves at call time are swapped for
span-recording wrappers, so a ``cli.main`` call decomposes into the library
calls it makes without any span inside the library. When inactive, calls go
straight through and nothing is recorded.
"""

from __future__ import annotations

import json
import time
import types
from contextlib import contextmanager
from statistics import median

# eulerdp.cli attribute -> span name. Missing attributes are skipped, so a
# renamed import costs a span, not a run.
CLI_CALLS = {
    "ingest_tracks": "ingest.extract",
    "build": "histogram.build",
    "perturb": "privacy.perturb",
    "build_constraints": "inference.constraints",
    "infer": "inference.infer",
    "round_counts": "rounding.round",
    "repair": "rounding.repair",
    "verify_violations": "rounding.verify_violations",
    "min_rectangle_count": "histogram.min_rect",
    "query": "histogram.query",
}
FILEIO_CALLS = {
    "read_tracks_file": "fileio.read_tracks",
    "write_bodies_file": "fileio.write_bodies",
    "read_bodies_file": "fileio.read_bodies",
    "write_histogram_file": "fileio.write_hist",
    "read_histogram_file": "fileio.read_hist",
}


# Counts a span carries from its call's report; summed per unit by per_unit.
REPORT_KEYS = ("solve_s", "lp_iterations", "rect_fixes", "repair_cost")


def _result_attrs(name: str, result) -> dict:
    """Counts read off a call's return value, where the call reports any."""
    if name == "inference.infer":
        report = result[1]
        return {"solve_s": report.wall_time, "lp_iterations": report.iterations}
    if name == "rounding.repair":
        report = result[1]
        return {"rect_fixes": report.rect_fixes, "repair_cost": report.cost}
    return {}


class Tracer:
    """Records spans only while :meth:`active`; otherwise ``call`` is a plain call."""

    def __init__(self, run_id: str, cli_module=None, fileio_module=None):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.enabled = False
        self._open: list[int] = []
        self._cli = cli_module
        self._fileio = fileio_module

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        rec = {
            "id": len(self.spans),
            "run": self.run_id,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name) as rec:
            result = fn(*args, **kwargs)
            rec.update(_result_attrs(name, result))
        return result

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def active(self, on: bool = True):
        """Record spans, and route the CLI's library calls through them."""
        if not on:
            yield
            return
        saved = {a: getattr(self._cli, a) for a in CLI_CALLS if hasattr(self._cli, a)}
        saved_fileio = self._cli.fileio
        proxy = types.SimpleNamespace(**vars(self._fileio))
        for attr, name in FILEIO_CALLS.items():
            if hasattr(proxy, attr):
                setattr(proxy, attr, self._wrap(name, getattr(proxy, attr)))
        for attr, fn in saved.items():
            setattr(self._cli, attr, self._wrap(CLI_CALLS[attr], fn))
        self._cli.fileio = proxy
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            self._cli.fileio = saved_fileio
            for attr, fn in saved.items():
                setattr(self._cli, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another, never overlapping, so their
    durations add up to the covered part of the parent's interval.
    """
    own = [duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration(s)
    return own


def per_unit(spans: list[dict]) -> list[dict[str, dict]]:
    """Group spans under their top-level span (one setup repetition or one
    loop iteration). Returns, per unit, span name -> {"total", "self", and
    summed numeric attributes}."""
    own = self_times(spans)
    root = [0] * len(spans)
    units: dict[int, dict[str, dict]] = {}
    for s in spans:
        rid = s["id"] if s["parent"] is None else root[s["parent"]]
        root[s["id"]] = rid
        if s["parent"] is None:
            units[rid] = {}
        agg = units[rid].setdefault(s["name"], {"total": 0.0, "self": 0.0})
        agg["total"] += duration(s)
        agg["self"] += own[s["id"]]
        for key in REPORT_KEYS:
            if key in s:
                agg[key] = agg.get(key, 0) + s[key]
    return list(units.values())


def median_over(units: list[dict[str, dict]], value) -> float:
    """Median of ``value(unit)`` over the units where it is not None."""
    vals = [v for v in (value(u) for u in units) if v is not None]
    return float(median(vals)) if vals else 0.0
