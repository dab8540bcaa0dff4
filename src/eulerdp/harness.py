"""Seeded experiment runner and metrics tables.

An experiment is a pure function of (config, master seed): the dataset is
drawn once, then each repetition perturbs it with an independently derived
seed, runs inference and rounding, and answers randomly placed rectangle
queries with every algorithm. Reported medians compare three released forms
against exact truth: the noisy histogram (DP), the constrained one (C), and
the rounded-and-repaired release (R). Wall-clock rows are the one part of a
report that is not reproducible; everything else is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, TextIO

import numpy as np

from .fileio import read_bodies_file
from .geometry import ConvexBody
from .grid import GridPartition, build_partition, require_finite_positive, require_integer
from .histogram import EulerHistogram, QueryRegion, build, query
from .inference import OBJECTIVES, infer
from .ingest import IngestConfig, generate_synthetic
from .privacy import PrivacyParams, RandomSource, derive_seed, perturb, require_seed
from .rounding import repair, round_counts, verify_violations

ALGORITHMS = ("DP", "C", "R")


class ConfigError(ValueError):
    pass


def resolve_grid_n(area_side: float, n: int | None, cell_side: float | None) -> int:
    """Grid size from either n or the cell side; both must agree if given.

    The cell-side path tolerates float dust (2/(20/30) style) but requires
    the ratio to be an integer within 1e-9 relative.
    """
    if n is not None:
        if n < 2:
            raise ConfigError("n must be >= 2")
        if cell_side is not None and not np.isclose(cell_side * n, area_side, rtol=1e-9):
            raise ConfigError("n and cell_side disagree")
        return n
    if cell_side is None:
        raise ConfigError("one of n or cell_side is required")
    try:
        require_finite_positive(area_side=area_side, cell_side=cell_side)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    ratio = area_side / cell_side  # inf for a subnormal cell side
    resolved = round(ratio) if np.isfinite(ratio) else 0
    if resolved < 2 or abs(ratio - resolved) > 1e-9 * max(1.0, ratio):
        raise ConfigError(f"cell_side must divide area_side into >= 2 cells, got {ratio}")
    return resolved


def shapes_for_percent(n: int, percent: float) -> list[tuple[int, int]]:
    """All (rows, cols) with rows*cols = round(percent% of n^2), both <= n.

    Targets with no such factorization slide to the nearest achievable cell
    count (smaller wins ties) so every percent yields at least one shape.
    """
    if not 0 < percent <= 100:
        raise ConfigError(f"QR percent must be in (0, 100], got {percent}")
    target = min(max(round(percent / 100.0 * n * n), 1), n * n)
    for delta in range(n * n):
        for t in (target - delta, target + delta):
            if not 1 <= t <= n * n:
                continue
            shapes = [(r, t // r) for r in range(1, n + 1) if t % r == 0 and t // r <= n]
            if shapes:
                return shapes
    raise AssertionError("unreachable: t=1 always factors")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; exactly one body source and one grid size.

    ``count`` sizes a synthetic population (1000 unless set); a bodies file
    sets its own count, so ``count`` must stay unset with ``bodies_path``.
    ``seed`` follows :func:`eulerdp.privacy.require_seed`. The config
    builds the ``partition`` and ``params`` a run uses, so what they refuse
    is a ConfigError when the config is made.
    """

    area_side: float
    diameter_bound: float
    epsilon: float
    seed: int
    n: int | None = None
    cell_side: float | None = None
    synthetic: str | None = None
    count: int | None = None
    bodies_path: str | None = None
    qr_percents: tuple[float, ...] = (10.0, 25.0, 50.0, 75.0, 100.0)
    qr_shapes: tuple[tuple[int, int], ...] = ()
    repetitions: int = 100
    objective: str = "l1"
    origin: tuple[float, float] = (0.0, 0.0)
    partition: GridPartition = field(init=False, repr=False, compare=False)
    params: PrivacyParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            require_seed(self.seed)
            require_integer(repetitions=self.repetitions)
            if self.count is not None:
                require_integer(count=self.count)
            partition = build_partition(
                self.area_side, resolve_grid_n(self.area_side, self.n, self.cell_side), self.origin
            )
            params = PrivacyParams.for_partition(self.epsilon, self.diameter_bound, partition)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "params", params)
        if (self.synthetic is None) == (self.bodies_path is None):
            raise ConfigError("exactly one of synthetic kind or bodies file required")
        if self.bodies_path is not None:
            if self.count is not None:
                raise ConfigError("count and bodies are exclusive: a bodies file sets its own count")
        elif self.count is None:
            object.__setattr__(self, "count", 1000)
        elif self.count < 0:
            raise ConfigError("count must be >= 0")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"objective must be l1 or linf, got {self.objective!r}")
        if not self.qr_percents and not self.qr_shapes:
            raise ConfigError("at least one QR percent or explicit shape required")
        n = self.grid_n
        for r, c in self.qr_shapes:
            if not (1 <= r <= n and 1 <= c <= n):
                raise ConfigError(f"QR shape {r}x{c} does not fit an n={n} grid")
        for pct in self.qr_percents:
            shapes_for_percent(n, pct)

    @property
    def grid_n(self) -> int:
        return self.partition.n


def _comma_list(parse: Callable[[str], object]) -> Callable[[str], tuple]:
    return lambda text: tuple(parse(v.strip()) for v in text.split(",") if v.strip())


def _shape(token: str) -> tuple[int, int]:
    r, _, c = token.partition("x")
    try:
        return int(r), int(c)
    except ValueError:
        raise ValueError(f"shape {token!r} is not RxC") from None


# Config key -> (ExperimentConfig field, parser), in the order a report
# echoes them. origin_x and origin_y are the two halves of ``origin``.
_CONFIG_KEYS: dict[str, tuple[str, Callable[[str], object]]] = {
    "area_side": ("area_side", float),
    "cell_side": ("cell_side", float),
    "n": ("n", int),
    "diameter_bound": ("diameter_bound", float),
    "epsilon": ("epsilon", float),
    "seed": ("seed", int),
    "synthetic": ("synthetic", str),
    "count": ("count", int),
    "bodies": ("bodies_path", str),
    "qr_percents": ("qr_percents", _comma_list(float)),
    "qr_shapes": ("qr_shapes", _comma_list(_shape)),
    "repetitions": ("repetitions", int),
    "objective": ("objective", str),
    "origin_x": ("origin", float),
    "origin_y": ("origin", float),
}


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    """Build a config from flat string keys (file values, CLI overrides)."""
    unknown = sorted(set(mapping) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    kwargs: dict[str, object] = {}
    for key, raw in mapping.items():
        name, parse = _CONFIG_KEYS[key]
        try:
            kwargs[key if name == "origin" else name] = parse(raw)
        except ValueError as e:
            raise ConfigError(f"config key {key}: {e}") from e
    if "origin_x" in kwargs or "origin_y" in kwargs:
        kwargs["origin"] = (kwargs.pop("origin_x", 0.0), kwargs.pop("origin_y", 0.0))
    missing = {"area_side", "diameter_bound", "epsilon", "seed"} - set(kwargs)
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(sorted(missing))}")
    try:
        return ExperimentConfig(**kwargs)  # type: ignore[arg-type]
    except TypeError as e:
        raise ConfigError(str(e)) from e


@dataclass
class MetricsReport:
    query_rows: list[tuple[str, str, float, int]] = field(default_factory=list)
    histogram_rows: list[tuple[str, float, float]] = field(default_factory=list)
    violation_rows: list[tuple[str, float, float, float]] = field(default_factory=list)
    timing_rows: list[tuple[str, float, float]] = field(default_factory=list)
    repair_rows: list[tuple[str, float]] = field(default_factory=list)
    config_echo: list[tuple[str, str]] = field(default_factory=list)

    def median_error(self, qr_label: str, algorithm: str) -> float:
        for label, alg, err, _ in self.query_rows:
            if label == qr_label and alg == algorithm:
                return err
        raise KeyError((qr_label, algorithm))


def write_metrics(report: MetricsReport, stream: TextIO) -> None:
    """Tab-separated tables, one block per metric family, columns documented
    in a comment row."""

    def block(title: str, columns: list[str], rows: list[tuple]) -> None:
        stream.write(f"# table: {title}\n")
        stream.write("# columns: " + "\t".join(columns) + "\n")
        for row in rows:
            stream.write("\t".join(_cell(v) for v in row) + "\n")
        stream.write("\n")

    def _cell(v: object) -> str:
        if isinstance(v, float):
            return f"{v:.6g}"
        return str(v)

    block("config", ["key", "value"], report.config_echo)
    block("query_error", ["qr", "algorithm", "median_relative_error", "samples"], report.query_rows)
    block("histogram_l1", ["algorithm", "median_l1_to_raw", "median_ratio_to_dp"], report.histogram_rows)
    block("violations", ["stage", "mean_c1", "mean_c2", "mean_negative"], report.violation_rows)
    block("timing", ["stage", "median_seconds", "total_seconds"], report.timing_rows)
    block("repair", ["metric", "value"], report.repair_rows)


@dataclass
class _RepResult:
    errors: dict[tuple[str, str], list[float]]
    l1: dict[str, float]
    violations: dict[str, tuple[int, int, int]]
    times: dict[str, float]
    repair_cost: float


def _run_repetition(
    config: ExperimentConfig, rep: int, raw: EulerHistogram,
    qr_specs: list[tuple[str, list[tuple[int, int]]]],
) -> _RepResult:
    t0 = time.perf_counter()
    noisy = perturb(raw, config.params, RandomSource(derive_seed(config.seed, rep)))
    t1 = time.perf_counter()
    consistent, _ = infer(noisy, objective=config.objective)
    t2 = time.perf_counter()
    rounded = round_counts(consistent)
    t3 = time.perf_counter()
    released, rep_report = repair(rounded)
    t4 = time.perf_counter()

    n = raw.partition.n
    place_rng = np.random.default_rng((config.seed, rep))
    errors: dict[tuple[str, str], list[float]] = {}
    estimates = dict(zip(ALGORITHMS, (noisy, consistent, released)))
    for label, shapes in qr_specs:
        for dr, dc in shapes:
            r0 = int(place_rng.integers(0, n - dr + 1))
            c0 = int(place_rng.integers(0, n - dc + 1))
            qr = QueryRegion(r0, r0 + dr - 1, c0, c0 + dc - 1)
            truth = query(raw, qr)
            for alg in ALGORITHMS:
                est = query(estimates[alg], qr)
                rel = abs(est - truth) / max(truth, 1)
                errors.setdefault((label, alg), []).append(float(rel))

    l1 = {alg: float(np.abs(raw.counts - h.counts).sum()) for alg, h in estimates.items()}
    violations = {
        "noisy": verify_violations(noisy),
        "consistent": verify_violations(consistent),
        "released": verify_violations(released),
    }
    times = {
        "privatize": t1 - t0,
        "infer": t2 - t1,
        "round": t3 - t2,
        "repair": t4 - t3,
    }
    return _RepResult(errors, l1, violations, times, rep_report.cost)


def load_experiment_bodies(config: ExperimentConfig) -> list[ConvexBody]:
    if config.synthetic is not None:
        ingest_cfg = IngestConfig(
            area_side=config.area_side,
            diameter_bound=config.diameter_bound,
            k=1,
            origin=config.origin,
        )
        rng = np.random.default_rng(config.seed)
        return generate_synthetic(config.synthetic, config.count, ingest_cfg, rng)
    bodies, _ = read_bodies_file(config.bodies_path)
    return bodies


def run_query_experiment(config: ExperimentConfig) -> MetricsReport:
    """Run the configured repetitions and assemble the metrics tables."""
    n = config.grid_n
    bodies = load_experiment_bodies(config)
    t0 = time.perf_counter()
    raw = build(bodies, config.partition, diameter_bound=config.diameter_bound)
    build_time = time.perf_counter() - t0

    qr_specs: list[tuple[str, list[tuple[int, int]]]] = []
    for pct in config.qr_percents:
        qr_specs.append((f"{pct:g}%", shapes_for_percent(n, pct)))
    for r, c in config.qr_shapes:
        qr_specs.append((f"{r}x{c}", [(r, c)]))

    results = [
        _run_repetition(config, rep, raw, qr_specs)
        for rep in range(config.repetitions)
    ]

    report = MetricsReport()
    report.config_echo = _echo(config)

    for label, _ in qr_specs:
        for alg in ALGORITHMS:
            pooled = [e for res in results for e in res.errors[(label, alg)]]
            report.query_rows.append((label, alg, float(median(pooled)), len(pooled)))

    for alg in ALGORITHMS:
        l1s = [res.l1[alg] for res in results]
        ratios = [
            1.0 if res.l1[alg] == res.l1["DP"] else
            (float("inf") if res.l1["DP"] == 0 else res.l1[alg] / res.l1["DP"])
            for res in results
        ]
        report.histogram_rows.append((alg, float(median(l1s)), float(median(ratios))))

    for stage in ("noisy", "consistent", "released"):
        cols = np.array([res.violations[stage] for res in results], dtype=float)
        report.violation_rows.append((stage, *(float(v) for v in cols.mean(axis=0))))

    report.timing_rows.append(("build", build_time, build_time))
    for stage in ("privatize", "infer", "round", "repair"):
        ts = [res.times[stage] for res in results]
        report.timing_rows.append((stage, float(median(ts)), float(sum(ts))))

    costs = [res.repair_cost for res in results]
    report.repair_rows = [
        ("median_cost", float(median(costs))),
        ("mean_cost", float(np.mean(costs))),
        ("max_cost", float(max(costs))),
    ]
    return report


def _echo(config: ExperimentConfig) -> list[tuple[str, str]]:
    """Config rows in config syntax, so they read back through
    ``config_from_mapping``; the derived ``grid_n`` comes last."""
    rows = []
    for key, (name, _) in _CONFIG_KEYS.items():
        value = getattr(config, name)
        if name == "origin":
            if value == (0.0, 0.0):
                continue
            value = value[0 if key == "origin_x" else 1]
        if value in (None, ()):
            continue
        if isinstance(value, tuple):
            value = ",".join("x".join(map(str, v)) if isinstance(v, tuple) else str(v) for v in value)
        rows.append((key, str(value)))
    rows.append(("grid_n", str(config.grid_n)))
    return rows
