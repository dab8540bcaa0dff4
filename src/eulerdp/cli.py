"""Command-line front end.

Subcommands mirror the pipeline stages. The histogram state machine is
enforced at the boundary: each stage reads a file, checks the recorded
state, and refuses out-of-order input. Exit codes: 0 success, 1 validation
problem (bad flags, bad files, wrong state), 2 internal failure.

``privatize`` and ``release`` accept an optional ``--seed`` for reproducible
runs; without one, a fresh OS-random seed is used and deliberately not
recorded anywhere. Released files carry only public parameters.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import fileio
from .grid import build_partition
from .harness import ConfigError, config_from_mapping, resolve_grid_n, run_query_experiment, write_metrics
from .histogram import (
    BodyValidationError,
    EulerHistogram,
    HistogramState,
    QueryRegion,
    build,
    min_rectangle_count,
    query,
)
from .inference import OBJECTIVES, infer
from .ingest import IngestConfig, ingest_tracks
from .privacy import PrivacyParams, RandomSource, perturb
from .rounding import repair, round_counts, verify_violations


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{what} must be two comma-separated numbers, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_qr(text: str) -> QueryRegion:
    try:
        rows, cols = text.split(",")
        r0, r1 = (int(v) for v in rows.split(":"))
        c0, c1 = (int(v) for v in cols.split(":"))
    except ValueError as e:
        raise ConfigError(f"QR must look like r0:r1,c0:c1 with integers, got {text!r}") from e
    return QueryRegion(r0, r1, c0, c1)


def _fresh_seed() -> int:
    return int.from_bytes(os.urandom(8), "little") >> 1


def _read_state(path: str, expected: HistogramState, stage: str) -> EulerHistogram:
    h = fileio.read_histogram_file(path)
    if h.state is not expected:
        raise ConfigError(
            f"{stage} expects a {expected.value} histogram, but {path} is {h.state.value}"
        )
    return h


def _cmd_ingest(args) -> int:
    config = IngestConfig(
        area_side=args.area,
        diameter_bound=args.diameter_bound,
        k=args.k,
        center=_pair(args.center, "--center"),
        origin=_pair(args.origin, "--origin"),
    )
    tracks = fileio.read_tracks_file(args.tracks)
    bodies, ids, skipped = ingest_tracks(tracks, config)
    for uid, reason in skipped:
        print(f"skipped user {uid}: {reason}", file=sys.stderr)
    fileio.write_bodies_file(bodies, args.out, ids)
    print(f"{len(bodies)} bodies written to {args.out}, {len(skipped)} users skipped")
    return 0


def _build_histogram(args) -> EulerHistogram:
    n = resolve_grid_n(args.area, args.n, args.cell_side)
    p = build_partition(args.area, n, _pair(args.origin, "--origin"))
    bodies, ids = fileio.read_bodies_file(args.bodies)
    try:
        return build(bodies, p, diameter_bound=args.diameter_bound)
    except BodyValidationError as e:  # name each body by its user id, as the file does
        raise BodyValidationError(e.reports, ids) from None


def _cmd_build(args) -> int:
    h = _build_histogram(args)
    fileio.write_histogram_file(h, args.out)
    print(f"raw histogram over {len(h.counts)} components written to {args.out}")
    return 0


def _privatize(h: EulerHistogram, epsilon: float, seed: int | None) -> EulerHistogram:
    # noise calibrated to the bound build checked every body against
    if h.diameter_bound is None:
        raise ConfigError(
            "the raw histogram records no diameter bound, so its noise cannot be "
            "calibrated: build it with --diameter-bound"
        )
    params = PrivacyParams.for_partition(epsilon, h.diameter_bound, h.partition)
    source = RandomSource(seed if seed is not None else _fresh_seed())
    return perturb(h, params, source)


def _cmd_privatize(args) -> int:
    h = _read_state(args.input, HistogramState.RAW, "privatize")
    noisy = _privatize(h, args.epsilon, args.seed)
    fileio.write_histogram_file(noisy, args.out)
    print(f"noisy histogram written to {args.out}")
    return 0


def _cmd_infer(args) -> int:
    h = _read_state(args.input, HistogramState.NOISY, "infer")
    consistent, report = infer(h, objective=args.objective)
    fileio.write_histogram_file(consistent, args.out)
    print(
        f"consistent histogram written to {args.out} "
        f"(objective {report.objective:g}, {report.iterations} min-cut levels)"
    )
    return 0


def _round_and_repair(h: EulerHistogram) -> EulerHistogram:
    repaired, _ = repair(round_counts(h))
    return repaired


def _cmd_round(args) -> int:
    h = _read_state(args.input, HistogramState.CONSISTENT, "round")
    out = _round_and_repair(h)
    fileio.write_histogram_file(out, args.out)
    print(f"rounded histogram written to {args.out}")
    return 0


def _cmd_release(args) -> int:
    raw = _build_histogram(args)
    noisy = _privatize(raw, args.epsilon, args.seed)
    consistent, _ = infer(noisy, objective=args.objective)
    released = _round_and_repair(consistent)
    fileio.write_histogram_file(released, args.out)
    print(f"release written to {args.out}")
    return 0


def _cmd_query(args) -> int:
    h = fileio.read_histogram_file(args.input)
    print(query(h, _parse_qr(args.qr)))
    return 0


def _cmd_experiment(args) -> int:
    mapping: dict[str, str] = {}
    if args.config:
        mapping.update(fileio.read_config_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        mapping[key.strip()] = value.strip()
    config = config_from_mapping(mapping)
    report = run_query_experiment(config)
    if args.out:
        with open(args.out, "w") as f:
            write_metrics(report, f)
        print(f"metrics written to {args.out}")
    else:
        write_metrics(report, sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    h = fileio.read_histogram_file(args.input)
    c1, c2, negative = verify_violations(h)
    print(f"violations: c1={c1} c2={c2} negative={negative}")
    worst, qr = min_rectangle_count(h)
    print(f"minimum rectangle count: {worst:g} at rows {qr.r0}:{qr.r1} cols {qr.c0}:{qr.c1}")
    return 0 if (c1, c2, negative) == (0, 0, 0) and worst >= 0 else 1


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--area", type=float, required=True, help="side of the square area (meters)")
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--n", type=int, help="grid cells per side")
    size.add_argument("--cell-side", type=float, help="cell side (meters)")
    p.add_argument("--origin", default="0,0", help="area origin as x,y (default 0,0)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser unchanged, and the
    # tree costs milliseconds, a large share of a short command
    parser = _Parser(prog="eulerdp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="tracks file -> bodies file")
    p.add_argument("--tracks", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--area", type=float, required=True)
    p.add_argument("--diameter-bound", type=float, required=True)
    p.add_argument("--k", type=int, required=True, help="neighbour count kept around the mode")
    p.add_argument("--center", required=True, help="projection center as lat,lon")
    p.add_argument("--origin", default="0,0")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("build", help="bodies file -> raw histogram")
    p.add_argument("--bodies", required=True)
    p.add_argument("--out", required=True)
    _add_grid_flags(p)
    p.add_argument("--diameter-bound", type=float, default=None)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("privatize", help="raw -> noisy")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_privatize)

    p = sub.add_parser("infer", help="noisy -> consistent")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--objective", choices=OBJECTIVES, default="l1")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("round", help="consistent -> rounded (with covert repair)")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_round)

    p = sub.add_parser("release", help="bodies -> rounded release in one step")
    p.add_argument("--bodies", required=True)
    p.add_argument("--out", required=True)
    _add_grid_flags(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--diameter-bound", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--objective", choices=OBJECTIVES, default="l1")
    p.set_defaults(func=_cmd_release)

    p = sub.add_parser("query", help="answer one rectangle query")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--qr", required=True, help="region as r0:r1,c0:c1 (inclusive cell indices)")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("experiment", help="run a seeded experiment, emit metrics tables")
    p.add_argument("--config", default=None, help="flat key = value file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    p.add_argument("--out", default=None, help="metrics file (default stdout)")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("verify", help="check constraints and rectangle non-negativity")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # bugs
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
