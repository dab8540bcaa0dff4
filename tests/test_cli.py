"""End-to-end checks of the command-line pipeline.

Everything goes through ``main(argv)`` with files in a tmp directory, the
same path a shell user takes. Flag errors surface as SystemExit(1) because
argparse owns those; everything else returns an exit code.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import eulerdp
from conftest import lattice_body
from eulerdp import (
    EulerHistogram,
    HistogramState,
    build,
    build_partition,
    convex_hull,
    min_rectangle_count,
    repair,
    verify_violations,
)
from eulerdp.cli import build_parser, main
from eulerdp.fileio import read_bodies_file, read_histogram_file, write_bodies_file, write_histogram_file


@pytest.fixture
def bodies_file(tmp_path):
    rng = np.random.default_rng(31)
    bodies = [lattice_body(rng, 4.0) for _ in range(12)]
    path = tmp_path / "bodies.jsonl"
    write_bodies_file(bodies, str(path))
    return str(path)


_TRACKS = (
    "user_id,lat,lon\n"
    "near,47.6201,-122.3301\n"
    "near,47.6203,-122.3299\n"
    "near,47.6199,-122.3302\n"
    "near,47.6202,-122.3298\n"
    "near,47.6200,-122.3300\n"
    "far,10.0,10.0\n"
)


@pytest.fixture
def tracks_file(tmp_path):
    path = tmp_path / "tracks.csv"
    path.write_text(_TRACKS)
    return str(path)


def _grid(bodies_file, tmp_path):
    return ["--bodies", bodies_file, "--area", "4", "--n", "4"]


def test_stage_chain(bodies_file, tmp_path, capsys):
    raw = str(tmp_path / "raw.hist")
    noisy = str(tmp_path / "noisy.hist")
    consistent = str(tmp_path / "consistent.hist")
    rounded = str(tmp_path / "rounded.hist")

    assert main(["build", *_grid(bodies_file, tmp_path), "--diameter-bound", "6.0", "--out", raw]) == 0
    assert main([
        "privatize", "--in", raw, "--out", noisy,
        "--epsilon", "1.0", "--diameter-bound", "6.0", "--seed", "11",
    ]) == 0
    assert main(["infer", "--in", noisy, "--out", consistent]) == 0
    assert main(["round", "--in", consistent, "--out", rounded]) == 0
    assert main(["verify", "--in", rounded]) == 0
    capsys.readouterr()

    # whole-grid query on the raw file counts every body exactly once
    assert main(["query", "--in", raw, "--qr", "0:3,0:3"]) == 0
    assert capsys.readouterr().out.strip() == "12"

    assert main(["query", "--in", rounded, "--qr", "1:2,0:3"]) == 0
    assert int(capsys.readouterr().out.strip()) >= 0


def test_release_equals_stage_chain(bodies_file, tmp_path, capsys):
    raw = str(tmp_path / "raw.hist")
    noisy = str(tmp_path / "noisy.hist")
    consistent = str(tmp_path / "consistent.hist")
    rounded = str(tmp_path / "rounded.hist")
    released = str(tmp_path / "release.hist")

    main(["build", *_grid(bodies_file, tmp_path), "--diameter-bound", "6.0", "--out", raw])
    main(["privatize", "--in", raw, "--out", noisy,
          "--epsilon", "1.0", "--diameter-bound", "6.0", "--seed", "4"])
    main(["infer", "--in", noisy, "--out", consistent])
    main(["round", "--in", consistent, "--out", rounded])
    rc = main(["release", *_grid(bodies_file, tmp_path), "--out", released,
               "--epsilon", "1.0", "--diameter-bound", "6.0", "--seed", "4"])
    assert rc == 0
    with open(rounded) as a, open(released) as b:
        assert a.read() == b.read()


def test_release_reproducible_and_free_of_secrets(bodies_file, tmp_path, capsys):
    args = ["release", *_grid(bodies_file, tmp_path),
            "--epsilon", "1.0", "--diameter-bound", "6.0", "--seed", "99"]
    out1, out2 = str(tmp_path / "r1.hist"), str(tmp_path / "r2.hist")
    assert main([*args, "--out", out1]) == 0
    assert main([*args, "--out", out2]) == 0
    with open(out1) as a, open(out2) as b:
        text = a.read()
        assert text == b.read()
    assert "state: rounded" in text
    assert "epsilon: 1.0" in text
    assert "diameter_bound: 6.0" in text
    assert "seed" not in text
    h = read_histogram_file(out1)
    assert np.array_equal(h.counts, np.floor(h.counts))


def test_privatize_without_seed_draws_fresh_noise(bodies_file, tmp_path, capsys):
    raw = str(tmp_path / "raw.hist")
    main(["build", *_grid(bodies_file, tmp_path), "--diameter-bound", "6.0", "--out", raw])
    outs = [str(tmp_path / f"n{i}.hist") for i in range(2)]
    for out in outs:
        assert main(["privatize", "--in", raw, "--out", out,
                     "--epsilon", "1.0", "--diameter-bound", "6.0"]) == 0
    a, b = (read_histogram_file(o) for o in outs)
    assert not np.array_equal(a.counts, b.counts)


_SCIPY_MODULES_SCRIPT = """
import sys
from eulerdp.cli import build_parser, main

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

tracks, ingested, bodies, raw, noisy, consistent, released = sys.argv[1:]
loaded = {"import": scipy_modules()}
assert main(["ingest", "--tracks", tracks, "--out", ingested, "--area", "10000",
             "--diameter-bound", "1000", "--k", "3", "--center", "47.62,-122.33"]) == 0
loaded["ingest"] = scipy_modules()
assert main(["build", "--bodies", bodies, "--area", "4", "--n", "4", "--diameter-bound", "6.0",
             "--out", raw]) == 0
assert main(["verify", "--in", raw]) == 0
loaded["verify"] = scipy_modules()
assert main(["privatize", "--in", raw, "--out", noisy, "--epsilon", "1.0",
             "--diameter-bound", "6.0", "--seed", "11"]) == 0
assert main(["infer", "--in", noisy, "--out", consistent, "--objective", "linf"]) == 0
loaded["infer linf"] = scipy_modules()
assert main(["infer", "--in", noisy, "--out", consistent]) == 0
loaded["infer"] = scipy_modules()
assert main(["release", "--bodies", bodies, "--area", "4", "--n", "4", "--out", released,
             "--epsilon", "1.0", "--diameter-bound", "6.0", "--seed", "11"]) == 0
loaded["release"] = scipy_modules()
assert main(["query", "--in", released, "--qr", "0:3,0:3"]) == 0
loaded["query"] = scipy_modules()
print(loaded)
"""


def _run_python(script: str, *args: str) -> str:
    src = str(Path(eulerdp.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout


def test_no_command_imports_scipy(tracks_file, bodies_file, tmp_path):
    """numpy is the only runtime dependency: no command, ingest, l1 inference
    and the release included, loads any scipy module."""
    names = ("raw", "noisy", "consistent", "released")
    files = [str(tmp_path / f"{name}.hist") for name in names]
    ingested = str(tmp_path / "ingested.jsonl")
    out = _run_python(_SCIPY_MODULES_SCRIPT, tracks_file, ingested, bodies_file, *files)
    commands = ("import", "ingest", "verify", "infer linf", "infer", "release", "query")
    assert out.splitlines()[-1] == str({command: [] for command in commands})
    assert read_histogram_file(files[2]).state is HistogramState.CONSISTENT


_WITHOUT_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from eulerdp.cli import main

tracks, bodies, released, metrics = sys.argv[1:]
assert main(["ingest", "--tracks", tracks, "--out", bodies, "--area", "10000",
             "--diameter-bound", "1000", "--k", "3", "--center", "47.62,-122.33"]) == 0
assert main(["release", "--bodies", bodies, "--area", "10000", "--n", "8", "--out", released,
             "--epsilon", "1.0", "--diameter-bound", "1000", "--seed", "11"]) == 0
assert main(["verify", "--in", released]) == 0
assert main(["query", "--in", released, "--qr", "0:7,0:7"]) == 0
settings = ["area_side=5", "n=5", "diameter_bound=1", "epsilon=1", "seed=7",
            "synthetic=uniform", "count=40", "repetitions=2", "qr_percents=100"]
assert main(["experiment", *(a for kv in settings for a in ("--set", kv)), "--out", metrics]) == 0
print("ok")
"""


def test_commands_run_with_scipy_blocked(tracks_file, tmp_path):
    """The numpy-only install, offline: ingest, a release of its bodies,
    verify, query and a tiny experiment all exit 0 when importing scipy
    fails."""
    bodies = str(tmp_path / "ingested.jsonl")
    released, metrics = str(tmp_path / "release.hist"), str(tmp_path / "metrics.txt")
    out = _run_python(_WITHOUT_SCIPY_SCRIPT, tracks_file, bodies, released, metrics)
    assert out.splitlines()[-1] == "ok"
    assert read_bodies_file(bodies)[1] == ["near"]
    assert read_histogram_file(released).state is HistogramState.ROUNDED
    assert "# table: query_error" in Path(metrics).read_text()


def test_stage_order_is_enforced(bodies_file, tmp_path, capsys):
    raw = str(tmp_path / "raw.hist")
    noisy = str(tmp_path / "noisy.hist")
    main(["build", *_grid(bodies_file, tmp_path), "--diameter-bound", "6.0", "--out", raw])
    main(["privatize", "--in", raw, "--out", noisy,
          "--epsilon", "1.0", "--diameter-bound", "6.0", "--seed", "1"])
    capsys.readouterr()

    out = str(tmp_path / "x.hist")
    assert main(["privatize", "--in", noisy, "--out", out,
                 "--epsilon", "1.0", "--seed", "1"]) == 1
    assert "expects a raw histogram" in capsys.readouterr().err
    assert main(["infer", "--in", raw, "--out", out]) == 1
    assert "expects a noisy histogram" in capsys.readouterr().err
    assert main(["round", "--in", noisy, "--out", out]) == 1
    assert "expects a consistent histogram" in capsys.readouterr().err


def test_round_refuses_tampered_consistent_file(bodies_file, tmp_path, capsys):
    """A CONSISTENT file edited to put an edge above its face is refused
    with the violation counts, not mended, and nothing is written."""
    raw, noisy = str(tmp_path / "raw.hist"), str(tmp_path / "noisy.hist")
    consistent = tmp_path / "consistent.hist"
    assert main(["build", *_grid(bodies_file, tmp_path), "--diameter-bound", "6.0", "--out", raw]) == 0
    assert main(["privatize", "--in", raw, "--out", noisy, "--epsilon", "1.0",
                 "--diameter-bound", "6.0", "--seed", "11"]) == 0
    assert main(["infer", "--in", noisy, "--out", str(consistent)]) == 0
    h = read_histogram_file(str(consistent))
    p = h.partition
    counts = h.counts.copy()
    counts[p.hedge_offset] = counts[0] + counts[p.n] + 1.0  # above both its faces
    write_histogram_file(h.with_counts(counts, HistogramState.CONSISTENT), str(consistent))
    c1, c2, negative = verify_violations(read_histogram_file(str(consistent)))
    assert c1 == 2
    capsys.readouterr()
    out = tmp_path / "rounded.hist"
    assert main(["round", "--in", str(consistent), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"satisfy C1, C2 and x >= 0, got violations c1={c1} c2={c2} negative={negative}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "cell_side, message",
    [
        ("0", "cell_side must be finite and positive, got 0.0"),
        ("-0.0", "cell_side must be finite and positive, got -0.0"),
        ("nan", "cell_side must be finite and positive, got nan"),
        ("1e-320", "cell_side must divide area_side into >= 2 cells, got inf"),
    ],
)
def test_bad_cell_side_exits_one(bodies_file, tmp_path, capsys, cell_side, message):
    out = tmp_path / "release.hist"
    rc = main(["release", "--bodies", bodies_file, "--area", "4", "--cell-side", cell_side,
               "--epsilon", "1", "--diameter-bound", "6", "--seed", "1", "--out", str(out)])
    assert (rc, capsys.readouterr().err) == (1, f"error: {message}\n")
    assert not out.exists()
    keys = ["area_side=4", f"cell_side={cell_side}", "diameter_bound=1", "epsilon=1", "seed=7",
            "synthetic=uniform", "count=5", "repetitions=1"]
    assert main(["experiment", *(a for kv in keys for a in ("--set", kv))]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_query_argument_validation(bodies_file, tmp_path, capsys):
    raw = str(tmp_path / "raw.hist")
    main(["build", *_grid(bodies_file, tmp_path), "--out", raw])
    capsys.readouterr()
    assert main(["query", "--in", raw, "--qr", "whole-grid"]) == 1
    assert "r0:r1,c0:c1" in capsys.readouterr().err
    assert main(["query", "--in", raw, "--qr", "0:4,0:3"]) == 1
    assert "does not fit" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--epsilon", "--diameter-bound"])
@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_non_finite_privacy_flags_exit_one(bodies_file, tmp_path, capsys, flag, bad):
    """An infinite epsilon would publish exact counts: both commands that draw
    noise refuse non-finite privacy parameters as user errors."""
    raw = str(tmp_path / "raw.hist")
    assert main(["build", *_grid(bodies_file, tmp_path), "--diameter-bound", "6.0", "--out", raw]) == 0
    privacy = {"--epsilon": "1.0", "--diameter-bound": "6.0", flag: bad}
    flags = [a for kv in privacy.items() for a in kv]
    field = flag[2:].replace("-", "_")
    for command in (["privatize", "--in", raw], ["release", *_grid(bodies_file, tmp_path)]):
        out = tmp_path / "out.hist"
        capsys.readouterr()
        assert main([*command, "--out", str(out), *flags, "--seed", "1"]) == 1
        assert f"error: {field} must be finite and positive" in capsys.readouterr().err
        assert not out.exists()


def test_vanishing_epsilon_exits_one(bodies_file, tmp_path, capsys):
    """sensitivity / 1e-308 overflows to an infinite noise scale, which is
    refused by name before any noise is drawn."""
    out = tmp_path / "out.hist"
    rc = main(["release", *_grid(bodies_file, tmp_path), "--out", str(out),
               "--epsilon", "1e-308", "--diameter-bound", "6", "--seed", "1"])
    assert rc == 1
    assert "error: epsilon 1e-308 is too small" in capsys.readouterr().err
    assert not out.exists()


def test_short_histogram_claiming_a_huge_grid_exits_one(tmp_path, capsys):
    """The header's n is checked against the lines the file holds before
    the counts are allocated: no MemoryError, a format error."""
    path = tmp_path / "huge.hist"
    path.write_text(
        "euler-histogram v1\nstate: rounded\narea_side: 1.0\nn: 300000\n"
        "faces 300000 300000\n0\n"
    )
    assert main(["verify", "--in", str(path)]) == 1
    assert "truncated histogram: n=300000" in capsys.readouterr().err


def test_trailing_content_in_a_histogram_exits_one(bodies_file, tmp_path, capsys):
    raw = tmp_path / "raw.hist"
    main(["build", *_grid(bodies_file, tmp_path), "--out", str(raw)])
    assert main(["verify", "--in", str(raw)]) == 0
    raw.write_text(raw.read_text() + "5 5 5 5\ngarbage\n")
    capsys.readouterr()
    assert main(["verify", "--in", str(raw)]) == 1
    assert "after the vertices section" in capsys.readouterr().err


@pytest.mark.parametrize(
    "pattern, replacement, message",
    [
        (r"(^faces .*\n)[^ ]*", r"\1abc", "section 'faces' row 0: could not convert string to float: 'abc'"),
        (r"(^faces .*\n.*) [^ \n]*$", r"\1", "section 'faces' row 0: expected 4 values"),
        (r"^epsilon: .*$", "epsilon: nan", "epsilon: must be finite and positive, got nan"),
    ],
    ids=["abc", "short-row", "nan-epsilon"],
)
def test_malformed_release_exits_one(bodies_file, tmp_path, capsys, pattern, replacement, message):
    """A release whose first count reads abc, whose first faces row lost a
    count, or whose epsilon reads nan is a format error."""
    path = tmp_path / "release.hist"
    assert main(["release", *_grid(bodies_file, tmp_path), "--epsilon", "1", "--diameter-bound", "6.0",
                 "--seed", "7", "--out", str(path)]) == 0
    text, edits = re.subn(pattern, replacement, path.read_text(), count=1, flags=re.M)
    assert edits == 1
    path.write_text(text)
    capsys.readouterr()
    assert main(["verify", "--in", str(path)]) == 1
    assert message in capsys.readouterr().err


def test_missing_input_file_is_a_user_error(tmp_path, capsys):
    assert main(["privatize", "--in", str(tmp_path / "absent.hist"),
                 "--out", str(tmp_path / "x.hist"), "--epsilon", "1"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["frobnicate"],
        ["build", "--area", "4", "--n", "4", "--out", "x"],  # --bodies missing
        ["build", "--bodies", "b", "--area", "4", "--n", "4", "--cell-side", "1", "--out", "x"],
    ],
)
def test_flag_errors_exit_one(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


def test_one_parser_serves_every_call(bodies_file, tmp_path, capsys):
    assert build_parser() is build_parser()
    raw = str(tmp_path / "raw.hist")
    assert main(["build", *_grid(bodies_file, tmp_path), "--out", raw]) == 0
    assert main(["query", "--in", raw, "--qr", "0:3,0:3"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "12"
    with pytest.raises(SystemExit) as exc:
        main(["query", "--in", raw])  # --qr missing
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: eulerdp query") and "the following arguments are required: --qr" in err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: eulerdp") and "release" in out and "verify" in out
    assert main(["verify", "--in", raw]) == 0


@pytest.mark.parametrize(
    "record",
    [
        '[1, 2]', '"just a string"', '{"user_id": "a", "vertices": {"x": 1}}',
        pytest.param('{"user_id": "a", "vertices": [[0, 0], [1' + "0" * 400 + ', 0], [0, 1]]}', id="huge integer"),
    ],
)
def test_malformed_bodies_record_is_a_user_error(record, tmp_path, capsys):
    path, out = tmp_path / "bodies.jsonl", tmp_path / "raw.hist"
    path.write_text(record + "\n")
    assert main(["build", "--bodies", str(path), "--area", "4", "--n", "4", "--out", str(out)]) == 1
    assert "bodies line 1" in capsys.readouterr().err
    assert not out.exists()


def test_privatize_refuses_a_bound_the_bodies_were_not_checked_against(bodies_file, tmp_path, capsys):
    """The noise is calibrated to the bound, and the noisy file states it:
    privatize refuses a bound below the one build checked, or any bound for
    a raw file that records none. A bound at or above it adds more noise."""
    unchecked, raw = str(tmp_path / "unchecked.hist"), str(tmp_path / "raw.hist")
    assert main(["build", *_grid(bodies_file, tmp_path), "--out", unchecked]) == 0
    assert main(["build", *_grid(bodies_file, tmp_path), "--diameter-bound", "6.0", "--out", raw]) == 0
    out = tmp_path / "noisy.hist"
    refusals = [
        (unchecked, ["--diameter-bound", "6.0"], "records no diameter bound, so --diameter-bound 6.0"),
        (unchecked, [], "records no diameter bound, so --diameter-bound None"),
        (raw, ["--diameter-bound", "5.0"], "--diameter-bound 5.0 is below the diameter bound 6.0"),
    ]
    for path, flags, message in refusals:
        capsys.readouterr()
        assert main(["privatize", "--in", path, "--out", str(out), "--epsilon", "1", *flags, "--seed", "1"]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
    for flags, recorded in (([], 6.0), (["--diameter-bound", "6.0"], 6.0), (["--diameter-bound", "8.0"], 8.0)):
        assert main(["privatize", "--in", raw, "--out", str(out), "--epsilon", "1", *flags, "--seed", "1"]) == 0
        assert read_histogram_file(str(out)).diameter_bound == recorded


def test_release_names_the_line_of_a_clockwise_body(tmp_path, capsys):
    path, out = tmp_path / "clockwise.jsonl", tmp_path / "clockwise.hist"
    path.write_text(
        '{"user_id": "a", "vertices": [[0.5, 0.5]]}\n'
        '{"user_id": "b", "vertices": [[1, 1], [1, 2], [2, 1]]}\n'
    )
    assert main(["release", "--bodies", str(path), "--area", "5", "--n", "5", "--epsilon", "1",
                 "--diameter-bound", "1", "--seed", "7", "--out", str(out)]) == 1
    assert "bodies line 2" in capsys.readouterr().err
    assert not out.exists()


def test_build_names_refused_bodies_by_user_id(tmp_path, capsys):
    path = tmp_path / "bodies.jsonl"
    path.write_text(
        '{"user_id": "u0", "vertices": [[0.5, 0.5]]}\n'
        '{"user_id": "u1", "vertices": [[3.5, 3.5], [4.5, 3.5], [3.5, 4.5]]}\n'
    )
    out = tmp_path / "raw.hist"
    assert main(["build", "--bodies", str(path), "--area", "4", "--n", "4", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: 1 invalid bodies: user 'u1': extends outside the area rectangle\n"
    assert not out.exists()


def test_build_command_counts_exact_closed_set_meets(tmp_path, capsys):
    """A body 5e-10 past the area edge is refused, and a unit square 1e-12
    short of a grid line meets its own face only, as the library counts."""
    path, out = tmp_path / "bodies.jsonl", tmp_path / "raw.hist"
    grid = ["--bodies", str(path), "--area", "8", "--n", "4", "--out", str(out)]
    write_bodies_file([convex_hull([(0.0, 0.0), (8.0 + 5e-10, 0.0), (0.0, 1.0)])], str(path))
    assert main(["build", *grid]) == 1
    assert "user 'u0': extends outside the area rectangle" in capsys.readouterr().err
    assert not out.exists()
    x0, x1 = 1.0 - 1e-12, 2.0 - 1e-12  # the right edge 1e-12 short of the grid line x = 2
    square = convex_hull([(x0, 0.5), (x1, 0.5), (x1, 1.5), (x0, 1.5)])
    write_bodies_file([square], str(path))
    assert main(["build", *grid]) == 0
    counts = read_histogram_file(str(out)).counts
    p = build_partition(8.0, 4)
    assert np.array_equal(counts, build([square], p).counts)
    assert np.flatnonzero(counts).tolist() == [0] and counts[0] == 1  # face (0, 0)


def _covert_gap_file(tmp_path):
    # constraints all hold, yet the full-grid count is 9 - 12 + 0 = -3
    p = build_partition(3.0, 3)
    counts = np.zeros(p.size)
    counts[: p.hedge_offset] = 1.0
    counts[p.hedge_offset : p.vertex_offset] = 1.0
    path = str(tmp_path / "gap.hist")
    write_histogram_file(EulerHistogram(p, counts, HistogramState.ROUNDED), path)
    return path


def test_verify_catches_negative_rectangles(tmp_path, capsys):
    path = _covert_gap_file(tmp_path)
    assert main(["verify", "--in", path]) == 1
    out = capsys.readouterr().out
    assert "violations: c1=0 c2=0 negative=0" in out
    assert "minimum rectangle count: -3" in out


def test_repair_and_verify_at_n200(tmp_path, capsys):
    # one 3x3 block whose faces and 12 interior edges are 1 and vertices 0:
    # C1-C3 hold everywhere, yet the block counts 9 - 12 + 0 = -3. The block
    # sits at the origin corner so the first minimal rectangle is the block
    # itself: anywhere else, repair raises one empty face per row and column
    # between the block and the origin, which takes thousands of scans here.
    p = build_partition(200.0, 200)
    faces, hedges, vedges = np.zeros((200, 200)), np.zeros((199, 200)), np.zeros((200, 199))
    faces[0:3, 0:3] = 1.0
    hedges[0:2, 0:3] = 1.0
    vedges[0:3, 0:2] = 1.0
    counts = np.concatenate([faces.ravel(), hedges.ravel(), vedges.ravel(), np.zeros(199 * 199)])
    h = EulerHistogram(p, counts, HistogramState.ROUNDED)
    t0 = time.perf_counter()
    assert verify_violations(h) == (0, 0, 0)
    assert min_rectangle_count(h)[0] == -3.0
    fixed, report = repair(h)
    assert report.rect_fixes >= 1
    path = str(tmp_path / "fixed.hist")
    write_histogram_file(fixed, path)
    assert main(["verify", "--in", path]) == 0
    assert "violations: c1=0 c2=0 negative=0" in capsys.readouterr().out
    assert time.perf_counter() - t0 < 20.0


def test_verify_catches_family_violations(tmp_path, capsys):
    p = build_partition(3.0, 3)
    counts = np.zeros(p.size)
    counts[p.hedge_offset] = 99.0  # an edge above every incident face
    path = str(tmp_path / "bad.hist")
    write_histogram_file(EulerHistogram(p, counts, HistogramState.ROUNDED), path)
    assert main(["verify", "--in", path]) == 1
    # both face pairings of the edge break
    assert "violations: c1=2 c2=0 negative=0" in capsys.readouterr().out


def test_verify_catches_a_vertex_above_one_edge(tmp_path, capsys):
    """A vertex above one of its four edges, everything else consistent,
    breaks one C2 row."""
    p = build_partition(3.0, 3)
    counts = np.concatenate([np.full(9, 5.0), [1.0], np.full(11, 2.0), [2.0, 1.0, 1.0, 1.0]])
    path = str(tmp_path / "vertex-above.hist")
    write_histogram_file(EulerHistogram(p, counts, HistogramState.ROUNDED), path)
    assert main(["verify", "--in", path]) == 1
    assert "violations: c1=0 c2=1 negative=0" in capsys.readouterr().out


def test_verify_and_repair_refuse_a_negative_count(tmp_path, capsys):
    """Faces 5, edges 2 and vertices 1 but one at -1 meet C1, C2 and every
    aggregate row, and every rectangle counts at least 5; the negative count
    alone exposes the noise."""
    p = build_partition(3.0, 3)
    counts = np.concatenate([np.full(9, 5.0), np.full(12, 2.0), [-1.0, 1.0, 1.0, 1.0]])
    path = str(tmp_path / "negative.hist")
    write_histogram_file(EulerHistogram(p, counts, HistogramState.ROUNDED), path)
    assert main(["verify", "--in", path]) == 1
    out = capsys.readouterr().out
    assert "violations: c1=0 c2=0 negative=1" in out
    assert "minimum rectangle count: 5 " in out
    with pytest.raises(ValueError, match="got violations c1=0 c2=0 negative=1$"):
        repair(read_histogram_file(path))


def test_verify_and_round_agree_on_solver_dust(tmp_path, capsys):
    """An edge 5e-8 above its faces breaks C1 exactly as rounding would
    break it: verify and round both refuse the file with the same counts."""
    p = build_partition(2.0, 2)
    counts = np.concatenate([np.full(4, 0.49999999), [0.50000004, 0.0, 0.0, 0.0, 0.0]])
    path = str(tmp_path / "dust.hist")
    write_histogram_file(EulerHistogram(p, counts, HistogramState.CONSISTENT), path)
    assert main(["verify", "--in", path]) == 1
    assert "violations: c1=2 c2=0 negative=0" in capsys.readouterr().out
    out = tmp_path / "rounded.hist"
    assert main(["round", "--in", path, "--out", str(out)]) == 1
    assert "got violations c1=2 c2=0 negative=0" in capsys.readouterr().err
    assert not out.exists()


def test_round_refuses_a_consistent_file_that_verify_refuses(tmp_path, capsys):
    """Faces of 0.5 and an edge 4e-8 above them break C1, which rounding
    would hide (all round to 1): round refuses the file as verify does,
    with the same counts, and writes nothing."""
    p = build_partition(2.0, 2)
    counts = np.concatenate([np.full(4, 0.5), [0.50000004, 0.0, 0.0, 0.0, 0.0]])
    path = str(tmp_path / "half.hist")
    write_histogram_file(EulerHistogram(p, counts, HistogramState.CONSISTENT), path)
    assert main(["verify", "--in", path]) == 1
    assert "violations: c1=2 c2=0 negative=0" in capsys.readouterr().out
    out = tmp_path / "rounded.hist"
    assert main(["round", "--in", path, "--out", str(out)]) == 1
    assert "got violations c1=2 c2=0 negative=0" in capsys.readouterr().err
    assert not out.exists()


def _experiment_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# tiny smoke experiment\n"
        "area_side = 5.0\n"
        "n = 5\n"
        "diameter_bound = 1.0\n"
        "epsilon = 1.0\n"
        "seed = 7\n"
        "synthetic = uniform\n"
        "count = 20\n"
        "repetitions = 2\n"
        "qr_percents = 100\n"
    )
    return str(path)


def test_experiment_with_config_and_overrides(tmp_path, capsys):
    cfg = _experiment_config(tmp_path)
    metrics = str(tmp_path / "metrics.tsv")
    assert main(["experiment", "--config", cfg, "--out", metrics]) == 0
    text = open(metrics).read()
    assert "# table: config" in text
    assert "# table: query_error" in text
    assert "repetitions\t2" in text

    assert main(["experiment", "--config", cfg, "--set", "epsilon=0.5"]) == 0
    out = capsys.readouterr().out
    assert "epsilon\t0.5" in out

    assert main(["experiment", "--config", cfg, "--set", "epsilon"]) == 1
    assert main(["experiment", "--config", cfg, "--set", "no_such_key=1"]) == 1
    assert main(["experiment", "--config", cfg, "--set", "workers=2"]) == 1
    assert "unknown config keys: workers" in capsys.readouterr().err


def test_ingest_command(tracks_file, tmp_path, capsys):
    out = str(tmp_path / "bodies.jsonl")
    rc = main([
        "ingest", "--tracks", tracks_file, "--out", out,
        "--area", "10000", "--diameter-bound", "1000", "--k", "3",
        "--center", "47.62,-122.33",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert "skipped user far: no points inside the area" in captured.err
    assert "1 bodies written" in captured.out and "1 users skipped" in captured.out
    bodies, ids = read_bodies_file(out)
    assert ids == ["near"] and len(bodies) == 1


@pytest.mark.parametrize(
    "flag, bad, message",
    [
        ("--area", "inf", "area_side must be finite and positive, got inf"),
        ("--area", "nan", "area_side must be finite and positive, got nan"),
        ("--diameter-bound", "inf", "diameter_bound must be finite and positive, got inf"),
        ("--origin", "nan,0", "origin must be finite, got (nan, 0.0)"),
        ("--center", "47.62,inf", "center must be finite, got (47.62, inf)"),
    ],
)
def test_ingest_non_finite_flags_exit_one(tracks_file, tmp_path, capsys, flag, bad, message):
    """A non-finite size or coordinate is a user error before any track is
    read, with no numpy warning and no bodies file."""
    flags = {"--area": "10000", "--diameter-bound": "1000", "--center": "47.62,-122.33", flag: bad}
    out = tmp_path / "bodies.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["ingest", "--tracks", tracks_file, "--out", str(out), "--k", "3",
                   *(a for kv in flags.items() for a in kv)])
    assert rc == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not out.exists()
