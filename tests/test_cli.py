"""End-to-end checks of the command-line pipeline.

Everything goes through ``main(argv)`` with files in a tmp directory, the
same path a shell user takes. Flag errors surface as SystemExit(1) because
argparse owns those; everything else returns an exit code.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import lattice_body
from eulerdp import (
    EulerHistogram,
    HistogramState,
    build_partition,
    min_rectangle_count,
    repair,
    verify_violations,
)
from eulerdp.cli import main
from eulerdp.fileio import read_bodies_file, read_histogram_file, write_bodies_file, write_histogram_file


@pytest.fixture
def bodies_file(tmp_path):
    rng = np.random.default_rng(31)
    bodies = [lattice_body(rng, 4.0) for _ in range(12)]
    path = tmp_path / "bodies.jsonl"
    write_bodies_file(bodies, str(path))
    return str(path)


def _grid(bodies_file, tmp_path):
    return ["--bodies", bodies_file, "--area", "4", "--n", "4"]


def test_stage_chain(bodies_file, tmp_path, capsys):
    raw = str(tmp_path / "raw.hist")
    noisy = str(tmp_path / "noisy.hist")
    consistent = str(tmp_path / "consistent.hist")
    rounded = str(tmp_path / "rounded.hist")

    assert main(["build", *_grid(bodies_file, tmp_path), "--out", raw]) == 0
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

    main(["build", *_grid(bodies_file, tmp_path), "--out", raw])
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
    main(["build", *_grid(bodies_file, tmp_path), "--out", raw])
    outs = [str(tmp_path / f"n{i}.hist") for i in range(2)]
    for out in outs:
        assert main(["privatize", "--in", raw, "--out", out,
                     "--epsilon", "1.0", "--diameter-bound", "6.0"]) == 0
    a, b = (read_histogram_file(o) for o in outs)
    assert not np.array_equal(a.counts, b.counts)


def test_stage_order_is_enforced(bodies_file, tmp_path, capsys):
    raw = str(tmp_path / "raw.hist")
    noisy = str(tmp_path / "noisy.hist")
    main(["build", *_grid(bodies_file, tmp_path), "--out", raw])
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


def test_query_argument_validation(bodies_file, tmp_path, capsys):
    raw = str(tmp_path / "raw.hist")
    main(["build", *_grid(bodies_file, tmp_path), "--out", raw])
    capsys.readouterr()
    assert main(["query", "--in", raw, "--qr", "whole-grid"]) == 1
    assert "r0:r1,c0:c1" in capsys.readouterr().err
    assert main(["query", "--in", raw, "--qr", "0:4,0:3"]) == 1
    assert "does not fit" in capsys.readouterr().err


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
    assert "violations: c1=0 c2=0 c3=0" in out
    assert "minimum rectangle count: -3" in out


def test_repair_and_verify_at_n200(tmp_path, capsys):
    # one 3x3 block whose faces and 12 interior edges are 1 and vertices 0:
    # C1-C3 hold everywhere, yet the block counts 9 - 12 + 0 = -3. The block
    # sits at the origin corner so the first minimal rectangle is the block
    # itself: anywhere else, repair raises one empty face per row and column
    # between the block and the origin, which takes thousands of scans here.
    p = build_partition(200.0, 200)
    h = EulerHistogram(p, np.zeros(p.size), HistogramState.ROUNDED)
    h.faces[0:3, 0:3] = 1.0
    h.hedges[0:2, 0:3] = 1.0
    h.vedges[0:3, 0:2] = 1.0
    t0 = time.perf_counter()
    assert verify_violations(h) == (0, 0, 0)
    assert min_rectangle_count(h)[0] == -3.0
    fixed, report = repair(h)
    assert report.rect_fixes >= 1
    path = str(tmp_path / "fixed.hist")
    write_histogram_file(fixed, path)
    assert main(["verify", "--in", path]) == 0
    assert "violations: c1=0 c2=0 c3=0" in capsys.readouterr().out
    assert time.perf_counter() - t0 < 20.0


def test_verify_catches_family_violations(tmp_path, capsys):
    p = build_partition(3.0, 3)
    counts = np.zeros(p.size)
    counts[p.hedge_offset] = 99.0  # an edge above every incident face
    path = str(tmp_path / "bad.hist")
    write_histogram_file(EulerHistogram(p, counts, HistogramState.ROUNDED), path)
    assert main(["verify", "--in", path]) == 1
    # both face pairings of the edge break, and its vertex alternating sum
    assert "violations: c1=2 c2=0 c3=1" in capsys.readouterr().out


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


def test_ingest_command(tmp_path, capsys):
    tracks = tmp_path / "tracks.csv"
    tracks.write_text(
        "user_id,lat,lon\n"
        "near,47.6201,-122.3301\n"
        "near,47.6203,-122.3299\n"
        "near,47.6199,-122.3302\n"
        "near,47.6202,-122.3298\n"
        "near,47.6200,-122.3300\n"
        "far,10.0,10.0\n"
    )
    out = str(tmp_path / "bodies.jsonl")
    rc = main([
        "ingest", "--tracks", str(tracks), "--out", out,
        "--area", "10000", "--diameter-bound", "1000", "--k", "3",
        "--center", "47.62,-122.33",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert "skipped user far: no points inside the area" in captured.err
    assert "1 bodies written" in captured.out and "1 users skipped" in captured.out
    bodies, ids = read_bodies_file(out)
    assert ids == ["near"] and len(bodies) == 1
