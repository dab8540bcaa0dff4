"""Experiment configuration, execution, determinism, and report assembly."""

from __future__ import annotations

import io
import math
import re

import pytest

from conftest import ConstantNoise
from eulerdp import (
    ConfigError,
    ExperimentConfig,
    PrivacyParams,
    build_partition,
    config_from_mapping,
    resolve_grid_n,
    run_query_experiment,
    shapes_for_percent,
    write_metrics,
)
from eulerdp.harness import load_experiment_bodies


def test_shapes_for_percent_goldens():
    assert shapes_for_percent(10, 10.0) == [(1, 10), (2, 5), (5, 2), (10, 1)]
    assert shapes_for_percent(10, 25.0) == [(5, 5)]
    assert shapes_for_percent(10, 50.0) == [(5, 10), (10, 5)]
    assert shapes_for_percent(10, 100.0) == [(10, 10)]
    assert shapes_for_percent(10, 0.1) == [(1, 1)]


def test_shapes_for_percent_nearest_achievable():
    # 96% of a 7x7 grid asks for 47 cells; nothing near it factors into a
    # 7-bounded rectangle until 49
    assert shapes_for_percent(7, 96.0) == [(7, 7)]


def test_shapes_for_percent_validation():
    with pytest.raises(ConfigError):
        shapes_for_percent(10, 0.0)
    with pytest.raises(ConfigError):
        shapes_for_percent(10, 100.5)


def test_resolve_grid_n():
    assert resolve_grid_n(20000.0, 20, None) == 20
    assert resolve_grid_n(20000.0, None, 1000.0) == 20
    assert resolve_grid_n(2.0, None, 2.0 / 30.0) == 30  # ratio lands on 30.000000000000004
    assert resolve_grid_n(0.3, None, 0.1) == 3  # and this one on 2.9999999999999996
    assert resolve_grid_n(20000.0, 20, 1000.0) == 20
    with pytest.raises(ConfigError):
        resolve_grid_n(20000.0, 20, 999.0)
    with pytest.raises(ConfigError):
        resolve_grid_n(20000.0, 1, None)
    with pytest.raises(ConfigError):
        resolve_grid_n(20000.0, None, None)
    with pytest.raises(ConfigError):
        resolve_grid_n(10.0, None, 3.0)
    with pytest.raises(ConfigError):
        resolve_grid_n(10.0, None, 20.0)


@pytest.mark.parametrize(
    "cell_side, message",
    [
        (0.0, "cell_side must be finite and positive, got 0.0"),
        (-0.0, "cell_side must be finite and positive, got -0.0"),
        (math.nan, "cell_side must be finite and positive, got nan"),
        (math.inf, "cell_side must be finite and positive, got inf"),
        (1e-320, "cell_side must divide area_side into >= 2 cells, got inf"),
    ],
)
def test_bad_cell_side_is_a_config_error(cell_side, message):
    """The cell side is checked before the area is divided by it, here and
    in an experiment config."""
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        resolve_grid_n(5.0, None, cell_side)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        _base_config(n=None, cell_side=cell_side)


def _base_config(**kw):
    defaults = dict(
        area_side=5.0,
        diameter_bound=1.0,
        epsilon=1.0,
        seed=7,
        n=5,
        synthetic="uniform",
        count=40,
        repetitions=4,
        qr_percents=(100.0,),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        _base_config(epsilon=0.0)
    with pytest.raises(ConfigError):
        _base_config(synthetic=None)  # no body source at all
    with pytest.raises(ConfigError):
        _base_config(bodies_path="x.jsonl")  # two body sources
    with pytest.raises(ConfigError):
        _base_config(repetitions=0)
    with pytest.raises(ConfigError, match=r"^seed must be an integer in \[0, 2\*\*64\), got -1$"):
        _base_config(seed=-1)  # refused by name, not inside numpy's seeding
    with pytest.raises(ConfigError):
        _base_config(objective="l2")
    with pytest.raises(ConfigError):
        _base_config(qr_percents=(), qr_shapes=())
    with pytest.raises(ConfigError):
        _base_config(qr_shapes=((6, 2),))  # does not fit n=5
    assert _base_config(qr_shapes=((5, 2),)).grid_n == 5


@pytest.mark.parametrize("field, bad", [("n", 5.0), ("count", 2.5), ("repetitions", 2.5), ("seed", 1.5)])
def test_experiment_config_refuses_a_non_integer_by_name(field, bad):
    """Refused when the config is made, not as a TypeError inside
    ``shapes_for_percent`` or ``run_query_experiment``."""
    # a seed's text also states its range
    with pytest.raises(ConfigError, match=rf"^{field} must be an integer(| in .*), got {bad}$"):
        _base_config(**{field: bad})


@pytest.mark.parametrize("field", ["area_side", "diameter_bound", "epsilon"])
@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0])
def test_experiment_config_refuses_non_finite_parameters(field, bad):
    with pytest.raises(ConfigError, match=f"{field} must be finite and positive"):
        _base_config(**{field: bad})


def test_experiment_config_refuses_what_its_partition_and_params_refuse():
    """A seed past 64 bits (once run with seed 0's noise streams), a NaN
    origin and an epsilon whose noise scale overflows are refused when the
    config is made, in the texts of the objects a run uses."""
    with pytest.raises(ConfigError, match=rf"^seed must be an integer in \[0, 2\*\*64\), got {2**64}$"):
        _base_config(seed=2**64)
    with pytest.raises(ConfigError, match=r"^origin must be finite, got \(nan, 0.0\)$"):
        _base_config(origin=(math.nan, 0.0))
    with pytest.raises(ConfigError, match=r"^epsilon 1e-308 is too small: the noise scale overflows$"):
        _base_config(epsilon=1e-308)
    cfg = _base_config(seed=2**64 - 1, origin=(2.5, -1.0))
    assert cfg.partition == build_partition(cfg.area_side, 5, (2.5, -1.0))
    assert cfg.params == PrivacyParams(cfg.epsilon, cfg.diameter_bound)


def test_config_from_mapping_full():
    cfg = config_from_mapping({
        "area_side": "20000",
        "cell_side": "1000",
        "diameter_bound": "2000",
        "epsilon": "0.5",
        "seed": "99",
        "synthetic": "clustered",
        "count": "500",
        "repetitions": "12",
        "qr_percents": "10, 50",
        "qr_shapes": "2x3, 20x1",
        "origin_x": "100.5",
        "objective": "linf",
    })
    assert cfg.grid_n == 20
    assert cfg.qr_percents == (10.0, 50.0)
    assert cfg.qr_shapes == ((2, 3), (20, 1))
    assert cfg.origin == (100.5, 0.0)
    assert cfg.objective == "linf"


def test_config_from_mapping_errors():
    base = {"area_side": "10", "n": "5", "diameter_bound": "2", "epsilon": "1",
            "seed": "1", "synthetic": "uniform"}
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_mapping({**base, "sigma": "3"})
    with pytest.raises(ConfigError, match="unknown config keys: delta"):
        config_from_mapping({**base, "delta": "0.1"})
    with pytest.raises(ConfigError, match="unknown config keys: workers"):
        config_from_mapping({**base, "workers": "2"})
    with pytest.raises(ConfigError, match="missing required"):
        config_from_mapping({"n": "5", "synthetic": "uniform"})
    with pytest.raises(ConfigError, match="config key n"):
        config_from_mapping({**base, "n": "five"})
    with pytest.raises(ConfigError, match=r"^seed must be an integer in \[0, 2\*\*64\), got -1$"):
        config_from_mapping({**base, "seed": "-1"})
    with pytest.raises(ConfigError, match="config key qr_shapes: shape '3by3' is not RxC"):
        config_from_mapping({**base, "qr_shapes": "3by3"})
    with pytest.raises(ConfigError, match="config key qr_percents: could not convert"):
        config_from_mapping({**base, "qr_percents": "(10.0, 25.0)"})
    with pytest.raises(ConfigError):
        config_from_mapping({**base, "bodies": "b.jsonl"})  # two sources
    assert config_from_mapping(base).count == 1000
    from_file = {k: v for k, v in base.items() if k != "synthetic"}
    with pytest.raises(ConfigError, match="count and bodies"):
        config_from_mapping({**from_file, "bodies": "b.jsonl", "count": "40"})


def test_config_from_mapping_bodies_source(tmp_path):
    from eulerdp.fileio import write_bodies_file
    from eulerdp import convex_hull

    path = tmp_path / "bodies.jsonl"
    write_bodies_file([convex_hull([(1.0, 1.0), (2.0, 1.0), (2.0, 2.0)])], str(path))
    cfg = config_from_mapping({
        "area_side": "10", "n": "5", "diameter_bound": "3", "epsilon": "1",
        "seed": "1", "bodies": str(path),
    })
    assert cfg.bodies_path == str(path)
    bodies = load_experiment_bodies(cfg)
    assert len(bodies) == 1


def test_zero_noise_experiment_has_zero_error(monkeypatch):
    monkeypatch.setattr("eulerdp.harness.RandomSource", lambda seed: ConstantNoise(0.0))
    report = run_query_experiment(_base_config())
    for label, alg, err, samples in report.query_rows:
        assert err == 0.0
        assert samples == 4  # one 5x5 shape per repetition
    for alg, l1, ratio in report.histogram_rows:
        assert l1 == 0.0 and ratio == 1.0
    for stage, c1, c2, c3 in report.violation_rows:
        assert (c1, c2, c3) == (0.0, 0.0, 0.0)
    assert report.median_error("100%", "DP") == 0.0
    with pytest.raises(KeyError):
        report.median_error("100%", "XX")


def test_experiment_is_deterministic_for_a_seed():
    a = run_query_experiment(_base_config(qr_percents=(20.0, 100.0), repetitions=5))
    b = run_query_experiment(_base_config(qr_percents=(20.0, 100.0), repetitions=5))
    assert a.query_rows == b.query_rows
    assert a.histogram_rows == b.histogram_rows
    assert a.violation_rows == b.violation_rows
    assert a.repair_rows == b.repair_rows
    c = run_query_experiment(_base_config(qr_percents=(20.0, 100.0), repetitions=5, seed=8))
    assert c.query_rows != a.query_rows


def test_experiment_report_structure():
    report = run_query_experiment(_base_config(qr_shapes=((2, 3),)))
    labels = [row[0] for row in report.query_rows]
    assert labels == ["100%", "100%", "100%", "2x3", "2x3", "2x3"]
    assert [row[1] for row in report.query_rows] == ["DP", "C", "R"] * 2
    assert [row[0] for row in report.violation_rows] == ["noisy", "consistent", "released"]
    assert [row[0] for row in report.timing_rows] == [
        "build", "privatize", "infer", "round", "repair",
    ]
    assert [row[0] for row in report.repair_rows] == ["median_cost", "mean_cost", "max_cost"]
    echo = dict(report.config_echo)
    assert echo["grid_n"] == "5" and echo["synthetic"] == "uniform"
    # inference clears the noise violations in every repetition
    stages = {row[0]: row[1:] for row in report.violation_rows}
    assert stages["consistent"] == (0.0, 0.0, 0.0)
    assert stages["released"] == (0.0, 0.0, 0.0)


def test_report_echoes_a_moved_origin():
    echo = dict(run_query_experiment(_base_config(repetitions=1)).config_echo)
    assert "origin_x" not in echo and "origin_y" not in echo
    moved = _base_config(repetitions=1, origin=(100.5, 7.0))
    echo = dict(run_query_experiment(moved).config_echo)
    assert (echo["origin_x"], echo["origin_y"]) == ("100.5", "7.0")
    cfg = config_from_mapping({
        "area_side": "5", "n": "5", "diameter_bound": "1", "epsilon": "1",
        "seed": "7", "synthetic": "uniform", "count": "40", "repetitions": "1",
        "qr_percents": "100", "origin_x": "100.5",
    })
    buf = io.StringIO()
    write_metrics(run_query_experiment(cfg), buf)
    assert "origin_x\t100.5\norigin_y\t0.0\n" in buf.getvalue()


def _config_table(text: str) -> dict[str, str]:
    block = text.split("# table: config\n", 1)[1].split("\n\n", 1)[0]
    return dict(line.split("\t") for line in block.splitlines() if not line.startswith("#"))


@pytest.mark.parametrize("kw", [
    dict(qr_percents=(10.0, 25.0), qr_shapes=((2, 3), (5, 1))),
    dict(n=None, cell_side=0.5, objective="linf", origin=(100.5, -7.25), qr_shapes=((3, 3),)),
    dict(synthetic=None, count=None, qr_percents=(50.0, 100.0), origin=(0.0, 2.5)),
], ids=["percents_and_shapes", "linf_cell_side_moved_origin", "bodies_file"])
def test_report_config_table_reads_back(tmp_path, kw):
    from eulerdp.fileio import write_bodies_file
    from eulerdp import convex_hull

    if "synthetic" in kw:  # the bodies_file case reads a bodies file instead
        path = tmp_path / "bodies.jsonl"
        write_bodies_file([convex_hull([(1.0, 3.5), (1.5, 3.5), (1.5, 4.0)])], str(path))
        kw = {**kw, "bodies_path": str(path)}
    config = _base_config(repetitions=1, **kw)
    buf = io.StringIO()
    write_metrics(run_query_experiment(config), buf)
    table = _config_table(buf.getvalue())
    assert table.pop("grid_n") == str(config.grid_n)
    assert "workers" not in table and "bodies_path" not in table
    assert ("count" in table) == (config.synthetic is not None)
    assert config_from_mapping(table) == config


def test_write_metrics_layout(monkeypatch):
    monkeypatch.setattr("eulerdp.harness.RandomSource", lambda seed: ConstantNoise(0.0))
    report = run_query_experiment(_base_config())
    buf = io.StringIO()
    write_metrics(report, buf)
    text = buf.getvalue()
    for table in ("config", "query_error", "histogram_l1", "violations", "timing", "repair"):
        assert f"# table: {table}\n" in text
    assert "# columns: qr\talgorithm\tmedian_relative_error\tsamples\n" in text
    line = next(l for l in text.splitlines() if l.startswith("100%\tDP"))
    assert line == "100%\tDP\t0\t4"
