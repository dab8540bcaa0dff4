"""Every demo script runs to completion."""

from __future__ import annotations

import pathlib
import runpy
import tempfile

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # files a demo writes
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
