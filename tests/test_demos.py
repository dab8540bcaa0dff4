"""Every demo script, and the README's quick start, runs to completion."""

from __future__ import annotations

import pathlib
import runpy
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # files a demo writes
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_runs(capsys):
    """The first python block of the README runs as written."""
    readme = ROOT / "README.md"
    block = readme.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(readme), "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
