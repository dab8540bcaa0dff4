"""The package's public surface."""

from __future__ import annotations

import ast
from pathlib import Path

import eulerdp


def test_every_exported_name_resolves():
    missing = [name for name in eulerdp.__all__ if not hasattr(eulerdp, name)]
    assert missing == []
    assert len(set(eulerdp.__all__)) == len(eulerdp.__all__)


def test_no_module_imports_scipy():
    """numpy is the only runtime dependency: no module of the package
    imports scipy, on any path, error paths included."""
    found = []
    for path in sorted(Path(eulerdp.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []
