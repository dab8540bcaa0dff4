"""The package's public surface."""

from __future__ import annotations

import eulerdp


def test_every_exported_name_resolves():
    missing = [name for name in eulerdp.__all__ if not hasattr(eulerdp, name)]
    assert missing == []
    assert len(set(eulerdp.__all__)) == len(eulerdp.__all__)
