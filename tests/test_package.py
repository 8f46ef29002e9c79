"""The package's public surface."""
from __future__ import annotations

import reebound


def test_every_export_resolves():
    missing = [name for name in reebound.__all__
               if not hasattr(reebound, name)]
    assert missing == []
