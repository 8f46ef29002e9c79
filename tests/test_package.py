"""The package's public surface."""
from __future__ import annotations

from types import ModuleType

import reebound


def test_every_export_resolves():
    missing = [name for name in reebound.__all__
               if not hasattr(reebound, name)]
    assert missing == []


def test_every_public_name_is_exported():
    unlisted = [name for name, value in vars(reebound).items()
                if not name.startswith("_")
                and not isinstance(value, ModuleType)
                and name not in reebound.__all__]
    assert unlisted == []
