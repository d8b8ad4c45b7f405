"""The package's public surface."""

import odegate


def test_every_exported_name_resolves():
    assert [name for name in odegate.__all__ if not hasattr(odegate, name)] == []
