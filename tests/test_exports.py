"""The package's public names all resolve."""

import lpbdeg


def test_every_exported_name_resolves():
    missing = [name for name in lpbdeg.__all__ if not hasattr(lpbdeg, name)]
    assert missing == []
    assert len(set(lpbdeg.__all__)) == len(lpbdeg.__all__)
