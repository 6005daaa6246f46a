"""The package's export list matches what the package defines."""

import steerkit as sk


def test_all_names_resolve_once():
    assert len(sk.__all__) == len(set(sk.__all__))
    missing = [name for name in sk.__all__ if not hasattr(sk, name)]
    assert missing == []
