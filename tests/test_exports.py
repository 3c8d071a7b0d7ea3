"""The package's public names: each listed once, each importable."""

import coxmap


def test_all_names_are_unique_and_resolve():
    assert len(coxmap.__all__) == len(set(coxmap.__all__))
    missing = [name for name in coxmap.__all__ if not hasattr(coxmap, name)]
    assert missing == []
