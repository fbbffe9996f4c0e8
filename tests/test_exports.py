"""The package's public names."""

import phtree


def test_all_names_resolve_without_duplicates():
    names = phtree.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(phtree, name)] == []
