"""Every name the package root exports resolves, once: an ``__all__`` entry
left behind by a removed function fails here, not at a user's import."""

import gbjtest


def test_all_names_resolve_without_duplicates():
    assert len(gbjtest.__all__) == len(set(gbjtest.__all__))
    missing = [name for name in gbjtest.__all__ if not hasattr(gbjtest, name)]
    assert missing == []
