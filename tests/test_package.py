"""Package surface: every exported name resolves and is exported once."""

from __future__ import annotations

import mtdiff as mt


def test_all_names_resolve_without_duplicates():
    assert len(mt.__all__) == len(set(mt.__all__))
    assert [name for name in mt.__all__ if not hasattr(mt, name)] == []
