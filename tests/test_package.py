"""Package surface: every exported name resolves and is exported once."""

from __future__ import annotations

import re
from pathlib import Path

import mtdiff as mt

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve_without_duplicates():
    assert len(mt.__all__) == len(set(mt.__all__))
    assert [name for name in mt.__all__ if not hasattr(mt, name)] == []


def test_readme_names_only_exported_functions():
    named = set(re.findall(r"\bmt\.(\w+)", README.read_text()))
    assert named, "README quick start names no mt.<name>"
    assert sorted(named - set(mt.__all__)) == []
