"""The package's public surface: the names `shadowmatch` exports."""

from __future__ import annotations

import ast
from pathlib import Path

import shadowmatch


def test_every_exported_name_resolves_and_is_unique():
    names = shadowmatch.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(shadowmatch, name, None) is not None, name


def test_every_public_import_is_exported():
    """`__init__` imports exactly the names it exports: a public name it
    imports but leaves out of `__all__`, or one it exports without
    importing, fails here."""
    tree = ast.parse(Path(shadowmatch.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert public == set(shadowmatch.__all__)
