"""Every name a package module imports is used, exported or marked as kept.

A stand-in for a linter's unused-import rule (F401), written with ``ast``
alone: a name imported by a module under ``src/taubounds`` must be read in
that module, listed in its ``__all__``, or imported on a line marked
``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

import taubounds

MODULES = sorted(Path(taubounds.__file__).parent.glob("*.py"))


def _imported(tree):
    """(name, line) of every name bound by an import, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    """Imported names that the source neither reads, exports nor marks as kept."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = read | _exported(tree)
    return [(name, line) for name, line in _imported(tree)
            if name not in kept and "# noqa: F401" not in lines[line - 1]]


def test_package_has_modules():
    assert {"cli.py", "data.py", "estimator.py", "mgp.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import itertools\n", [("itertools", 1)]),
    ("import os.path\nos.sep\n", []),
    ("from a import (b,\n    c)\nb\n", [("c", 2)]),
    ("from a import b  # noqa: F401\n", []),
    ("from a import b as c\n__all__ = ['c']\n", []),
    ("from __future__ import annotations\n", []),
])
def test_scan_flags_only_unused_names(source, unused):
    assert unused_imports(source) == unused
