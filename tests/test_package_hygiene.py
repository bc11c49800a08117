"""Every name a package module imports is used, exported or marked as kept,
the package exports exactly its modules' public names, scipy is loaded only
as ``scipy.special``, on first use, and the package imports and declares no
third-party module but numpy and scipy.

The first check stands in for a linter's unused-import rule (F401), written
with ``ast`` alone: a name imported by a module under ``src/taubounds`` must
be read in that module, listed in its ``__all__``, or imported on a line
marked ``# noqa: F401``. The second keeps ``taubounds.__all__`` equal to the
union of the modules' ``__all__`` lists and the public names of ``errors``.
The third pins the README's install note: every scipy import is
``from scipy import special`` inside a function body. The fourth keeps
``pyproject.toml``'s runtime dependencies equal to the third-party modules
the package imports.
"""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import taubounds
from taubounds import errors

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


def idle_imports(source):
    """(name, line) of the imported names that the source neither reads nor exports."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} \
        | _exported(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


def unused_imports(source):
    """Imported names that the source neither reads, exports nor marks as kept."""
    lines = source.splitlines()
    return [(name, line) for name, line in idle_imports(source)
            if "# noqa: F401" not in lines[line - 1]]


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


def test_package_exports_its_modules_public_names():
    expected = {"__version__"} | {
        name for name, value in vars(errors).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == errors.__name__}
    for path in MODULES:
        if path.stem.startswith("_"):
            continue
        module = importlib.import_module(f"taubounds.{path.stem}")
        exported = getattr(module, "__all__", [])
        assert [n for n in exported if not hasattr(module, n)] == [], path.name
        expected |= set(exported)
    assert len(taubounds.__all__) == len(set(taubounds.__all__))
    assert set(taubounds.__all__) == expected


def scipy_import_faults(source):
    """Lines of scipy imports other than ``from scipy import special`` in a
    function body."""
    tree = ast.parse(source)
    in_function = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)}
    faults = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if "scipy" not in {m.partition(".")[0] for m in modules}:
            continue
        special = isinstance(node, ast.ImportFrom) and node.module == "scipy" \
            and [(a.name, a.asname) for a in node.names] == [("special", None)]
        if not (special and id(node) in in_function):
            faults.append(node.lineno)
    return faults


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_scipy_is_special_and_imported_on_use(path):
    assert scipy_import_faults(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, faults", [
    ("def f():\n    from scipy import special\n", []),
    ("from scipy import special\n", [1]),
    ("def f():\n    from scipy import integrate\n", [2]),
    ("def f():\n    from scipy import special, stats\n", [2]),
    ("def f():\n    from scipy import special as sp\n", [2]),
    ("def f():\n    from scipy.special import ndtr\n", [2]),
    ("def f():\n    import scipy.special\n", [2]),
    ("class A:\n    from scipy import special\n", [2]),
    ("import scipyx\nfrom numpy import special\n", []),
])
def test_scipy_scan_flags_other_imports(source, faults):
    assert scipy_import_faults(source) == faults


RUNTIME_DEPENDENCIES = {"numpy", "scipy"}


def third_party_imports(source):
    """Top-level names of the modules a source imports, relative and
    standard-library ones aside."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    return {m.partition(".")[0] for m in modules} - sys.stdlib_module_names


def test_package_imports_only_its_dependencies():
    imported = set().union(*(third_party_imports(p.read_text(encoding="utf-8"))
                             for p in MODULES))
    assert imported == RUNTIME_DEPENDENCIES


def test_pyproject_declares_only_imported_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    assert {re.match(r"[\w.-]+", d).group().lower() for d in declared} \
        == RUNTIME_DEPENDENCIES


@pytest.mark.parametrize("source, modules", [
    ("import numpy as np\nfrom scipy import special\n", {"numpy", "scipy"}),
    ("def f():\n    import jsonschema.validators\n", {"jsonschema"}),
    ("from __future__ import annotations\nimport json, importlib.resources\n", set()),
    ("from . import errors\nfrom .bounds import clip\n", set()),
])
def test_third_party_scan(source, modules):
    assert third_party_imports(source) == modules
