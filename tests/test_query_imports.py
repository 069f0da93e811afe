"""Every function-local ``from ..x import y`` in the query registry
resolves.

Query bodies import their stages lazily, so a query that still names a
deleted module or helper imports cleanly and fails only when it is
called. This walks the registry's source instead of running it: no Ray,
no test data.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import geoflow.pipelines.queries as queries

_PKG = "geoflow.pipelines"


def _local_relative_imports():
    tree = ast.parse(Path(queries.__file__).read_text())
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                mod = importlib.util.resolve_name(
                    "." * node.level + (node.module or ""), _PKG)
                for alias in node.names:
                    yield node.lineno, mod, alias.name


def test_function_local_imports_resolve():
    found = sorted(set(_local_relative_imports()))
    assert found, "no function-local relative imports found"
    broken = []
    for lineno, mod, name in found:
        try:
            m = importlib.import_module(mod)
        except ImportError as e:
            broken.append(f"queries.py:{lineno}: {mod}: {e}")
            continue
        if hasattr(m, name):
            continue
        try:                                # `from pkg import submodule`
            importlib.import_module(f"{mod}.{name}")
        except ModuleNotFoundError:
            broken.append(f"queries.py:{lineno}: {mod} has no {name!r}")
    assert not broken, "\n".join(broken)
