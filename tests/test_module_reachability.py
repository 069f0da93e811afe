"""Every module under ``geoflow/`` is reachable from a program entry
point.

Retiring a family of queries means deleting its stage modules too; a
module whose last caller is gone still imports cleanly and is kept alive
by its own tests alone. This builds the static import graph with
``ast``, following module-level and function-local imports, from the
entry points (the CLI, incremental ingest, the query registry,
``__ray_entry__``, ``bench.py``, ``tools/`` and ``perfbench/``) and
asserts that it reaches every non-package module. No Ray, no test data.
"""

import ast
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent


def _name(path: Path) -> str:
    parts = path.relative_to(_REPO).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _sources() -> dict[str, Path]:
    paths = [*(_REPO / "geoflow").rglob("*.py"),
             *(_REPO / "perfbench").glob("*.py"),
             *(_REPO / "tools").glob("*.py"),
             _REPO / "__ray_entry__.py", _REPO / "bench.py"]
    return {_name(p): p for p in paths}


def _imports(name: str, path: Path, known: set[str]) -> set[str]:
    """Known modules that ``path`` imports anywhere in its body,
    including the packages whose ``__init__`` each import runs."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            targets = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[:len(package.split("."))
                                            - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            targets = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            out.update(m for m in (".".join(parts[:i])
                                   for i in range(1, len(parts) + 1))
                       if m in known)
    return out


def test_every_geoflow_module_is_reachable():
    sources = _sources()
    roots = ["geoflow.cli", "geoflow.state.ingest",
             "geoflow.pipelines.queries", "__ray_entry__", "bench",
             *(n for n in sources if n.startswith(("tools.", "perfbench")))]
    seen, todo = set(roots), list(roots)
    while todo:
        name = todo.pop()
        for dep in _imports(name, sources[name], set(sources)) - seen:
            seen.add(dep)
            todo.append(dep)
    unreached = sorted(n for n, p in sources.items()
                       if n.startswith("geoflow.")
                       and p.name != "__init__.py" and n not in seen)
    assert not unreached, f"reachable from no entry point: {unreached}"
