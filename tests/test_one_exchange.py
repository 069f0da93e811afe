"""Grouped reductions merge their partials one way.

``functions.agg.merge_partials`` is the only exchange for per-key
partials. This walks the source of every module under ``geoflow/`` and
fails on a second plan coming back: an import of Ray's aggregate
functions or an ``.aggregate(`` call on anything but an Arrow
``TableGroupBy``. It also counts the ``.map_groups(`` calls per module,
so a new hand-rolled exchange fails too. No Ray, no test data.
"""

import ast
from pathlib import Path

import geoflow

_ROOT = Path(geoflow.__file__).parent
_MODULES = sorted(p.relative_to(_ROOT).as_posix()
                  for p in _ROOT.rglob("*.py"))


def _is_arrow_groupby(node) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Attribute, ast.Name))
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            == "TableGroupBy")


def _second_plans(source: str):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.startswith("ray.data.aggregate"):
            yield node.lineno, f"from {node.module} import"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("ray.data.aggregate"):
                    yield node.lineno, f"import {alias.name}"
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "aggregate"
              and not _is_arrow_groupby(node.func.value)):
            yield node.lineno, ".aggregate( on a Ray groupby or dataset"


def test_no_second_exchange_plan():
    found = [f"{m}:{line}: {what}" for m in _MODULES
             for line, what in _second_plans((_ROOT / m).read_text())]
    assert not found, "\n".join(found)


def test_guard_sees_a_ray_aggregate():
    src = ("from ray.data.aggregate import Sum\n"
           "ds.groupby('k').aggregate(Sum('v'))\n"
           "pa.TableGroupBy(t, 'k').aggregate([('v', 'sum')])\n")
    assert [line for line, _ in _second_plans(src)] == [1, 2]


# The hand-rolled exchanges that remain: the partials merge's width
# bucketing, the crawl frontier's two rank passes, the ingest's novelty
# check and the clustered-layout writer. A grouped reduction that needs
# a new one goes through ``functions.agg.merge_partials`` instead.
_MAP_GROUPS = {"functions/agg.py": 1, "stages/crawl.py": 2,
               "state/ingest.py": 1, "state/layout.py": 1}


def _map_groups_calls(source: str) -> int:
    return sum(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "map_groups"
               for node in ast.walk(ast.parse(source)))


def test_hand_rolled_exchanges_are_counted():
    found = {m: n for m in _MODULES
             if (n := _map_groups_calls((_ROOT / m).read_text()))}
    assert found == _MAP_GROUPS
