"""Self-tests of the benchmark's accounting, checks and span math.

No Ray session is needed: ``python3 -m pytest perfbench -q``.
"""

import time

import pandas as pd
import pytest

from perfbench import reference
from perfbench.run import Tally, Wedged
from perfbench.tracing import Tracer

ZONAL = pd.DataFrame({"zone": [7, 3], "n_pages": [5, 4],
                      "n_chars_sum": [50, 40]})


class FakeWorkload:
    def __init__(self, out, expected, sleep=0.0, error=None):
        self.out, self.expected = out, expected
        self.sleep, self.error = sleep, error

    def run_pass(self):
        time.sleep(self.sleep)
        if self.error:
            raise self.error
        return self.out

    def check(self, out):
        return reference.check_zonal(out, self.expected)


def _run(tally, wl):
    return tally.run(wl.run_pass, wl.check)


def _tally(timeout=5.0):
    return Tally(timeout, end_at=time.perf_counter() + 60)


def test_corrupted_expected_result_counts_as_failure():
    expected = ZONAL.sort_values("zone").reset_index(drop=True)
    corrupted = expected.assign(n_pages=expected["n_pages"] + [0, 1])
    t = _tally()
    assert _run(t, FakeWorkload(ZONAL, expected)) is not None
    assert _run(t, FakeWorkload(ZONAL, corrupted)) is None
    assert (t.attempted, t.failed) == (2, 1)


def test_exception_counts_as_failure():
    t = _tally()
    assert _run(t, FakeWorkload(ZONAL, ZONAL, error=RuntimeError("x"))) is None
    assert (t.attempted, t.failed) == (1, 1)


def test_timeout_counts_as_failure_and_stops_the_run():
    t = _tally(timeout=0.2)
    with pytest.raises(Wedged):
        _run(t, FakeWorkload(ZONAL, ZONAL, sleep=2.0))
    assert (t.attempted, t.failed) == (1, 1)


def test_checks_reject_corrupted_references():
    rank = pd.DataFrame({"correction": ["A", "B", "C"],
                         "Score": [3.0, 2.0, 1.0]})
    got = rank.set_index("correction")
    assert reference.check_rank(got, rank) == []
    assert reference.check_rank(got, rank.assign(Score=[1.0, 2.0, 3.0]))

    pip = pd.DataFrame({"id": [1, 2], "region_id": [4, 4]})
    assert reference.check_pip(pip, pip) == []
    assert reference.check_pip(pip, pip.assign(region_id=[4, 5]))

    knn = pd.DataFrame({"query_id": [0, 0], "neighbor_id": [8, 9],
                        "distance_km": [1.0, 2.0], "rank": [1, 2]})
    assert reference.check_knn(knn, knn, 1, 2) == []
    assert reference.check_knn(knn, knn.assign(neighbor_id=[9, 8]), 1, 2)

    join = pd.DataFrame({"band": [0], "cell": [5], "join_cell": [1],
                         "n_pixels": [10], "n_pages": [2],
                         "value_sum": [1.5]})
    assert reference.check_zonal_join(join, join) == []
    assert reference.check_zonal_join(join, join.assign(value_sum=[1.6]))


def test_self_time_subtracts_direct_children():
    tr = Tracer()
    tr.pass_id = 0
    with tr.span("outer"):
        time.sleep(0.02)
        with tr.span("inner"):
            time.sleep(0.05)
    outer, inner = tr.self_times()
    assert inner >= 0.05
    assert 0.015 <= outer < 0.05
    busy = tr.busy([0])
    assert busy["outer"] == outer and busy["inner"] == inner
