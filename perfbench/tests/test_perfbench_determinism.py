"""Two short runs of each workload give identical answers and counters.

Each run is a full benchmark child process (about 10 s each, plus a
one-off bundle training of about 15 s), so the test only runs when
``PERFBENCH_SLOW=1``::

    PERFBENCH_SLOW=1 PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import os
import time

import pytest

from perfbench import run

pytestmark = pytest.mark.skipif(
    os.environ.get("PERFBENCH_SLOW") != "1",
    reason="runs six benchmark processes; set PERFBENCH_SLOW=1")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_two_runs_repeat_exactly(workload):
    deadline = time.monotonic() + 600
    extra = []
    if workload in run.SERVING:
        extra = ["--bundle", run.ensure_bundle(deadline)]
    args = argparse.Namespace(workload=workload, seed=7, seconds=1.0)
    first, second = (run.spawn("measure", args, deadline, extra)
                     for _ in range(2))
    for result in (first, second):
        assert result["failed"] == 0, result["errors"]
        assert result["attempted"] > 0
    assert first["determinism"] == second["determinism"]
    if workload == "serve_hot":
        assert first["determinism"]["encoded"] == 0
    if workload == "serve_churn":
        counters = first["determinism"]
        assert counters["misses"] > 0 and counters["dirtied"] > 0
        assert counters["rows_repaired"] > 0
