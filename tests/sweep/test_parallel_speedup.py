"""Acceptance: two pooled workers do the same work as one process, and
both of them do a fair share of it.

Neither check reads a clock.  How much wall-clock the pool buys is the
performance ledger's ``sweep.dispatch.pool_speedup`` (``python3 -m bench
run --workload sweep_pool2``), measured there over repeated runs; asserted
here as a ratio it failed on a busy 2-vCPU box about every other run.
"""

import collections
import os
import time

import pytest

from repro.sweep import ScenarioSweep, Sweep

pytestmark = pytest.mark.slow

BASE = {
    "until": 20.0,
    "workload": "game",
    "workload_params": {"rounds": 600},
    "consumer_rate": 150.0,
    "consensus": "oracle",
    "histories": False,
    "metrics": ["throughput", "purges"],
}


def make_sweep():
    # 8 × 5 = 40 cells, one replicate each.
    return (
        ScenarioSweep(base=BASE)
        .axis("consumer_rate", [60.0, 90.0, 120.0, 150.0, 200.0, 300.0, 400.0, 500.0])
        .axis("n", [2, 3, 4, 5, 6])
    )


def test_two_workers_match_serial_bytes():
    sweep = make_sweep()
    assert sweep.n_cells == 40
    assert sweep.run(workers=0).to_json() == sweep.run(workers=2).to_json()


# Module-level so the pool can pickle it.
def pid_cell(params, seed, context):
    time.sleep(0.03)  # sleep-bound: the split does not depend on free CPUs
    return {"pid": float(os.getpid())}


def test_two_workers_share_the_cells():
    cells = 40
    result = Sweep().axis("x", list(range(cells))).run(pid_cell, workers=2)
    assert result.n_runs == cells
    per_worker = collections.Counter(
        int(cell.value("pid")) for cell in result.cells
    )
    assert len(per_worker) == 2, per_worker
    assert os.getpid() not in per_worker
    assert min(per_worker.values()) >= cells // 3, per_worker
