"""Gates on the kernel hot path, anchored to ``BENCH_kernel.json``.

Three layers, from machine-independent to machine-specific:

1. the committed ``BENCH_kernel.json`` must record the pre-PR baseline
   and a current snapshot whose figure-path speedup is ≥ 3× — the PR's
   acceptance criterion, checked structurally so it cannot silently rot;
2. the obsolescence index must do *algorithmically* less work than the
   naive scan (relation-call counting — no timing flakiness);
3. with ``BENCH_GATE=1`` the suite re-measures the workloads on this
   machine and fails on a ≥ 40 % regression against the recorded
   ``current`` snapshot (off by default: CI machines differ from the one
   that produced the file; re-emit with
   ``python benchmarks/bench_kernel.py --emit`` when hardware changes).
"""

import json
import os
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
import bench_kernel

from repro.core.buffers import DeliveryQueue
from repro.core.obsolescence import KEnumeration
from repro.core.message import DataMessage, MessageId


class TestRecordedBaseline:
    @pytest.fixture(scope="class")
    def data(self):
        assert bench_kernel.BENCH_FILE.exists(), "BENCH_kernel.json missing"
        return json.loads(bench_kernel.BENCH_FILE.read_text())

    def test_schema(self, data):
        assert data["schema"] == bench_kernel.SCHEMA_VERSION
        # The stress workloads postdate the pre-PR kernel, so the
        # snapshots are not required to carry them.
        absent_pre_pr = {"stress_128", "stress_1k", "stress_10k"}
        for snapshot in ("pre_pr", "current"):
            assert set(data[snapshot]["timings"]) >= (
                set(bench_kernel.WORKLOADS) - absent_pre_pr
            )

    def test_recorded_speedup_meets_target(self, data):
        """The acceptance criterion: ≥ 3× on the figure/sweep bench path."""
        speedup = data["speedup"]
        assert speedup["figure_4a"] >= 3.0, speedup
        # The broader hot paths must not have been sacrificed for it.
        assert speedup["kernel_events"] >= 2.0, speedup
        assert speedup["stack_multicast"] >= 2.0, speedup
        assert speedup["slow_receiver_reliable"] >= 2.0, speedup


class _CountingRelation(KEnumeration):
    def __init__(self, k):
        super().__init__(k)
        self.calls = 0

    def obsoletes(self, new, old):
        self.calls += 1
        return super().obsoletes(new, old)


def _pump(queue, n=3000, k=8):
    """A steady same-sender stream where each message obsoletes its
    predecessor — the throughput model's shape in miniature."""
    for sn in range(n):
        msg = DataMessage(
            MessageId(0, sn), view_id=0, annotation=0b1 if sn else 0
        )
        queue.try_append(msg)
        if sn % 3 == 2:
            queue.pop()


class TestIndexDoesLessWork:
    def test_indexed_purge_skips_linear_scans(self):
        """Machine-independent gate: the index must cut relation calls by
        an order of magnitude (the naive path is O(queue) per message)."""
        naive_relation = _CountingRelation(8)
        naive = DeliveryQueue(naive_relation, capacity=16, use_index=False)
        _pump(naive)

        indexed_relation = _CountingRelation(8)
        indexed = DeliveryQueue(indexed_relation, capacity=16, use_index=True)
        _pump(indexed)

        # Identical externally visible behaviour...
        assert indexed.stats.purged == naive.stats.purged > 0
        assert len(indexed) == len(naive)
        # ...with (at least) 10x fewer relation interrogations.  The
        # index answers from per-sender maps, so it never calls
        # ``obsoletes`` at all; the bound is loose on purpose.
        assert naive_relation.calls > 0
        assert indexed_relation.calls * 10 <= naive_relation.calls


@pytest.mark.skipif(
    os.environ.get("BENCH_GATE") != "1",
    reason="wall-clock gate is opt-in (BENCH_GATE=1); hardware-specific",
)
class TestWallClockGate:
    def test_no_regression_vs_recorded_current(self):
        data = json.loads(bench_kernel.BENCH_FILE.read_text())
        recorded = data["current"]["timings"]
        measured = bench_kernel.measure(repeats=3)
        regressions = {
            name: (recorded[name], measured[name])
            for name in recorded
            if name in measured and measured[name] > recorded[name] * 1.4
        }
        assert not regressions, f"kernel hot path regressed: {regressions}"
