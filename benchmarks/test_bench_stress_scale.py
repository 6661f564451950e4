"""Gates on the stress shapes (``stress_1k`` / ``stress_10k``).

Layered like ``test_bench_kernel_baseline.py``:

1. a fast machine-independent gate runs the stress shape at reduced
   scale on *both* network paths — the batched fan-out and the
   per-destination loop it must equal — with a call-counting relation:
   every purge decision must resolve through the obsolescence index (zero
   linear relation interrogations) and the two paths must agree on every
   counter — a miniature differential check that runs in the default CI
   lane;
2. the full-scale shapes run in the slow lane with the accounting
   invariants of ``test_bench_stress.py``.
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
import bench_kernel

from repro.core.obsolescence import ItemTagging


class _CountingItemTagging(ItemTagging):
    """ItemTagging that counts linear relation interrogations.

    ``make_index`` is inherited, so the queue still gets the real
    ``_TagIndex`` — the counters see exactly the calls the index fails
    to absorb.
    """

    def __init__(self):
        self.obsoletes_calls = 0
        self.covers_calls = 0

    def obsoletes(self, new, old):
        self.obsoletes_calls += 1
        return super().obsoletes(new, old)

    def covers(self, new, old):
        self.covers_calls += 1
        return super().covers(new, old)


def _counters(stack):
    net = stack.network
    return {
        "sent": net.messages_sent,
        "delivered": net.messages_delivered,
        "dropped": net.messages_dropped,
        "events": stack.sim.events_processed > 0,
        "appended": [p.to_deliver.stats.appended for p in stack],
        "purged": [p.to_deliver.stats.purged for p in stack],
        "popped": [p.to_deliver.stats.popped for p in stack],
    }


class TestStressShapeRelationWork:
    """Reduced-scale shape (n=200): CI-cadence, machine-independent."""

    SHAPE = {"n": 200, "senders": 200, "rounds": 2}

    def test_zero_linear_relation_calls_and_path_agreement(self):
        results = {}
        for latched in (False, True):
            relation = _CountingItemTagging()
            stack = bench_kernel.run_stress_scale(
                relation=relation, latched=latched, **self.SHAPE
            )
            assert stack.network._batched is not latched
            # All purging resolved by per-(sender, tag) index buckets;
            # same-sender FIFO lets t3 skip the coverage scan entirely.
            assert relation.obsoletes_calls == 0, latched
            assert relation.covers_calls == 0, latched
            results[latched] = _counters(stack)
        # Both paths must tell the identical story, counter for counter.
        assert results[False] == results[True]
        assert results[False]["sent"] == 200 * 2 * 199


def _assert_stress_accounting(stack, senders, rounds):
    total = senders * rounds
    assert stack.network.messages_sent == stack.network.messages_delivered
    for proc in stack:
        stats = proc.to_deliver.stats
        assert proc.pending == 0
        # +1: the initial VIEW notification enters the queue like data.
        assert stats.appended == total + 1
        assert stats.popped + stats.purged == stats.appended


@pytest.mark.slow
class TestStressFullScale:
    def test_stress_1k_accounting(self):
        params = bench_kernel.STRESS_SCALES["stress_1k"]
        stack = bench_kernel.run_stress_scale(**params)
        assert stack.network.messages_sent == 1000 * 2 * 999
        _assert_stress_accounting(stack, params["senders"], params["rounds"])

    def test_stress_10k_accounting(self):
        params = bench_kernel.STRESS_SCALES["stress_10k"]
        stack = bench_kernel.run_stress_scale(**params)
        assert stack.network.messages_sent == 50 * 2 * 9999
        # Only the 50 broadcasting members append their own copies; the
        # uniform invariant still holds: everything queued was delivered
        # to the application or purged.
        for proc in stack:
            stats = proc.to_deliver.stats
            assert proc.pending == 0
            assert stats.popped + stats.purged == stats.appended
