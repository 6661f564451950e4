"""Broadcast storms at scale: accounting and determinism.

Every sender multicasts once per round while periodic drains model
applications that keep up, so a run exercises the network fan-out,
per-sender FIFO, semantic purging and the delivery queues at full scale.
Three shapes:

* 128 processes, 7 rounds: ~114k protocol messages;
* ``stress_1k``: 1000 processes, every member broadcasting twice (~2M
  network messages);
* ``stress_10k``: 10 000 attached processes, 50 broadcasters (~1M
  deliveries, fan-out 9 999 per multicast).

At the end everything accepted was either delivered to the application
or semantically purged, and nothing is left queued.
"""

import pytest

from repro.gcs.stack import GroupStack, StackConfig

STRESS_SCALES = {
    "stress_1k": {"n": 1000, "senders": 1000, "rounds": 2},
    "stress_10k": {"n": 10_000, "senders": 50, "rounds": 2},
}


def run_stress(
    n,
    senders,
    rounds,
    tag=lambda r, s: s % 17,
    relation="item-tagging",
    latched=False,
):
    """One broadcast-storm run of the given shape.

    Senders ``0..senders-1`` multicast once per round with item tag
    ``tag(round, sender)``; tags repeat so backlogs are genuinely
    purgeable, as in the game workload.  ``relation`` is a registry name
    or a relation *object* (e.g. a counting wrapper that observes the
    protocol).  ``latched`` touches a fault knob with its no-op value
    first, so every multicast takes the network's per-destination loop
    instead of the batched fan-out.
    """
    config = StackConfig(n=n, seed=7, consensus="oracle", record_history=False)
    stack = GroupStack(relation, config)
    if latched:
        stack.network.set_drop_filter(None)
    sim = stack.sim
    for r in range(rounds):
        for s in range(senders):
            sim.schedule_at(
                0.002 * r + 0.00001 * s, stack[s].multicast, f"m{r}:{s}", tag(r, s)
            )

    def drain():
        for proc in stack:
            if not proc.crashed:
                proc.drain()

    for t in range(1, 6):
        sim.schedule_at(0.05 * t, drain)
    sim.run(until=1.0)
    drain()
    return stack


def _run_128():
    return run_stress(n=128, senders=128, rounds=7, tag=lambda r, s: r % 3)


@pytest.fixture(scope="module")
def stress_128():
    return _run_128()


def _assert_accounting(stack, own_copies):
    """Everything queued was delivered to the application or purged;
    ``own_copies`` is what each member appended, when all of them did."""
    for proc in stack:
        stats = proc.to_deliver.stats
        assert proc.pending == 0
        if own_copies is not None:
            # +1: the initial VIEW notification enters the queue like data.
            assert stats.appended == own_copies + 1
        assert stats.popped + stats.purged == stats.appended


def test_stress_128_processes_100k_messages(stress_128):
    stack = stress_128
    total_network = 128 * 7 * 127  # 113,792
    assert stack.network.messages_sent == total_network
    assert stack.network.messages_delivered == total_network
    assert stack.network.messages_dropped == 0
    _assert_accounting(stack, own_copies=128 * 7)


def test_stress_scenario_deterministic(stress_128):
    """Two full stress runs execute the identical event schedule."""
    a, b = stress_128, _run_128()
    assert a.sim.events_processed == b.sim.events_processed
    assert [p.to_deliver.stats.purged for p in a] == [
        p.to_deliver.stats.purged for p in b
    ]
    assert a.network.messages_delivered == b.network.messages_delivered


@pytest.mark.slow
def test_stress_1k_accounting():
    stack = run_stress(**STRESS_SCALES["stress_1k"])
    assert stack.network.messages_sent == 1000 * 2 * 999
    assert stack.network.messages_sent == stack.network.messages_delivered
    _assert_accounting(stack, own_copies=1000 * 2)


@pytest.mark.slow
def test_stress_10k_accounting():
    stack = run_stress(**STRESS_SCALES["stress_10k"])
    assert stack.network.messages_sent == 50 * 2 * 9999
    # Only the 50 broadcasting members append their own copies.
    _assert_accounting(stack, own_copies=None)
