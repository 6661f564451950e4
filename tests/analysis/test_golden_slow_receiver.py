"""Recorded differential fixture for the Section 5.3 slow-receiver model.

``tests/fixtures/golden_slow_receiver.json`` holds every
:class:`~repro.analysis.throughput.ThroughputResult` field (floats as
``float.hex``, so equality is bit for bit) for a fixed list of
configurations.  It was recorded on the commit *before* the model left
the event kernel — there ``run_slow_receiver`` drove a
``SlowReceiverSimulation`` through ``repro.sim.Simulator`` — so replaying
it pins the kernel-free recurrence against the kernel's arithmetic
(``now + delay``), its tie-breaks at equal instants and its end-of-run
clock, over:

* consumer rates × buffer sizes × semantic / reliable on the 1500-round
  trace ``golden_figure_4a.json`` uses;
* the three obsolescence representations (and an explicit ``k``);
* consumer stalls early / mid / late in the trace, with and without
  ``stop_on_first_block``, at 5 kHz (the Figure 5(b) probe shape) and at a
  rate slow enough that the stall lands on a blocked producer;
* stalls at instant 0, exactly on a message timestamp, and after the
  trace has ended.

The fixture stores the configurations next to their results, and the test
checks that list against :func:`entries`, so neither side can drift alone.
To re-record (only ever on a tree whose output is the reference)::

    PYTHONPATH=src python tests/analysis/test_golden_slow_receiver.py \
        > tests/fixtures/golden_slow_receiver.json
"""

import json
import pathlib
import sys
from dataclasses import fields

import pytest

from repro.analysis.throughput import (
    ThroughputConfig,
    ThroughputResult,
    run_slow_receiver,
)
from repro.workload.game import GameConfig, generate_game_trace

FIXTURE = (
    pathlib.Path(__file__).parent.parent
    / "fixtures"
    / "golden_slow_receiver.json"
)

TRACES = {
    "tiny": GameConfig(rounds=300, seed=5),
    "golden": GameConfig(rounds=1500, seed=2002),
}
REPRESENTATIONS = ("tagging", "k-enumeration", "enumeration")
#: early / mid / late in each trace (10 s and 50 s long).
STALLS = {"tiny": (1.0, 5.0, 9.5), "golden": (2.0, 25.0, 48.0)}

_traces = {}


def trace_of(name):
    if name not in _traces:
        _traces[name] = generate_game_trace(TRACES[name])
    return _traces[name]


def entries():
    """The fixed list of ``{"name", "trace", "config"}`` to replay."""
    out = []

    def add(trace, **config):
        out.append({"trace": trace, "config": config})

    for rate in (200.0, 80.0, 60.0, 43.0, 40.0, 33.0, 30.0, 25.0, 20.0, 12.0, 5.0):
        for buffer_size in (4, 15, 28):
            for semantic in (True, False):
                add("golden", consumer_rate=rate, buffer_size=buffer_size,
                    semantic=semantic)
    for representation in REPRESENTATIONS:
        for semantic in (True, False):
            for rate in (25.0, 60.0):
                for buffer_size in (6, 12):
                    add("tiny", consumer_rate=rate, buffer_size=buffer_size,
                        semantic=semantic, representation=representation)
            add("golden", consumer_rate=30.0, buffer_size=15,
                semantic=semantic, representation=representation)
    add("tiny", consumer_rate=25.0, buffer_size=12, k=7)
    add("golden", consumer_rate=30.0, buffer_size=15, k=4)
    # Stalls: the Figure 5(b) probe shape (5 kHz) and a consumer slow
    # enough that the stall finds the producer blocked or about to be.
    for name, stalls in STALLS.items():
        for stall_at in stalls:
            for stop in (True, False):
                for semantic in (True, False):
                    for rate, buffer_size in ((5000.0, 12), (40.0, 8), (5.0, 4)):
                        add(name, consumer_rate=rate, buffer_size=buffer_size,
                            semantic=semantic, stall_at=stall_at,
                            stop_on_first_block=stop)
    for representation in REPRESENTATIONS:
        for stop in (True, False):
            add("tiny", consumer_rate=5000.0, buffer_size=6,
                representation=representation, stall_at=5.0,
                stop_on_first_block=stop)
    # Stalls at instant 0, exactly on a message timestamp (the stall wins
    # the tie), and after the trace has ended (the stall is the last
    # pending instant and still moves the end-of-run clock).
    for name in TRACES:
        messages = trace_of(name).messages
        on_message = messages[len(messages) // 2].time
        after_end = messages[-1].time + 10.0
        for stall_at in (0.0, on_message, after_end):
            for stop in (True, False):
                for semantic in (True, False):
                    add(name, consumer_rate=60.0, buffer_size=10,
                        semantic=semantic, stall_at=stall_at,
                        stop_on_first_block=stop)
    for i, entry in enumerate(out):
        entry["name"] = f"{i:03d}-{entry['trace']}"
    return out


def _encode(value):
    return value.hex() if isinstance(value, float) else value


def measure(entry):
    """Every result field of one entry's run, floats bit-exact."""
    config = ThroughputConfig(**entry["config"])
    result = run_slow_receiver(trace_of(entry["trace"]), config)
    assert result.config == config
    return {
        f.name: _encode(getattr(result, f.name))
        for f in fields(ThroughputResult)
        if f.name != "config"
    }


# Not read when recording: the shell redirect has already truncated it.
RECORDED = (
    [] if __name__ == "__main__" else json.loads(FIXTURE.read_text())["entries"]
)


class TestRecordedSlowReceiver:
    def test_fixture_lists_exactly_the_entries_replayed(self):
        recorded = [
            {k: v for k, v in entry.items() if k != "result"}
            for entry in RECORDED
        ]
        assert recorded == entries()
        assert len(recorded) >= 150

    def test_entries_cover_the_dimensions(self):
        configs = [ThroughputConfig(**e["config"]) for e in entries()]
        assert {c.representation for c in configs} == set(REPRESENTATIONS)
        assert {c.semantic for c in configs} == {True, False}
        stalled = [c for c in configs if c.stall_at is not None]
        assert {c.stop_on_first_block for c in stalled} == {True, False}
        assert {e["trace"] for e in entries()} == set(TRACES)

    def test_fixture_exercises_every_outcome(self):
        """Blocked and never-blocked runs, completed and cut-short ones,
        and purging all occur — the fixture is not 200 copies of the easy
        case."""
        results = [entry["result"] for entry in RECORDED]
        assert {r["completed"] for r in results} == {True, False}
        assert {r["first_block_time"] is None for r in results} == {True, False}
        assert any(r["purged"] for r in results)
        assert any(not r["purged"] for r in results)

    @pytest.mark.parametrize(
        "entry", RECORDED, ids=lambda entry: entry["name"]
    )
    def test_replays_bit_identical(self, entry):
        assert measure(entry) == entry["result"], entry["config"]


if __name__ == "__main__":
    recorded = [dict(entry, result=measure(entry)) for entry in entries()]
    lines = ",\n".join(json.dumps(entry) for entry in recorded)  # one per line
    sys.stdout.write('{"entries": [\n' + lines + "\n]}\n")
