"""The kernel-free slow-receiver model against the event kernel it replaced.

``repro.analysis.throughput`` runs the Section 5.3 model as a recurrence
over its pending instants — the event kernel's schedule inlined into one
loop.  :class:`KernelModel` below is the model as it ran before: three
callbacks on :class:`repro.sim.Simulator`, driving the buffer through
``DeliveryQueue.try_append`` / ``pop``.  It is the reference; the suite
asserts that ``run_slow_receiver`` returns an *equal* ``ThroughputResult``
— every field, floats bit for bit — on

* the game-trace cases the previous differential suite ran (every
  representation, the reliable baseline, a Figure 5(b) probe), and
* hypothesis traces on a coarse time grid with service times that are
  grid multiples, so completions collide with arrivals and with the stall
  and the kernel's sequence-number tie-break decides; bursts larger than
  the buffer; stalls before, exactly at and after an event, and stalls
  that land on a blocked producer.

``tests/analysis/test_golden_slow_receiver.py`` replays results recorded
on the kernel-driven tree itself; this suite searches the space between
those points.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.throughput import (
    ThroughputConfig,
    ThroughputResult,
    annotated_messages,
    run_slow_receiver,
)
from repro.core.buffers import DeliveryQueue
from repro.core.obsolescence import EmptyRelation
from repro.sim.kernel import Simulator
from repro.workload.trace import MessageKind, Trace, TraceMessage


class KernelModel:
    """One producer / bounded buffer / one slow consumer, event-driven."""

    def __init__(self, messages, relation, config):
        self.messages, self.config, self.sim = messages, config, Simulator()
        self.queue = DeliveryQueue(relation, capacity=config.buffer_size)
        self.cursor = self.delivered = self.occ_val = self.occ_max = 0
        self.offset = self.finish = self.blocked_total = 0.0
        self.occ_sum = self.occ_last = 0.0
        self.blocked_since = self.first_block = None
        self.busy = self.paused = False

    def _occupancy_changed(self):
        self.occ_sum += self.occ_val * (self.sim.now - self.occ_last)
        self.occ_last, self.occ_val = self.sim.now, len(self.queue)
        self.occ_max = max(self.occ_max, self.occ_val)

    def _kick_consumer(self):
        if not self.busy and not self.paused and self.queue:
            self.busy = True
            self.sim.schedule(1.0 / self.config.consumer_rate, self._complete)

    def _schedule_injection(self):
        if self.cursor < len(self.messages):
            due = self.messages[self.cursor].payload.time + self.offset
            self.sim.schedule(max(0.0, due - self.sim.now), self._inject)

    def _inject(self):
        now = self.sim.now
        if self.queue.try_append(self.messages[self.cursor]):
            self._occupancy_changed()
            self.cursor += 1
            self.finish = now
            self._kick_consumer()
            self._schedule_injection()
            return
        self.blocked_since = now  # flow control: wait for a free slot
        if self.first_block is None and now >= (self.config.stall_at or 0.0):
            self.first_block = now
            if self.config.stop_on_first_block:
                self.sim.stop()

    def _complete(self):
        self.busy = False
        if self.paused:
            return  # a stall hit mid-service; it never resumes
        if self.queue:
            self.queue.pop()
            self.delivered += 1
            self._occupancy_changed()
        if self.blocked_since is not None:
            blocked = self.sim.now - self.blocked_since
            self.offset += blocked
            self.blocked_total += blocked
            self.blocked_since = None
            self._inject()
        self._kick_consumer()

    def run(self):
        if self.config.stall_at is not None:
            self.sim.schedule_at(self.config.stall_at, setattr, self, "paused", True)
        self._schedule_injection()
        self.sim.run()
        end = max(self.sim.now, self.finish)
        if self.blocked_since is not None:
            self.blocked_total += end - self.blocked_since
        self.occ_sum += self.occ_val * (end - self.occ_last)
        done = self.cursor >= len(self.messages)
        duration = self.finish if done else end
        return ThroughputResult(
            config=self.config, duration=duration,
            blocked_fraction=self.blocked_total / duration if duration > 0 else 0.0,
            mean_occupancy=self.occ_sum / end if end > 0 else 0.0,
            max_occupancy=self.occ_max, offered=self.cursor,
            delivered=self.delivered, purged=self.queue.stats.purged,
            first_block_time=self.first_block, completed=done,
        )


def reference(trace, config):
    messages, relation = annotated_messages(
        trace, config.representation, config.effective_k()
    )
    if not config.semantic:
        relation = EmptyRelation()
    return KernelModel(messages, relation, config).run()


def assert_equivalent(trace, config):
    expected = reference(trace, config)
    assert run_slow_receiver(trace, config) == expected
    return expected


# ----------------------------------------------------------------------
# Game-trace cases
# ----------------------------------------------------------------------


@pytest.mark.parametrize("representation", ["tagging", "k-enumeration", "enumeration"])
@pytest.mark.parametrize("rate", [25.0, 60.0])
def test_inlined_model_matches_reference_semantic(
    tiny_game_trace, representation, rate
):
    result = assert_equivalent(
        tiny_game_trace,
        ThroughputConfig(
            buffer_size=8, consumer_rate=rate, semantic=True,
            representation=representation,
        ),
    )
    assert result.purged > 0


def test_inlined_model_matches_reference_reliable(tiny_game_trace):
    result = assert_equivalent(
        tiny_game_trace,
        ThroughputConfig(buffer_size=8, consumer_rate=40.0, semantic=False),
    )
    assert result.purged == 0 and result.blocked_fraction > 0


def test_inlined_model_matches_reference_with_stall(tiny_game_trace):
    result = assert_equivalent(
        tiny_game_trace,
        ThroughputConfig(
            buffer_size=6, consumer_rate=5000.0, semantic=True,
            stall_at=4.0, stop_on_first_block=True,
        ),
    )
    assert result.first_block_time > 4.0 and not result.completed


# ----------------------------------------------------------------------
# Synthetic traces on a grid: ties everywhere
# ----------------------------------------------------------------------

GRID = 0.125  # binary-exact, so sums of grid steps collide exactly


def grid_trace(steps):
    """``steps``: per message ``(grid steps since the previous one, item,
    is_update)``; a gap of 0 extends a burst at one instant."""
    messages, tick = [], 0
    for index, (gap, item, is_update) in enumerate(steps):
        tick += gap
        kind = MessageKind.UPDATE if is_update else MessageKind.EVENT
        messages.append(
            TraceMessage(index=index, round=tick, time=tick * GRID, item=item, kind=kind)
        )
    return Trace(messages=messages, rounds=tick + 1, fps=1.0 / GRID)


steps = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.booleans()),
    min_size=0, max_size=40,
)
#: Service times of 1/2, 1, 2, 4 and 8 grid steps, and one off the grid.
rates = st.sampled_from([16.0, 8.0, 4.0, 2.0, 1.0, 3.0])
#: On the grid (exactly at an event, or at 0), between grid points (just
#: before / after one), or absent; up to well past the end of the trace.
stalls = st.one_of(
    st.none(),
    st.integers(0, 140).map(lambda tick: tick * GRID),
    st.integers(0, 140).map(lambda tick: (tick + 0.5) * GRID),
)
configs = st.builds(
    ThroughputConfig,
    buffer_size=st.integers(1, 5),
    consumer_rate=rates,
    semantic=st.booleans(),
    representation=st.sampled_from(["tagging", "k-enumeration", "enumeration"]),
    stall_at=stalls,
    stop_on_first_block=st.booleans(),
)


@settings(max_examples=400, deadline=None)
@given(steps=steps, config=configs)
def test_recurrence_equals_kernel_on_grid_traces(steps, config):
    assert_equivalent(grid_trace(steps), config)


@settings(max_examples=300, deadline=None)
@given(
    arrivals=st.lists(
        st.tuples(st.floats(0.0, 8.0), st.integers(0, 2), st.booleans()),
        max_size=25,
    ),
    rate=st.floats(0.5, 50.0),
    buffer_size=st.integers(1, 4),
    semantic=st.booleans(),
    stall_at=st.one_of(st.none(), st.floats(0.0, 12.0)),
)
def test_recurrence_equals_kernel_on_arbitrary_instants(
    arrivals, rate, buffer_size, semantic, stall_at
):
    """Off the grid nothing collides, but every sum rounds: the model must
    add up instants the way the kernel did (``now + delay``)."""
    arrivals.sort(key=lambda arrival: arrival[0])
    trace = Trace(
        messages=[
            TraceMessage(
                index=i, round=i, time=time, item=item,
                kind=MessageKind.UPDATE if is_update else MessageKind.EVENT,
            )
            for i, (time, item, is_update) in enumerate(arrivals)
        ],
        rounds=8, fps=1.0,
    )
    assert_equivalent(
        trace,
        ThroughputConfig(
            buffer_size=buffer_size, consumer_rate=rate, semantic=semantic,
            stall_at=stall_at,
        ),
    )


def test_burst_larger_than_the_buffer():
    trace = grid_trace([(0, i % 2, i % 3 != 0) for i in range(12)])
    for semantic in (True, False):
        result = assert_equivalent(
            trace,
            ThroughputConfig(buffer_size=3, consumer_rate=8.0, semantic=semantic),
        )
        assert result.first_block_time == 0.0 and result.completed


@pytest.mark.parametrize("stall_at", [0.0, 0.9375, 1.0, 1.0625, 99.0])
@pytest.mark.parametrize("stop", [True, False])
def test_stall_before_at_and_after_a_collision(stall_at, stop):
    """At t = 1.0 an arrival, a completion and (for ``stall_at == 1.0``)
    the stall all coincide."""
    trace = grid_trace([(0, 0, False)] + [(2, 0, False)] * 10)
    assert_equivalent(
        trace,
        ThroughputConfig(
            buffer_size=2, consumer_rate=2.0, semantic=False,
            stall_at=stall_at, stop_on_first_block=stop,
        ),
    )


@pytest.mark.parametrize("stop", [True, False])
def test_stall_lands_while_the_producer_is_blocked(stop):
    trace = grid_trace([(0, 0, False)] * 6)
    result = assert_equivalent(
        trace,
        ThroughputConfig(
            buffer_size=2, consumer_rate=1.0, semantic=False,
            stall_at=0.5, stop_on_first_block=stop,
        ),
    )
    # Blocked at 0, before the watch began; never retried after the stall.
    assert result.first_block_time is None
    assert result.offered == 2 and not result.completed
    assert result.duration == 1.0  # the cancelled completion still ran
