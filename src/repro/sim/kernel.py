"""Discrete-event simulation kernel: a slotted event queue.

The kernel is the substrate every simulated subsystem runs on: the
network, failure detectors, consensus, the SVS protocol and the
application consumers all advance by scheduling callbacks on a single
:class:`Simulator`.  (The Section 5.3 throughput model is the exception:
it is a recurrence that reproduces the kernel's arithmetic without it.)

Determinism is a design requirement — the paper's evaluation compares two
protocols (reliable vs. semantic) on the *same* workload, so a run must be
exactly reproducible from a seed.  Two runs with the same seed and the same
sequence of ``schedule`` calls produce identical event orders:

* events are ordered by ``(time, priority, sequence-number)`` where the
  sequence number is a monotonically increasing tie-breaker, and
* all randomness flows through named child generators whose seeds are
  derived by hashing ``(master seed, name)`` with SHA-256 (see
  :meth:`Simulator.rng`) — stable across processes, platforms and
  ``PYTHONHASHSEED`` values.

Event storage
-------------

One global binary heap would charge every event an O(log n) push/pop
against the whole pending set.  The queue is *slotted* instead (see
``docs/kernel.md`` for the full design):

* pending events are grouped into **per-tick buckets** — ``tick`` seconds
  of simulated time per slot — so heap traffic is per *bucket*, not per
  event, and each bucket is ordered with one batched ``list.sort``;
* events beyond the bucket horizon (``tick × span`` ahead) wait in an
  **overflow heap** and are re-bucketed in batches when the wheel drains —
  workloads that pre-schedule a whole trace up front (the Scenario
  injector) do not inflate every near-term heap operation;
* an event is one lightweight ``__slots__`` handle; cancellation is lazy
  (a flag checked at pop time) and therefore O(1).

Work may hold a reserved sequence number instead of an event
(:meth:`Simulator.reserve_seq`): :meth:`Simulator.passed` says whether it
would have run, and ``schedule_at(..., seq=)`` makes it an event at its own
key.

The ordering contract and the ``SimulationError`` cases are pinned by
``tests/sim/test_kernel.py``, the event orders of whole runs by the golden
fixtures in ``tests/fixtures/``.
"""

from __future__ import annotations

import hashlib
import random
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "EventHandle",
    "Simulator",
    "SimulationError",
    "derive_stream_seed",
    "stream_rng",
]


class SimulationError(RuntimeError):
    """Raised for invalid kernel operations (e.g. scheduling in the past)."""


class EventHandle(list):
    """A scheduled callback: its ordering key, payload and cancel flag.

    One list subclass with layout ``[time, priority, seq, callback, args,
    cancelled]``: construction is the C list initializer (no Python-level
    ``__init__`` per event), and the object *is* its own heap entry — lists
    compare elementwise like key tuples, and ``seq`` is unique, so
    comparisons never reach the callback.  The named accessors below are
    the public surface.

    Cancellation is lazy: the handle stays queued with ``cancelled`` set
    and is skipped when its slot drains, keeping :meth:`Simulator.cancel`
    O(1).
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        return self[0]

    @property
    def priority(self) -> int:
        return self[1]

    @property
    def seq(self) -> int:
        return self[2]

    @property
    def callback(self) -> Callable[..., None]:
        return self[3]

    @property
    def args(self) -> Tuple[Any, ...]:
        return self[4]

    @property
    def cancelled(self) -> bool:
        return self[5]

    def sort_key(self) -> Tuple[float, int, int]:
        return (self[0], self[1], self[2])

    def cancel(self) -> None:
        self[5] = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self[5] else ""
        return f"EventHandle(t={self[0]:.6f}, prio={self[1]}{state})"


#: Queue entries *are* the handles (see :class:`EventHandle`).
_Entry = EventHandle


def derive_stream_seed(master_seed: int, name: str) -> int:
    """Child-generator seed for ``(master seed, stream name)``.

    SHA-256 based so streams are independent of ``PYTHONHASHSEED``, the
    platform and the process — byte-identical runs everywhere.
    """
    digest = hashlib.sha256(f"{master_seed}|{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stream_rng(
    master_seed: int, name: str, cache: Dict[str, random.Random]
) -> random.Random:
    """The named child generator for ``(master seed, name)``, memoized.

    This is the one shared implementation of the stream contract: every
    clock — the discrete-event :class:`Simulator` and the live
    :class:`~repro.transport.clock.WallClock` — answers ``rng(name)``
    through this helper, so a protocol component draws the *same* stream
    for the same seed and name regardless of which substrate it runs on.
    ``cache`` is the caller's per-instance memo table; a stream is created
    on first use and returned as-is (with its consumed position) after.
    """
    gen = cache.get(name)
    if gen is None:
        gen = random.Random(derive_stream_seed(master_seed, name))
        cache[name] = gen
    return gen


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator(seed=42)
        sim.schedule(1.0, lambda: print("one second in"))
        sim.run(until=10.0)

    The clock unit is arbitrary; the reproduction uses seconds throughout so
    that message rates are expressed in msg/s as in the paper.

    ``tick`` is the slot width of the event queue (simulated seconds per
    bucket) and ``span`` the number of slots covered before events spill to
    the overflow heap.  They are performance knobs only — ordering is
    independent of both.  The 8 ms default clusters the periods that
    dominate this reproduction (consumer service times, heartbeats, game
    rounds: 7–50 ms) a few events per slot, which benchmarked fastest
    across the kernel workloads.
    """

    __slots__ = (
        "now", "_tick", "_inv_tick", "_span", "_active", "_active_idx",
        "_buckets", "_bucket_heap", "_overflow", "_horizon",
        "_seq", "_seed", "_rngs", "_events_processed", "_running",
        "_stopped", "_position",
    )

    def __init__(
        self,
        seed: int = 0,
        start_time: float = 0.0,
        tick: float = 0.008,
        span: int = 4096,
    ) -> None:
        if tick <= 0:
            raise SimulationError(f"tick must be positive: {tick!r}")
        if span < 1:
            raise SimulationError(f"span must be at least 1: {span!r}")
        #: Current simulated time.  A plain attribute (reads are hot);
        #: treat as read-only — only event execution advances it.
        self.now = float(start_time)
        self._tick = tick
        self._inv_tick = 1.0 / tick
        self._span = span
        # Slotted queue state: the active (already sorted) slot, the
        # per-tick buckets ahead of it, and the far-future overflow heap.
        self._active: List[_Entry] = []
        self._active_idx = int(self.now * self._inv_tick) - 1
        self._buckets: Dict[int, List[_Entry]] = {}
        self._bucket_heap: List[int] = []
        self._overflow: List[_Entry] = []
        self._horizon = int(self.now * self._inv_tick) + span
        self._seq = 0
        self._seed = seed
        self._rngs: Dict[str, random.Random] = {}
        self._events_processed = 0
        self._running = False
        self._stopped = False
        # Every event that has run is ordered at or before this key (see
        # passed()): the executing or last entry, or [until, inf].
        self._position: List[Any] = [-1.0]

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones).

        Computed from the queue tiers on demand — introspection is rare,
        the scheduling path is not, so no counter is maintained there.
        """
        return (
            len(self._active)
            + sum(map(len, self._buckets.values()))
            + len(self._overflow)
        )

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------

    @property
    def seed(self) -> int:
        return self._seed

    def rng(self, name: str = "default") -> random.Random:
        """Return the named child generator, creating it on first use.

        Child generators are seeded from ``sha256(master seed | name)`` so
        adding a new consumer of randomness does not perturb the streams of
        existing consumers — essential for paired reliable/semantic
        comparisons — and the same seed reproduces the same streams on any
        machine regardless of ``PYTHONHASHSEED``.
        """
        return stream_rng(self._seed, name, self._rngs)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` from now.

        ``priority`` breaks ties among events at the same time: lower runs
        first.  Negative delays are rejected.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        # Insertion is inlined (not delegated to schedule_at): this is the
        # hottest kernel entry point and the extra frame is measurable.
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        entry = EventHandle((time, priority, seq, callback, args, False))
        idx = int(time * self._inv_tick)
        if idx <= self._active_idx:
            heappush(self._active, entry)
        elif idx < self._horizon:
            bucket = self._buckets.get(idx)
            if bucket is None:
                self._buckets[idx] = [entry]
                heappush(self._bucket_heap, idx)
            else:
                bucket.append(entry)
        else:
            heappush(self._overflow, entry)
        return entry

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
        seq: Optional[int] = None,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulated time;
        ``seq`` places it at a number taken from :meth:`reserve_seq`."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, current time is {self.now!r}"
            )
        if seq is None:
            seq = self._seq
            self._seq = seq + 1
        entry = EventHandle((time, priority, seq, callback, args, False))
        idx = int(time * self._inv_tick)
        if idx <= self._active_idx:
            # At or behind the slot being drained (including re-entry after
            # a paused run): merge straight into the active heap.
            heappush(self._active, entry)
        elif idx < self._horizon:
            bucket = self._buckets.get(idx)
            if bucket is None:
                self._buckets[idx] = [entry]
                heappush(self._bucket_heap, idx)
            else:
                bucket.append(entry)
        else:
            heappush(self._overflow, entry)
        return entry

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        handle[5] = True

    def reserve_seq(self) -> int:
        """The sequence number an event scheduled now would get; schedule
        at it at most once."""
        seq = self._seq
        self._seq = seq + 1
        return seq

    def passed(self, time: float, seq: int) -> bool:
        """Whether an event at ``(time, priority 0, seq)``, reserved before
        ``time``, would have run: ordered before the executing event, or
        at or before a reached ``until`` after a run."""
        return [time, 0, seq] < self._position

    # ------------------------------------------------------------------
    # Slot management
    # ------------------------------------------------------------------

    def _refill(self) -> bool:
        """Load the next non-empty slot into the (empty) active heap.

        Returns False when nothing is pending anywhere.  One batched
        ``sort`` orders the whole slot; the sorted list is a valid binary
        heap, so later same-slot arrivals can still be merged by push.
        """
        while True:
            if self._bucket_heap:
                idx = heappop(self._bucket_heap)
                entries = self._buckets.pop(idx)
                if len(entries) > 1:
                    entries.sort()
                self._active_idx = idx
                self._active.extend(entries)
                return True
            if not self._overflow:
                return False
            # Wheel ran dry: advance the horizon to cover the earliest
            # overflow event and re-bucket everything inside it.
            overflow = self._overflow
            inv_tick = self._inv_tick
            horizon = int(overflow[0][0] * inv_tick) + self._span
            self._horizon = horizon
            buckets = self._buckets
            bucket_heap = self._bucket_heap
            while overflow and int(overflow[0][0] * inv_tick) < horizon:
                entry = heappop(overflow)
                idx = int(entry[0] * inv_tick)
                bucket = buckets.get(idx)
                if bucket is None:
                    buckets[idx] = [entry]
                    heappush(bucket_heap, idx)
                else:
                    bucket.append(entry)

    def _next_entry(self) -> Optional[_Entry]:
        """The earliest live entry, left in place (cancelled ones pruned)."""
        active = self._active
        while True:
            if active:
                entry = active[0]
                if entry[5]:
                    heappop(active)
                    continue
                return entry
            if not self._refill():
                return None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next non-cancelled event.

        Returns ``True`` if an event ran, ``False`` if nothing is pending.
        """
        entry = self._next_entry()
        if entry is None:
            return False
        heappop(self._active)
        self.now = entry[0]
        self._position = entry
        self._events_processed += 1
        entry[3](*entry[4])
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.

        Events scheduled exactly at ``until`` are executed; the clock is
        advanced to ``until`` at the end if the simulation ran dry earlier.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        processed = 0
        capped = False
        active = self._active
        unbounded = until is None and max_events is None
        try:
            while not self._stopped:
                # Inlined _next_entry(): this loop runs once per event.
                # ``events_processed`` is accumulated locally and folded
                # back in the finally block — per-event attribute writes
                # are measurable at this call rate.
                if active:
                    entry = active[0]
                    if entry[5]:
                        heappop(active)
                        continue
                elif self._refill():
                    continue
                else:
                    break
                if not unbounded:
                    if until is not None and entry[0] > until:
                        break
                    if max_events is not None and executed >= max_events:
                        capped = True
                        break
                    executed += 1
                heappop(active)
                self.now = entry[0]
                self._position = entry
                processed += 1
                entry[3](*entry[4])
            if until is not None and not (self._stopped or capped):
                self._position = max(self._position, [until, float("inf")])
                if self.now < until:
                    self.now = until
        finally:
            self._events_processed += processed
            self._running = False

    def stop(self) -> None:
        """Stop a :meth:`run` in progress after the current event returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Simulator(now={self.now:.6f}, pending={self.pending_events}, "
            f"processed={self._events_processed})"
        )

