"""Wall-clock scheduler: the :class:`~repro.sim.kernel.Simulator` surface
re-implemented over an asyncio event loop.

Every component of the stack — :class:`~repro.core.svs.SVSProcess`, the
consensus instances, heartbeat failure detectors, rate-limited consumers,
fault plans, the Scenario workload injector — interacts with time through
exactly four operations: ``sim.now``, ``sim.schedule(delay, cb, *args)``,
``sim.schedule_at(time, cb, *args)`` and ``sim.rng(name)``.
:class:`WallClock` provides those same four operations backed by real time,
so the *unchanged* protocol core runs live: no sim-vs-live fork exists
anywhere in :mod:`repro.core` or :mod:`repro.gcs` — the only thing that
changes between a kernel run and a live run is which clock object the stack
is constructed with.

Semantics that deliberately differ from the discrete-event kernel (the
sim-vs-live contract, see ``docs/transport.md``):

* time advances on its own — two runs of the same scenario are *not*
  byte-identical; only the protocol's safety properties are preserved
  (which is exactly what the loopback cross-check lane verifies);
* the ``priority`` tie-break is accepted and ignored; callbacks due at
  the same instant fire in the order they were scheduled;
* callbacks run on the event loop thread; an exception raised by any
  callback aborts the run (no later callback fires) and re-raises from
  :meth:`run` instead of vanishing into asyncio's default exception handler.

Like the kernel, the clock owns its timers: one heap of ``(time, seq,
handle)`` behind a single loop timer armed at the earliest deadline.  On
wake it fires every due handle in ``(time, seq)`` order, then re-arms once.
No handle fires before its time.  The loop waits in ``select(2)``, whose
timeout has microsecond resolution (``epoll``'s is rounded up to whole
milliseconds), so a timer fires tens of microseconds late, not half a
millisecond; ``select`` watches descriptors below ``FD_SETSIZE`` (1024),
which bounds a run to about a thousand UDP sockets.

Scheduling is permitted *before* the loop exists: the Scenario builder
wires consumers, workload replay and fault plans at build time, long before
``run()`` starts the loop.  Pre-start events are parked in the heap and
armed when the loop comes up, preserving their intended absolute firing
times (epoch 0 is the instant the loop starts).
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import math
import random
import selectors
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.kernel import SimulationError, stream_rng

__all__ = ["WallClock", "WallClockHandle"]


class WallClockHandle:
    """Cancellable handle for one scheduled callback.

    Mirrors the :class:`~repro.sim.kernel.EventHandle` surface the rest of
    the stack relies on (``cancel()``, ``time``, ``cancelled``).
    """

    __slots__ = ("time", "callback", "args", "cancelled")

    def __init__(self, time: float, callback: Callable[..., None], args: Tuple[Any, ...]) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the handle dead; the clock drops it when it reaches the
        head of the heap."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"WallClockHandle(t={self.time:.6f}{state})"


class WallClock:
    """Drop-in ``sim`` replacement that schedules against real time.

    ``seed`` feeds the same SHA-256 stream derivation the kernel uses
    (:func:`~repro.sim.kernel.derive_stream_seed`), so protocol-level
    random choices (jitter draws, emulated loss) are reproducible per seed
    even though event *timing* is not.

    ``runners`` are transport-like objects with ``async start()`` /
    ``async close()``; they are started when the loop comes up and closed
    when :meth:`run` finishes, so sockets live exactly as long as the run.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rngs: Dict[str, random.Random] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._epoch: Optional[float] = None
        self._heap: List[Tuple[float, int, WallClockHandle]] = []
        self._seq = itertools.count()
        self._timer: Optional[asyncio.TimerHandle] = None
        #: Deadline of the armed loop timer: ``inf`` when none is armed,
        #: ``-inf`` while arming is held off (before and after the run, and
        #: while a wake drains the heap — it re-arms once at the end).
        self._armed = -math.inf
        self._runners: List[Any] = []
        self._errors: List[BaseException] = []
        self._finished = False
        self._events_processed = 0
        #: Frozen clock value outside run(); live value inside.
        self._now = 0.0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        if self._loop is not None and self._epoch is not None:
            return self._loop.time() - self._epoch
        return self._now

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def events_processed(self) -> int:
        return self._events_processed

    # ------------------------------------------------------------------
    # Randomness — identical derivation to the kernel
    # ------------------------------------------------------------------

    def rng(self, name: str = "default") -> random.Random:
        """Identical derivation to the kernel: both clocks answer through
        :func:`repro.sim.kernel.stream_rng`, the one shared implementation
        of the seed-and-name stream contract."""
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
    ) -> WallClockHandle:
        """Schedule ``callback(*args)`` ``delay`` seconds from now.

        ``priority`` is accepted for kernel compatibility and ignored;
        same-time callbacks fire in scheduling order.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        return self._schedule_abs(self.now + delay, callback, args)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> WallClockHandle:
        """Schedule ``callback(*args)`` at an absolute run time (seconds
        since the loop started)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, current time is {self.now!r}"
            )
        return self._schedule_abs(time, callback, args)

    def cancel(self, handle: WallClockHandle) -> None:
        handle.cancel()

    def _schedule_abs(
        self, time: float, callback: Callable[..., None], args: Tuple[Any, ...]
    ) -> WallClockHandle:
        handle = WallClockHandle(time, callback, args)
        heapq.heappush(self._heap, (time, next(self._seq), handle))
        if time < self._armed:
            self._arm()
        return handle

    def _arm(self) -> None:
        """Point the one loop timer at the earliest live deadline."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._armed = heap[0][0] if heap else math.inf
        if heap:
            assert self._loop is not None and self._epoch is not None
            self._timer = self._loop.call_at(self._epoch + self._armed, self._wake)

    def _wake(self) -> None:
        self._timer = None
        self._armed = -math.inf  # callbacks below schedule without arming
        heap = self._heap
        now = self.now
        while heap and heap[0][0] <= now:
            handle = heapq.heappop(heap)[2]
            if handle.cancelled:
                continue
            self._events_processed += 1
            try:
                handle.callback(*handle.args)
            except BaseException as exc:  # surface from run(), don't swallow
                self._errors.append(exc)
                for task in asyncio.all_tasks(self._loop):
                    task.cancel()
                return  # the run is over: fire nothing more, stay disarmed
        self._arm()

    # ------------------------------------------------------------------
    # Runners (transports) and execution
    # ------------------------------------------------------------------

    def add_runner(self, runner: Any) -> None:
        """Register an object with ``async start()``/``async close()`` to be
        brought up with the loop and torn down at the end of the run."""
        self._runners.append(runner)

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Run the event loop for ``until`` wall-clock seconds.

        Matches the kernel's calling convention (``sim.run(until=...)``)
        so callers — above all :meth:`LiveScenario.run
        <repro.scenario.builder.LiveScenario.run>` — need no live branch.
        ``max_events`` is a kernel-only knob and rejected here; a live run
        is bounded by time, not event count.  One :class:`WallClock` backs
        one run: sockets close with the loop, so a second call raises.
        """
        if until is None:
            raise SimulationError("a wall-clock run needs an explicit `until`")
        if max_events is not None:
            raise SimulationError("max_events is not meaningful on a wall clock")
        if self._finished:
            raise SimulationError(
                "this WallClock already ran; live runs are one-shot "
                "(build a fresh scenario to run again)"
            )
        # What asyncio.run does, on a loop whose selector waits with
        # sub-millisecond timeouts (asyncio.Runner's loop_factory is 3.11+).
        loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
        try:
            loop.run_until_complete(self._run_async(until))
        finally:
            self._finished = True
            self._loop = None
            self._epoch = None
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.run_until_complete(loop.shutdown_default_executor())
            finally:
                loop.close()
        if self._errors:
            raise self._errors[0]

    async def _run_async(self, until: float) -> None:
        self._loop = asyncio.get_running_loop()
        self._epoch = self._loop.time() - self._now
        try:
            for runner in self._runners:
                await runner.start()
            self._arm()
            try:
                await asyncio.sleep(max(0.0, until - self.now))
            except asyncio.CancelledError:
                pass  # a callback error cancelled the sleep; re-raised by run()
        finally:
            # Freeze the clock at the run's end.  Only clamp up to `until`
            # on clean completion: after a callback error aborted the run
            # early, the frozen value must report how far the run actually
            # got, not pretend the full duration elapsed.
            elapsed = self._loop.time() - self._epoch
            self._now = elapsed if self._errors else max(elapsed, until)
            if self._timer is not None:
                self._timer.cancel()
            self._armed = -math.inf
            for runner in self._runners:
                try:
                    await runner.close()
                except Exception as exc:  # pragma: no cover - teardown race
                    if not self._errors:
                        self._errors.append(exc)

    def stop(self) -> None:
        """Kernel-compat no-op surface: live runs end at their deadline."""
        raise SimulationError("a wall-clock run cannot be stopped mid-flight")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self._finished else "ready"
        return f"WallClock(now={self.now:.3f}, {state})"
