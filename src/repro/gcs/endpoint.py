"""Application-facing group endpoint and rate-limited consumer.

:class:`GroupEndpoint` wraps one :class:`~repro.core.svs.SVSProcess` behind
the interface applications actually want:

* ``multicast`` that transparently queues messages while the group is
  blocked in a view change and re-sends them in the next view (the raw t2
  guard simply refuses during the change);
* callbacks for data, views and exclusion instead of manual queue polling;
* ``leave()`` / ``expel()`` membership operations (both are just t4
  triggers with the right ``leave`` set — Section 3.2 lists voluntary
  leaves and failure suspicions among the view-change causes).

:class:`RateLimitedConsumer` models the paper's receiving application: a
server draining the delivery queue at a fixed rate (messages per second),
pausable to inject the performance perturbations of Section 5.  It is
event-driven: it serves on a fixed lattice of instants while the queue
holds work and schedules nothing while it is empty, so an idle member
costs no events however long it idles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.core.message import DataMessage, View, ViewDelivery
from repro.core.svs import SVSProcess
from repro.sim.kernel import Simulator

__all__ = ["GroupEndpoint", "RateLimitedConsumer"]


class GroupEndpoint:
    """Convenience facade over one SVS group member."""

    def __init__(self, process: SVSProcess) -> None:
        self.process = process
        self._outbox: List[Tuple[Any, Any]] = []
        self.on_data: Optional[Callable[[DataMessage], None]] = None
        self.on_view: Optional[Callable[[View], None]] = None
        self.on_excluded: Optional[Callable[[View], None]] = None

        previous_install = process.listeners.on_install
        previous_exclude = process.listeners.on_exclude

        def install_hook(pid: int, view: View) -> None:
            if previous_install is not None:
                previous_install(pid, view)
            self._flush_outbox()

        def exclude_hook(pid: int, view: View) -> None:
            if previous_exclude is not None:
                previous_exclude(pid, view)
            if self.on_excluded is not None:
                self.on_excluded(view)

        process.listeners.on_install = install_hook
        process.listeners.on_exclude = exclude_hook

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def multicast(self, payload: Any, annotation: Any = None) -> bool:
        """Multicast now, or park the message until the view change ends.

        Returns True if the message went out immediately, False if parked.
        Parked messages are re-sent (in order) right after the next view
        installation — they then carry the new view's tag, which is the
        correct semantics: a message queued during a change is logically
        sent in the next configuration.
        """
        msg = self.process.multicast(payload, annotation)
        if msg is not None:
            return True
        if self.process.excluded or self.process.crashed:
            return False
        self._outbox.append((payload, annotation))
        return False

    def _flush_outbox(self) -> None:
        parked, self._outbox = self._outbox, []
        for payload, annotation in parked:
            msg = self.process.multicast(payload, annotation)
            if msg is None:
                # Blocked again already; keep the remainder parked.
                self._outbox.append((payload, annotation))

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def poll(self) -> Optional[Any]:
        """Deliver one entry, dispatching to callbacks; returns the entry."""
        entry = self.process.deliver()
        if entry is None:
            return None
        if isinstance(entry, ViewDelivery):
            if self.on_view is not None:
                self.on_view(entry.view)
        else:
            if self.on_data is not None:
                self.on_data(entry)
        return entry

    def poll_all(self) -> int:
        """Deliver everything currently queued; returns the count."""
        count = 0
        while self.process.pending:
            self.poll()
            count += 1
        return count

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def leave(self) -> None:
        """Voluntarily leave the group at the next view change."""
        self.process.trigger_view_change(leave=(self.process.pid,))

    def expel(self, *pids: int) -> None:
        """Trigger a view change removing the given members."""
        self.process.trigger_view_change(leave=pids)

    def reconfigure(self) -> None:
        """Trigger a view change with no explicit removals (suspected and
        unresponsive members drop out via the t7 guard)."""
        self.process.trigger_view_change()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def view(self) -> View:
        return self.process.cv

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def pending(self) -> int:
        return self.process.pending


class RateLimitedConsumer:
    """Drains an endpoint's queue at a fixed service rate.

    Models "the time it takes for the slower process to consume each
    message" (Section 5.3): one message every ``1/rate`` seconds while the
    queue is non-empty.  ``pause()``/``resume()`` implement the transient
    performance perturbations of Figure 5(b) (the
    :class:`~repro.sim.failure.PerturbationSchedule` protocol).

    **The service lattice.**  The first tick comes ``1/rate`` after
    :meth:`start` (or :meth:`restart`), each later one ``1/rate`` after the
    previous: accumulated float addition, ``t + 1/rate``, exactly what a
    timer re-armed from every tick computes.

    **Sleeping.**  A tick that leaves the queue empty, or finds the
    consumer paused, does not re-arm.  The process wakes the
    consumer through its ``on_enqueue`` listener (after every append to the
    delivery queue, and at crash), and :meth:`resume` wakes it when a
    backlog is waiting.  The woken tick lands on the first lattice instant
    at or after the wake-up, found by continuing the accumulation from the
    last tick: the instant a consumer that never slept would have served
    next, because every tick skipped in between would have found nothing to
    do.  A crash wakes it so that tick observes the crash, as a polling
    one would.  A busy consumer runs the ticks a polling one runs, less
    the one after each busy period that would have found nothing.

    **The tie rule.**  Ticks run at kernel priority ``1 + pid``: after
    every protocol event at the same instant, and in pid order among
    consumers.  A sleeping consumer cannot tell whether the tick it skipped
    at the current instant would have run before or after the enqueue that
    wakes it — at one shared priority that depended on the scheduling
    history of the skipped tick — so the order is pinned instead: an entry
    that arrives at a service instant is served at that instant.  One case
    is out of the rule's reach: an application callback, run by a
    higher-pid consumer's tick, that makes this process enqueue at that
    same instant (it needs a zero-delay link).  The woken consumer then
    serves at that instant, where a polling one would already have passed
    it.  Under a wall clock priorities are ignored and nothing ties.
    """

    def __init__(
        self,
        sim: Simulator,
        endpoint: GroupEndpoint,
        rate: float,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive: {rate}")
        self.sim = sim
        self.endpoint = endpoint
        self.rate = rate
        self.paused = False
        self.consumed = 0
        self._started = False
        self._dead = False
        self._priority = 1 + endpoint.pid
        # Whether a tick is scheduled (not while asleep, dead or never
        # started), and the lattice instant of the last tick, which a
        # wake-up continues.
        self._armed = False
        self._last = 0.0

        listeners = endpoint.process.listeners
        previous = listeners.on_enqueue
        if previous is None:
            listeners.on_enqueue = self._on_enqueue
        else:

            def chained(pid: int) -> None:
                previous(pid)
                self._on_enqueue(pid)

            listeners.on_enqueue = chained

    @property
    def service_time(self) -> float:
        return 1.0 / self.rate

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._arm(self.service_time)

    def pause(self) -> None:
        self.paused = True

    def resume(self) -> None:
        self.paused = False
        if self.endpoint.pending:
            self._wake()

    def restart(self) -> None:
        """Re-arm the service loop after the underlying process recovered.

        The loop dies silently when a tick observes a crash; a rejoin (see
        :meth:`repro.gcs.stack.GroupStack.rejoin`) revives the process but
        not the consumer — the fault installer calls this afterwards, and
        the lattice restarts ``1/rate`` later.  No-op while the loop is
        still alive (including a crash shorter than the gap to the next
        lattice instant, which no tick observed: the lattice continues) or
        never started.
        """
        if not self._started or not self._dead or self.endpoint.process.crashed:
            return
        self._dead = False
        self._arm(self.service_time)

    def _arm(self, delay: float) -> None:
        self._armed = True
        self.sim.schedule(delay, self._tick, priority=self._priority)

    def _on_enqueue(self, pid: int) -> None:
        # A paused consumer would only find itself paused (resume() wakes
        # it for a waiting backlog); a crash must always be observed.
        if not self._armed and (
            not self.paused or self.endpoint.process.crashed
        ):
            self._wake()

    def _wake(self) -> None:
        if self._armed or self._dead or not self._started:
            return
        now = self.sim.now
        step = self.service_time
        at = self._last + step
        while at < now:
            at += step
        # Relative, so a wall clock that moved on since ``now`` was read
        # still gets a non-negative delay.  On the kernel it lands on
        # ``at`` exactly: a consumer only sleeps after a tick, so
        # now >= step and at <= 2 * now, and ``at - now`` is exact.
        self._arm(at - now)

    def _tick(self) -> None:
        process = self.endpoint.process
        if process.crashed:
            self._armed = False
            self._dead = True
            return
        if not self.paused and process.pending:
            self.endpoint.poll()
            self.consumed += 1
        # Sleep when the next tick could only find nothing to do.  A crash
        # inside the poll's callbacks is left for that tick to observe.
        if (self.paused or not process.pending) and not process.crashed:
            self._armed = False
            self._last = self.sim.now
        else:
            self._arm(self.service_time)
