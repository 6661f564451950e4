"""The slow-receiver throughput model (Section 5.3 of the paper).

"The use of simulation instead of a real protocol allows us to isolate
performance degradation due to a slower receiver from other aspects of
group performance."  The model:

* a **producer** injects the trace at its recorded timestamps.  All group
  members except one consume instantly, so the system reduces to the
  producer, a **bounded buffer** (the protocol buffering on the path to the
  slow member — capacity is the paper's "buffer size" parameter), and one
  **slow consumer** that takes ``1/rate`` seconds per message;
* when the buffer is full the producer **blocks** (flow control back-
  pressure: the delivery queue fills, the node stops accepting from the
  network, the sender's outgoing buffers fill, the application stalls);
  every blocked interval delays the rest of the trace, exactly like a
  stalled game server delays subsequent rounds;
* under the **semantic** protocol a new message may purge queued obsolete
  messages (freeing its own slot even when the buffer is full); under the
  **reliable** protocol (empty relation) nothing is ever purged.

Outputs map to the paper's figures:

* producer idle % (Figure 4(a)) = 100 × (1 − blocked fraction);
* buffer occupancy (Figure 4(b)) = time-weighted mean queue length;
* :func:`threshold_rate` (Figure 5(a)) = the lowest consumer rate keeping
  the producer ≥ 95 % idle (the paper's "less than 5 % impact");
* :func:`perturbation_tolerance` (Figure 5(b)) = how long a complete
  consumer stall is absorbed before the producer first blocks.

Following the paper, the semantic runs use the k-enumeration
representation with ``k = 2 × buffer size`` (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.buffers import DeliveryQueue
from repro.core.message import DataMessage
from repro.core.obsolescence import EmptyRelation, ObsolescenceRelation
from repro.metrics.collectors import BusyTracker
from repro.sim.kernel import Simulator
from repro.workload.trace import Trace, to_data_messages

__all__ = [
    "ThroughputConfig",
    "ThroughputResult",
    "SlowReceiverSimulation",
    "run_slow_receiver",
    "threshold_rate",
    "perturbation_tolerance",
    "annotated_messages",
]


@dataclass(frozen=True)
class ThroughputConfig:
    """Parameters of one slow-receiver run."""

    buffer_size: int = 15
    consumer_rate: float = 60.0
    semantic: bool = True
    representation: str = "k-enumeration"
    k: Optional[int] = None
    """k-enumeration window; defaults to 2 × buffer size (paper's choice)."""
    stall_at: Optional[float] = None
    """If set, the consumer stops permanently at this time (Figure 5(b))."""
    stop_on_first_block: bool = False
    """End the run the first time the producer blocks (tolerance probes)."""

    def effective_k(self) -> int:
        return self.k if self.k is not None else 2 * self.buffer_size

    def __post_init__(self) -> None:
        if self.buffer_size <= 0:
            raise ValueError("buffer size must be positive")
        if self.consumer_rate <= 0:
            raise ValueError("consumer rate must be positive")


@dataclass(frozen=True)
class ThroughputResult:
    """Measurements of one run."""

    config: ThroughputConfig
    duration: float
    """Time from start until the last message left the producer."""
    blocked_fraction: float
    mean_occupancy: float
    max_occupancy: int
    offered: int
    delivered: int
    purged: int
    first_block_time: Optional[float]
    completed: bool
    """False when the run stopped early (stop_on_first_block)."""

    @property
    def producer_idle_pct(self) -> float:
        """Figure 4(a)'s y-axis."""
        return 100.0 * (1.0 - self.blocked_fraction)

    @property
    def purge_ratio(self) -> float:
        return self.purged / self.offered if self.offered else 0.0


# ----------------------------------------------------------------------
# Annotation cache: re-annotating 16k messages per sweep point is the
# dominant cost, and the annotation depends only on (trace, repr, k).
# ----------------------------------------------------------------------

_annotation_cache: Dict[Tuple[int, str, int], Tuple[List[DataMessage], ObsolescenceRelation]] = {}


def annotated_messages(
    trace: Trace, representation: str, k: int
) -> Tuple[List[DataMessage], ObsolescenceRelation]:
    """Annotate (with memoisation) a trace under the given representation."""
    key = (id(trace), representation, k)
    cached = _annotation_cache.get(key)
    if cached is None:
        cached = to_data_messages(trace, representation=representation, k=k)
        _annotation_cache[key] = cached
    return cached


class SlowReceiverSimulation:
    """One producer / bounded buffer / one slow consumer, event-driven."""

    __slots__ = (
        "messages", "config", "sim", "queue", "_service_time", "_schedule",
        "_n_messages", "_cursor", "_offset", "_blocked_since",
        "_consumer_busy", "_consumer_paused", "_stopped", "blocked",
        "_occ_last", "_occ_val", "_occ_sum", "_occ_max",
        "first_block_time", "delivered", "finish_time",
    )

    def __init__(
        self,
        messages: Sequence[DataMessage],
        relation: ObsolescenceRelation,
        config: ThroughputConfig,
    ) -> None:
        self.messages = messages
        self.config = config
        self.sim = Simulator()
        self.queue = DeliveryQueue(relation, capacity=config.buffer_size)
        # Hot-path caches: the service period, the kernel's schedule entry
        # point and the occupancy recorder are looked up once, not per event.
        self._service_time = 1.0 / config.consumer_rate
        self._schedule = self.sim.schedule
        self._n_messages = len(messages)

        self._cursor = 0  # next message index to inject
        self._offset = 0.0  # cumulative producer stall
        self._blocked_since: Optional[float] = None
        self._consumer_busy = False
        self._consumer_paused = False
        self._stopped = False

        self.blocked = BusyTracker()
        # Time-weighted occupancy, accumulated inline (the TimeWeightedStat
        # call per queue transition was measurable; same math, no calls).
        self._occ_last = 0.0
        self._occ_val = 0.0
        self._occ_sum = 0.0
        self._occ_max = 0.0
        self.first_block_time: Optional[float] = None
        self.delivered = 0
        self.finish_time = 0.0

    # ------------------------------------------------------------------
    # Producer
    # ------------------------------------------------------------------

    def _schedule_next_injection(self) -> None:
        if self._cursor >= len(self.messages) or self._stopped:
            return
        msg = self.messages[self._cursor]
        due = msg.payload.time + self._offset
        delay = due - self.sim.now
        self._schedule(delay if delay > 0.0 else 0.0, self._inject)

    def _inject(self) -> None:
        if self._stopped:
            return
        msg = self.messages[self._cursor]
        # Inlined DeliveryQueue.try_append (the queue method remains the
        # reference implementation; the golden fixtures pin equivalence).
        # One offered message per call — this is the model's hottest path.
        queue = self.queue
        index = queue._live_index
        if index is not None:
            candidates = index.obsoleted_by(msg)
            if candidates:
                queue._remove_msgs(candidates, exclude=msg.mid)
        elif not queue._inert:
            queue.purge_by(msg)
        stats = queue.stats
        if queue._size < self.config.buffer_size:
            if queue._doomed and msg.mid in queue._doomed:
                queue._compact()
            queue._items.append(msg)
            queue._mids.add(msg.mid)
            if index is not None:
                index.add(msg)
            queue._size += 1
            stats.appended += 1
            if queue._size > stats.max_len:
                stats.max_len = queue._size
            accepted = True
        else:
            stats.rejected += 1
            accepted = False
        if accepted:
            now = self.sim.now
            self._occ_sum += self._occ_val * (now - self._occ_last)
            self._occ_last = now
            value = self._occ_val = self.queue._size
            if value > self._occ_max:
                self._occ_max = value
            cursor = self._cursor = self._cursor + 1
            self.finish_time = now
            if not self._consumer_busy and not self._consumer_paused and self.queue._size:
                self._consumer_busy = True
                self._schedule(self._service_time, self._complete_service)
            # Inlined _schedule_next_injection (one call per offered message).
            if cursor < self._n_messages:
                delay = self.messages[cursor].payload.time + self._offset - now
                self._schedule(delay if delay > 0.0 else 0.0, self._inject)
        else:
            # Flow control: block until the consumer frees a slot.
            self._blocked_since = self.sim.now
            self.blocked.enter(self.sim.now)
            watch_from = self.config.stall_at or 0.0
            if self.first_block_time is None and self.sim.now >= watch_from:
                self.first_block_time = self.sim.now
                if self.config.stop_on_first_block:
                    self._stopped = True
                    self.sim.stop()

    def _unblock(self) -> None:
        """Called after a consumer pop while the producer is blocked."""
        if self._blocked_since is None or self._stopped:
            return
        stall = self.sim.now - self._blocked_since
        self._offset += stall
        self.blocked.leave(self.sim.now)
        self._blocked_since = None
        self._inject()

    # ------------------------------------------------------------------
    # Consumer: a server taking 1/rate per message; the message occupies
    # its buffer slot until service completes.
    # ------------------------------------------------------------------

    def _kick_consumer(self) -> None:
        if self._consumer_busy or self._consumer_paused:
            return
        if not self.queue:
            return
        self._consumer_busy = True
        self._schedule(self._service_time, self._complete_service)

    def _complete_service(self) -> None:
        if self._consumer_paused:
            # A stall hit mid-service: the message completes only after
            # resume (permanent stalls never resume in this model).
            self._consumer_busy = False
            return
        queue = self.queue
        if queue._size:
            # Inlined DeliveryQueue.pop (head is live unless tombstoned).
            if queue._doomed:
                queue._reclaim_head()
            head = queue._items.pop(0)
            queue._mids.discard(head.mid)
            if queue._live_index is not None:
                queue._live_index.discard(head)
            queue._size -= 1
            queue.stats.popped += 1
            self.delivered += 1
            now = self.sim.now
            self._occ_sum += self._occ_val * (now - self._occ_last)
            self._occ_last = now
            self._occ_val = queue._size
        self._consumer_busy = False
        if self._blocked_since is not None:
            self._unblock()
        if not self._consumer_busy and not self._consumer_paused and queue._size:
            self._consumer_busy = True
            self._schedule(self._service_time, self._complete_service)

    def _pause_consumer(self) -> None:
        self._consumer_paused = True

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------

    def run(self) -> ThroughputResult:
        if self.config.stall_at is not None:
            self.sim.schedule_at(self.config.stall_at, self._pause_consumer)
        self._schedule_next_injection()
        self.sim.run()

        end = max(self.sim.now, self.finish_time)
        self.blocked.finish(end)
        # Close the occupancy integral at the end time.
        self._occ_sum += self._occ_val * (end - self._occ_last)
        self._occ_last = end
        injected_all = self._cursor >= len(self.messages)
        duration = self.finish_time if injected_all else end
        blocked_fraction = (
            self.blocked.total_busy / duration if duration > 0 else 0.0
        )
        return ThroughputResult(
            config=self.config,
            duration=duration,
            blocked_fraction=blocked_fraction,
            mean_occupancy=(self._occ_sum / end) if end > 0 else 0.0,
            max_occupancy=int(self._occ_max),
            offered=self._cursor,
            delivered=self.delivered,
            purged=self.queue.stats.purged,
            first_block_time=self.first_block_time,
            completed=injected_all,
        )




def run_slow_receiver(trace: Trace, config: ThroughputConfig) -> ThroughputResult:
    """Run the Section 5.3 model for one parameter point."""
    if config.semantic:
        messages, relation = annotated_messages(
            trace, config.representation, config.effective_k()
        )
    else:
        messages, relation = annotated_messages(
            trace, config.representation, config.effective_k()
        )
        relation = EmptyRelation()
    return SlowReceiverSimulation(messages, relation, config).run()


def threshold_rate(
    trace: Trace,
    buffer_size: int,
    semantic: bool,
    disturbance: float = 0.05,
    lo: int = 1,
    hi: int = 200,
    representation: str = "k-enumeration",
) -> int:
    """Figure 5(a): lowest integer consumer rate with ≤ ``disturbance``
    producer blocking, by bisection (blocking is monotone in the rate)."""
    def disturbed(rate: int) -> bool:
        result = run_slow_receiver(
            trace,
            ThroughputConfig(
                buffer_size=buffer_size,
                consumer_rate=float(rate),
                semantic=semantic,
                representation=representation,
            ),
        )
        return result.blocked_fraction > disturbance

    if disturbed(hi):
        return hi
    while lo < hi:
        mid = (lo + hi) // 2
        if disturbed(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def perturbation_tolerance(
    trace: Trace,
    buffer_size: int,
    semantic: bool,
    probes: int = 8,
    fast_rate: float = 5_000.0,
    warmup: float = 20.0,
    representation: str = "k-enumeration",
) -> float:
    """Figure 5(b): mean time a *complete* consumer stall is tolerated.

    The consumer runs fast (the stable case) until a probe time, then stops
    for good; the tolerance is the time until the producer first blocks.
    Probes are spread through the trace and averaged, because tolerance
    depends on the burst phase the stall lands in.
    """
    horizon = trace.duration
    if probes <= 0 or horizon <= warmup:
        raise ValueError("need probes > 0 and a trace longer than the warmup")
    tolerances: List[float] = []
    for i in range(probes):
        stall_at = warmup + (horizon - 2 * warmup) * i / max(1, probes - 1)
        result = run_slow_receiver(
            trace,
            ThroughputConfig(
                buffer_size=buffer_size,
                consumer_rate=fast_rate,
                semantic=semantic,
                representation=representation,
                stall_at=stall_at,
                stop_on_first_block=True,
            ),
        )
        if result.first_block_time is not None:
            tolerances.append(result.first_block_time - stall_at)
        else:
            # Never blocked: the whole remaining trace was absorbed.
            tolerances.append(horizon - stall_at)
    return sum(tolerances) / len(tolerances)
