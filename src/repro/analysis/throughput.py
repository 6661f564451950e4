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

That is a deterministic single-server queue with at most three pending
instants — the next injection, the service completion, a one-shot consumer
stall — so :func:`_simulate` is a recurrence over them, not a run of the
event kernel.  Both arms go through the same loop and the same
:class:`~repro.core.buffers.DeliveryQueue` calls (``try_append``, ``pop``,
``len``), so semantic and reliable numbers are comparable by construction.

The model used to run on the discrete-event kernel (:mod:`repro.sim`), and
every committed figure (``golden_figure_4a.json``, the golden report,
``golden_slow_receiver.json``) was produced there.  The recurrence keeps those bits by
keeping the kernel's arithmetic and order:

* an injection due at ``due + offset`` happens at ``now + max(0.0, due +
  offset - now)`` and a service started now ends at ``now + 1/rate`` —
  the kernel's ``now + delay``, which is not ``due + offset`` in floats;
* instants that coincide run in the order the kernel would have numbered
  them: the stall first (it is scheduled before anything else), then
  whichever of injection and completion was scheduled earlier.  An
  accepted injection starts an idle consumer *before* it schedules its
  successor; a completion that unblocks the producer retries the
  injection — service start, successor — in place of its own re-arm;
* the producer is refused only when the message purged nothing (a purge
  frees a slot), so occupancy does not move on a refusal;
* the stall counts as an executed instant even when nothing else is
  pending, and so does a completion the stall has already cancelled: the
  run ends at the last instant executed.

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

from dataclasses import dataclass
from math import inf
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.buffers import DeliveryQueue
from repro.core.message import DataMessage
from repro.core.obsolescence import EmptyRelation, ObsolescenceRelation
from repro.workload.trace import Trace, annotated_messages

__all__ = [
    "ThroughputConfig",
    "ThroughputResult",
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
        if self.stall_at is not None and self.stall_at < 0:
            raise ValueError("stall time must not be negative")


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
    """False when the run stopped early (stop_on_first_block, or a
    threshold probe whose outcome was decided)."""

    @property
    def producer_idle_pct(self) -> float:
        """Figure 4(a)'s y-axis."""
        return 100.0 * (1.0 - self.blocked_fraction)

    @property
    def purge_ratio(self) -> float:
        return self.purged / self.offered if self.offered else 0.0


# ----------------------------------------------------------------------
# The model
# ----------------------------------------------------------------------


def _simulate(
    trace: Trace,
    config: ThroughputConfig,
    probes: Iterable[float] = (),
    disturbance: Optional[float] = None,
) -> Tuple[ThroughputResult, List[Optional[float]]]:
    """One run of the model, as a merge over its pending instants.

    ``probes`` (ascending instants; only read when the run itself has no
    stall) asks a question per instant without disturbing the run: had the
    consumer stopped for good right then, when would the producer first
    have blocked?  The answers — ``None`` for never — come back beside
    the result, in order.

    ``disturbance`` ends the run, incomplete, once its blocked fraction is
    certain to exceed it.  An injection slips by exactly the time the
    producer was blocked, so a run lasts its last message's due time plus
    its total blocked time, and blocking only accumulates.
    """
    messages, relation = annotated_messages(
        trace, config.representation, config.effective_k()
    )
    if not config.semantic:
        relation = EmptyRelation()
    n = len(messages)
    queue = DeliveryQueue(relation, capacity=config.buffer_size)
    try_append, pop = queue.try_append, queue.pop
    service = 1.0 / config.consumer_rate
    stall_at = config.stall_at
    watch_from = stall_at or 0.0
    stop_on_block = config.stop_on_first_block
    # The stall and the probes share one slot of the merge: each is an
    # instant that goes before anything else due at the same time.
    instants = iter(probes if stall_at is None else (stall_at,))
    t_stall = next(instants, inf)
    first_blocks: List[Optional[float]] = []
    give_up = inf  # blocked time past which the fraction exceeds ``disturbance``
    if disturbance is not None and disturbance < 1.0 and n:
        give_up = disturbance / (1.0 - disturbance) * messages[-1].payload.time
        give_up *= 1.0 + 1e-9  # margin for the clock's rounding

    now = finish = offset = blocked_total = occ_sum = occ_last = 0.0
    cursor = delivered = occ_val = occ_max = 0
    blocked_since: Optional[float] = None
    first_block: Optional[float] = None
    paused = False
    # Pending instants (inf = none).  A service is pending exactly while
    # the consumer is busy; no injection is pending while the producer is
    # blocked.  ``srv_older``: the pending service was scheduled before the
    # pending injection, so it goes first when the two coincide.
    t_inj = t_srv = inf
    srv_older = False
    if n:
        delay = messages[0].payload.time + offset - now
        t_inj = now + (delay if delay > 0.0 else 0.0)

    while True:
        serve = t_srv < t_inj or (srv_older and t_srv == t_inj)
        t = t_srv if serve else t_inj
        if t_stall <= t:
            if t_stall == inf:
                break  # nothing left to happen
            if stall_at is None:
                first_blocks.append(
                    _first_block_after_stall(
                        messages, queue, cursor, offset, t_inj
                    )
                )
            else:
                now = t_stall
                paused = True
            t_stall = next(instants, inf)
            continue
        now = t
        if serve:
            t_srv = inf
            if paused:
                continue  # cancelled by the stall; only the clock moves
            pop()
            delivered += 1
            occ_sum += occ_val * (now - occ_last)
            occ_last = now
            occ_val = len(queue)
            if blocked_since is None:
                if occ_val:
                    t_srv = now + service
                    srv_older = False
                continue
            # Flow control releases: the producer slips by the time it was
            # blocked and retries at this very instant.  The pop has just
            # freed a slot, so the retry below is always accepted, and it
            # starts the next service itself.
            stalled = now - blocked_since
            offset += stalled
            blocked_total += stalled
            blocked_since = None
            if blocked_total > give_up:
                break
        if try_append(messages[cursor]):
            occ_sum += occ_val * (now - occ_last)
            occ_last = now
            occ_val = len(queue)
            if occ_val > occ_max:
                occ_max = occ_val
            cursor += 1
            finish = now
            if t_srv == inf and not paused:
                t_srv = now + service
            if cursor < n:
                delay = messages[cursor].payload.time + offset - now
                t_inj = now + (delay if delay > 0.0 else 0.0)
                srv_older = True
            else:
                t_inj = inf
        else:
            # Flow control: block until the consumer frees a slot.
            t_inj = inf
            blocked_since = now
            if first_block is None and now >= watch_from:
                first_block = now
                if stop_on_block:
                    break

    end = now  # the last instant executed (never before ``finish``)
    if blocked_since is not None:
        blocked_total += end - blocked_since
    occ_sum += occ_val * (end - occ_last)
    completed = cursor >= n
    duration = finish if completed else end
    result = ThroughputResult(
        config=config,
        duration=duration,
        blocked_fraction=blocked_total / duration if duration > 0 else 0.0,
        mean_occupancy=occ_sum / end if end > 0 else 0.0,
        max_occupancy=occ_max,
        offered=cursor,
        delivered=delivered,
        purged=queue.stats.purged,
        first_block_time=first_block,
        completed=completed,
    )
    return result, first_blocks


def _first_block_after_stall(
    messages: Sequence[DataMessage],
    queue: DeliveryQueue,
    cursor: int,
    offset: float,
    t_inj: float,
) -> Optional[float]:
    """When the producer first blocks if the consumer never serves again.

    The arguments are a run's state just before the stall: its live buffer
    (copied, not touched), the next message, the producer's accumulated
    slip and the pending injection instant — ``inf`` when the trace is
    exhausted or the producer is already blocked, which without a consumer
    it stays: no *first* block after the stall, ``None``.
    """
    if t_inj == inf:
        return None
    buffer = DeliveryQueue(queue.relation, capacity=queue.capacity)
    for queued in queue:
        buffer.try_append(queued)
    n = len(messages)
    now = t_inj
    while buffer.try_append(messages[cursor]):
        cursor += 1
        if cursor == n:
            return None
        delay = messages[cursor].payload.time + offset - now
        if delay > 0.0:
            now = now + delay
    return now


def run_slow_receiver(trace: Trace, config: ThroughputConfig) -> ThroughputResult:
    """Run the Section 5.3 model for one parameter point."""
    return _simulate(trace, config)[0]


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
    producer blocking, by bisection (blocking is monotone in the rate);
    ``hi`` when even that rate is disturbed.

    Each probe stops as soon as its blocked time alone decides it, so a
    disturbed rate costs only the run up to that point.
    """
    def disturbed(rate: int) -> bool:
        config = ThroughputConfig(
            buffer_size=buffer_size,
            consumer_rate=float(rate),
            semantic=semantic,
            representation=representation,
        )
        result = _simulate(trace, config, disturbance=disturbance)[0]
        return not result.completed or result.blocked_fraction > disturbance

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
    stalls = [
        warmup + (horizon - 2 * warmup) * i / max(1, probes - 1)
        for i in range(probes)
    ]
    # One stable pass answers every probe: up to a stall, a stalled run
    # and the un-stalled one are the same run.
    config = ThroughputConfig(
        buffer_size=buffer_size,
        consumer_rate=fast_rate,
        semantic=semantic,
        representation=representation,
    )
    in_order = sorted(stalls)
    first_block = dict(zip(in_order, _simulate(trace, config, in_order)[1]))
    tolerances: List[float] = []
    for stall_at in stalls:
        blocked_at = first_block[stall_at]
        # Never blocked: the whole remaining trace was absorbed.
        tolerances.append((horizon if blocked_at is None else blocked_at) - stall_at)
    return sum(tolerances) / len(tolerances)
