"""Traces: the message streams the evaluation feeds to the protocols.

A :class:`Trace` is an ordered sequence of :class:`TraceMessage` records —
one per multicast the (simulated) game server performs — plus per-round
bookkeeping (active item counts).  This mirrors what the paper extracted
by instrumenting the Quake server (Section 5.2).

The module also provides:

* the statistics the paper reports — never-obsolete share, mean modified
  items per round, mean active items, the item-rank profile of Figure 3(a)
  and the obsolescence-distance profile of Figure 3(b);
* :func:`to_data_messages` — turning a trace into annotated protocol
  messages under any of the three obsolescence representations, which is
  how the throughput simulations consume traces.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.message import DataMessage, MessageId
from repro.core.obsolescence import (
    EnumerationEncoder,
    ItemTagging,
    KEnumeration,
    KEnumerationEncoder,
    MessageEnumeration,
    ObsolescenceRelation,
)
from repro.metrics.collectors import Histogram

__all__ = [
    "MessageKind",
    "TraceMessage",
    "Trace",
    "TraceStats",
    "compute_stats",
    "item_rank_profile",
    "obsolescence_distances",
    "to_data_messages",
]


class MessageKind(enum.Enum):
    """What a trace message does to the game state.

    Only UPDATE messages participate in obsolescence; creations,
    destructions and one-shot events "must be reliably delivered in order
    to ensure that items are kept consistent" (Section 5.2).
    """

    UPDATE = "update"
    CREATE = "create"
    DESTROY = "destroy"
    EVENT = "event"

    @property
    def obsolescible(self) -> bool:
        return self is MessageKind.UPDATE


@dataclass(frozen=True, slots=True)
class TraceMessage:
    """One multicast in the recorded stream."""

    index: int
    round: int
    time: float
    item: int
    kind: MessageKind


@dataclass
class Trace:
    """A full recorded session."""

    messages: List[TraceMessage]
    rounds: int
    fps: float
    active_per_round: List[int] = field(default_factory=list)
    label: str = ""

    @property
    def duration(self) -> float:
        return self.rounds / self.fps

    @property
    def message_rate(self) -> float:
        """Mean messages per second."""
        if self.duration == 0:
            return 0.0
        return len(self.messages) / self.duration

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self):
        return iter(self.messages)

    def cache_token(self) -> str:
        """Content fingerprint of the whole trace.

        Hashes every message's identity plus the session shape — the
        token :mod:`repro.sweep.cache` folds into cell keys when a trace
        is the sweep's shared context, so reproducing a figure on a
        different trace (``--fast``, another workload pack) can never hit
        shards computed from this one.
        """
        digest = hashlib.sha256()
        digest.update(f"{self.rounds}|{self.fps!r}|{self.label}\n".encode())
        for m in self.messages:
            digest.update(
                f"{m.index}|{m.round}|{m.time!r}|{m.item}|{m.kind.value}\n".encode()
            )
        return digest.hexdigest()


@dataclass(frozen=True)
class TraceStats:
    """The aggregate numbers Section 5.2 reports for the Quake session."""

    rounds: int
    total_messages: int
    message_rate: float
    mean_modified_per_round: float
    mean_active_items: float
    never_obsolete_share: float
    mean_obsolescence_distance: float
    distance_p90: int


def _next_update_distance(trace: Trace) -> Dict[int, int]:
    """Map message index -> stream distance to the next update of the same
    item, for every UPDATE message that has one (i.e. becomes obsolete)."""
    last_seen: Dict[int, int] = {}
    distances: Dict[int, int] = {}
    for msg in trace.messages:
        if msg.kind is not MessageKind.UPDATE:
            continue
        prev = last_seen.get(msg.item)
        if prev is not None:
            distances[prev] = msg.index - prev
        last_seen[msg.item] = msg.index
    return distances


def compute_stats(trace: Trace) -> TraceStats:
    """Compute the Section 5.2 aggregates for a trace."""
    # "Modified" counts every state change: "besides being updated, items
    # can be created and destroyed" (Section 5.2) — so creations,
    # destructions and events count alongside updates.
    modified_by_round: Dict[int, set] = {}
    for m in trace.messages:
        modified_by_round.setdefault(m.round, set()).add(m.item)
    total_modified = sum(len(items) for items in modified_by_round.values())
    mean_modified = total_modified / trace.rounds if trace.rounds else 0.0

    mean_active = (
        sum(trace.active_per_round) / len(trace.active_per_round)
        if trace.active_per_round
        else 0.0
    )

    distances = _next_update_distance(trace)
    obsolete_count = len(distances)
    total = len(trace.messages)
    never_share = 1.0 - obsolete_count / total if total else 1.0

    hist = Histogram("distance")
    for d in distances.values():
        hist.observe(d)

    return TraceStats(
        rounds=trace.rounds,
        total_messages=total,
        message_rate=trace.message_rate,
        mean_modified_per_round=mean_modified,
        mean_active_items=mean_active,
        never_obsolete_share=never_share,
        mean_obsolescence_distance=hist.mean(),
        distance_p90=hist.quantile(0.90),
    )


def item_rank_profile(trace: Trace, top: int = 50) -> List[Tuple[int, float]]:
    """Figure 3(a): % of rounds in which the rank-i item was modified.

    Items are ranked by how many distinct rounds they were updated in;
    the result lists ``(rank, percentage_of_rounds)`` for ranks 1..top.
    """
    rounds_touched: Dict[int, set] = {}
    for m in trace.messages:
        if m.kind is MessageKind.UPDATE:
            rounds_touched.setdefault(m.item, set()).add(m.round)
    counts = sorted((len(r) for r in rounds_touched.values()), reverse=True)
    out: List[Tuple[int, float]] = []
    for rank in range(1, top + 1):
        touched = counts[rank - 1] if rank <= len(counts) else 0
        pct = 100.0 * touched / trace.rounds if trace.rounds else 0.0
        out.append((rank, pct))
    return out


def obsolescence_distances(trace: Trace, max_distance: int = 20) -> Histogram:
    """Figure 3(b): distribution of distance to the closest related message.

    The histogram is over the messages that *do* become obsolete (the
    paper's 58.12 %); distances above ``max_distance`` are clamped into the
    ``max_distance`` bucket so percentage rows match the figure's x-range.
    """
    hist = Histogram("obsolescence-distance")
    for d in _next_update_distance(trace).values():
        hist.observe(min(d, max_distance))
    return hist


# ----------------------------------------------------------------------
# Trace -> annotated protocol messages
# ----------------------------------------------------------------------


def to_data_messages(
    trace: Trace,
    representation: str = "k-enumeration",
    k: int = 30,
    sender: int = 0,
    window: Optional[int] = None,
    view_id: int = 0,
) -> Tuple[List[DataMessage], ObsolescenceRelation]:
    """Annotate a trace under one of the paper's three representations.

    Returns ``(messages, relation)`` ready to feed the protocol or the
    throughput model.  For the k-enumeration the paper's choice is
    ``k = 2 × buffer size`` (Section 5.2).
    """
    if representation in ("k-enumeration", "k-enum", "k"):
        return _annotate_k(trace, k, sender, view_id)
    if representation in ("tagging", "item-tagging"):
        return _annotate_tagging(trace, sender, view_id)
    if representation in ("enumeration", "message-enumeration"):
        return _annotate_enumeration(trace, sender, window, view_id)
    raise ValueError(f"unknown representation: {representation!r}")


def _annotate_k(
    trace: Trace, k: int, sender: int, view_id: int
) -> Tuple[List[DataMessage], ObsolescenceRelation]:
    encoder = KEnumerationEncoder(sender, k)
    last_update_sn: Dict[int, int] = {}
    out: List[DataMessage] = []
    for msg in trace.messages:
        mid = encoder.next_mid()
        if msg.kind is MessageKind.UPDATE:
            prev = last_update_sn.get(msg.item)
            direct = [prev] if prev is not None else []
            bitmap = encoder.annotate(mid.sn, direct)
            last_update_sn[msg.item] = mid.sn
        else:
            bitmap = encoder.annotate(mid.sn, [])
        out.append(
            DataMessage(mid=mid, view_id=view_id, payload=msg, annotation=bitmap)
        )
    return out, KEnumeration(k)


def _annotate_tagging(
    trace: Trace, sender: int, view_id: int
) -> Tuple[List[DataMessage], ObsolescenceRelation]:
    out: List[DataMessage] = []
    for msg in trace.messages:
        mid = MessageId(sender, msg.index)
        tag = msg.item if msg.kind is MessageKind.UPDATE else None
        out.append(DataMessage(mid=mid, view_id=view_id, payload=msg, annotation=tag))
    return out, ItemTagging()


def _annotate_enumeration(
    trace: Trace, sender: int, window: Optional[int], view_id: int
) -> Tuple[List[DataMessage], ObsolescenceRelation]:
    encoder = EnumerationEncoder(sender, window=window)
    last_update_mid: Dict[int, MessageId] = {}
    out: List[DataMessage] = []
    for msg in trace.messages:
        mid = encoder.next_mid()
        if msg.kind is MessageKind.UPDATE:
            prev = last_update_mid.get(msg.item)
            direct = [prev] if prev is not None else []
            annotation = encoder.annotate(mid, direct)
            last_update_mid[msg.item] = mid
        else:
            annotation = encoder.annotate(mid, [])
        out.append(
            DataMessage(mid=mid, view_id=view_id, payload=msg, annotation=annotation)
        )
    return out, MessageEnumeration()
