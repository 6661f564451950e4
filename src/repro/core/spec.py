"""Executable specification of SVS (Section 3.2 of the paper).

The safety properties are checked over *recorded histories*: every multicast
and every application-level delivery (data or view notification) of every
process.  :class:`HistoryRecorder` plugs into
:class:`~repro.core.svs.SVSListeners` so any simulation can be checked
after the fact.

Checked properties:

* **Semantic View Synchrony** (:func:`check_svs`): if p installs views
  v_i and v_{i+1} and delivers m in v_i, every q that installs both views
  delivers some m' with ``m ⊑ m'`` before installing v_{i+1}.
* **FIFO Semantic Reliability** (:func:`check_fifo_sr`): (i) per-sender
  delivery order follows multicast order; (ii) when a process delivers m'
  in v_i, every earlier message m of the same sender is ⊑-covered by its
  deliveries before it installs v_{i+1}.
* **Integrity** (:func:`check_integrity`): no creation, no duplication.
* **View agreement** (:func:`check_view_agreement`): processes installing
  the same view id agree on membership, and views install in increasing
  order.
* **Classic VS** (:func:`check_classic_vs`): with the empty relation,
  co-installed segments must contain exactly the same message sets — the
  paper's claim that SVS with an empty relation *is* VS.

All checkers return a list of human-readable violations; an empty list
means the property holds on the recorded run.

Cost: ⊑-coverage is asked of never-purged
:class:`~repro.core.buffers.DeliveryQueue` pools, one
``PurgeIndex.coverer_of`` probe each (a scan without an index), so a check
is linear in deliveries plus multicasts per install — and exact by the
index contract: a pairwise scan's answer, with no view filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.buffers import DeliveryQueue
from repro.core.message import DataMessage, MessageId, View, ViewDelivery
from repro.core.obsolescence import EmptyRelation, ObsolescenceRelation
from repro.core.svs import SVSListeners

__all__ = [
    "HistoryRecorder", "ProcessHistory", "CHECKS", "DEFAULT_CHECKS",
    "LOSSY_CHECKS", "check_svs", "check_fifo_sr", "check_fifo_order",
    "check_fifo_cover", "check_integrity", "check_view_agreement",
    "check_classic_vs", "check_all",
]

QueueEntry = Union[DataMessage, ViewDelivery]


@dataclass
class ProcessHistory:
    """Everything one process delivered, in order."""

    pid: int
    events: List[QueueEntry] = field(default_factory=list)

    def installed_views(self) -> List[View]:
        return [e.view for e in self.events if isinstance(e, ViewDelivery)]

    def segments(self) -> Dict[int, List[DataMessage]]:
        """Data deliveries grouped by the view they were delivered in.

        Segment ``vid`` holds everything delivered between the installation
        of view ``vid`` and the next view installation (or the end of the
        history).  Data delivered before any view installation is grouped
        under ``-1`` (a protocol bug if non-empty — the initial view is
        announced through the queue before any data).
        """
        segments: Dict[int, List[DataMessage]] = {}
        current = -1
        for event in self.events:
            if isinstance(event, ViewDelivery):
                current = event.view.vid
                segments.setdefault(current, [])
            else:
                segments.setdefault(current, []).append(event)
        return segments


class HistoryRecorder:
    """Records multicasts and deliveries across a whole group run.

    A process that crashes and later *rejoins* (see
    :meth:`repro.gcs.stack.GroupStack.rejoin`) comes back as a fresh
    **incarnation**: crash-stop loses its volatile state, so its pre-crash
    and post-rejoin deliveries are two separate histories, exactly as two
    distinct processes would be.  :meth:`record_rejoin` marks the boundary;
    the finished history moves to :attr:`retired` and every checker runs
    over :meth:`all_histories` (live and retired alike).
    """

    def __init__(self) -> None:
        self.multicasts: Dict[MessageId, DataMessage] = {}
        self.multicast_order: Dict[int, List[DataMessage]] = {}
        self.histories: Dict[int, ProcessHistory] = {}
        self.excluded: Dict[int, View] = {}
        #: Completed incarnations of rejoined pids, in rejoin order.
        self.retired: List[ProcessHistory] = []

    def record_multicast(self, pid: int, msg: DataMessage) -> None:
        self.multicasts[msg.mid] = msg
        self.multicast_order.setdefault(msg.sender, []).append(msg)

    def record_delivery(self, pid: int, entry: QueueEntry) -> None:
        self.histories.setdefault(pid, ProcessHistory(pid)).events.append(entry)

    def record_exclusion(self, pid: int, view: View) -> None:
        self.excluded[pid] = view

    def record_rejoin(self, pid: int) -> None:
        """Close ``pid``'s current incarnation before it rejoins."""
        history = self.histories.pop(pid, None)
        if history is not None:
            self.retired.append(history)

    def listeners(self) -> SVSListeners:
        """Build SVS listeners wired into this recorder."""
        return SVSListeners(
            on_multicast=self.record_multicast,
            on_deliver=self.record_delivery,
            on_exclude=self.record_exclusion,
        )

    def history(self, pid: int) -> ProcessHistory:
        return self.histories.setdefault(pid, ProcessHistory(pid))

    def all_histories(self) -> List[ProcessHistory]:
        """Every incarnation's history: retired ones first, then live."""
        return [*self.retired, *self.histories.values()]


# ----------------------------------------------------------------------
# Property checkers
# ----------------------------------------------------------------------


class _Pool:
    """Append-only ⊑-coverage pool: never-purged delivery queues, one per
    copy of a mid (an index holds one message per mid; every copy covers)."""

    def __init__(self, relation: ObsolescenceRelation) -> None:
        self.relation = relation
        self.queues: List[DeliveryQueue] = []

    def add(self, m: DataMessage) -> None:
        for queue in self.queues:
            if not queue.contains_mid(m.mid):
                break
        else:
            queue = DeliveryQueue(self.relation)
            self.queues.append(queue)
        queue.append(m)

    def covered(self, m: DataMessage) -> bool:
        for queue in self.queues:
            if queue.covered(m):
                return True
        return False


def check_svs(
    recorder: HistoryRecorder, relation: ObsolescenceRelation
) -> List[str]:
    """The Semantic View Synchrony property (Section 3.2).

    Histories are compared per *incarnation* (see
    :meth:`HistoryRecorder.record_rejoin`); caches are keyed by position
    because a rejoined pid contributes several histories.
    """
    violations: List[str] = []
    histories = recorder.all_histories()
    segment_cache = [h.segments() for h in histories]
    installed_cache = [[v.vid for v in h.installed_views()] for h in histories]
    # q's deliveries before installing vid+1, pooled once per (q, vid).
    pools: Dict[Tuple[int, int], _Pool] = {}
    for pi, p in enumerate(histories):
        p_installed = installed_cache[pi]
        for vid in p_installed:
            if vid + 1 not in p_installed:
                continue  # p did not install the consecutive pair
            p_segment = segment_cache[pi].get(vid, [])
            for qi, q in enumerate(histories):
                q_installed = installed_cache[qi]
                if qi == pi or vid not in q_installed or vid + 1 not in q_installed:
                    continue
                pool = pools.get((qi, vid))
                if pool is None:
                    pool = pools[qi, vid] = _Pool(relation)
                    for w in q_installed:
                        if w <= vid:
                            for m in segment_cache[qi].get(w, ()):
                                pool.add(m)
                for m in p_segment:
                    if not pool.covered(m):
                        violations.append(
                            f"SVS: {p.pid} delivered {m} in view {vid} but "
                            f"{q.pid} installed view {vid + 1} without "
                            f"covering it"
                        )
    return violations


def check_fifo_order(
    recorder: HistoryRecorder, relation: ObsolescenceRelation
) -> List[str]:
    """FIFO Semantic Reliability clause (i): per-sender delivery order
    follows multicast (sn) order.

    This clause rests on the paper's reliable-FIFO-channel assumption
    (Section 3.1).  Under the injected channel faults of
    :mod:`repro.faults` it is *expected* to fail: a message lost to a
    partition or a lossy link is recovered by the next view change's
    flush, necessarily after any higher-sn messages the application
    already consumed.  Lossy scenarios therefore check
    :data:`LOSSY_CHECKS`, which swaps this clause for clause (ii).
    """
    violations: List[str] = []
    for history in recorder.all_histories():
        last_sn: Dict[int, int] = {}
        for event in history.events:
            if not isinstance(event, DataMessage):
                continue
            prev = last_sn.get(event.sender)
            if prev is not None and event.sn <= prev:
                violations.append(
                    f"FIFO(i): {history.pid} delivered {event} after "
                    f"sn {prev} of the same sender"
                )
            last_sn[event.sender] = event.sn
    return violations


def check_fifo_cover(
    recorder: HistoryRecorder, relation: ObsolescenceRelation
) -> List[str]:
    """FIFO Semantic Reliability clause (ii): when a process delivers m',
    every earlier message of the same sender is ⊑-covered by its
    deliveries before the next view installation.

    For a rejoined incarnation, the clause only binds messages multicast
    in views the incarnation was actually a member of — its first
    installed view onwards.  Traffic that predates the join is another
    incarnation's (or nobody's) obligation, exactly as for a process that
    was never in the group.  For ordinary histories the floor is view 0,
    which excludes nothing.
    """
    violations: List[str] = []
    for history in recorder.all_histories():
        delivered_so_far = _Pool(relation)
        max_sn_from: Dict[int, int] = {}
        installs_seen = 0
        for event in history.events:
            if isinstance(event, DataMessage):
                delivered_so_far.add(event)
                if event.sn > max_sn_from.get(event.sender, -1):
                    max_sn_from[event.sender] = event.sn
                continue
            installs_seen += 1
            if installs_seen == 1:
                first_vid = event.view.vid  # this incarnation's floor
                continue  # the initial view has no preceding segment
            for sender, sn_max in max_sn_from.items():
                for m in recorder.multicast_order.get(sender, []):
                    if m.sn >= sn_max:
                        break
                    if m.view_id < first_vid:
                        continue  # predates this incarnation's membership
                    if not delivered_so_far.covered(m):
                        violations.append(
                            f"FIFO(ii): {history.pid} installed view "
                            f"#{installs_seen - 1} having delivered up to "
                            f"sn {sn_max} of sender {sender} without "
                            f"covering {m}"
                        )
    return violations


def check_fifo_sr(
    recorder: HistoryRecorder, relation: ObsolescenceRelation
) -> List[str]:
    """FIFO Semantic Reliability, both clauses (Section 3.2)."""
    return [
        *check_fifo_order(recorder, relation),
        *check_fifo_cover(recorder, relation),
    ]


def check_integrity(recorder: HistoryRecorder) -> List[str]:
    """No creation, no duplication (Section 3.2)."""
    violations: List[str] = []
    for history in recorder.all_histories():
        seen: Set[MessageId] = set()
        for event in history.events:
            if not isinstance(event, DataMessage):
                continue
            original = recorder.multicasts.get(event.mid)
            if original is None:
                violations.append(
                    f"Integrity(no-creation): {history.pid} delivered "
                    f"unknown message {event}"
                )
            elif original != event:
                violations.append(
                    f"Integrity(no-creation): {history.pid} delivered a "
                    f"message differing from the multicast one: {event}"
                )
            if event.mid in seen:
                violations.append(
                    f"Integrity(no-duplication): {history.pid} delivered "
                    f"{event} twice"
                )
            seen.add(event.mid)
    return violations


def check_view_agreement(recorder: HistoryRecorder) -> List[str]:
    """Installed views with equal ids have equal membership; installation
    order per process is strictly increasing and gap-free."""
    violations: List[str] = []
    by_vid: Dict[int, View] = {}
    for history in recorder.all_histories():
        previous: Optional[int] = None
        for view in history.installed_views():
            known = by_vid.get(view.vid)
            if known is None:
                by_vid[view.vid] = view
            elif known.members != view.members:
                violations.append(
                    f"ViewAgreement: view {view.vid} installed with "
                    f"memberships {sorted(known.members)} and "
                    f"{sorted(view.members)}"
                )
            if previous is not None:
                if view.vid <= previous:
                    violations.append(
                        f"ViewAgreement: {history.pid} installed view "
                        f"{view.vid} after {previous}"
                    )
                elif view.vid != previous + 1:
                    violations.append(
                        f"ViewAgreement: {history.pid} skipped from view "
                        f"{previous} to {view.vid}"
                    )
            previous = view.vid
    return violations


def check_classic_vs(recorder: HistoryRecorder) -> List[str]:
    """Classic View Synchrony: identical delivery *sets* per co-installed
    view segment — must hold whenever the relation is empty."""
    return check_svs(recorder, EmptyRelation())


#: Checkers addressable by name, all normalised to the same
#: ``(recorder, relation) -> violations`` signature.  ``classic-vs`` is
#: meaningful only under the empty relation, so it is registered here for
#: explicit selection but excluded from :data:`DEFAULT_CHECKS`.
CHECKS: Dict[str, Callable[[HistoryRecorder, ObsolescenceRelation], List[str]]] = {
    "svs": check_svs,
    "fifo-sr": check_fifo_sr,
    "fifo-order": check_fifo_order,
    "fifo-cover": check_fifo_cover,
    "integrity": lambda recorder, relation: check_integrity(recorder),
    "view-agreement": lambda recorder, relation: check_view_agreement(recorder),
    "classic-vs": lambda recorder, relation: check_classic_vs(recorder),
}

#: The checks :func:`check_all` runs when no subset is requested.
DEFAULT_CHECKS: Tuple[str, ...] = ("svs", "fifo-sr", "integrity", "view-agreement")

#: The checks that remain meaningful when channel faults (loss,
#: partitions) break the paper's reliable-link assumption: everything but
#: per-sender total order, which flush-based recovery cannot restore for
#: messages the application already consumed (see :func:`check_fifo_order`).
LOSSY_CHECKS: Tuple[str, ...] = ("svs", "fifo-cover", "integrity", "view-agreement")


def check_all(
    recorder: HistoryRecorder,
    relation: ObsolescenceRelation,
    checks: Optional[Sequence[str]] = None,
) -> List[str]:
    """Run the named safety checkers; returns all violations found.

    ``checks=None`` runs :data:`DEFAULT_CHECKS`; passing a subset of
    :data:`CHECKS` keys lets callers (the sweep executor, fuzz harnesses)
    pay only for the properties they are probing.
    """
    names = DEFAULT_CHECKS if checks is None else tuple(checks)
    violations: List[str] = []
    for name in names:
        checker = CHECKS.get(name)
        if checker is None:
            known = ", ".join(CHECKS)
            raise ValueError(f"unknown check: {name!r} (known: {known})")
        violations.extend(checker(recorder, relation))
    return violations
