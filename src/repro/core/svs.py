"""The Semantic View Synchrony protocol — Figure 1 of the paper.

Each :class:`SVSProcess` keeps the state prescribed by the algorithm:

* ``cv`` — the current view;
* ``blocked`` — true while a view change is in progress;
* ``to_deliver`` — the FIFO queue the application consumes from
  (:class:`~repro.core.buffers.DeliveryQueue`, with semantic purging);
* ``delivered`` — messages already consumed, kept per view because the
  view-change protocol needs the current view's delivered set
  (``local-pred``) and nothing older;
* per closing view: ``global-pred``, ``pred-received`` and ``leave``.

Transitions (names follow Figure 1):

* **t1** ``deliver()`` — the application pulls the queue head;
* **t2** ``multicast()`` — tag with the current view, self-append, send to
  the other members, purge;
* **t3** data reception — accept only messages of the current view while
  unblocked and not already ⊑-covered; append and purge;
* **t4** ``trigger_view_change()`` — flood INIT;
* **t5** first INIT — forward the flood, block, compute and broadcast the
  local predicate (all data accepted for delivery in this view);
* **t6** PRED accumulation;
* **t7** when every unsuspected member's PRED arrived and they form a
  majority — run consensus on ``(next view, flush set)``; on decision,
  flush missing messages, enqueue the VIEW notification, purge, unblock.

Two deliberate, documented deviations from the paper's pseudo-code:

1. The t7 flush guard uses ⊑-*coverage* against ``to-deliver ∪ delivered``
   rather than plain set membership.  With plain membership a process that
   purged ``m`` (covered by an ``m'`` it has already delivered) would
   re-accept ``m`` from the flush set and deliver it *after* ``m'``,
   violating the protocol's own FIFO clause.  Coverage is what t3 uses and
   is clearly the intent.  The delivered log is asked through a
   never-purged ``DeliveryQueue`` built over it, whose index answers.
2. Flushed messages are appended in ``(sender, sn)`` order so that
   per-sender FIFO holds among messages a process had not seen before the
   flush.  The pseudo-code's ``OrderedSetOfMessages`` leaves this implicit.

Both deviations are exercised by regression tests in
``tests/core/test_svs_protocol.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.consensus.interface import CONSENSUS_STREAM, ConsensusFactory, ConsensusInstance
from repro.core.buffers import DeliveryQueue
from repro.core.message import (
    DataMessage,
    Envelope,
    InitMessage,
    MessageId,
    PredMessage,
    View,
    ViewDelivery,
    WelcomeMessage,
)
from repro.core.obsolescence import ObsolescenceRelation
from repro.fd.detector import FD_STREAM, FailureDetector
from repro.sim.failure import check_positive
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.process import ProcessId, SimProcess

__all__ = ["SVS_STREAM", "SVSListeners", "SVSProcess"]

SVS_STREAM = "svs"

QueueEntry = Union[DataMessage, ViewDelivery]


@dataclass
class SVSListeners:
    """Observer hooks, used by the spec recorder and the metrics layer.

    All are optional; the protocol never depends on them.
    """

    on_multicast: Optional[Callable[[ProcessId, DataMessage], None]] = None
    on_deliver: Optional[Callable[[ProcessId, QueueEntry], None]] = None
    on_install: Optional[Callable[[ProcessId, View], None]] = None
    on_exclude: Optional[Callable[[ProcessId, View], None]] = None
    on_flush: Optional[Callable[[ProcessId, int, int], None]] = None
    """on_flush(pid, flush_set_size, messages_actually_added)."""

    on_pred: Optional[Callable[[ProcessId, int], None]] = None
    """on_pred(pid, local_pred_size) — fired at t5; measures the view-change
    payload (the stability-tracking ablation compares these)."""

    on_enqueue: Optional[Callable[[ProcessId], None]] = None
    """on_enqueue(pid) — fired after every append to the delivery queue (t2
    self-delivery, t3 reception, the installation flush + VIEW, WELCOME)
    and once at crash.  A consumer sleeping on an empty queue wakes on it
    (see :class:`repro.gcs.endpoint.RateLimitedConsumer`)."""


class SVSProcess(SimProcess):
    """One group member running the Figure 1 protocol.

    Parameters
    ----------
    initial_view:
        The first view; every member must be constructed with the same one.
    relation:
        The obsolescence relation.  Pass
        :class:`~repro.core.obsolescence.EmptyRelation` to obtain classic
        View Synchrony — the protocol then never purges (the paper's
        reduction of VS to SVS).
    consensus_factory:
        ``factory(owner, key, participants, on_decide)`` returning a
        :class:`~repro.consensus.interface.ConsensusInstance`; the key is
        the id of the view being closed.
    fd:
        Failure detector consulted by the t7 guard.  May be given either as
        an instance (shared oracle) or as a one-argument factory called
        with this process (heartbeat detectors need their owner).
    stability_interval:
        When set, enables stability tracking (see
        :mod:`repro.gcs.stability`): watermark gossip every
        ``stability_interval`` seconds, pruning of group-stable messages
        from the delivered map and from the t5 local predicate.  ``None``
        (default) reproduces the paper's Figure 1 exactly.
    viewchange_retry:
        When set, a blocked process re-sends its INIT and PRED for the
        closing view every ``viewchange_retry`` seconds until the change
        completes.  ``None`` (default) reproduces Figure 1 exactly — the
        paper assumes reliable channels, where one transmission suffices.
        Enable it when running over the lossy links of
        :mod:`repro.faults`, where a dropped PRED would otherwise stall
        the view change forever.  Receivers treat retransmissions
        idempotently, so this never changes outcomes on reliable links.
    """

    def __init__(
        self,
        pid: ProcessId,
        sim: Simulator,
        network: Network,
        initial_view: View,
        relation: ObsolescenceRelation,
        consensus_factory: ConsensusFactory,
        fd: Union[FailureDetector, Callable[[SimProcess], FailureDetector]],
        listeners: Optional[SVSListeners] = None,
        stability_interval: Optional[float] = None,
        viewchange_retry: Optional[float] = None,
    ) -> None:
        super().__init__(pid, sim, network)
        if not isinstance(fd, FailureDetector):
            fd = fd(self)
        self.relation = relation
        self.fd = fd
        self.listeners = listeners or SVSListeners()
        self._consensus_factory = consensus_factory

        self.cv: View = initial_view
        self.blocked = False
        self.excluded = False
        # True between recover() and the WELCOME that installs the joined
        # view; while joining, every stream except WELCOME is ignored.
        self.joining = False
        self.to_deliver = DeliveryQueue(relation)
        # Data messages already delivered, keyed by the view they belong to.
        self._delivered: Dict[int, Dict[MessageId, DataMessage]] = {}
        self._next_sn = 0

        # Per-closing-view protocol state (Figure 1 declares one instance
        # of each "for each view").
        self._global_pred: Dict[int, Dict[MessageId, DataMessage]] = {}
        self._pred_received: Dict[int, Set[ProcessId]] = {}
        self._leave: Dict[int, FrozenSet[ProcessId]] = {}
        self._join: Dict[int, FrozenSet[ProcessId]] = {}
        self._proposed: Set[int] = set()
        self._consensus: Dict[int, ConsensusInstance] = {}
        self._pending_consensus: Dict[int, List[Tuple[ProcessId, Any]]] = {}

        # Optional INIT/PRED retransmission for lossy links (see class
        # doc).  A NaN slipping through would poison set_timer.
        if viewchange_retry is not None:
            check_positive(viewchange_retry, "viewchange_retry")
        self.viewchange_retry = viewchange_retry
        self._active_init: Optional[InitMessage] = None
        self._active_pred: Optional[PredMessage] = None

        # Whether the relation can relate messages of different senders —
        # decides whether t3 needs the full coverage scan (same-sender
        # relations cannot have a coverer arrive before the covered message
        # on FIFO channels, so id checks suffice).
        self._cross_sender = not relation.same_sender_only

        # Optional stability tracking (see repro.gcs.stability).
        self.stability_interval = stability_interval
        self._stability: Optional["StabilityState"] = None
        if stability_interval is not None:
            from repro.gcs.stability import StabilityState, WatermarkTracker

            check_positive(stability_interval, "stability_interval")
            self._stability = StabilityState(pid, WatermarkTracker())
            self.set_timer(
                "stability", stability_interval, self._broadcast_stability
            )

        fd.subscribe(self._on_suspicion_change)
        # The application observes membership through the queue, so the
        # initial view is announced like any other.
        self.to_deliver.append(ViewDelivery(initial_view))

        # t2 fan-out cache: the peer list in the current view, in the
        # exact member-iteration order the per-peer send loop used.
        # Built on first multicast and rebuilt when the view id changes —
        # never eagerly, so a 10k-process group that mostly listens does
        # not hold 10k copies of the member list.  The batched-delivery
        # shortcut for the network is only installed when message
        # routing is not overridden — a subclass with its own on_message
        # keeps the generic per-event dispatch.
        self._peers: Optional[List[ProcessId]] = None
        self._peers_vid: Optional[int] = None
        if type(self).on_message is SVSProcess.on_message:
            self._fast_handler = self._fast_deliver

    # ------------------------------------------------------------------
    # t1 — application delivery (down-call)
    # ------------------------------------------------------------------

    def deliver(self) -> Optional[QueueEntry]:
        """Pop and return the next deliverable entry, or None if empty.

        Data messages move to the per-view delivered set; view messages
        mark the application-level view installation.
        """
        if not self.to_deliver:
            return None
        entry = self.to_deliver.pop()
        if isinstance(entry, DataMessage):
            self._delivered.setdefault(entry.view_id, {})[entry.mid] = entry
        if self.listeners.on_deliver is not None:
            self.listeners.on_deliver(self.pid, entry)
        return entry

    def drain(self) -> List[QueueEntry]:
        """Deliver everything currently queued (test convenience)."""
        out: List[QueueEntry] = []
        while self.to_deliver:
            entry = self.deliver()
            assert entry is not None
            out.append(entry)
        return out

    @property
    def pending(self) -> int:
        """Entries waiting in the delivery queue."""
        return len(self.to_deliver)

    # ------------------------------------------------------------------
    # t2 — multicast
    # ------------------------------------------------------------------

    def multicast(self, payload: Any, annotation: Any = None) -> Optional[DataMessage]:
        """Multicast ``payload`` in the current view.

        Returns the sent message, or None when the guard fails (blocked,
        excluded, crashed, or not a member) — callers may retry after the
        next view installation.
        """
        if self.crashed or self.blocked or self.excluded or self.pid not in self.cv:
            return None
        if self.joining:
            return None
        mid = MessageId(self.pid, self._next_sn)
        self._next_sn += 1
        msg = DataMessage(
            mid=mid, view_id=self.cv.vid, payload=payload, annotation=annotation
        )
        self.to_deliver.append(msg)
        envelope = Envelope(stream=SVS_STREAM, body=msg)
        cv = self.cv
        if self._peers_vid != cv.vid:
            self._peers = [m for m in cv.members if m != self.pid]
            self._peers_vid = cv.vid
        # One network call for the whole fan-out (peer order == the old
        # per-member send order); (pid, vid) uniquely identifies the
        # destination set, so the network can memoize the group.
        self.send_multicast(self._peers, envelope, token=(self.pid, cv.vid))
        self.to_deliver.purge_by(msg)
        if self.listeners.on_enqueue is not None:
            self.listeners.on_enqueue(self.pid)
        self._note_processed(msg)
        if self.listeners.on_multicast is not None:
            self.listeners.on_multicast(self.pid, msg)
        return msg

    # ------------------------------------------------------------------
    # t4 — view change trigger
    # ------------------------------------------------------------------

    def trigger_view_change(
        self,
        leave: Iterable[ProcessId] = (),
        join: Iterable[ProcessId] = (),
    ) -> None:
        """Initiate a view change (t4), optionally removing ``leave`` and
        adding ``join`` (the rejoin extension — joiners must be recovered
        processes awaiting a WELCOME, see :meth:`recover`).

        Possible external causes per Section 3.2: failure suspicions,
        buffer shortage, voluntary leaves.  Idempotent while blocked.
        """
        if self.crashed or self.excluded or self.joining or self.pid not in self.cv:
            return
        init = InitMessage(self.cv.vid, frozenset(leave), frozenset(join))
        for member in self.cv.members:
            if member == self.pid:
                self.sim.schedule(0.0, self._handle_init, self.pid, init)
            else:
                self.send(member, Envelope(stream=SVS_STREAM, body=init))

    # ------------------------------------------------------------------
    # Message routing
    # ------------------------------------------------------------------

    def on_message(self, sender: ProcessId, payload: Any) -> None:
        if not isinstance(payload, Envelope):
            raise TypeError(f"unexpected raw payload: {payload!r}")
        if self.joining:
            # A joiner takes no part in any protocol until it learns the
            # view it was added in; only the WELCOME transfer gets through.
            if payload.stream == SVS_STREAM and isinstance(
                payload.body, WelcomeMessage
            ):
                self._handle_welcome(sender, payload.body)
            return
        if payload.stream == SVS_STREAM:
            body = payload.body
            if isinstance(body, DataMessage):
                self._handle_data(sender, body)
            elif isinstance(body, InitMessage):
                self._handle_init(sender, body)
            elif isinstance(body, PredMessage):
                self._handle_pred(sender, body)
            elif isinstance(body, WelcomeMessage):
                # Duplicate or late transfer (lossy links may duplicate
                # them; every member sends one): already installed, drop.
                pass
            elif self._stability is not None and _is_stable_message(body):
                self._handle_stable(sender, body)
            else:
                raise TypeError(f"unknown SVS message: {body!r}")
        elif payload.stream == CONSENSUS_STREAM:
            self._route_consensus(sender, payload.instance, payload.body)
        elif payload.stream == FD_STREAM:
            handler = getattr(self.fd, "on_message", None)
            if handler is not None:
                handler(sender, payload.body)
        else:
            self.on_other_stream(sender, payload)

    def on_other_stream(self, sender: ProcessId, envelope: Envelope) -> None:
        """Extension point for subclasses multiplexing extra streams."""
        raise TypeError(f"unknown stream: {envelope.stream!r}")

    def _fast_deliver(self, sender: ProcessId, payload: Any) -> None:
        """Batched-delivery shortcut consumed by the network's fan-out.

        Semantically identical to ``SimProcess._deliver`` (the crash
        check) followed by :meth:`on_message` routing, with the dominant
        case — an SVS-stream :class:`DataMessage` to a settled member —
        dispatched straight to t3.  Everything else (joining members,
        control messages, subclassed envelopes or messages) falls back to
        the generic router, so behaviour is byte-identical to the
        per-event path; only the Python dispatch overhead differs.
        """
        if self.crashed:
            return
        if (
            not self.joining
            and payload.__class__ is Envelope
            and payload.stream == SVS_STREAM
        ):
            body = payload.body
            if body.__class__ is DataMessage:
                self._handle_data(sender, body)
                return
        self.on_message(sender, payload)

    # ------------------------------------------------------------------
    # t3 — data reception
    # ------------------------------------------------------------------

    def _handle_data(self, sender: ProcessId, msg: DataMessage) -> None:
        if self.blocked or self.excluded or msg.view_id != self.cv.vid:
            return
        # Accepted or dropped-as-covered, the message is *processed*: its
        # delivery obligation is dischargeable locally.
        self._note_processed(msg)
        if self._covered(msg):
            return
        # Only the arriving message can introduce new dominations, so the
        # fused single-message purge equals Figure 1's full purge here.
        self.to_deliver.append_purge(msg)
        if self.listeners.on_enqueue is not None:
            self.listeners.on_enqueue(self.pid)

    def _covered(self, msg: DataMessage, deep: Optional[bool] = None,
                 logs: Optional[Dict[int, DeliveryQueue]] = None) -> bool:
        """Is ``msg`` ⊑-covered by the messages accepted for delivery?

        ``deep`` forces the full relation scan.  At t3 reception the scan
        is skipped for same-sender-only relations (a coverer cannot
        precede the covered message on a FIFO channel, so the id checks
        are complete); the installation flush must always scan — a message
        this process purged earlier may reappear in the flush set *after*
        its coverer was delivered, and re-accepting it would violate FIFO.

        The flush passes ``logs`` (one per decision): the delivered log as
        a never-purged ``DeliveryQueue`` per view, built when the first
        message reaches the scan and then asked instead of scanned.  Nothing
        is delivered during a flush; t3, between deliveries, always scans.
        """
        if deep is None:
            deep = self._cross_sender
        if self.to_deliver.contains_mid(msg.mid):
            return True
        delivered = self._delivered.get(msg.view_id, {})
        if msg.mid in delivered:
            return True
        if not deep:
            return False
        if self.to_deliver.covered(msg):
            return True
        if logs is None:
            return any(self.relation.covers(o, msg) for o in delivered.values())
        log = logs.get(msg.view_id)
        if log is None:
            log = logs[msg.view_id] = DeliveryQueue(self.relation)
            for other in delivered.values():
                log.append(other)
        return log.covered(msg)

    # ------------------------------------------------------------------
    # t5 — INIT handling
    # ------------------------------------------------------------------

    def _handle_init(self, sender: ProcessId, init: InitMessage) -> None:
        if self.blocked or self.excluded or init.view_id != self.cv.vid:
            return
        if self.pid not in self.cv:
            return
        # Forward the flood so every correct member blocks (t5).
        if sender != self.pid:
            fwd = Envelope(stream=SVS_STREAM, body=init)
            for member in self.cv.members:
                if member != self.pid:
                    self.send(member, fwd)
        self.blocked = True
        vid = self.cv.vid
        self._leave[vid] = frozenset(init.leave) & self.cv.members
        # Not restricted to non-members: a crashed process is still in cv
        # until a change removes it, and rejoining it in the *same* view
        # relies on the join set carrying it through t7.
        self._join[vid] = frozenset(init.join)
        local_pred = self._local_pred(vid)
        if self.listeners.on_pred is not None:
            self.listeners.on_pred(self.pid, len(local_pred))
        pred = PredMessage(vid, tuple(local_pred))
        envelope = Envelope(stream=SVS_STREAM, body=pred)
        for member in self.cv.members:
            if member == self.pid:
                self.sim.schedule(0.0, self._handle_pred, self.pid, pred)
            else:
                self.send(member, envelope)
        if self.viewchange_retry is not None:
            self._active_init = init
            self._active_pred = pred
            self.set_timer(
                "vc-retry", self.viewchange_retry, self._vc_retry
            )

    def _vc_retry(self) -> None:
        """Re-send INIT and PRED for the still-open view change.

        Only armed when ``viewchange_retry`` is set; receivers handle both
        idempotently (blocked members ignore the INIT, PRED accumulation
        deduplicates by sender), so retransmission is outcome-neutral on
        reliable links and restores liveness on lossy ones.
        """
        if self.crashed or self.excluded or not self.blocked:
            return
        init, pred = self._active_init, self._active_pred
        if init is None or pred is None or init.view_id != self.cv.vid:
            return
        init_env = Envelope(stream=SVS_STREAM, body=init)
        pred_env = Envelope(stream=SVS_STREAM, body=pred)
        for member in self.cv.members:
            if member != self.pid:
                self.send(member, init_env)
                self.send(member, pred_env)
        self.set_timer("vc-retry", self.viewchange_retry, self._vc_retry)

    def _local_pred(self, vid: int) -> List[DataMessage]:
        """All data of view ``vid`` this process accepted for delivery.

        With stability tracking, group-stable messages are omitted: every
        member has them accounted for, so they need no flush coverage.
        """
        out = list(self._delivered.get(vid, {}).values())
        out.extend(self.to_deliver.data_in_view(vid))
        if self._stability is None:
            return out
        return [m for m in out if m.sn > self._stable_sn(m.sender)]

    # ------------------------------------------------------------------
    # t6 — PRED accumulation
    # ------------------------------------------------------------------

    def _handle_pred(self, sender: ProcessId, pred: PredMessage) -> None:
        if self.crashed or self.excluded or pred.view_id != self.cv.vid:
            return
        bucket = self._global_pred.setdefault(pred.view_id, {})
        for msg in pred.messages:
            bucket.setdefault(msg.mid, msg)
        self._pred_received.setdefault(pred.view_id, set()).add(sender)
        self._check_t7()

    # ------------------------------------------------------------------
    # t7 — propose, decide, install
    # ------------------------------------------------------------------

    def _check_t7(self) -> None:
        if not self.blocked or self.excluded or self.crashed:
            return
        vid = self.cv.vid
        if vid in self._proposed:
            return
        received = self._pred_received.get(vid, set())
        if len(received) <= len(self.cv) // 2:
            return
        if any(
            member not in received and not self.fd.suspects(member)
            for member in self.cv.members
        ):
            return
        self._proposed.add(vid)
        next_members = (
            frozenset(received) | self._join.get(vid, frozenset())
        ) - self._leave.get(vid, frozenset())
        proposal_view = View(vid + 1, next_members)
        flush = tuple(
            sorted(
                self._global_pred.get(vid, {}).values(),
                key=lambda m: (m.mid.sender, m.mid.sn),
            )
        )
        instance = self._consensus_for(vid)
        instance.propose((proposal_view, flush))

    def _consensus_for(self, vid: int) -> ConsensusInstance:
        instance = self._consensus.get(vid)
        if instance is None:
            instance = self._consensus_factory(
                self,
                vid,
                tuple(sorted(self.cv.members)),
                lambda decision, v=vid: self._on_decision(v, decision),
            )
            self._consensus[vid] = instance
            for sender, body in self._pending_consensus.pop(vid, []):
                instance.on_message(sender, body)
        return instance

    def _route_consensus(self, sender: ProcessId, key: Any, body: Any) -> None:
        if self.excluded:
            return
        vid = int(key)
        if vid == self.cv.vid:
            self._consensus_for(vid).on_message(sender, body)
        elif vid > self.cv.vid:
            # Consensus traffic for a view we have not installed yet —
            # buffer until our own installation catches up.
            self._pending_consensus.setdefault(vid, []).append((sender, body))
        elif vid in self._consensus:
            # Late traffic for a closed view (e.g. a forwarded DECIDE).
            self._consensus[vid].on_message(sender, body)

    def _on_decision(self, vid: int, decision: Tuple[View, Tuple[DataMessage, ...]]) -> None:
        if self.crashed or self.excluded or vid != self.cv.vid:
            return
        next_view, flush = decision
        if self.pid not in next_view:
            self.excluded = True
            self.blocked = True
            if self.listeners.on_exclude is not None:
                self.listeners.on_exclude(self.pid, next_view)
            return
        added = 0
        logs: Dict[int, DeliveryQueue] = {}
        for msg in sorted(flush, key=lambda m: (m.mid.sender, m.mid.sn)):
            self._note_processed(msg)
            # Group-stable messages are accounted for everywhere; pruning
            # may have removed their local coverers, so skip them first.
            if self._stability is not None and msg.sn <= self._stable_sn(
                msg.sender
            ):
                continue
            # Coverage (not membership) guard — deviation #1, see module
            # docs — with the full scan forced: a locally purged message
            # may be in the flush set while only its coverer remains here.
            if not self._covered(msg, deep=True, logs=logs):
                self.to_deliver.append(msg)
                added += 1
        self.to_deliver.purge()
        self.to_deliver.append(ViewDelivery(next_view))
        if self.listeners.on_enqueue is not None:
            self.listeners.on_enqueue(self.pid)
        if self.listeners.on_flush is not None:
            self.listeners.on_flush(self.pid, len(flush), added)

        old_vid = self.cv.vid
        departed = self.cv.members - next_view.members
        # Joiners = processes the INIT asked to add that made it into the
        # decided view without having closed the old one (no PRED from
        # them).  Computed from the join set — not a membership diff — so
        # a crashed member rejoining within its own view is welcomed too,
        # and runs without joins send nothing extra.
        join_set = self._join.get(old_vid, frozenset())
        joined = (
            (next_view.members & join_set)
            - self._pred_received.get(old_vid, frozenset())
            - {self.pid}
            if join_set
            else frozenset()
        )
        self.cv = next_view
        self.blocked = False
        if self.viewchange_retry is not None:
            self.cancel_timer("vc-retry")
            self._active_init = None
            self._active_pred = None
        # Joiners did not close the old view; transfer them the outcome.
        # Every surviving member sends one WELCOME so the transfer goes
        # through as long as any single copy arrives; the joiner installs
        # the first and drops the rest.
        for pid in sorted(joined):
            self.send(pid, Envelope(stream=SVS_STREAM, body=WelcomeMessage(next_view)))
        # State of closed views can never be consulted again.
        self._delivered.pop(old_vid, None)
        self._global_pred.pop(old_vid, None)
        self._pred_received.pop(old_vid, None)
        self._leave.pop(old_vid, None)
        self._join.pop(old_vid, None)
        if self._stability is not None:
            # Departed senders may leave permanent gaps (messages nobody
            # received); the boundary discharges their obligations.
            for sender in departed:
                self._stability.tracker.seal(sender)
                self._stability.forget_peer(sender)
        if self.listeners.on_install is not None:
            self.listeners.on_install(self.pid, next_view)
        # Consensus traffic for the view we just installed may have been
        # buffered by _route_consensus; it is drained when the instance is
        # created (first message for the new view, or our own t7).

    # ------------------------------------------------------------------
    # Crash and rejoin (the recover/welcome extension; see repro.faults)
    # ------------------------------------------------------------------

    def on_crash(self) -> None:
        # A consumer sleeping on the queue must wake to observe the crash
        # at its next service instant, as a polling one would.
        if self.listeners.on_enqueue is not None:
            self.listeners.on_enqueue(self.pid)

    def recover(self) -> None:
        """Revive a crashed (or excluded) process as a fresh joiner.

        The process comes back with empty protocol state — crash-stop means
        volatile state is lost — except for its sequence-number counter,
        which is treated as stable storage so message identities stay
        globally unique across incarnations.  It then waits, deaf to every
        stream but WELCOME, until some view change adds it back (see
        :meth:`trigger_view_change`'s ``join`` parameter); orchestration
        lives in :meth:`repro.gcs.stack.GroupStack.rejoin`.
        """
        if not (self.crashed or self.excluded):
            raise ValueError(
                f"process {self.pid} is neither crashed nor excluded; "
                f"nothing to recover from"
            )
        self.crashed = False
        self.crash_time = None
        self.excluded = False
        self.blocked = True
        self.joining = True
        self.to_deliver = DeliveryQueue(self.relation)
        self._delivered = {}
        self._global_pred = {}
        self._pred_received = {}
        self._leave = {}
        self._join = {}
        self._proposed = set()
        self._consensus = {}
        self._pending_consensus = {}
        self._active_init = None
        self._active_pred = None
        if self._stability is not None:
            from repro.gcs.stability import StabilityState, WatermarkTracker

            self._stability = StabilityState(self.pid, WatermarkTracker())
            self.set_timer(
                "stability", self.stability_interval, self._broadcast_stability
            )
        # The failure detector is NOT resumed here: while joining, the
        # process must keep looking unresponsive (heartbeat silence, oracle
        # suspicion) so the join view change's t7 does not wait for a PRED
        # it will never send.  _handle_welcome resumes it; until then the
        # joiner drops every beat, which the detector must know.
        pause = getattr(self.fd, "pause", None)
        if pause is not None:
            pause()

    def send_welcome(self, pid: ProcessId) -> None:
        """Re-send the current view to a joiner that is already a member.

        Used by the stack's rejoin watchdog when every WELCOME of the
        installing view change was lost: the joiner is in ``cv`` but still
        waiting, and retriggering another view change would deadlock (t7
        waits for the joiner's PRED, which a joining process never sends).
        """
        if self.crashed or self.excluded or self.joining:
            return
        if pid in self.cv.members and pid != self.pid:
            self.send(pid, Envelope(stream=SVS_STREAM, body=WelcomeMessage(self.cv)))

    def _handle_welcome(self, sender: ProcessId, welcome: WelcomeMessage) -> None:
        if not self.joining or self.crashed:
            return
        if self.pid not in welcome.view or welcome.view.vid <= self.cv.vid:
            return
        self.joining = False
        self.blocked = False
        self.cv = welcome.view
        self.to_deliver.append(ViewDelivery(welcome.view))
        if self.listeners.on_enqueue is not None:
            self.listeners.on_enqueue(self.pid)
        # Back among the living: resume heartbeating (per-process
        # detectors only; the shared oracle reads ground truth itself).
        resume = getattr(self.fd, "resume", None)
        if resume is not None:
            resume()
        if self.listeners.on_install is not None:
            self.listeners.on_install(self.pid, welcome.view)

    # ------------------------------------------------------------------
    # Stability tracking (optional; see repro.gcs.stability)
    # ------------------------------------------------------------------

    def _note_processed(self, msg: DataMessage) -> None:
        if self._stability is not None:
            self._stability.tracker.note(msg.mid.sender, msg.sn)

    def _stable_sn(self, sender: ProcessId) -> int:
        assert self._stability is not None
        return self._stability.stable_sn(sender, self.cv.members)

    def _broadcast_stability(self) -> None:
        if self.crashed or self.excluded or self._stability is None:
            return
        from repro.gcs.stability import StableMessage

        report = StableMessage(
            self.cv.vid, self._stability.tracker.snapshot()
        )
        for member in self.cv.members:
            if member != self.pid:
                self.send(member, Envelope(stream=SVS_STREAM, body=report))
        self.set_timer(
            "stability", self.stability_interval, self._broadcast_stability
        )

    def _handle_stable(self, sender: ProcessId, report: Any) -> None:
        if self.excluded or self._stability is None:
            return
        self._stability.record_report(sender, report.watermarks)
        self._gc_stable()

    def _gc_stable(self) -> None:
        """Prune group-stable messages from the delivered map."""
        assert self._stability is not None
        delivered = self._delivered.get(self.cv.vid)
        if not delivered:
            return
        bounds: Dict[ProcessId, int] = {}
        doomed = []
        for mid in delivered:
            bound = bounds.get(mid.sender)
            if bound is None:
                bound = self._stable_sn(mid.sender)
                bounds[mid.sender] = bound
            if mid.sn <= bound:
                doomed.append(mid)
        for mid in doomed:
            del delivered[mid]

    # ------------------------------------------------------------------
    # Failure detector feedback
    # ------------------------------------------------------------------

    def _on_suspicion_change(self, pid: ProcessId, suspected: bool) -> None:
        if suspected:
            self._check_t7()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def purge_count(self) -> int:
        return self.to_deliver.stats.purged

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "blocked" if self.blocked else "open"
        if self.joining:
            state = "joining"
        if self.excluded:
            state = "excluded"
        if self.crashed:
            state = "crashed"
        return f"SVSProcess(pid={self.pid}, view={self.cv.vid}, {state})"


def _is_stable_message(body: Any) -> bool:
    from repro.gcs.stability import StableMessage

    return isinstance(body, StableMessage)
