"""Obsolescence relations and their wire representations.

The obsolescence relation ``m ≺ m'`` ("m is made obsolete by m'") is the
application-supplied input to Semantic View Synchrony.  It must be an
*irreflexive partial order* — antisymmetric and transitive (Section 3.2).
``m ⊑ m'`` abbreviates ``m = m' or m ≺ m'``.

The paper proposes three representations (Section 4.2), all implemented
here:

* **Item tagging** (:class:`ItemTagging`): each message carries the integer
  tag of the data item it updates; two messages from the same sender with
  the same tag are related, the newer one making the older obsolete.
* **Message enumeration** (:class:`MessageEnumeration`): each message
  explicitly enumerates the identifiers of every (transitive) predecessor it
  makes obsolete.  :class:`EnumerationEncoder` maintains the transitive
  closure on the sender side.
* **k-enumeration** (:class:`KEnumeration`): each message carries a k-bit
  bitmap over its k immediate predecessors in the sender's stream; bit
  ``d-1`` set means "the message d positions back is obsolete".  Transitive
  closure is composed with shift/or (:class:`KEnumerationEncoder`), exactly
  the cheap-operator scheme the paper advertises.

A caveat the paper glosses over, preserved faithfully here: truncating the
enumeration window (or choosing k too small) yields a relation that is *not*
transitive for pairs further apart than the window.  Purging with a
non-transitive relation can break the coverage chain that the SVS
correctness argument relies on.  The paper's guidance — pick k at twice the
buffer size — avoids it only while the window really spans the backlog.  It
is observable: the loaded view change of :mod:`repro.analysis.viewchange`
runs k=64 against a slow member's backlog of hundreds of messages, and the
executable specification catches the broken chain there
(``tests/analysis/test_viewchange.py`` pins the violations).  The
``ablation_k`` experiment quantifies the throughput side
(``tests/analysis/test_paper_claims.py`` asserts its shape).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.message import DataMessage, MessageId
from repro.registry import relations as _relation_registry

__all__ = [
    "ObsolescenceRelation",
    "PurgeIndex",
    "EmptyRelation",
    "ItemTagging",
    "MessageEnumeration",
    "EnumerationEncoder",
    "KEnumeration",
    "KEnumerationEncoder",
    "ExplicitRelation",
    "check_strict_partial_order",
]


class PurgeIndex:
    """Incremental index over a set of queued messages, per relation.

    :class:`~repro.core.buffers.DeliveryQueue` keeps one of these in sync
    with its contents (``add``/``discard`` on every append, pop and purge)
    and consults it to answer the two questions the Figure 1 protocol asks
    on the hot path (the executable specification, :mod:`repro.core.spec`,
    asks the second of never-purged queues to check ⊑-coverage):

    * ``obsoleted_by(new)`` — which indexed messages does ``new`` make
      obsolete?  (the t2/t3 purge; previously an O(n) scan with one
      ``obsoletes`` call per queued message)
    * ``coverer_of(old)`` — does some indexed message make ``old``
      obsolete?  (the t3/flush coverage test)

    Contract: both answers must *exactly* match the naive scan over the
    indexed set using the owning relation's ``obsoletes`` — the property
    test in ``tests/core/test_purge_index.py`` enforces this for every
    registered relation.  ``obsoleted_by`` may return candidates in any
    deterministic order (callers re-establish queue order) but must apply
    the same view filter the queue's purge applies: only pairs tagged with
    the same view are related.  ``coverer_of`` must *not* filter by view —
    mirroring the queue's coverage scan, which tests the relation across
    everything queued.

    ``inert`` declares that both queries are constant (nothing ever
    relates to anything); the queue then skips index maintenance and purge
    calls entirely — the reliable-protocol fast path.
    """

    inert = False

    def add(self, msg: DataMessage) -> None:
        raise NotImplementedError

    def discard(self, msg: DataMessage) -> None:
        raise NotImplementedError

    def obsoleted_by(self, new: DataMessage) -> List[DataMessage]:
        """Indexed messages of ``new``'s view that ``new`` obsoletes."""
        raise NotImplementedError

    def coverer_of(self, old: DataMessage) -> bool:
        """True iff some indexed message makes ``old`` obsolete."""
        raise NotImplementedError

    def add_obsoleted(self, new: DataMessage) -> List[DataMessage]:
        """Fused ``obsoleted_by(new)`` + ``add(new)``.

        The t3 receive path always asks both questions about the same
        message, and for bucketed indexes both resolve to the *same*
        bucket — subclasses override this to look it up once.  Must
        equal ``obsoleted_by`` followed by ``add`` (``new`` can never be
        its own candidate: the relation is irreflexive).
        """
        candidates = self.obsoleted_by(new)
        self.add(new)
        return candidates


class ObsolescenceRelation:
    """Interface the protocol uses to interrogate obsolescence.

    Implementations decide ``obsoletes`` purely from message identifiers and
    annotations — never from payloads — which is what keeps the protocol
    application-independent.

    ``same_sender_only`` declares that the relation can only relate
    messages of the same sender — true for all of the paper's compact
    representations, and exploited by the protocol to skip coverage scans
    that FIFO channels make redundant.
    """

    same_sender_only = False

    def obsoletes(self, new: DataMessage, old: DataMessage) -> bool:
        """True iff ``old ≺ new`` (``new`` makes ``old`` obsolete)."""
        raise NotImplementedError

    def covers(self, new: DataMessage, old: DataMessage) -> bool:
        """True iff ``old ⊑ new`` (equal, or made obsolete by ``new``)."""
        return old.mid == new.mid or self.obsoletes(new, old)

    def make_index(self) -> Optional[PurgeIndex]:
        """A fresh :class:`PurgeIndex` for this relation, or ``None``.

        ``None`` (the default) tells the delivery queue to fall back to
        the naive linear purge scan — correct for any relation, including
        third-party ones that predate the index protocol.
        """
        return None


class _EmptyIndex(PurgeIndex):
    """Nothing relates to anything: every purge decision is a constant.

    This turns the reliable-protocol baseline's per-message purge scan —
    pure overhead that can never remove anything — into no calls at all
    (``inert`` lets the queue skip the index entirely).
    """

    __slots__ = ()
    inert = True

    def add(self, msg: DataMessage) -> None:
        pass

    def discard(self, msg: DataMessage) -> None:
        pass

    def obsoleted_by(self, new: DataMessage) -> List[DataMessage]:
        return []

    def coverer_of(self, old: DataMessage) -> bool:
        return False


class EmptyRelation(ObsolescenceRelation):
    """The empty relation: nothing is ever obsolete.

    With this relation SVS degenerates to classic View Synchrony — the
    paper's own observation that VS is the special case of SVS (Section
    3.2).  The test suite uses this to check the protocol against the
    classic VS specification.
    """

    same_sender_only = True

    def obsoletes(self, new: DataMessage, old: DataMessage) -> bool:
        return False

    def make_index(self) -> PurgeIndex:
        return _EmptyIndex()


class ItemTagging(ObsolescenceRelation):
    """Per-item tagging (Section 4.2, "Item Tagging").

    The annotation is the integer tag of the updated item, or ``None`` for
    messages that must never be purged (creations, destructions, events).
    Two messages are related iff they come from the same sender, carry the
    same non-None tag, and the newer has the higher sequence number.

    Strict partial order: irreflexivity and antisymmetry follow from the
    strict ``sn`` comparison; transitivity from equality of tags.
    """

    same_sender_only = True

    def obsoletes(self, new: DataMessage, old: DataMessage) -> bool:
        if new.mid.sender != old.mid.sender:
            return False
        if new.annotation is None or old.annotation is None:
            return False
        return new.annotation == old.annotation and old.sn < new.sn

    def make_index(self) -> PurgeIndex:
        return _TagIndex()


class _TagIndex(PurgeIndex):
    """Per-(sender, tag) latest-wins buckets for :class:`ItemTagging`.

    A new message relates only to queued messages of its own sender and
    tag, so purge candidates come from one bucket lookup instead of a
    whole-queue scan; the bucket holds the handful of not-yet-consumed
    updates of one item.  Buckets span views (the relation ignores views;
    the *purge* filters them, coverage does not — see :class:`PurgeIndex`).
    """

    __slots__ = ("_buckets",)

    def __init__(self) -> None:
        # (sender, tag) -> {sn: message}, insertion == queue order.
        self._buckets: Dict[Tuple[int, Any], Dict[int, DataMessage]] = {}

    def add(self, msg: DataMessage) -> None:
        if msg.annotation is None:
            return
        key = (msg.mid.sender, msg.annotation)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = {msg.sn: msg}
        else:
            bucket[msg.sn] = msg

    def discard(self, msg: DataMessage) -> None:
        if msg.annotation is None:
            return
        key = (msg.mid.sender, msg.annotation)
        bucket = self._buckets.get(key)
        if bucket is not None:
            bucket.pop(msg.sn, None)
            if not bucket:
                del self._buckets[key]

    def obsoleted_by(self, new: DataMessage) -> List[DataMessage]:
        if new.annotation is None:
            return []
        bucket = self._buckets.get((new.mid.sender, new.annotation))
        if not bucket:
            return []
        sn, view_id = new.sn, new.view_id
        return [m for m in bucket.values() if m.sn < sn and m.view_id == view_id]

    def coverer_of(self, old: DataMessage) -> bool:
        if old.annotation is None:
            return False
        bucket = self._buckets.get((old.mid.sender, old.annotation))
        if not bucket:
            return False
        sn = old.sn
        return any(s > sn for s in bucket)

    def add_obsoleted(self, new: DataMessage) -> List[DataMessage]:
        if new.annotation is None:
            return []
        key = (new.mid.sender, new.annotation)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = {new.sn: new}
            return []
        sn, view_id = new.sn, new.view_id
        out = [m for m in bucket.values() if m.sn < sn and m.view_id == view_id]
        bucket[sn] = new
        return out


class MessageEnumeration(ObsolescenceRelation):
    """Explicit enumeration (Section 4.2, "Message Enumeration").

    The annotation is a frozenset of :class:`MessageId` listing every
    message the carrier makes obsolete — transitive predecessors included
    (the sender-side :class:`EnumerationEncoder` maintains the closure).
    Unlike the tag and bitmap schemes this representation can express
    cross-item and cross-sender obsolescence.
    """

    def obsoletes(self, new: DataMessage, old: DataMessage) -> bool:
        annotation = new.annotation
        if not annotation:
            return False
        return old.mid in annotation and (
            old.mid.sender != new.mid.sender or old.sn < new.sn
        )

    def make_index(self) -> PurgeIndex:
        return _EnumIndex()


class _EnumIndex(PurgeIndex):
    """Id and reverse-enumeration maps for :class:`MessageEnumeration`.

    Purge candidates are direct lookups of the new message's enumerated
    ids; coverage inverts the annotation sets so "is some queued message
    enumerating ``old``?" is one dict probe instead of a scan over every
    queued annotation.
    """

    __slots__ = ("_by_mid", "_rev")

    def __init__(self) -> None:
        self._by_mid: Dict[MessageId, DataMessage] = {}
        # target mid -> {enumerating mid: enumerating message}
        self._rev: Dict[MessageId, Dict[MessageId, DataMessage]] = {}

    def add(self, msg: DataMessage) -> None:
        self._by_mid[msg.mid] = msg
        if msg.annotation:
            for target in msg.annotation:
                bucket = self._rev.get(target)
                if bucket is None:
                    self._rev[target] = {msg.mid: msg}
                else:
                    bucket[msg.mid] = msg

    def discard(self, msg: DataMessage) -> None:
        self._by_mid.pop(msg.mid, None)
        if msg.annotation:
            for target in msg.annotation:
                bucket = self._rev.get(target)
                if bucket is not None:
                    bucket.pop(msg.mid, None)
                    if not bucket:
                        del self._rev[target]

    @staticmethod
    def _related(new: DataMessage, old: DataMessage) -> bool:
        return old.mid.sender != new.mid.sender or old.sn < new.sn

    def obsoleted_by(self, new: DataMessage) -> List[DataMessage]:
        if not new.annotation:
            return []
        by_mid = self._by_mid
        view_id = new.view_id
        out = []
        for target in new.annotation:
            old = by_mid.get(target)
            if old is not None and old.view_id == view_id and self._related(new, old):
                out.append(old)
        return out

    def coverer_of(self, old: DataMessage) -> bool:
        bucket = self._rev.get(old.mid)
        if not bucket:
            return False
        return any(self._related(new, old) for new in bucket.values())


class EnumerationEncoder:
    """Sender-side helper producing transitively closed enumeration sets.

    ``window`` optionally truncates the closure to the most recent ``window``
    sequence numbers of the sender — the optimization the paper describes
    ("only the recent messages from the enumeration need to be carried").
    ``window=None`` keeps the exact closure.
    """

    def __init__(self, sender: int, window: Optional[int] = None) -> None:
        if window is not None and window <= 0:
            raise ValueError(f"window must be positive or None: {window}")
        self.sender = sender
        self.window = window
        self._closure: Dict[MessageId, FrozenSet[MessageId]] = {}
        self._next_sn = 0

    def next_mid(self) -> MessageId:
        mid = MessageId(self.sender, self._next_sn)
        self._next_sn += 1
        return mid

    def annotate(
        self, mid: MessageId, direct: Iterable[MessageId]
    ) -> FrozenSet[MessageId]:
        """Compute the annotation for ``mid`` given its direct predecessors.

        The result is the union of the direct predecessors and their own
        closures, truncated to the window.  The closure for ``mid`` is
        remembered so later messages can build on it.
        """
        closed: Set[MessageId] = set()
        for pred in direct:
            if pred == mid:
                raise ValueError("a message cannot obsolete itself")
            closed.add(pred)
            closed.update(self._closure.get(pred, frozenset()))
        if self.window is not None:
            horizon = mid.sn - self.window
            closed = {
                p for p in closed if p.sender != self.sender or p.sn >= horizon
            }
        annotation = frozenset(closed)
        self._closure[mid] = annotation
        self._gc(mid)
        return annotation

    def _gc(self, newest: MessageId) -> None:
        """Forget closures that can no longer influence new annotations."""
        if self.window is None:
            return
        horizon = newest.sn - 2 * self.window
        stale = [m for m in self._closure if m.sender == self.sender and m.sn < horizon]
        for m in stale:
            del self._closure[m]


class KEnumeration(ObsolescenceRelation):
    """k-enumeration bitmaps (Section 4.2, "k-Enumeration").

    The annotation is an integer bitmap over the sender's k immediately
    preceding messages.  Following the paper: ``m ⊑ m'`` iff
    ``m'.sn - k <= m.sn < m'.sn`` and bit ``m'.sn - m.sn`` of ``m'.bm`` is
    set (we store distance d at bit position d-1).
    """

    same_sender_only = True

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive: {k}")
        self.k = k

    def obsoletes(self, new: DataMessage, old: DataMessage) -> bool:
        if new.mid.sender != old.mid.sender:
            return False
        bitmap = new.annotation
        if not bitmap:
            return False
        distance = new.sn - old.sn
        if distance < 1 or distance > self.k:
            return False
        return bool((bitmap >> (distance - 1)) & 1)

    def make_index(self) -> PurgeIndex:
        return _KEnumIndex(self.k)


class _KEnumIndex(PurgeIndex):
    """Per-sender sequence-number maps for :class:`KEnumeration`.

    The bitmap of a new message names its purge victims by *distance*, so
    candidates are direct ``sn - d`` probes over the set bits — O(popcount)
    instead of an O(n) scan.  Coverage probes whichever is smaller: the
    sender's queued messages or the k-window above ``old.sn``.
    """

    __slots__ = ("k", "_mask", "_by_sender")

    def __init__(self, k: int) -> None:
        self.k = k
        self._mask = (1 << k) - 1
        # sender -> {sn: message}; sns are globally unique per sender.
        self._by_sender: Dict[int, Dict[int, DataMessage]] = {}

    def add(self, msg: DataMessage) -> None:
        sender = msg.mid.sender
        bucket = self._by_sender.get(sender)
        if bucket is None:
            self._by_sender[sender] = {msg.sn: msg}
        else:
            bucket[msg.sn] = msg

    def discard(self, msg: DataMessage) -> None:
        bucket = self._by_sender.get(msg.mid.sender)
        if bucket is not None:
            bucket.pop(msg.sn, None)
            if not bucket:
                del self._by_sender[msg.mid.sender]

    def obsoleted_by(self, new: DataMessage) -> List[DataMessage]:
        bitmap = new.annotation
        if not bitmap:
            return []
        bucket = self._by_sender.get(new.mid.sender)
        if not bucket:
            return []
        bitmap &= self._mask  # bits beyond k are outside the relation
        sn, view_id = new.sn, new.view_id
        out = []
        while bitmap:
            low = bitmap & -bitmap
            bitmap ^= low
            old = bucket.get(sn - low.bit_length())
            if old is not None and old.view_id == view_id:
                out.append(old)
        return out

    def coverer_of(self, old: DataMessage) -> bool:
        bucket = self._by_sender.get(old.mid.sender)
        if not bucket:
            return False
        sn, k = old.sn, self.k
        if len(bucket) <= k:
            for s, new in bucket.items():
                d = s - sn
                if 1 <= d <= k and new.annotation and (new.annotation >> (d - 1)) & 1:
                    return True
            return False
        for d in range(1, k + 1):
            new = bucket.get(sn + d)
            if new is not None and new.annotation and (new.annotation >> (d - 1)) & 1:
                return True
        return False


class KEnumerationEncoder:
    """Sender-side bitmap construction with shift/or transitive composition.

    For a new message at sequence number ``sn`` that directly obsoletes the
    message at ``sn - d``, the encoder sets bit ``d-1`` and ORs in that
    predecessor's own bitmap shifted left by ``d`` — so the closure within
    the k-window is carried forward using only shifts and ors, the property
    the paper highlights as making the scheme time- and space-efficient.

    The same shift/or composition implements batch commits: the commit
    message's bitmap is the OR of the shifted bitmaps each update in the
    batch *would* have carried (see :mod:`repro.core.batch`).
    """

    def __init__(self, sender: int, k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive: {k}")
        self.sender = sender
        self.k = k
        self._bitmaps: Dict[int, int] = {}
        self._next_sn = 0

    @property
    def mask(self) -> int:
        return (1 << self.k) - 1

    def next_mid(self) -> MessageId:
        mid = MessageId(self.sender, self._next_sn)
        self._next_sn += 1
        return mid

    def compose(self, sn: int, direct: Iterable[int]) -> int:
        """Bitmap for the message at ``sn`` with direct predecessors ``direct``.

        Predecessors further back than k positions are silently dropped —
        this is exactly the representation's window truncation.
        """
        bitmap = 0
        for pred_sn in direct:
            if pred_sn >= sn:
                raise ValueError(
                    f"predecessor sn {pred_sn} is not before message sn {sn}"
                )
            distance = sn - pred_sn
            if distance > self.k:
                continue
            bitmap |= 1 << (distance - 1)
            bitmap |= self._bitmaps.get(pred_sn, 0) << distance
        return bitmap & self.mask

    def annotate(self, sn: int, direct: Iterable[int]) -> int:
        """Compose, record, and return the bitmap for the message at ``sn``."""
        bitmap = self.compose(sn, direct)
        self._bitmaps[sn] = bitmap
        self._gc(sn)
        return bitmap

    def record(self, sn: int, bitmap: int) -> None:
        """Record an externally composed bitmap (used by batch commits)."""
        self._bitmaps[sn] = bitmap & self.mask
        self._gc(sn)

    def _gc(self, newest_sn: int) -> None:
        horizon = newest_sn - self.k
        stale = [s for s in self._bitmaps if s < horizon]
        for s in stale:
            del self._bitmaps[s]


class ExplicitRelation(ObsolescenceRelation):
    """A relation given extensionally as a set of (old, new) id pairs.

    Intended for tests: pairs are transitively closed at construction so
    the result is a legitimate strict partial order whenever the input is
    acyclic (a cycle raises ``ValueError``).
    """

    def __init__(self, pairs: Iterable[Tuple[MessageId, MessageId]]) -> None:
        edges: Dict[MessageId, Set[MessageId]] = {}
        for old, new in pairs:
            if old == new:
                raise ValueError(f"self-obsolescence: {old}")
            edges.setdefault(new, set()).add(old)
        # Transitive closure by repeated expansion (inputs are test-sized).
        changed = True
        while changed:
            changed = False
            for new, olds in edges.items():
                extra: Set[MessageId] = set()
                for old in olds:
                    extra.update(edges.get(old, ()))
                extra -= olds
                if extra:
                    olds.update(extra)
                    changed = True
        for new, olds in edges.items():
            if new in olds:
                raise ValueError(f"obsolescence cycle through {new}")
        self._preds: Dict[MessageId, FrozenSet[MessageId]] = {
            new: frozenset(olds) for new, olds in edges.items()
        }

    def obsoletes(self, new: DataMessage, old: DataMessage) -> bool:
        return old.mid in self._preds.get(new.mid, frozenset())


def check_strict_partial_order(
    relation: ObsolescenceRelation, messages: List[DataMessage]
) -> List[str]:
    """Check irreflexivity, antisymmetry and transitivity on a finite set.

    Returns a list of human-readable violation descriptions (empty when the
    relation restricted to ``messages`` is a strict partial order).  Used by
    the property-based tests.
    """
    violations: List[str] = []
    for m in messages:
        if relation.obsoletes(m, m):
            violations.append(f"irreflexivity: {m} obsoletes itself")
    for a in messages:
        for b in messages:
            if a.mid == b.mid:
                continue
            ab = relation.obsoletes(b, a)
            ba = relation.obsoletes(a, b)
            if ab and ba:
                violations.append(f"antisymmetry: {a} and {b} obsolete each other")
    for a in messages:
        for b in messages:
            if not relation.obsoletes(b, a):
                continue
            for c in messages:
                if relation.obsoletes(c, b) and not relation.obsoletes(c, a):
                    violations.append(
                        f"transitivity: {a} ≺ {b} ≺ {c} but not {a} ≺ {c}"
                    )
    return violations


# ----------------------------------------------------------------------
# Registry entries: the paper's representations, by name
# ----------------------------------------------------------------------


@_relation_registry.register("empty", aliases=("none", "reliable"))
def _empty_relation() -> EmptyRelation:
    return EmptyRelation()


@_relation_registry.register("item-tagging", aliases=("tagging",))
def _item_tagging() -> ItemTagging:
    return ItemTagging()


@_relation_registry.register(
    "message-enumeration", aliases=("enumeration",)
)
def _message_enumeration() -> MessageEnumeration:
    return MessageEnumeration()


@_relation_registry.register("k-enumeration", aliases=("k-enum",))
def _k_enumeration(k: int = 30) -> KEnumeration:
    return KEnumeration(k)
