"""Property tests: the purge index must decide exactly like the naive scan.

Kernel v2 gave :class:`~repro.core.buffers.DeliveryQueue` an obsolescence
index (``relation.make_index()``) so purges resolve by per-key lookup
instead of a linear ``obsoletes`` scan.  The index is an optimisation —
never a semantics change — so for **every registered relation** and any
reachable queue state the indexed queue and a ``use_index=False`` queue
must agree on:

* ``purge_by(new)`` — the exact set (and queue order) of removed messages;
* ``purge()``      — the full simultaneous pass;
* ``covered(msg)`` — the t3 coverage test;
* the queue contents and lifetime stats after any operation sequence.

Annotations are produced by the representation's own encoder (bitmaps via
:class:`KEnumerationEncoder`, enumeration sets via
:class:`EnumerationEncoder`, item tags directly), so the tested states are
the ones real senders generate — plus adversarial hand-rolled ones.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import DeliveryQueue
from repro.core.message import DataMessage, MessageId, View, ViewDelivery
from repro.core.obsolescence import (
    EnumerationEncoder,
    KEnumeration,
    KEnumerationEncoder,
)
from repro.registry import relations as relation_registry

K = 4  # deliberately small: window truncation edge cases get exercised

#: Every relation registered in the registry, with small-k overrides so
#: the k-enumeration window actually truncates at test sizes.
RELATION_SPECS = [
    ("empty", {}),
    ("item-tagging", {}),
    ("message-enumeration", {}),
    ("k-enumeration", {"k": K}),
]

assert {name for name, _ in RELATION_SPECS} == set(
    relation_registry.names()
), "a newly registered relation must be added to the purge-index property tests"


# ----------------------------------------------------------------------
# Stream generation: encoder-faithful annotated messages
# ----------------------------------------------------------------------


def _annotate_stream(name, raw):
    """Turn (sender, tag, direct_predecessor_distances, view) tuples into
    DataMessages annotated the way the representation's encoder would."""
    sns = {}
    messages = []
    enum_encoders = {}
    kenum_encoders = {}
    history = []  # all (mid, tag) so far, any sender
    for sender, tag, distances, view_id in raw:
        sn = sns.get(sender, 0)
        sns[sender] = sn + 1
        mid = MessageId(sender, sn)
        if name == "empty":
            annotation = None
        elif name == "item-tagging":
            annotation = tag
        elif name == "k-enumeration":
            encoder = kenum_encoders.setdefault(
                sender, KEnumerationEncoder(sender, K)
            )
            direct = [sn - d for d in distances if sn - d >= 0]
            annotation = encoder.annotate(sn, direct)
        else:  # message-enumeration
            encoder = enum_encoders.setdefault(
                sender, EnumerationEncoder(sender)
            )
            # Enumerate same-tag predecessors from any sender (the one
            # representation that can express cross-sender obsolescence).
            direct = [m for m, t in history if t == tag and t is not None][-3:]
            annotation = encoder.annotate(mid, direct)
        history.append((mid, tag))
        messages.append(
            DataMessage(mid=mid, view_id=view_id, payload=None, annotation=annotation)
        )
    return messages


raw_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # sender
        st.one_of(st.none(), st.integers(min_value=0, max_value=3)),  # tag
        st.lists(  # direct predecessor distances (k-enumeration)
            st.integers(min_value=1, max_value=K + 2), max_size=3
        ),
        st.integers(min_value=0, max_value=1),  # view id
    ),
    min_size=0,
    max_size=14,
)

# Which messages of the stream are appended vs offered as the probe.
op_seed = st.integers(min_value=0, max_value=2**31 - 1)


def _paired_queues(name, params, capacity=None):
    relation = relation_registry.create(name, **params)
    indexed = DeliveryQueue(relation, capacity=capacity, use_index=True)
    naive = DeliveryQueue(relation, capacity=capacity, use_index=False)
    return relation, indexed, naive


def _queue_state(queue):
    return (
        [m.mid if isinstance(m, DataMessage) else ("view", m.view.vid) for m in queue],
        queue.stats.appended,
        queue.stats.purged,
        queue.stats.popped,
        queue.stats.rejected,
    )


class TestPurgeDecisionsMatchNaiveScan:
    @settings(max_examples=60, deadline=None)
    @given(raw=raw_streams)
    def test_purge_by_identical(self, raw):
        for name, params in RELATION_SPECS:
            relation, indexed, naive = _paired_queues(name, params)
            messages = _annotate_stream(name, raw)
            for msg in messages[:-1]:
                indexed.append(msg)
                naive.append(msg)
            if not messages:
                return
            probe = messages[-1]
            removed_indexed = indexed.purge_by(probe)
            removed_naive = naive.purge_by(probe)
            assert removed_indexed == removed_naive, (name, probe)
            assert _queue_state(indexed) == _queue_state(naive), name

    @settings(max_examples=60, deadline=None)
    @given(raw=raw_streams)
    def test_full_purge_identical(self, raw):
        for name, params in RELATION_SPECS:
            relation, indexed, naive = _paired_queues(name, params)
            for msg in _annotate_stream(name, raw):
                indexed.append(msg)
                naive.append(msg)
            assert indexed.purge() == naive.purge(), name
            assert _queue_state(indexed) == _queue_state(naive), name

    @settings(max_examples=60, deadline=None)
    @given(raw=raw_streams)
    def test_covered_identical(self, raw):
        for name, params in RELATION_SPECS:
            relation, indexed, naive = _paired_queues(name, params)
            messages = _annotate_stream(name, raw)
            for msg in messages[:-1]:
                indexed.append(msg)
                naive.append(msg)
            for msg in messages:  # queued and un-queued probes alike
                assert indexed.covered(msg) == naive.covered(msg), (name, msg)

    @settings(max_examples=40, deadline=None)
    @given(raw=raw_streams, seed=op_seed)
    def test_operation_sequences_identical(self, raw, seed):
        """Random append/try_append/pop/purge interleavings on a bounded
        queue keep the two implementations in lockstep."""
        import random

        rng = random.Random(seed)
        for name, params in RELATION_SPECS:
            relation, indexed, naive = _paired_queues(name, params, capacity=5)
            view = View(0, frozenset({0, 1, 2}))
            for msg in _annotate_stream(name, raw):
                op = rng.random()
                if op < 0.55:
                    assert indexed.try_append(msg) == naive.try_append(msg), name
                elif op < 0.7 and indexed:
                    assert indexed.pop() == naive.pop(), name
                elif op < 0.85:
                    assert indexed.purge() == naive.purge(), name
                else:
                    entry = ViewDelivery(view)
                    assert indexed.try_append(entry) == naive.try_append(entry)
                assert _queue_state(indexed) == _queue_state(naive), name


class TestAdversarialAnnotations:
    """Hand-rolled annotations the encoders would never emit."""

    def test_kenum_bitmap_with_bits_beyond_k(self):
        relation, indexed, naive = _paired_queues("k-enumeration", {"k": K})
        old = DataMessage(MessageId(0, 0), view_id=0)
        mid_msg = DataMessage(MessageId(0, 3), view_id=0, annotation=0b100)
        for queue in (indexed, naive):
            queue.append(old)
            queue.append(mid_msg)
        # Bit K+3 set: distance beyond the window must be ignored by both.
        probe = DataMessage(
            MessageId(0, K + 3), view_id=0, annotation=(1 << (K + 2)) | 0b1
        )
        assert indexed.purge_by(probe) == naive.purge_by(probe)

    def test_cross_view_pairs_not_purged_but_covered(self):
        """Purging filters by view; coverage (like the naive scan) does not."""
        relation, indexed, naive = _paired_queues("item-tagging", {})
        old = DataMessage(MessageId(0, 0), view_id=0, annotation=7)
        for queue in (indexed, naive):
            queue.append(old)
        newer_other_view = DataMessage(MessageId(0, 1), view_id=1, annotation=7)
        assert indexed.purge_by(newer_other_view) == naive.purge_by(newer_other_view) == []
        for queue in (indexed, naive):
            queue.append(newer_other_view)
        assert indexed.covered(old) == naive.covered(old) is True

    def test_enumeration_self_reference_ignored(self):
        relation, indexed, naive = _paired_queues("message-enumeration", {})
        other = DataMessage(MessageId(1, 0), view_id=0)
        for queue in (indexed, naive):
            queue.append(other)
        probe = DataMessage(
            MessageId(0, 5),
            view_id=0,
            annotation=frozenset({MessageId(0, 5), MessageId(1, 0)}),
        )
        assert indexed.purge_by(probe) == naive.purge_by(probe) == [other]


class _CountingKEnumeration(KEnumeration):
    def __init__(self, k):
        super().__init__(k)
        self.calls = 0

    def obsoletes(self, new, old):
        self.calls += 1
        return super().obsoletes(new, old)


def _pump(queue, n=3000):
    """A steady same-sender stream where each message obsoletes its
    predecessor — the throughput model's shape in miniature."""
    for sn in range(n):
        msg = DataMessage(MessageId(0, sn), view_id=0, annotation=0b1 if sn else 0)
        queue.try_append(msg)
        if sn % 3 == 2:
            queue.pop()


class TestIndexDoesLessWork:
    def test_indexed_purge_skips_linear_scans(self):
        """The index must cut relation calls by an order of magnitude
        (the naive path is O(queue) per message)."""
        naive_relation = _CountingKEnumeration(8)
        naive = DeliveryQueue(naive_relation, capacity=16, use_index=False)
        _pump(naive)

        indexed_relation = _CountingKEnumeration(8)
        indexed = DeliveryQueue(indexed_relation, capacity=16, use_index=True)
        _pump(indexed)

        # Identical externally visible behaviour...
        assert indexed.stats.purged == naive.stats.purged > 0
        assert len(indexed) == len(naive)
        # ...with at least 10x fewer relation interrogations.  The index
        # answers from per-sender maps, so it never calls ``obsoletes``
        # at all; the bound is loose on purpose.
        assert naive_relation.calls > 0
        assert indexed_relation.calls * 10 <= naive_relation.calls
