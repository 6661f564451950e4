"""Unit tests for the obsolescence relations and encoders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.message import MessageId
from repro.core.obsolescence import (
    EmptyRelation,
    EnumerationEncoder,
    ExplicitRelation,
    ItemTagging,
    KEnumeration,
    KEnumerationEncoder,
    MessageEnumeration,
    check_strict_partial_order,
)
from tests.conftest import make_data


class TestEmptyRelation:
    def test_never_obsoletes(self):
        rel = EmptyRelation()
        a, b = make_data(sn=0, annotation=1), make_data(sn=1, annotation=1)
        assert not rel.obsoletes(b, a)

    def test_covers_is_identity_only(self):
        rel = EmptyRelation()
        a = make_data(sn=0)
        b = make_data(sn=1)
        assert rel.covers(a, a)
        assert not rel.covers(b, a)

    def test_same_sender_only_flag(self):
        assert EmptyRelation.same_sender_only


class TestItemTagging:
    def test_same_tag_newer_obsoletes_older(self):
        rel = ItemTagging()
        old = make_data(sn=0, annotation=7)
        new = make_data(sn=3, annotation=7)
        assert rel.obsoletes(new, old)
        assert not rel.obsoletes(old, new)

    def test_different_tags_unrelated(self):
        rel = ItemTagging()
        a = make_data(sn=0, annotation=7)
        b = make_data(sn=1, annotation=8)
        assert not rel.obsoletes(b, a)

    def test_none_tag_never_related(self):
        rel = ItemTagging()
        a = make_data(sn=0, annotation=None)
        b = make_data(sn=1, annotation=None)
        assert not rel.obsoletes(b, a)

    def test_cross_sender_unrelated(self):
        rel = ItemTagging()
        a = make_data(sender=0, sn=0, annotation=7)
        b = make_data(sender=1, sn=5, annotation=7)
        assert not rel.obsoletes(b, a)

    def test_strict_partial_order_on_tagged_stream(self):
        rel = ItemTagging()
        messages = [make_data(sn=i, annotation=i % 3) for i in range(12)]
        assert check_strict_partial_order(rel, messages) == []


class TestMessageEnumeration:
    def test_enumerated_predecessor_is_obsolete(self):
        rel = MessageEnumeration()
        old = make_data(sn=0)
        new = make_data(sn=1, annotation=frozenset({MessageId(0, 0)}))
        assert rel.obsoletes(new, old)

    def test_empty_annotation_relates_nothing(self):
        rel = MessageEnumeration()
        old = make_data(sn=0)
        new = make_data(sn=1, annotation=frozenset())
        assert not rel.obsoletes(new, old)

    def test_cross_sender_expressible(self):
        rel = MessageEnumeration()
        old = make_data(sender=3, sn=9)
        new = make_data(sender=0, sn=1, annotation=frozenset({MessageId(3, 9)}))
        assert rel.obsoletes(new, old)

    def test_same_sender_later_sn_cannot_be_obsoleted(self):
        # Guards against malformed annotations claiming to obsolete the
        # sender's own future messages.
        rel = MessageEnumeration()
        future = make_data(sn=5)
        new = make_data(sn=1, annotation=frozenset({MessageId(0, 5)}))
        assert not rel.obsoletes(new, future)


class TestEnumerationEncoder:
    def test_transitive_closure_carried(self):
        enc = EnumerationEncoder(sender=0)
        m0 = enc.next_mid()
        enc.annotate(m0, [])
        m1 = enc.next_mid()
        enc.annotate(m1, [m0])
        m2 = enc.next_mid()
        annotation = enc.annotate(m2, [m1])
        assert m0 in annotation and m1 in annotation

    def test_window_truncates_old_predecessors(self):
        enc = EnumerationEncoder(sender=0, window=2)
        mids = []
        for i in range(5):
            mid = enc.next_mid()
            direct = [mids[-1]] if mids else []
            enc.annotate(mid, direct)
            mids.append(mid)
        # The last message's annotation keeps only predecessors within 2 sns.
        last_annotation = enc._closure[mids[-1]]
        assert all(p.sn >= mids[-1].sn - 2 for p in last_annotation)

    def test_self_obsolescence_rejected(self):
        enc = EnumerationEncoder(sender=0)
        mid = enc.next_mid()
        with pytest.raises(ValueError):
            enc.annotate(mid, [mid])

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            EnumerationEncoder(sender=0, window=0)

    def test_matches_relation_semantics(self):
        enc = EnumerationEncoder(sender=0)
        rel = MessageEnumeration()
        m0 = enc.next_mid()
        a0 = enc.annotate(m0, [])
        m1 = enc.next_mid()
        a1 = enc.annotate(m1, [m0])
        msg0 = make_data(sn=0, annotation=a0)
        msg1 = make_data(sn=1, annotation=a1)
        assert rel.obsoletes(msg1, msg0)


class TestKEnumeration:
    def test_bitmap_distance_semantics(self):
        rel = KEnumeration(k=4)
        old = make_data(sn=1)
        # distance 2 => bit 1 set
        new = make_data(sn=3, annotation=0b10)
        assert rel.obsoletes(new, old)

    def test_distance_beyond_k_unrelated(self):
        rel = KEnumeration(k=2)
        old = make_data(sn=0)
        new = make_data(sn=5, annotation=0b11)
        assert not rel.obsoletes(new, old)

    def test_zero_bitmap_relates_nothing(self):
        rel = KEnumeration(k=4)
        assert not rel.obsoletes(make_data(sn=2, annotation=0), make_data(sn=1))

    def test_cross_sender_unrelated(self):
        rel = KEnumeration(k=4)
        old = make_data(sender=1, sn=0)
        new = make_data(sender=0, sn=1, annotation=0b1)
        assert not rel.obsoletes(new, old)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            KEnumeration(0)


class TestKEnumerationEncoder:
    def test_direct_predecessor_bit(self):
        enc = KEnumerationEncoder(sender=0, k=8)
        assert enc.annotate(1, [0]) == 0b1
        assert enc.annotate(5, [3]) == 0b10

    def test_shift_or_transitive_composition(self):
        enc = KEnumerationEncoder(sender=0, k=8)
        enc.annotate(1, [0])  # m1 obsoletes m0
        bitmap = enc.annotate(2, [1])  # m2 obsoletes m1 (and m0 transitively)
        rel = KEnumeration(k=8)
        m2 = make_data(sn=2, annotation=bitmap)
        assert rel.obsoletes(m2, make_data(sn=1))
        assert rel.obsoletes(m2, make_data(sn=0))

    def test_chain_composition_through_window(self):
        enc = KEnumerationEncoder(sender=0, k=16)
        for sn in range(1, 10):
            enc.annotate(sn, [sn - 1])
        rel = KEnumeration(k=16)
        last = make_data(sn=9, annotation=enc._bitmaps[9])
        for sn in range(9):
            assert rel.obsoletes(last, make_data(sn=sn))

    def test_predecessor_outside_window_dropped(self):
        enc = KEnumerationEncoder(sender=0, k=2)
        assert enc.annotate(5, [1]) == 0

    def test_bitmap_masked_to_k_bits(self):
        enc = KEnumerationEncoder(sender=0, k=3)
        enc.annotate(1, [0])
        enc.annotate(2, [1])
        bitmap = enc.annotate(3, [2])
        assert bitmap <= enc.mask

    def test_future_predecessor_rejected(self):
        enc = KEnumerationEncoder(sender=0, k=4)
        with pytest.raises(ValueError):
            enc.annotate(1, [1])

    def test_gc_keeps_memory_bounded(self):
        enc = KEnumerationEncoder(sender=0, k=4)
        for sn in range(1, 200):
            enc.annotate(sn, [sn - 1])
        assert len(enc._bitmaps) <= 6

    def test_record_external_bitmap(self):
        enc = KEnumerationEncoder(sender=0, k=4)
        enc.record(3, 0b101)
        # Composition picks up the recorded closure.
        bitmap = enc.annotate(4, [3])
        assert bitmap & 0b1  # direct bit for distance 1
        assert bitmap & 0b1010  # recorded closure shifted by 1


class ScanningKEncoder(KEnumerationEncoder):
    """The encoder as it was: every annotate and record scans all bitmaps."""

    def _gc(self, newest_sn):
        horizon = newest_sn - self.k
        for s in [s for s in self._bitmaps if s < horizon]:
            del self._bitmaps[s]


#: (record?, sn step, direct distances, recorded bitmap); a negative or
#: zero step sends the sn backwards (records only: annotate rejects nothing
#: out of order, but real senders annotate in order).
encoder_ops = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=-6, max_value=9),
        st.lists(st.integers(min_value=1, max_value=7), max_size=3),
        st.integers(min_value=0, max_value=2**8 - 1),
    ),
    max_size=40,
)


class TestKEnumerationEncoderGc:
    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(min_value=1, max_value=6), ops=encoder_ops)
    def test_bitmaps_match_the_scanning_encoder(self, k, ops):
        fast, scanning = KEnumerationEncoder(0, k), ScanningKEncoder(0, k)
        sn = 0
        for record, step, distances, bitmap in ops:
            sn = max(0, sn + step) if record else sn + max(1, step)
            direct = [sn - d for d in distances if d <= sn]
            outs = [
                enc.record(sn, bitmap) if record else enc.annotate(sn, direct)
                for enc in (fast, scanning)
            ]
            assert outs[0] == outs[1]
            assert fast._bitmaps == scanning._bitmaps

    def test_out_of_order_record_falls_back_to_the_scan(self):
        fast, scanning = KEnumerationEncoder(0, 2), ScanningKEncoder(0, 2)
        for enc in (fast, scanning):
            for sn in range(10):
                enc.annotate(sn, [sn - 1] if sn else [])
            enc.record(1, 0b11)  # behind the horizon: kept until the next gc
            assert 1 in enc._bitmaps
            enc.annotate(10, [9])
        assert 1 not in fast._bitmaps
        assert fast._bitmaps == scanning._bitmaps


class TestEnumIndexReverseMap:
    """Coverage builds the reverse map on first use and maintains it; the
    answers match the scan before and after."""

    @staticmethod
    def stream():
        enc = EnumerationEncoder(sender=0)
        out, last = [], {}
        for i in range(40):
            mid = enc.next_mid()
            item = i % 4
            direct = [last[item]] if item in last and i % 7 else []
            out.append(make_data(sn=mid.sn, annotation=enc.annotate(mid, direct)))
            last[item] = mid
        return out

    def test_coverer_of_agrees_with_the_scan(self):
        rel = MessageEnumeration()
        messages = self.stream()
        index = rel.make_index()
        indexed = []

        def scan(old):
            return any(rel.obsoletes(new, old) for new in indexed)

        for i, msg in enumerate(messages):
            index.add(msg)
            indexed.append(msg)
            if i % 3 == 0:
                gone = indexed.pop(0)
                index.discard(gone)
            if i == 20:
                assert index._rev is None
                assert [index.coverer_of(m) for m in messages] == [
                    scan(m) for m in messages
                ]
                assert index._rev is not None
        assert [index.coverer_of(m) for m in messages] == [
            scan(m) for m in messages
        ]
        assert any(scan(m) for m in messages)
        for new in messages:
            assert sorted(old.mid for old in index.obsoleted_by(new)) == sorted(
                old.mid for old in indexed if rel.obsoletes(new, old)
            )


class TestExplicitRelation:
    def test_pairs_and_closure(self):
        a, b, c = MessageId(0, 0), MessageId(0, 1), MessageId(0, 2)
        rel = ExplicitRelation([(a, b), (b, c)])
        ma, mb, mc = make_data(sn=0), make_data(sn=1), make_data(sn=2)
        assert rel.obsoletes(mb, ma)
        assert rel.obsoletes(mc, mb)
        assert rel.obsoletes(mc, ma)  # transitively closed

    def test_cycle_rejected(self):
        a, b = MessageId(0, 0), MessageId(0, 1)
        with pytest.raises(ValueError):
            ExplicitRelation([(a, b), (b, a)])

    def test_self_pair_rejected(self):
        a = MessageId(0, 0)
        with pytest.raises(ValueError):
            ExplicitRelation([(a, a)])

    def test_is_strict_partial_order(self):
        mids = [MessageId(0, i) for i in range(5)]
        rel = ExplicitRelation([(mids[i], mids[i + 1]) for i in range(4)])
        messages = [make_data(sn=i) for i in range(5)]
        assert check_strict_partial_order(rel, messages) == []


class TestCheckStrictPartialOrder:
    def test_detects_irreflexivity_violation(self):
        class Bad(EmptyRelation):
            def obsoletes(self, new, old):
                return new.mid == old.mid

        violations = check_strict_partial_order(Bad(), [make_data(sn=0)])
        assert any("irreflexivity" in v for v in violations)

    def test_detects_antisymmetry_violation(self):
        class Bad(EmptyRelation):
            def obsoletes(self, new, old):
                return new.mid != old.mid

        violations = check_strict_partial_order(
            Bad(), [make_data(sn=0), make_data(sn=1)]
        )
        assert any("antisymmetry" in v for v in violations)

    def test_detects_transitivity_violation(self):
        class Bad(EmptyRelation):
            def obsoletes(self, new, old):
                return new.sn - old.sn == 1

        violations = check_strict_partial_order(
            Bad(), [make_data(sn=i) for i in range(3)]
        )
        assert any("transitivity" in v for v in violations)
