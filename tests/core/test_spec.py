"""Unit tests for the executable specification checkers.

Each checker must (a) pass on hand-built correct histories and (b) flag
hand-built violations — the checkers guard the whole suite, so they get
adversarial tests of their own.
"""

import pytest

from repro.core.message import MessageId, View, ViewDelivery
from repro.core.obsolescence import (
    EmptyRelation,
    ItemTagging,
    KEnumeration,
    MessageEnumeration,
)
from repro.core.spec import (
    HistoryRecorder,
    check_classic_vs,
    check_fifo_cover,
    check_fifo_sr,
    check_integrity,
    check_svs,
    check_view_agreement,
)
from tests.conftest import make_data

V0 = View(0, frozenset({0, 1}))
V1 = View(1, frozenset({0, 1}))


def recorder_with(multicasts, histories):
    rec = HistoryRecorder()
    for msg in multicasts:
        rec.record_multicast(msg.sender, msg)
    for pid, events in histories.items():
        for event in events:
            rec.record_delivery(pid, event)
    return rec


def tagged(sn, tag, view_id=0):
    return make_data(sn=sn, annotation=tag, view_id=view_id)


class TestSVSChecker:
    def test_identical_histories_pass(self):
        m = [tagged(0, 1), tagged(1, 2)]
        rec = recorder_with(
            m,
            {
                0: [ViewDelivery(V0), m[0], m[1], ViewDelivery(V1)],
                1: [ViewDelivery(V0), m[0], m[1], ViewDelivery(V1)],
            },
        )
        assert check_svs(rec, ItemTagging()) == []

    def test_covered_omission_passes(self):
        m = [tagged(0, 7), tagged(1, 7)]
        rec = recorder_with(
            m,
            {
                0: [ViewDelivery(V0), m[0], m[1], ViewDelivery(V1)],
                1: [ViewDelivery(V0), m[1], ViewDelivery(V1)],  # skipped m0
            },
        )
        assert check_svs(rec, ItemTagging()) == []

    def test_uncovered_omission_flagged(self):
        m = [tagged(0, 7), tagged(1, 8)]  # different tags: no coverage
        rec = recorder_with(
            m,
            {
                0: [ViewDelivery(V0), m[0], m[1], ViewDelivery(V1)],
                1: [ViewDelivery(V0), m[1], ViewDelivery(V1)],
            },
        )
        violations = check_svs(rec, ItemTagging())
        assert violations and "SVS" in violations[0]

    def test_empty_relation_requires_equality(self):
        m = [tagged(0, 7), tagged(1, 7)]
        rec = recorder_with(
            m,
            {
                0: [ViewDelivery(V0), m[0], m[1], ViewDelivery(V1)],
                1: [ViewDelivery(V0), m[1], ViewDelivery(V1)],
            },
        )
        assert check_svs(rec, EmptyRelation()) != []
        assert check_classic_vs(rec) != []

    def test_process_not_installing_next_view_unconstrained(self):
        m = [tagged(0, 7)]
        rec = recorder_with(
            m,
            {
                0: [ViewDelivery(V0), m[0], ViewDelivery(V1)],
                1: [ViewDelivery(V0)],  # never installed V1: no obligation
            },
        )
        assert check_svs(rec, ItemTagging()) == []

    def test_coverage_in_earlier_segment_counts(self):
        # q delivered the coverer already in view 0 while p delivered the
        # covered message in view 1 (possible with cross-view... the
        # checker pools all segments <= vid).
        early = tagged(1, 7, view_id=0)
        late = tagged(0, 7, view_id=0)
        rec = recorder_with(
            [late, early],
            {
                0: [ViewDelivery(V0), late, early, ViewDelivery(V1)],
                1: [ViewDelivery(V0), early, ViewDelivery(V1)],
            },
        )
        assert check_svs(rec, ItemTagging()) == []


class TestFIFOChecker:
    def test_in_order_delivery_passes(self):
        m = [tagged(0, 1), tagged(1, 2)]
        rec = recorder_with(m, {0: [ViewDelivery(V0), m[0], m[1]]})
        assert check_fifo_sr(rec, ItemTagging()) == []

    def test_out_of_order_delivery_flagged(self):
        m = [tagged(0, 1), tagged(1, 2)]
        rec = recorder_with(m, {0: [ViewDelivery(V0), m[1], m[0]]})
        violations = check_fifo_sr(rec, ItemTagging())
        assert any("FIFO(i)" in v for v in violations)

    def test_uncovered_gap_at_view_boundary_flagged(self):
        m = [tagged(0, 1), tagged(1, 2)]
        rec = recorder_with(
            m, {0: [ViewDelivery(V0), m[1], ViewDelivery(V1)]}
        )
        violations = check_fifo_sr(rec, ItemTagging())
        assert any("FIFO(ii)" in v for v in violations)

    def test_covered_gap_at_view_boundary_passes(self):
        m = [tagged(0, 7), tagged(1, 7)]
        rec = recorder_with(
            m, {0: [ViewDelivery(V0), m[1], ViewDelivery(V1)]}
        )
        assert check_fifo_sr(rec, ItemTagging()) == []

    def test_gap_without_boundary_is_not_yet_a_violation(self):
        # Before the next installation the gap may still be filled.
        m = [tagged(0, 1), tagged(1, 2)]
        rec = recorder_with(m, {0: [ViewDelivery(V0), m[1]]})
        violations = check_fifo_sr(rec, ItemTagging())
        assert not any("FIFO(ii)" in v for v in violations)


class TestTamperedCopies:
    """Two copies of one mid with different annotations: coverage must see
    both, as a scan of the delivered log does.  (A purge index keeps one
    message per mid, so a pool that indexed both copies in one queue would
    answer with whichever copy came last.)"""

    # sn 5's genuine annotation covers sn 4; the forged copy covers sn 3.
    RELATIONS = {
        "k-enumeration": (KEnumeration(4), 0b0001, 0b0010),
        "message-enumeration": (
            MessageEnumeration(),
            frozenset({MessageId(0, 4)}),
            frozenset({MessageId(0, 3)}),
        ),
    }

    @pytest.mark.parametrize("name", sorted(RELATIONS))
    @pytest.mark.parametrize("forged_first", [False, True])
    def test_every_copy_covers(self, name, forged_first):
        relation, genuine_bits, forged_bits = self.RELATIONS[name]
        m3, m4 = tagged(3, None), tagged(4, None)
        genuine = tagged(5, genuine_bits)
        forged = make_data(sn=5, annotation=forged_bits, payload="forged")
        copies = [forged, genuine] if forged_first else [genuine, forged]
        rec = recorder_with(
            [m3, m4, genuine],
            {
                0: [ViewDelivery(V0), m3, m4, genuine, ViewDelivery(V1)],
                1: [ViewDelivery(V0), *copies, ViewDelivery(V1)],
            },
        )
        # The scan's answers: m4 ⊑ genuine and m3 ⊑ forged.
        assert check_svs(rec, relation) == []
        assert check_fifo_cover(rec, relation) == []
        assert len(check_integrity(rec)) == 2  # a forgery and a duplicate

    @pytest.mark.parametrize("name", sorted(RELATIONS))
    def test_one_copy_leaves_a_gap(self, name):
        relation, genuine_bits, _forged_bits = self.RELATIONS[name]
        m3, m4, genuine = tagged(3, None), tagged(4, None), tagged(5, genuine_bits)
        rec = recorder_with(
            [m3, m4, genuine],
            {
                0: [ViewDelivery(V0), m3, m4, genuine, ViewDelivery(V1)],
                1: [ViewDelivery(V0), genuine, ViewDelivery(V1)],
            },
        )
        assert check_svs(rec, relation) == [
            "SVS: 0 delivered Data(0.3@v0) in view 0 but 1 installed view 1 "
            "without covering it"
        ]
        assert check_fifo_cover(rec, relation) == [
            "FIFO(ii): 1 installed view #1 having delivered up to sn 5 of "
            "sender 0 without covering Data(0.3@v0)"
        ]


class TestIntegrityChecker:
    def test_clean_history_passes(self):
        m = [tagged(0, 1)]
        rec = recorder_with(m, {0: [ViewDelivery(V0), m[0]]})
        assert check_integrity(rec) == []

    def test_creation_flagged(self):
        phantom = tagged(9, 1)
        rec = recorder_with([], {0: [ViewDelivery(V0), phantom]})
        violations = check_integrity(rec)
        assert any("no-creation" in v for v in violations)

    def test_duplication_flagged(self):
        m = [tagged(0, 1)]
        rec = recorder_with(m, {0: [ViewDelivery(V0), m[0], m[0]]})
        violations = check_integrity(rec)
        assert any("no-duplication" in v for v in violations)

    def test_tampered_message_flagged(self):
        original = tagged(0, 1)
        forged = make_data(sn=0, annotation=1, payload="tampered")
        rec = recorder_with([original], {0: [ViewDelivery(V0), forged]})
        violations = check_integrity(rec)
        assert any("no-creation" in v for v in violations)


class TestViewAgreementChecker:
    def test_agreeing_views_pass(self):
        rec = recorder_with(
            [],
            {
                0: [ViewDelivery(V0), ViewDelivery(V1)],
                1: [ViewDelivery(V0), ViewDelivery(V1)],
            },
        )
        assert check_view_agreement(rec) == []

    def test_conflicting_membership_flagged(self):
        other_v1 = View(1, frozenset({0}))
        rec = recorder_with(
            [],
            {
                0: [ViewDelivery(V0), ViewDelivery(V1)],
                1: [ViewDelivery(V0), ViewDelivery(other_v1)],
            },
        )
        violations = check_view_agreement(rec)
        assert any("memberships" in v for v in violations)

    def test_non_increasing_installation_flagged(self):
        rec = recorder_with(
            [], {0: [ViewDelivery(V1), ViewDelivery(V0)]}
        )
        violations = check_view_agreement(rec)
        assert any("after" in v for v in violations)

    def test_skipped_view_flagged(self):
        v2 = View(2, frozenset({0, 1}))
        rec = recorder_with([], {0: [ViewDelivery(V0), ViewDelivery(v2)]})
        violations = check_view_agreement(rec)
        assert any("skipped" in v for v in violations)


class TestHistorySegments:
    def test_segments_grouped_by_view(self):
        m = [tagged(0, 1), tagged(1, 2, view_id=1)]
        rec = recorder_with(
            m, {0: [ViewDelivery(V0), m[0], ViewDelivery(V1), m[1]]}
        )
        segments = rec.history(0).segments()
        assert [x.sn for x in segments[0]] == [0]
        assert [x.sn for x in segments[1]] == [1]

    def test_data_before_any_view_lands_in_minus_one(self):
        m = [tagged(0, 1)]
        rec = recorder_with(m, {0: [m[0], ViewDelivery(V0)]})
        segments = rec.history(0).segments()
        assert [x.sn for x in segments[-1]] == [0]

    def test_installed_views_listed_in_order(self):
        rec = recorder_with(
            [], {0: [ViewDelivery(V0), ViewDelivery(V1)]}
        )
        assert [v.vid for v in rec.history(0).installed_views()] == [0, 1]
