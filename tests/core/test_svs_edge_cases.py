"""Adversarial edge cases for the SVS protocol.

These target the narrow windows where the Figure 1 algorithm is easiest
to get wrong: concurrent initiators, traffic racing a view change,
purge/flush interactions, and the k-enumeration truncation hazard.
"""

import pytest

from repro.core.buffers import DeliveryQueue
from repro.core.svs import SVSProcess
from repro.core.message import DataMessage, MessageId, ViewDelivery
from repro.core.obsolescence import ItemTagging, KEnumeration, KEnumerationEncoder
from repro.core.spec import check_all
from repro.gcs.stack import GroupStack, StackConfig
from tests.conftest import make_data


def build(n=3, **kwargs):
    config = StackConfig(n=n, consensus=kwargs.pop("consensus", "oracle"), **kwargs)
    return GroupStack(ItemTagging(), config)


class TestParameterValidation:
    @pytest.mark.parametrize(
        "interval", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_nonpositive_stability_interval_rejected(self, interval):
        """A hand-wired member checks its own timer period: a zero period
        would reschedule the gossip timer at the same instant forever."""
        stack = GroupStack(
            ItemTagging(), StackConfig(n=2, consensus="oracle"), pids=[0]
        )
        with pytest.raises(ValueError, match="stability_interval"):
            SVSProcess(
                pid=1,
                sim=stack.sim,
                network=stack.network,
                initial_view=stack.initial_view,
                relation=stack.relation,
                consensus_factory=stack[0]._consensus_factory,
                fd=stack[0].fd,
                stability_interval=interval,
            )


class TestConcurrentInitiators:
    def test_two_simultaneous_initiators(self):
        stack = build()
        stack[0].trigger_view_change()
        stack[1].trigger_view_change()
        stack.settle(max_time=10.0)
        # Exactly one view change results (the INIT flood is idempotent
        # once blocked); everyone lands in the same view 1.
        assert all(p.cv.vid == 1 for p in stack)
        stack.drain_all()
        assert check_all(stack.recorder, stack.relation) == []

    def test_conflicting_leave_sets(self):
        """Two initiators request different leaves: consensus picks one
        proposal; membership is consistent either way."""
        stack = build(n=4)
        stack[0].trigger_view_change(leave=(3,))
        stack[1].trigger_view_change(leave=(2,))
        stack.settle(max_time=10.0)
        views = {
            p.cv.members
            for p in stack
            if not p.crashed and not p.excluded
        }
        assert len(views) == 1
        members = views.pop()
        # One of the two leave requests won; at least one of {2, 3} left.
        assert members in (frozenset({0, 1, 2}), frozenset({0, 1, 3}))
        stack.drain_all()
        assert check_all(stack.recorder, stack.relation) == []

    def test_initiator_crashes_after_init(self):
        """The INIT flood must carry the change through even if the
        initiator dies right after sending — before processing its own
        INIT, so it never contributes a PRED and drops out of the view."""
        stack = build(n=4)
        stack[1].trigger_view_change()
        stack[1].crash()  # INIT is on the wire; no PRED will follow
        stack.settle(max_time=15.0)
        survivors = [p for p in stack if not p.crashed]
        assert all(p.cv.vid == 1 for p in survivors)
        assert all(1 not in p.cv.members for p in survivors)
        stack.drain_all()
        assert check_all(stack.recorder, stack.relation) == []

    def test_initiator_crashes_after_sending_pred(self):
        """If the initiator's PRED made it out before the crash, it may
        legitimately be included in the next view; either way the
        survivors agree and safety holds."""
        stack = build(n=4)
        stack[1].trigger_view_change()
        stack.run(until=0.003)  # PRED exchanged
        stack[1].crash()
        stack.settle(max_time=15.0)
        survivors = [p for p in stack if not p.crashed]
        views = {p.cv.members for p in survivors if not p.excluded}
        assert len(views) == 1
        stack.drain_all()
        assert check_all(stack.recorder, stack.relation) == []


class TestTrafficRacingViewChange:
    def test_burst_straddling_the_change(self):
        stack = build(latency=0.01)
        sim = stack.sim
        for i in range(40):
            sim.schedule_at(
                0.002 * i,
                lambda i=i: stack[0].multicast(("u", i), annotation=i % 2),
            )
        sim.schedule_at(0.04, stack[2].trigger_view_change)
        for i in range(40, 60):
            sim.schedule_at(
                0.5 + 0.002 * (i - 40),
                lambda i=i: stack[0].multicast(("u", i), annotation=i % 2),
            )
        stack.settle(max_time=20.0)
        stack.drain_all()
        assert check_all(stack.recorder, stack.relation) == []

    def test_sender_blocked_messages_eventually_flow(self):
        """Multicasts refused during the change are the application's to
        retry; after installation the guard opens again and FIFO holds."""
        stack = build()
        stack[0].multicast("before", annotation=None)
        stack[0].trigger_view_change()
        stack.run(until=0.0005)
        assert stack[0].multicast("during", annotation=None) is None
        stack.settle(max_time=10.0)
        assert stack[0].multicast("after", annotation=None) is not None
        stack.run(until=stack.sim.now + 1.0)
        stack.drain_all()
        history = [
            e.payload
            for e in stack.recorder.history(1).events
            if isinstance(e, DataMessage)
        ]
        assert history == ["before", "after"]
        assert check_all(stack.recorder, stack.relation) == []

    def test_back_to_back_view_changes_with_purging_traffic(self):
        stack = build(consensus="chandra-toueg")
        sim = stack.sim
        for i in range(80):
            sim.schedule_at(
                0.003 * i,
                lambda i=i: stack[0].multicast(("u", i), annotation=i % 2),
            )
        sim.schedule_at(0.06, stack[1].trigger_view_change)
        sim.schedule_at(0.12, stack[2].trigger_view_change)
        sim.schedule_at(0.18, stack[0].trigger_view_change)
        stack.settle(max_time=30.0)
        stack.drain_all()
        assert check_all(stack.recorder, stack.relation) == []
        vids = {p.cv.vid for p in stack}
        assert vids == {3}


class TestPurgeFlushInteraction:
    def test_slow_member_queue_purged_then_flushed(self):
        """A slow member whose queue was heavily purged must not
        re-deliver obsolete messages from the flush set (the deep-coverage
        regression found by the spec checker)."""
        stack = build()
        sim = stack.sim
        # Heavy same-item traffic: the slow member purges almost all of it.
        for i in range(60):
            sim.schedule_at(
                0.002 * i, lambda i=i: stack[0].multicast(("x", i), annotation=7)
            )
        # Member 1 consumes everything promptly (so its delivered set holds
        # many messages the slow member purged).
        def fast():
            stack[1].drain()
            sim.schedule(0.002, fast)

        sim.schedule(0.002, fast)
        sim.schedule_at(0.2, stack[0].trigger_view_change)
        stack.settle(max_time=20.0)
        stack.drain_all()
        violations = check_all(stack.recorder, stack.relation)
        assert violations == []

    def test_view_notification_never_overtaken(self):
        """Entries after a VIEW delivery must all belong to the new view."""
        stack = build()
        sim = stack.sim
        for i in range(30):
            sim.schedule_at(
                0.004 * i, lambda i=i: stack[0].multicast(("u", i), annotation=None)
            )
        sim.schedule_at(0.06, stack[1].trigger_view_change)
        stack.settle(max_time=20.0)
        for i in range(30, 40):
            stack[0].multicast(("u", i), annotation=None)
        stack.run(until=sim.now + 1.0)
        stack.drain_all()
        for history in stack.recorder.histories.values():
            current_vid = -1
            for event in history.events:
                if isinstance(event, ViewDelivery):
                    current_vid = event.view.vid
                elif current_vid >= 0:
                    assert event.view_id <= current_vid
                    # Old-view data may trail (flushed), but new-view data
                    # must never precede its VIEW notification.


class TestKTruncationHazard:
    def test_small_k_breaks_coverage_chains_in_queue(self):
        """The documented hazard: with k too small the encoded relation is
        not transitive, and the Figure 1 fixpoint purge can strand a
        message whose only coverers were themselves purged.

        Chain m0 ≺ m1 ≺ m2 at unit distances with k=1: the relation knows
        (m0,m1) and (m1,m2) but not (m0,m2)."""
        encoder = KEnumerationEncoder(sender=0, k=1)
        bitmaps = [encoder.annotate(sn, [sn - 1] if sn else []) for sn in range(3)]
        messages = [
            make_data(sn=sn, annotation=bitmaps[sn]) for sn in range(3)
        ]
        relation = KEnumeration(k=1)
        assert relation.obsoletes(messages[1], messages[0])
        assert relation.obsoletes(messages[2], messages[1])
        assert not relation.obsoletes(messages[2], messages[0])  # truncated!

        queue = DeliveryQueue(relation)
        for msg in messages:
            queue.append(msg)
        removed = queue.purge()
        survivors = {m.sn for m in queue.data_messages()}
        # m0 and m1 are both dominated in the original set, so the
        # simultaneous purge removes both — leaving m0 covered only by the
        # *removed* m1.  With k >= 2 the closure would make m2 cover m0.
        assert survivors == {2}
        assert {m.sn for m in removed} == {0, 1}

    def test_paper_recommended_k_preserves_chains(self):
        encoder = KEnumerationEncoder(sender=0, k=4)
        bitmaps = [encoder.annotate(sn, [sn - 1] if sn else []) for sn in range(3)]
        messages = [make_data(sn=sn, annotation=bitmaps[sn]) for sn in range(3)]
        relation = KEnumeration(k=4)
        assert relation.obsoletes(messages[2], messages[0])  # closure intact
