"""The installation flush's coverage test asks an index, and decides exactly
like the linear scan of the delivered log it replaces.

At t7 every flushed message that is not already queued or delivered by id
is tested for ⊑-coverage against the view's delivered log.  The flush
builds a never-purged :class:`~repro.core.buffers.DeliveryQueue` over that
log once per decision and asks its purge index; the reference kept here is
the scan the protocol used before, one ``relation.covers`` call per
delivered message.  Two identical members — one with the protocol's
``_covered``, one with the scan — receive, deliver and flush the same
encoder-faithful streams (see ``test_purge_index.py``) and must end with
the same queue, the same delivered log and the same flush counts, also
after receptions that follow the flush (t3 keeps scanning the live log).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.message import DataMessage, View
from repro.core.svs import SVSProcess
from repro.gcs.stack import GroupStack, StackConfig
from repro.registry import relations as relation_registry
from tests.core.test_purge_index import (
    RELATION_SPECS,
    _annotate_stream,
    raw_streams,
)

SUBJECT = 1


def scanning_covered(proc, msg, deep=None, logs=None):
    """``_covered`` as it was: the delivered log by linear scan."""
    if deep is None:
        deep = proc._cross_sender
    if proc.to_deliver.contains_mid(msg.mid):
        return True
    delivered = proc._delivered.get(msg.view_id, {})
    if msg.mid in delivered:
        return True
    if not deep:
        return False
    if proc.to_deliver.covered(msg):
        return True
    return any(proc.relation.covers(other, msg) for other in delivered.values())


def member(name, params, scan):
    """Member 1 of a 3-member stack; with ``scan``, its coverage test is
    the reference scan."""
    relation = relation_registry.create(name, **params)
    stack = GroupStack(relation, StackConfig(n=3, consensus="oracle"))
    proc = stack[SUBJECT]
    if scan:
        proc._covered = lambda msg, deep=None, logs=None: scanning_covered(
            proc, msg, deep
        )
    flushes = []
    proc.listeners.on_flush = lambda pid, size, added: flushes.append(added)
    return proc, flushes


def state(proc, flushes):
    return (
        [
            m.mid if isinstance(m, DataMessage) else ("view", m.view.vid)
            for m in proc.to_deliver
        ],
        {vid: sorted(log) for vid, log in proc._delivered.items()},
        list(flushes),
        proc.to_deliver.stats.purged,
    )


def drive(proc, messages, actions, in_flush, split):
    """Receive and deliver the first ``split`` messages in view 0, flush
    the chosen ones into view 1, then receive and deliver the rest there
    (re-tagged with view 1)."""

    def receive(msg, action):
        accept, deliveries = action
        if accept:
            proc._handle_data(msg.sender, msg)
        for _ in range(deliveries):
            proc.deliver()

    for msg, action in zip(messages[:split], actions):
        receive(msg, action)
    flush = tuple(
        msg for msg, chosen in zip(messages[:split], in_flush) if chosen
    )
    proc._on_decision(0, (View(1, frozenset({0, 1, 2})), flush))
    for msg, action in zip(messages[split:], actions[split:]):
        receive(
            DataMessage(
                mid=msg.mid, view_id=1, payload=None, annotation=msg.annotation
            ),
            action,
        )


actions = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=2)),
    min_size=14,
    max_size=14,
)
flags = st.lists(st.booleans(), min_size=14, max_size=14)


class TestFlushMatchesTheScan:
    @settings(max_examples=80, deadline=None)
    @given(
        raw=raw_streams,
        actions=actions,
        in_flush=flags,
        split=st.integers(min_value=0, max_value=14),
    )
    def test_index_and_scan_decide_alike(self, raw, actions, in_flush, split):
        for name, params in RELATION_SPECS:
            messages = _annotate_stream(name, raw)
            ends = []
            for scan in (False, True):
                proc, flushes = member(name, params, scan)
                drive(proc, messages, actions, in_flush, split)
                ends.append(state(proc, flushes))
            assert ends[0] == ends[1], name

    def test_purged_message_with_a_delivered_coverer_stays_out(self):
        """``m1`` purges ``m0`` locally and is delivered; the flush brings
        ``m0`` back and must not re-accept it behind ``m1``."""
        raw = [(0, 1, [], 0), (0, 1, [1], 0)]
        for name, params in RELATION_SPECS:
            if name == "empty":
                continue
            m0, m1 = _annotate_stream(name, raw)
            ends = []
            for scan in (False, True):
                proc, flushes = member(name, params, scan)
                proc._handle_data(0, m0)
                proc._handle_data(0, m1)
                assert proc.to_deliver.stats.purged == 1, name
                proc.drain()
                proc._on_decision(0, (View(1, frozenset({0, 1, 2})), (m0, m1)))
                assert flushes == [0], name
                ends.append(state(proc, flushes))
            assert ends[0] == ends[1], name

    def test_cross_sender_reception_after_a_flush_sees_new_deliveries(self):
        """Enumeration relates senders, so t3 scans the delivered log.  A
        coverer delivered after the flush must still cover at t3."""
        raw = [(0, 1, [], 0), (2, 1, [], 0), (0, 1, [], 0), (2, 1, [], 0)]
        a0, b0, a1, b1 = _annotate_stream("message-enumeration", raw)
        assert a0.mid in b0.annotation and b0.mid in a1.annotation
        proc, _ = member("message-enumeration", {}, scan=False)
        proc._handle_data(0, a0)
        proc.drain()
        proc._on_decision(0, (View(1, frozenset({0, 1, 2})), (a0,)))

        def in_view_1(msg):
            return DataMessage(
                mid=msg.mid, view_id=1, payload=None, annotation=msg.annotation
            )

        proc._handle_data(0, in_view_1(a1))
        proc.drain()
        # b0 is enumerated by the delivered a1: covered, so dropped.
        proc._handle_data(2, in_view_1(b0))
        assert not proc.to_deliver.contains_mid(b0.mid)
        assert not proc.pending
