"""Differential suite: the shipped spec checkers against the pairwise scan.

:func:`~repro.core.spec.check_svs` and
:func:`~repro.core.spec.check_fifo_cover` answer ⊑-coverage through
never-purged delivery queues, i.e. through each relation's purge index.
The reference below is the earlier implementation, which scanned the
delivered log pairwise; it is kept verbatim as the oracle.  For every name
in :data:`~repro.core.spec.CHECKS` both must return the identical
violation list — same strings, same order — on

(a) the histories of the scenario fuzz suite's configurations, and
(b) generated histories over item tagging, k-enumeration (k ≤ 4, so the
    window truncates), message enumeration and :class:`ExplicitRelation`
    (no index: the queue's fallback scan), clean and corrupted.

Every corruption operator must make some check fire on the generated set:
a checker that never fires is untested.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.message import DataMessage, MessageId, View, ViewDelivery
from repro.core.obsolescence import (
    EmptyRelation,
    EnumerationEncoder,
    ExplicitRelation,
    ItemTagging,
    KEnumeration,
    KEnumerationEncoder,
    MessageEnumeration,
    ObsolescenceRelation,
)
from repro.core.spec import (
    CHECKS,
    HistoryRecorder,
    ProcessHistory,
    check_fifo_order,
)
from repro.scenario import builder
from repro.sweep import scenario_cell
from tests.scenario.test_fuzz_invariants import FUZZ_SEEDS, random_config

# ----------------------------------------------------------------------
# The reference: pairwise coverage scans, verbatim
# ----------------------------------------------------------------------


def _covered_in(
    m: DataMessage, pool: Sequence[DataMessage], relation: ObsolescenceRelation
) -> bool:
    return any(other.mid == m.mid or relation.obsoletes(other, m) for other in pool)


def check_svs(
    recorder: HistoryRecorder, relation: ObsolescenceRelation
) -> List[str]:
    violations: List[str] = []
    histories = recorder.all_histories()
    segment_cache = [h.segments() for h in histories]
    installed_cache = [
        [v.vid for v in h.installed_views()] for h in histories
    ]
    for pi, p in enumerate(histories):
        p_installed = installed_cache[pi]
        for vid in p_installed:
            if vid + 1 not in p_installed:
                continue  # p did not install the consecutive pair
            p_segment = segment_cache[pi].get(vid, [])
            for qi, q in enumerate(histories):
                if qi == pi:
                    continue
                q_installed = installed_cache[qi]
                if vid not in q_installed or vid + 1 not in q_installed:
                    continue
                # q's deliveries before installing vid+1 == segments <= vid.
                q_pool: List[DataMessage] = []
                for w in q_installed:
                    if w <= vid:
                        q_pool.extend(segment_cache[qi].get(w, []))
                q_mids = {m.mid for m in q_pool}
                for m in p_segment:
                    if m.mid in q_mids:
                        continue
                    if not _covered_in(m, q_pool, relation):
                        violations.append(
                            f"SVS: {p.pid} delivered {m} in view {vid} but "
                            f"{q.pid} installed view {vid + 1} without "
                            f"covering it"
                        )
    return violations


def check_fifo_cover(
    recorder: HistoryRecorder, relation: ObsolescenceRelation
) -> List[str]:
    violations: List[str] = []
    for history in recorder.all_histories():
        first_vid: Optional[int] = next(
            (
                e.view.vid
                for e in history.events
                if isinstance(e, ViewDelivery)
            ),
            None,
        )
        delivered_so_far: List[DataMessage] = []
        max_sn_from: Dict[int, int] = {}
        installs_seen = 0
        for event in history.events:
            if isinstance(event, DataMessage):
                delivered_so_far.append(event)
                cur = max_sn_from.get(event.sender, -1)
                if event.sn > cur:
                    max_sn_from[event.sender] = event.sn
                continue
            installs_seen += 1
            if installs_seen == 1:
                continue  # the initial view has no preceding segment
            for sender, sn_max in max_sn_from.items():
                for m in recorder.multicast_order.get(sender, []):
                    if m.sn >= sn_max:
                        break
                    if first_vid is not None and m.view_id < first_vid:
                        continue  # predates this incarnation's membership
                    if not _covered_in(m, delivered_so_far, relation):
                        violations.append(
                            f"FIFO(ii): {history.pid} installed view "
                            f"#{installs_seen - 1} having delivered up to "
                            f"sn {sn_max} of sender {sender} without "
                            f"covering {m}"
                        )
    return violations


Checker = Callable[[HistoryRecorder, ObsolescenceRelation], List[str]]

#: The reference for every shipped check: the pairwise scans where the
#: shipped code answers coverage through the index, the shipped code
#: itself where nothing changed.
REFERENCE: Dict[str, Checker] = {
    **CHECKS,
    "svs": check_svs,
    "fifo-sr": lambda r, rel: [
        *check_fifo_order(r, rel),
        *check_fifo_cover(r, rel),
    ],
    "fifo-cover": check_fifo_cover,
    "classic-vs": lambda r, rel: check_svs(r, EmptyRelation()),
}


def verdicts(
    checks: Dict[str, Checker],
    rec: HistoryRecorder,
    relation: ObsolescenceRelation,
) -> Dict[str, List[str]]:
    return {name: checker(rec, relation) for name, checker in checks.items()}


def assert_agree(rec: HistoryRecorder, relation: ObsolescenceRelation) -> None:
    assert verdicts(CHECKS, rec, relation) == verdicts(REFERENCE, rec, relation)


def test_reference_covers_every_check():
    assert set(REFERENCE) == set(CHECKS)


# ----------------------------------------------------------------------
# (a) The scenario fuzz suite's histories
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_recorders() -> List[Tuple[HistoryRecorder, ObsolescenceRelation]]:
    """Every fuzz configuration's recorder, captured at its spec check."""
    captured: List[Tuple[HistoryRecorder, ObsolescenceRelation]] = []
    real = builder.check_all

    def capture(recorder, relation, checks=None):
        captured.append((recorder, relation))
        return real(recorder, relation, checks=checks)

    with mock.patch.object(builder, "check_all", capture):
        for seed in FUZZ_SEEDS:
            scenario_cell(random_config(random.Random(seed)), seed=seed)
    assert len(captured) == len(FUZZ_SEEDS)
    return captured


def test_fuzz_histories_agree(fuzz_recorders):
    relations = {type(relation).__name__ for _rec, relation in fuzz_recorders}
    assert relations == {"ItemTagging", "EmptyRelation"}
    for rec, relation in fuzz_recorders:
        assert_agree(rec, relation)


def test_corrupted_fuzz_histories_agree(fuzz_recorders):
    rng = random.Random(29)
    for rec, relation in fuzz_recorders:
        if len({v.vid for h in rec.all_histories() for v in h.installed_views()}) < 2:
            continue  # no view boundary to corrupt around
        kind = "empty" if isinstance(relation, EmptyRelation) else "item-tagging"
        for op in OPERATORS.values():
            corrupted = op(rng, rec, kind)
            if corrupted is not None:
                assert_agree(corrupted, relation)


# ----------------------------------------------------------------------
# (b) Generated histories
# ----------------------------------------------------------------------

KINDS = ("item-tagging", "k-enumeration", "message-enumeration", "explicit")


def generate(
    rng: random.Random, kind: str
) -> Tuple[HistoryRecorder, ObsolescenceRelation]:
    """A clean random run: views, multicasts and per-process deliveries.

    Pid 0 survives every view; the others may crash, leaving the group
    (their last segment possibly cut short).  Each process delivers every
    message of each view it completes, except that it may skip (purge) one
    that a message it does deliver in the same view makes obsolete — so
    every check but ``classic-vs`` holds by construction.
    """
    n, n_views, k = rng.randint(2, 4), rng.randint(1, 4), rng.randint(1, 4)
    installs = {  # how many views each pid installs before it crashes
        pid: rng.randint(1, n_views) if pid and rng.random() < 0.4 else n_views
        for pid in range(n)
    }
    bitmaps = {s: KEnumerationEncoder(s, k) for s in range(n)}
    enumerations = {
        s: EnumerationEncoder(s, window=rng.choice([None, 3])) for s in range(n)
    }
    next_sn = dict.fromkeys(range(n), 0)
    multicasts: List[DataMessage] = []
    pairs: List[Tuple[MessageId, MessageId]] = []
    views: List[View] = []
    for vid in range(n_views):
        members = [pid for pid in range(n) if installs[pid] > vid]
        views.append(View(vid, frozenset(members)))
        for _ in range(rng.randint(0, 3 * len(members))):
            sender = rng.choice(members)
            mid = MessageId(sender, next_sn[sender])
            next_sn[sender] += 1
            own = [m.mid for m in multicasts if m.sender == sender][-6:]
            recent = [m.mid for m in multicasts][-8:]
            if kind == "item-tagging":
                annotation = rng.choice([None, 0, 1, 2])
            elif kind == "k-enumeration":
                direct = rng.sample(own, min(len(own), rng.randint(0, 2)))
                annotation = bitmaps[sender].annotate(mid.sn, [d.sn for d in direct])
            elif kind == "message-enumeration":
                direct = rng.sample(recent, min(len(recent), rng.randint(0, 2)))
                annotation = enumerations[sender].annotate(mid, direct)
            else:
                annotation = None
                olds = rng.sample(recent, min(len(recent), rng.randint(0, 2)))
                pairs += [(old, mid) for old in olds]
            multicasts.append(
                DataMessage(mid, vid, payload=len(multicasts), annotation=annotation)
            )
    relation: ObsolescenceRelation = {
        "item-tagging": ItemTagging(),
        "k-enumeration": KEnumeration(k),
        "message-enumeration": MessageEnumeration(),
        "explicit": ExplicitRelation(pairs),
    }[kind]

    rec = HistoryRecorder()
    for m in multicasts:
        rec.record_multicast(m.sender, m)
    for pid in range(n):
        for vid in range(installs[pid]):
            rec.record_delivery(pid, ViewDelivery(views[vid]))
            kept: List[DataMessage] = []
            for m in reversed([m for m in multicasts if m.view_id == vid]):
                if rng.random() < 0.5 and any(relation.obsoletes(x, m) for x in kept):
                    continue  # purged: a delivered message covers it
                kept.append(m)
            streams = {}
            for m in reversed(kept):
                streams.setdefault(m.sender, []).append(m)
            segment = []
            while streams:  # interleave the per-sender FIFO streams
                sender = rng.choice(sorted(streams))
                segment.append(streams[sender].pop(0))
                if not streams[sender]:
                    del streams[sender]
            if vid == installs[pid] - 1 < n_views - 1:
                segment = segment[: rng.randint(0, len(segment))]  # crashed
            for m in segment:
                rec.record_delivery(pid, m)
    return rec, relation


# Corruption operators: (rng, recorder, relation kind) -> a corrupted copy,
# or None when the history offers nothing to corrupt.


def _clone(rec: HistoryRecorder) -> HistoryRecorder:
    out = HistoryRecorder()
    out.multicasts = dict(rec.multicasts)
    out.multicast_order = {s: list(ms) for s, ms in rec.multicast_order.items()}
    out.histories = {
        pid: ProcessHistory(pid, list(h.events)) for pid, h in rec.histories.items()
    }
    out.retired = [ProcessHistory(h.pid, list(h.events)) for h in rec.retired]
    return out


def _data_positions(events) -> List[int]:
    return [i for i, e in enumerate(events) if isinstance(e, DataMessage)]


def _pick(
    rng: random.Random, rec: HistoryRecorder
) -> Optional[Tuple[HistoryRecorder, List]]:
    """A clone plus the events of one of its histories holding data."""
    out = _clone(rec)
    candidates = [h.events for h in out.all_histories() if _data_positions(h.events)]
    return (out, rng.choice(candidates)) if candidates else None


def _other_annotation(
    rng: random.Random, m: DataMessage, rec: HistoryRecorder, kind: str
):
    if kind == "item-tagging":
        return rng.choice([a for a in (None, 0, 1, 2, 3) if a != m.annotation])
    if kind == "k-enumeration":
        return rng.choice([b for b in range(16) if b != m.annotation])
    if kind == "message-enumeration":
        return frozenset(rng.sample(sorted(rec.multicasts), min(len(rec.multicasts), 2)))
    return "forged"


def drop(rng, rec, kind):
    picked = _pick(rng, rec)
    if picked:
        out, events = picked
        del events[rng.choice(_data_positions(events))]
        return out


def swap(rng, rec, kind):
    picked = _pick(rng, rec)
    if picked:
        out, events = picked
        pos = _data_positions(events)
        pairs = [
            (i, j)
            for i in pos
            for j in pos
            if i < j and events[i].sender == events[j].sender
        ]
        if pairs:
            i, j = rng.choice(pairs)
            events[i], events[j] = events[j], events[i]
            return out


def duplicate(rng, rec, kind):
    picked = _pick(rng, rec)
    if picked:
        out, events = picked
        i = rng.choice(_data_positions(events))
        events.insert(rng.randint(i + 1, len(events)), events[i])
        return out


def inject(rng, rec, kind):
    picked = _pick(rng, rec)
    if picked:
        out, events = picked
        m = events[rng.choice(_data_positions(events))]
        phantom = DataMessage(
            MessageId(m.sender, 10_000 + rng.randrange(100)),
            m.view_id,
            annotation=m.annotation,
        )
        events.insert(rng.randint(1, len(events)), phantom)
        return out


def tamper(rng, rec, kind):
    """Same mid, other annotation — in place of the copy, or next to it."""
    picked = _pick(rng, rec)
    if picked:
        out, events = picked
        i = rng.choice(_data_positions(events))
        forged = dataclasses.replace(
            events[i],
            annotation=_other_annotation(rng, events[i], out, kind),
            payload="forged",
        )
        if rng.random() < 0.5:
            events[i] = forged
        else:
            events.insert(rng.randint(i + 1, len(events)), forged)
        return out


def move(rng, rec, kind):
    """Carry one delivery over a neighbouring view boundary."""
    picked = _pick(rng, rec)
    if picked:
        out, events = picked
        i = rng.choice(_data_positions(events))
        boundaries = [
            b for b, e in enumerate(events) if b and isinstance(e, ViewDelivery)
        ]
        later = [b for b in boundaries if b > i][:1]  # into the next view
        earlier = [b for b in boundaries if b < i][-1:]  # into the previous
        if later or earlier:
            b = rng.choice(later + earlier)
            events.insert(b, events.pop(i))  # after the view, or before it
            return out


def split(rng, rec, kind):
    """Close a live history mid-run as if it crashed and rejoined: the new
    incarnation re-installs the current view and delivers the rest."""
    out = _clone(rec)
    cuts = [
        (pid, i)
        for pid, h in out.histories.items()
        if h.events and isinstance(h.events[0], ViewDelivery)
        for i in range(2, len(h.events))
    ]
    if cuts:
        pid, i = rng.choice(cuts)
        events = out.histories.pop(pid).events
        view = next(e for e in reversed(events[:i]) if isinstance(e, ViewDelivery))
        out.retired.append(ProcessHistory(pid, events[:i]))
        out.histories[pid] = ProcessHistory(pid, [view, *events[i:]])
        return out


OPERATORS = {
    "drop": drop,
    "swap": swap,
    "duplicate": duplicate,
    "inject": inject,
    "tamper": tamper,
    "move": move,
    "split": split,
}

#: Every check but classic-vs holds on a clean generated history.
SEMANTIC = [name for name in CHECKS if name != "classic-vs"]


@settings(max_examples=150, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    kind=st.sampled_from(KINDS),
    ops=st.lists(st.sampled_from(sorted(OPERATORS)), max_size=3),
)
def test_generated_histories_agree(rng, kind, ops):
    rec, relation = generate(rng, kind)
    assert all(CHECKS[name](rec, relation) == [] for name in SEMANTIC)
    for name in ops:
        rec = OPERATORS[name](rng, rec, kind) or rec
    assert_agree(rec, relation)


def test_every_operator_fires():
    """Over a fixed generated set each operator turns some clean history
    into one the shipped checkers flag — and the reference agrees."""
    rng = random.Random(2002)
    fired = dict.fromkeys(OPERATORS, 0)
    for round_ in range(240):
        kind = KINDS[round_ % len(KINDS)]
        rec, relation = generate(rng, kind)
        assert all(CHECKS[name](rec, relation) == [] for name in SEMANTIC)
        for name, op in OPERATORS.items():
            corrupted = op(rng, rec, kind)
            if corrupted is None:
                continue
            shipped = verdicts(CHECKS, corrupted, relation)
            assert shipped == verdicts(REFERENCE, corrupted, relation)
            fired[name] += any(shipped[check] for check in SEMANTIC)
    assert all(fired.values()), fired
