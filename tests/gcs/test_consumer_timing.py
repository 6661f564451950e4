"""Recorded consumer timing: the wake-on-work consumer serves the same
entries at the same instants as the poll loop it replaced.

``tests/fixtures/golden_consumer_timing.json`` was recorded on the commit
before :class:`~repro.gcs.endpoint.RateLimitedConsumer` learned to sleep on
an empty queue — when it was a poll loop re-arming every ``1/rate`` seconds
whatever the queue held, at kernel priority 0.  For each seeded
:class:`~repro.scenario.Scenario` configuration it holds the sha256 of

* the **global** delivery log — ``(pid, instant as float.hex, entry id)``
  in execution order;
* the **per-process** logs — the same entries grouped by pid, so a change
  in cross-member order at one instant does not show here;
* the result **metrics** (throughput, purges, queue depth when collected);

plus every field of :func:`~repro.analysis.viewchange.measure_view_change_latency`
for the semantic and the reliable protocol at its defaults, floats as
``float.hex``.

The proof has three links:

1. :class:`ReferenceConsumer` is that poll loop, parametrised by the tick
   priority.  Patched in with priority 0 it replays the fixture exactly,
   so it *is* the loop the fixture was recorded with.
2. The shipped consumer ticks with ``priority = 1 + pid`` (after every
   protocol event at the same instant, in pid order) and must equal the
   reference under that same rule on every fixture configuration — full
   logs and metrics — while each of its ticks lands on an instant, exact to
   the float, at which the reference also ticked.
3. Hypothesis draws more configurations from the same space, plus
   injections placed exactly on a consumer's service lattice and zero-delay
   links, so self-deliveries and network deliveries tie with service ticks.

To re-record (only ever on a tree whose consumer is the reference poll
loop)::

    PYTHONPATH=src python tests/gcs/test_consumer_timing.py \\
        > tests/fixtures/golden_consumer_timing.json
"""

import contextlib
import dataclasses
import functools
import hashlib
import json
import pathlib
import random
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.scenario.builder as builder
from repro.core.message import ViewDelivery
from repro.gcs.endpoint import RateLimitedConsumer
from repro.scenario import Scenario

FIXTURE = (
    pathlib.Path(__file__).parent.parent / "fixtures" / "golden_consumer_timing.json"
)

#: The space the configurations are drawn from.  Process 1 is the slow
#: and the perturbed member; "receiver" crashes the highest pid, "sender"
#: crashes process 0 (the workload sender), "short" crashes the highest pid
#: for less than one of its service periods.
SPACE = {
    "n": [2, 3, 4, 5],
    "relation": ["item-tagging", "empty"],
    "latency": ["constant", "lognormal"],
    "consensus": ["oracle", "chandra-toueg"],
    "rate": [20.0, 40.0, 80.0, 250.0, 1000.0, 10000.0],
    "slow": [None, 25.0, 60.0],
    "perturb": [None, "overlap", "short"],
    "crash": [None, "sender", "receiver", "short"],
    "crash_at": [0.45, 1.7, 1.73],
    "queue_depth": [False, True],
}
DRAWN = 64
DRAW_SEED = 20021025
UNTIL = 2.2


def rate_of(config, pid):
    if pid == 1 and config["slow"] is not None:
        return config["slow"]
    return config["rate"]


def lattice(rate, k):
    """The k-th service instant after a start at 0: accumulated addition."""
    at, step = 0.0, 1.0 / rate
    for _ in range(k):
        at += step
    return at


def build(config):
    """The Scenario for one configuration (not yet carrying the log hook)."""
    n = config["n"]
    spec = (
        Scenario()
        .group(n=n, relation=config["relation"], consensus=config["consensus"],
               seed=config["seed"])
        .workload("game", rounds=config["rounds"], seed=config["seed"] % 1000)
        .consumers(rate=config["rate"])
        .check(False)
        .collect("throughput", "purges")
    )
    if config["latency"] == "zero":
        spec.latency("constant", latency=0.0)
    else:
        spec.latency(config["latency"])
    if config["slow"] is not None:
        spec.consumers(rate=config["slow"], pids=[1])
    if config["perturb"] == "overlap":
        spec.perturb(1, at=0.2, duration=0.35).perturb(1, at=0.4, duration=0.3)
    elif config["perturb"] == "short":
        spec.perturb(1, at=0.3, duration=0.4 / rate_of(config, 1))
    at = config["crash_at"]
    if config["crash"] == "sender":
        spec.crash(0, at=at).recover(0, at=at + 0.2)
    elif config["crash"] == "receiver":
        spec.crash(n - 1, at=at).recover(n - 1, at=at + 0.2)
    elif config["crash"] == "short":
        spec.crash(n - 1, at=at).recover(
            n - 1, at=at + 0.3 / rate_of(config, n - 1)
        )
    if config["queue_depth"]:
        spec.collect("queue_depth")
    for sender, k in config.get("inject", ()):
        spec.inject(lattice(rate_of(config, sender), k), payload=f"i{k}",
                    annotation=k % 3, sender=sender)
    return spec


def configs():
    """The fixed list of configurations the fixture pins."""
    rng = random.Random(DRAW_SEED)
    out = []
    for i in range(DRAWN):
        config = {key: rng.choice(values) for key, values in SPACE.items()}
        config["seed"] = rng.randrange(2**31)
        config["rounds"] = rng.randint(15, 45)
        out.append({"name": f"drawn-{i:02d}", "config": config})
    return out


def entry_id(entry):
    if isinstance(entry, ViewDelivery):
        return f"v{entry.view.vid}"
    return f"m{entry.mid.sender}.{entry.mid.sn}"


def sha(obj):
    canonical = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@contextlib.contextmanager
def consumer_class(cls, ticks):
    """Build scenarios with ``cls`` (None: the shipped consumer) and record
    every tick as ``(pid, instant)`` into ``ticks`` (None: don't)."""
    with contextlib.ExitStack() as stack:
        if cls is not None:
            stack.enter_context(
                mock.patch.object(builder, "RateLimitedConsumer", cls)
            )
        if ticks is not None:
            target = cls.func if isinstance(cls, functools.partial) else cls
            target = target or RateLimitedConsumer
            original = target._tick

            def _tick(self):
                ticks.append((self.endpoint.pid, self.sim.now))
                original(self)

            stack.enter_context(mock.patch.object(target, "_tick", _tick))
        yield


def run(config, cls=None, ticks=None):
    """Run one configuration; returns its delivery logs and metrics."""
    log = []
    box = {}

    def on_deliver(pid, entry):
        log.append([pid, box["sim"].now.hex(), entry_id(entry)])

    with consumer_class(cls, ticks):
        live = build(config).listeners(on_deliver=on_deliver).build()
        box["sim"] = live.sim
        result = live.run(UNTIL, drain=False)
    per_process = {}
    for pid, instant, ident in log:
        per_process.setdefault(str(pid), []).append([instant, ident])
    return {"global": log, "per_process": per_process, "metrics": result.metrics}


def digests(outcome):
    return {key: sha(value) for key, value in outcome.items()}


def view_change_fields():
    """Every field of the §5.4 measurement at its defaults, floats hexed."""
    from repro.analysis.experiments import default_trace
    from repro.analysis.viewchange import measure_view_change_latency

    def canonical(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return {str(k): canonical(v) for k, v in value.items()}
        return value

    out = {}
    for semantic in (False, True):
        result = measure_view_change_latency(default_trace(), semantic=semantic)
        out["semantic" if semantic else "reliable"] = canonical(
            dataclasses.asdict(result)
        )
    return out


# ----------------------------------------------------------------------
# The reference: the poll loop the fixture was recorded with
# ----------------------------------------------------------------------


class ReferenceConsumer:
    """The poll loop: one tick every ``1/rate`` whatever the queue holds,
    at kernel priority ``priority(pid)``; dies on observing a crash."""

    def __init__(self, sim, endpoint, rate, priority):
        self.sim, self.endpoint, self.rate = sim, endpoint, rate
        self.paused, self.consumed = False, 0
        self._started = self._dead = False
        self._priority = priority(endpoint.pid)

    def start(self):
        if not self._started:
            self._started = True
            self._arm()

    def pause(self):
        self.paused = True

    def resume(self):
        self.paused = False

    def restart(self):
        if self._started and self._dead and not self.endpoint.process.crashed:
            self._dead = False
            self._arm()

    def _arm(self):
        self.sim.schedule(1.0 / self.rate, self._tick, priority=self._priority)

    def _tick(self):
        if self.endpoint.process.crashed:
            self._dead = True
            return
        if not self.paused and self.endpoint.pending:
            self.endpoint.poll()
            self.consumed += 1
        self._arm()


def reference(priority):
    return functools.partial(ReferenceConsumer, priority=priority)


PARENT_RULE = reference(lambda pid: 0)
TIE_RULE = reference(lambda pid: 1 + pid)


# Not read when recording: the shell redirect has already truncated it.
RECORDED = {} if __name__ == "__main__" else json.loads(FIXTURE.read_text())
ENTRIES = RECORDED.get("configs", [])


def assert_same_as_reference(config):
    ref_ticks, ticks = [], []
    expected = run(config, TIE_RULE, ref_ticks)
    actual = run(config, None, ticks)
    assert actual["global"] == expected["global"], config
    assert actual["metrics"] == expected["metrics"], config
    # Every tick the sleeping consumer ran is one the poll loop ran too,
    # at the very same float: wake-ups land on the lattice exactly.
    assert set(ticks) <= set(ref_ticks), config


class TestRecordedTiming:
    def test_fixture_lists_exactly_the_configs_replayed(self):
        recorded = [
            {"name": e["name"], "config": e["config"]} for e in ENTRIES
        ]
        assert recorded == configs()
        assert len(recorded) >= 60

    def test_configs_cover_the_space(self):
        drawn = [e["config"] for e in configs()]
        for key, values in SPACE.items():
            assert {c[key] for c in drawn} == set(values), key

    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e["name"])
    def test_reference_replays_the_recorded_poll_loop(self, entry):
        outcome = digests(run(entry["config"], PARENT_RULE))
        recorded = {k: entry[k] for k in ("global", "per_process", "metrics")}
        assert outcome == recorded, entry["config"]

    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e["name"])
    def test_consumer_equals_reference_under_the_tie_rule(self, entry):
        assert_same_as_reference(entry["config"])


def drawn_configs():
    """The fixture's space, plus zero-delay links and injections placed on
    the sender's own service lattice (its self-delivery ties a tick)."""
    space = dict(SPACE, latency=SPACE["latency"] + ["zero"])
    return st.fixed_dictionaries({
        **{key: st.sampled_from(values) for key, values in space.items()},
        "seed": st.integers(0, 2**31 - 1),
        "rounds": st.integers(15, 45),
        "inject": st.lists(
            st.tuples(st.integers(0, 1), st.integers(1, 40)), max_size=6
        ),
    })


class TestTieRuleProperty:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config=drawn_configs())
    def test_consumer_equals_reference_under_the_tie_rule(self, config):
        assert_same_as_reference(config)


class TestViewChangeTiming:
    def test_measurement_replays_the_recorded_fields(self):
        assert view_change_fields() == RECORDED["view_change"]


if __name__ == "__main__":
    entries = [
        dict(entry, **digests(run(entry["config"]))) for entry in configs()
    ]
    json.dump(
        {"configs": entries, "view_change": view_change_fields()},
        sys.stdout,
        indent=1,
        sort_keys=True,
    )
    sys.stdout.write("\n")
