"""Recorded heartbeat runs: quiet heartbeats leave every result byte alone.

``tests/fixtures/golden_heartbeat.json`` was recorded on the commit before
heartbeat arrivals could be deferred — when every beat was a kernel event
running the full delivery chain, and emission and checking were two owner
timers.  For each seeded :class:`~repro.scenario.Scenario` configuration
over the heartbeat detector it holds the sha256 of

* ``result.to_dict()``;
* every suspicion change of every detector, as
  ``(pid, peer, flag, instant as float.hex)`` in the order they happened;
* the network's ``messages_sent`` / ``messages_delivered`` and each
  channel's ``(sent, delivered, dropped)``;

plus the counts in the clear, so a mismatch says where to look.  The
configurations cross seeds, group sizes, constant and lognormal latency
and seven fault shapes: none, a crash, a partition that heals (suspicions
raised and recanted), lossy links on every stream (lost beats raise false
suspicions), a crash followed by a rejoin (``resume``), an exclusion
followed by a rejoin, and a perturbed consumer.  The excluded process is
not crashed, so its detector keeps checking while it joins, deaf to beats;
its first WELCOMEs are lost, so the join outlasts the timeout and it
suspects every peer before ``resume``.  The tier-1 grid is 56
configurations; the full 126 run behind ``slow``.

To re-record (only ever on a tree whose heartbeats are all events)::

    PYTHONPATH=src python tests/fd/test_heartbeat_equivalence.py \\
        > tests/fixtures/golden_heartbeat.json
"""

import hashlib
import itertools
import json
import pathlib
import sys

import pytest

from repro.core.message import WelcomeMessage
from repro.faults import Recover, ViewChange
from repro.scenario import Scenario

FIXTURE = pathlib.Path(__file__).parent.parent / "fixtures" / "golden_heartbeat.json"

SHAPES = (
    "none", "crash", "partition-heal", "lossy-links", "crash-rejoin",
    "exclude-rejoin", "perturb",
)
LATENCIES = ("constant", "lognormal")
UNTIL = 2.4


def grid(seeds, sizes):
    return [
        {"seed": seed, "n": n, "latency": latency, "shape": shape}
        for seed, n, latency, shape in itertools.product(
            seeds, sizes, LATENCIES, SHAPES
        )
    ]


#: The tier-1 grid, and the full one behind ``slow``.
TIER1 = grid((1, 2), (3, 8))
FULL = grid((1, 2, 3), (3, 5, 8))


def name_of(config):
    return "{seed}-n{n}-{latency}-{shape}".format(**config)


def build(config):
    n, shape = config["n"], config["shape"]
    spec = (
        Scenario()
        .group(n=n, relation="item-tagging", consensus="chandra-toueg",
               fd="heartbeat", seed=config["seed"], viewchange_retry=0.2)
        .latency(config["latency"])
        .workload("game", rounds=120, seed=config["seed"])
        .consumers(rate=80)
        .check(False)
        .collect("throughput", "purges", "view_changes", "network")
    )
    last = n - 1
    if shape == "crash":
        spec.crash(last, at=0.6)
    elif shape == "partition-heal":
        spec.faults("partition-heal", at=0.5, duration=0.5, side=[last])
    elif shape == "lossy-links":
        spec.faults("lossy-links", loss=0.35, at=0.3, until=1.3, data_only=False)
    elif shape == "crash-rejoin":
        spec.faults("crash-rejoin", pid=last, crash_at=0.5, rejoin_at=1.2)
    elif shape == "exclude-rejoin":
        spec.faults([
            ViewChange(at=0.5, pid=0, leave=(last,)),
            Recover(at=1.0, pid=last, retry=0.2),
        ])
    elif shape == "perturb":
        spec.perturb(1, at=0.4, duration=0.6)
    return spec


def sha(obj):
    canonical = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def project(config):
    """Run one configuration; its projection, digested, counts in the clear."""
    live = build(config).build()
    sim, network = live.sim, live.stack.network
    if config["shape"] == "exclude-rejoin":
        # Lose the join's WELCOMEs; the watchdog's re-send at 1.2 lands.
        network.set_drop_filter(
            lambda src, dst, payload: sim.now < 1.1
            and isinstance(payload.body, WelcomeMessage)
        )
    changes = []
    for pid, proc in sorted(live.stack.processes.items()):
        proc.fd.subscribe(
            lambda peer, flag, pid=pid: changes.append(
                [pid, peer, flag, sim.now.hex()]
            )
        )
    result = live.run(UNTIL)
    pids = range(config["n"])
    channels = []
    for src, dst in itertools.product(pids, pids):
        stats = network.channel_stats(src, dst)
        channels.append([src, dst, stats.sent, stats.delivered, stats.dropped])
    return {
        "result": sha(result.to_dict()),
        "suspicions": sha(changes),
        "network": sha(
            [network.messages_sent, network.messages_delivered, channels]
        ),
        "suspicion_changes": len(changes),
        "messages_sent": network.messages_sent,
        "messages_delivered": network.messages_delivered,
    }


def record(configs):
    return {name_of(config): project(config) for config in configs}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_full_grid(golden):
    assert set(golden) == {name_of(config) for config in FULL}
    # Half the grid changes a suspicion: the lanes close and reopen.
    assert sum(bool(entry["suspicion_changes"]) for entry in golden.values()) >= 40
    # Every excluded joiner suspects its peers while it waits for WELCOME.
    assert all(
        entry["suspicion_changes"]
        for name, entry in golden.items()
        if name.endswith("exclude-rejoin")
    )


@pytest.mark.parametrize("config", TIER1, ids=name_of)
def test_replays_recorded_run(config, golden):
    assert project(config) == golden[name_of(config)]


@pytest.mark.slow
@pytest.mark.parametrize(
    "config", [c for c in FULL if c not in TIER1], ids=name_of
)
def test_replays_recorded_run_full_grid(config, golden):
    assert project(config) == golden[name_of(config)]


if __name__ == "__main__":
    json.dump(record(FULL), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
