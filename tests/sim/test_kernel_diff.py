"""Recorded differential fixture: every run still serializes to the bytes
the reference per-destination engine produced.

``tests/fixtures/golden_engine_diff.json`` holds, for a fixed seeded list
of configurations, the sha256 of the canonical ``ScenarioResult`` JSON —
histories, metrics, violations, the lot.  It was recorded on the commit
before the batched multicast fan-out moved into :class:`~repro.sim.Network`
(one kernel event per multicast, then; one per destination), so replaying
it pins the batched path — and anything else that later touches the
kernel, the network or the stack — against that reference:

* **golden-fixture families** — the churn scenario that
  ``golden_churn.json`` pins (partitions, loss, a view change triggered
  mid-partition: the configuration that latches the batched path off) and
  the default-trace game workload family;
* **drawn configurations** — group size, latency model, relation, workload
  shape, consumption, drain and view change drawn from a seeded generator.

The fixture stores the configurations next to their digests, and the test
checks that list against :func:`entries`, so neither side can drift alone.
To re-record (only ever on a tree whose output is the reference)::

    PYTHONPATH=src python tests/sim/test_kernel_diff.py \
        > tests/fixtures/golden_engine_diff.json
"""

import hashlib
import json
import pathlib
import random
import sys

import pytest

from repro.scenario import Scenario

FIXTURE = (
    pathlib.Path(__file__).parent.parent / "fixtures" / "golden_engine_diff.json"
)

#: The space the drawn configurations come from.  The game workload
#: annotates with integer item tags, which the tagging/bitmap relations
#: accept; message-enumeration needs id *sets* (a different encoder, see
#: repro.analysis.throughput) and is pinned by ``golden_figure_4a.json``.
SPACE = {
    "n": [2, 3, 4, 5, 6],
    "relation": ["item-tagging", "empty", "k-enumeration"],
    "latency": ["constant", "uniform", "lognormal"],
    "players": [2, 3, 4],
    "consumers": [None, 80.0, 250.0],
    "drain": [None, 0.05, 0.2],
    "view_change_at": [None, 0.5],
}
DRAWN = 64
DRAW_SEED = 20020623


def _build_churn(config):
    from repro.analysis.experiments import CHURN_DEFAULTS as d
    from repro.core.spec import LOSSY_CHECKS

    return (
        Scenario()
        .group(
            n=d["n"],
            relation="item-tagging",
            consensus="oracle",
            seed=config["seed"],
            viewchange_retry=d["viewchange_retry"],
        )
        .workload("game", rounds=config["rounds"])
        .consumers(rate=d["consumer_rate"])
        .faults(
            "partition-churn",
            side=list(d["side"]),
            at=d["at"],
            period=1.0,
            cycles=d["cycles"],
            closed_fraction=d["closed_fraction"],
            loss=config["loss"],
            trigger_during_partition=True,
        )
        .check(checks=LOSSY_CHECKS)
        .histories()
        .collect("throughput", "view_changes", "network", "purges")
    )


def _build_default_trace(config):
    return (
        Scenario()
        .group(n=config["n"], relation="item-tagging", consensus="oracle",
               seed=config["seed"])
        .workload("game", players=config["players"], rounds=config["rounds"])
        .consumers(rate=config["consumers"])
        .histories()
        .collect("throughput", "purges", "network", "queue_depth")
    )


def _build_drawn(config):
    spec = (
        Scenario()
        .group(
            n=config["n"],
            relation=config["relation"],
            consensus="oracle",
            seed=config["seed"],
        )
        .latency(config["latency"])
        .workload("game", players=config["players"], rounds=config["rounds"])
        .histories()
        .collect("throughput", "purges", "network")
    )
    if config["consumers"] is not None:
        spec.consumers(rate=config["consumers"])
    if config["drain"] is not None:
        spec.drain_every(config["drain"])
    if config["view_change_at"] is not None:
        spec.view_change(at=config["view_change_at"])
    return spec


BUILDERS = {
    "churn": _build_churn,
    "default-trace": _build_default_trace,
    "drawn": _build_drawn,
}


def entries():
    """The fixed list of (name, builder key, config, until) to replay."""
    out = [
        ("churn", "churn", {"seed": 11, "rounds": 120, "loss": 0.05}, 6.0),
        ("default-trace", "default-trace",
         {"n": 5, "seed": 2002, "players": 5, "rounds": 120,
          "consumers": 150.0}, 6.0),
    ]
    rng = random.Random(DRAW_SEED)
    for i in range(DRAWN):
        config = {key: rng.choice(values) for key, values in SPACE.items()}
        config["seed"] = rng.randrange(2**31)
        config["rounds"] = rng.randint(5, 40)
        out.append((f"drawn-{i:02d}", "drawn", config, 2.0))
    return [
        {"name": name, "build": build, "config": config, "until": until}
        for name, build, config, until in out
    ]


def digest(entry):
    """sha256 of the canonical result JSON of one entry's run."""
    result = BUILDERS[entry["build"]](entry["config"]).run(entry["until"])
    data = result.to_dict()
    # The recording tree carried an engine selector in the config; the
    # digest is over everything else.
    data["config"].pop("engine", None)
    canonical = json.dumps(data, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# Not read when recording: the shell redirect has already truncated it.
RECORDED = (
    [] if __name__ == "__main__" else json.loads(FIXTURE.read_text())["entries"]
)


class TestRecordedDifferential:
    def test_fixture_lists_exactly_the_entries_replayed(self):
        recorded = [
            {k: v for k, v in entry.items() if k != "sha256"}
            for entry in RECORDED
        ]
        assert recorded == entries()
        assert len(recorded) >= 62

    def test_drawn_configs_cover_the_space(self):
        drawn = [e["config"] for e in entries() if e["build"] == "drawn"]
        for key, values in SPACE.items():
            assert {c[key] for c in drawn} == set(values), key

    @pytest.mark.parametrize(
        "entry", RECORDED, ids=lambda entry: entry["name"]
    )
    def test_replays_byte_identical(self, entry):
        assert digest(entry) == entry["sha256"], entry["config"]


if __name__ == "__main__":
    recorded = [dict(entry, sha256=digest(entry)) for entry in entries()]
    json.dump({"entries": recorded}, sys.stdout, indent=1)
    sys.stdout.write("\n")
