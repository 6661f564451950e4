"""Structured results of a scenario run, with a stable JSON form.

:class:`ScenarioResult` is what :meth:`repro.scenario.Scenario.run` returns:
the run's configuration, every collected metric, the per-process delivery
histories (in a compact serializable shape) and the verdicts of the
executable specification.  ``to_json``/``from_json`` round-trip losslessly,
so results can be archived as plain files and diffed across runs.

Histories are serialized down to message *identities* (sender, sequence
number, view) rather than payloads — payloads may be arbitrary application
objects, and identity is exactly what determinism and the SVS properties
are stated over.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from repro.core.message import ViewDelivery
from repro.core.spec import HistoryRecorder

__all__ = [
    "SCHEMA_VERSION",
    "ScenarioResult",
    "serialize_entry",
    "serialize_histories",
]

SCHEMA_VERSION = 1


def serialize_entry(entry: Any) -> Dict[str, Any]:
    """One delivery-queue entry as a JSON-safe dict."""
    if isinstance(entry, ViewDelivery):
        return {
            "kind": "view",
            "vid": entry.view.vid,
            "members": sorted(entry.view.members),
        }
    return {
        "kind": "data",
        "sender": entry.mid.sender,
        "sn": entry.mid.sn,
        "view": entry.view_id,
    }


def serialize_histories(recorder: HistoryRecorder) -> Dict[str, List[Dict[str, Any]]]:
    """Every process's delivery history, keyed by stringified pid.

    Rejoined processes contribute one history per incarnation: retired
    (pre-rejoin) incarnations appear under ``"<pid>@<k>"`` where ``k``
    counts rejoins in order, the live incarnation under the bare pid.
    Runs without rejoins serialize exactly as before.
    """
    out = {
        str(pid): [serialize_entry(e) for e in history.events]
        for pid, history in sorted(recorder.histories.items())
    }
    rejoins: Dict[int, int] = {}
    for history in recorder.retired:
        index = rejoins.get(history.pid, 0)
        rejoins[history.pid] = index + 1
        out[f"{history.pid}@{index}"] = [
            serialize_entry(e) for e in history.events
        ]
    return out


@dataclass
class ScenarioResult:
    """Everything one scenario run produced.

    ``metrics`` holds one entry per name passed to
    :meth:`~repro.scenario.Scenario.collect`; ``violations`` is ``None``
    when property checking was disabled, else the (hopefully empty) list of
    specification violations.
    """

    seed: int
    n: int
    duration: float
    config: Dict[str, Any]
    metrics: Dict[str, Any]
    histories: Dict[str, List[Dict[str, Any]]]
    violations: Optional[List[str]]
    schema_version: int = SCHEMA_VERSION

    @property
    def ok(self) -> bool:
        """True when no specification violation was recorded."""
        return not self.violations

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioResult":
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported ScenarioResult schema version: {version}"
            )
        return cls(
            seed=data["seed"],
            n=data["n"],
            duration=data["duration"],
            config=data["config"],
            metrics=data["metrics"],
            histories=data["histories"],
            violations=data["violations"],
            schema_version=version,
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioResult":
        return cls.from_dict(json.loads(text))

    @classmethod
    def read_json(cls, path: str) -> "ScenarioResult":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())
