"""Reference cell runners: the runner contract, executable.

Pooled sweeps pickle their runner by reference, so a runner shared by
tests and examples must live at module level in an importable module.
These runners are that module — small, deterministic probes, and the
shortest worked examples of the contract
(``runner(params, seed, context) -> mapping of metrics``):

* :func:`arithmetic_cell` — a pure seeded computation; the minimal cell.
* :func:`failing_cell` — raises on a designated cell; exercises error
  propagation out of a pool worker.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Mapping

__all__ = [
    "arithmetic_cell",
    "failing_cell",
]


def _mix(params: Mapping[str, Any], seed: int) -> Dict[str, float]:
    """A deterministic scalar digest of (params, seed) — fake 'metrics'."""
    digest = hashlib.sha256()
    for key in sorted(params):
        digest.update(f"{key}={params[key]!r}|".encode())
    digest.update(str(seed).encode())
    word = int.from_bytes(digest.digest()[:8], "big")
    return {
        "value": (word % 10_000) / 100.0,
        "seed_echo": float(seed % 1_000_000),
    }


def arithmetic_cell(
    params: Mapping[str, Any], seed: int, context: Any = None
) -> Dict[str, float]:
    """Pure math: metrics are a hash of the cell identity (plus context)."""
    out = _mix(params, seed)
    if isinstance(context, Mapping) and "offset" in context:
        out["value"] += float(context["offset"])
    return out


def failing_cell(
    params: Mapping[str, Any], seed: int, context: Any = None
) -> Dict[str, float]:
    """Raise ``ValueError`` when ``params["x"] == params["fail_at"]``."""
    if params.get("x") == params.get("fail_at"):
        raise ValueError(f"designated failure at x={params.get('x')}")
    return _mix(params, seed)
