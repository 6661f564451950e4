"""Named component registries — the pluggable backbone of the Scenario API.

Every substitutable building block of the stack is looked up by name in one
of five registries, so third-party backends plug in with a decorator instead
of editing :mod:`repro.gcs.stack`:

* :data:`latency_models` — ``factory(sim, **params) -> LatencyModel``;
* :data:`relations` — ``factory(**params) -> ObsolescenceRelation``;
* :data:`consensus_protocols` — ``factory(stack) -> ConsensusFactory``,
  called with the :class:`~repro.gcs.stack.GroupStack` under construction
  (its ``sim``, ``config`` and ``network`` exist; its processes do not
  yet).  The factory may stash shared state on the stack (the oracle hub
  does, as ``stack.oracle_hub``);
* :data:`failure_detectors` — ``factory(stack) -> FDWiring``: the wiring
  names the object handed to every :class:`~repro.core.svs.SVSProcess`
  (a shared detector instance or a per-process factory) plus a
  ``finalize(stack)`` hook run once all processes exist;
* :data:`workloads` — ``factory(**params) -> Trace``;
* :data:`fault_profiles` — ``factory(**params) -> FaultPlan``: named,
  parameterised fault schedules (see :mod:`repro.faults`), usable from
  ``Scenario.faults("partition-heal", ...)`` and as sweep axes;
* :data:`transports` — ``factory(clock, **params) -> Transport``:
  wall-clock transport backends (see :mod:`repro.transport`) behind
  ``Scenario.transport("loopback"|"udp", ...)``.

Registering is one decorator::

    from repro.registry import latency_models

    @latency_models.register("pareto")
    def _pareto(sim, scale=0.001, alpha=2.5):
        return ParetoLatency(sim, scale, alpha)

after which ``StackConfig(latency_model="pareto")`` and
``Scenario().latency("pareto", scale=0.002)`` both work, with no change to
the core.  The built-in components register themselves from their defining
modules (:mod:`repro.sim.network`, :mod:`repro.core.obsolescence`,
:mod:`repro.consensus`, :mod:`repro.fd.detector`, :mod:`repro.workload`).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

__all__ = [
    "Registry",
    "RegistryError",
    "FDWiring",
    "latency_models",
    "relations",
    "consensus_protocols",
    "failure_detectors",
    "workloads",
    "fault_profiles",
    "transports",
]


class RegistryError(ValueError):
    """Unknown name, or a conflicting registration."""


class Registry:
    """A name → factory mapping with decorator registration and aliases.

    ``kind`` names what the registry holds ("consensus protocol", ...) and
    appears in error messages; ``contract`` documents the expected factory
    signature for introspection (``repr`` and docs).
    """

    def __init__(self, kind: str, contract: str = "") -> None:
        self.kind = kind
        self.contract = contract
        self._factories: Dict[str, Callable[..., Any]] = {}
        self._canonical: List[str] = []
        # key (canonical or alias) -> canonical name of its registration,
        # so unregistering any key removes the whole registration.
        self._owner: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(
        self,
        name: str,
        factory: Optional[Callable[..., Any]] = None,
        *,
        aliases: Sequence[str] = (),
        override: bool = False,
    ):
        """Register ``factory`` under ``name`` (and ``aliases``).

        Usable directly (``registry.register("x", make_x)``) or as a
        decorator (``@registry.register("x")``).  Re-registering a taken
        name raises unless ``override=True``.
        """

        def _do(fn: Callable[..., Any]) -> Callable[..., Any]:
            keys = (name, *aliases)
            # Validate every key before touching any state, so a rejected
            # registration leaves the registry exactly as it was.
            for key in keys:
                if not key or not isinstance(key, str):
                    raise RegistryError(f"invalid {self.kind} name: {key!r}")
                if key in self._factories and not override:
                    raise RegistryError(
                        f"{self.kind} {key!r} is already registered "
                        f"(pass override=True to replace it)"
                    )
            for key in keys:
                self._factories[key] = fn
                self._owner[key] = name
            if name not in self._canonical:
                self._canonical.append(name)
            return fn

        if factory is None:
            return _do
        return _do(factory)

    def unregister(self, name: str) -> None:
        """Remove a registration — canonical name *and* its aliases —
        given any of its keys; used mostly by tests."""
        if name not in self._factories:
            raise RegistryError(f"unknown {self.kind}: {name!r}")
        canonical = self._owner[name]
        for key in [k for k, owner in self._owner.items() if owner == canonical]:
            del self._factories[key]
            del self._owner[key]
        if canonical in self._canonical:
            self._canonical.remove(canonical)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, name: str) -> Callable[..., Any]:
        """Return the factory for ``name``; raise with the known names and,
        when one is close enough, a did-you-mean suggestion."""
        try:
            return self._factories[name]
        except KeyError:
            known = ", ".join(self.names()) or "<none>"
            hint = ""
            if isinstance(name, str) and self._factories:
                # Match against every key (aliases included) so a typo of
                # an alias still resolves to a useful suggestion.
                close = difflib.get_close_matches(
                    name, list(self._factories), n=1, cutoff=0.5
                )
                if close:
                    hint = f"; did you mean {close[0]!r}?"
            raise RegistryError(
                f"unknown {self.kind}: {name!r} (registered: {known}){hint}"
            ) from None

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Look up ``name`` and call its factory with the given arguments."""
        return self.get(name)(*args, **kwargs)

    def names(self) -> List[str]:
        """Canonical names, in registration order."""
        return list(self._canonical)

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self._canonical)

    def __len__(self) -> int:
        return len(self._canonical)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Registry({self.kind!r}, names={self.names()})"


@dataclass
class FDWiring:
    """How a failure-detector backend plugs into a :class:`GroupStack`.

    ``fd`` is what each :class:`~repro.core.svs.SVSProcess` receives: a
    shared :class:`~repro.fd.detector.FailureDetector` instance, or a
    one-argument factory called with the owning process.  ``finalize`` runs
    once after every process is constructed (start timers, learn the
    membership, ...).
    """

    fd: Any
    finalize: Callable[[Any], None] = field(default=lambda stack: None)


latency_models = Registry(
    "latency model", "factory(sim, **params) -> LatencyModel"
)
relations = Registry(
    "obsolescence relation", "factory(**params) -> ObsolescenceRelation"
)
consensus_protocols = Registry(
    "consensus protocol", "factory(stack) -> ConsensusFactory"
)
failure_detectors = Registry(
    "failure detector", "factory(stack) -> FDWiring"
)
workloads = Registry("workload", "factory(**params) -> Trace")
fault_profiles = Registry("fault profile", "factory(**params) -> FaultPlan")
transports = Registry("transport", "factory(clock, **params) -> Transport")
