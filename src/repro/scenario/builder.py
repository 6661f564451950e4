"""Declarative experiment sessions over the group communication stack.

The paper's evaluation is a matrix of scenarios — protocol × relation ×
workload × perturbation schedule.  :class:`Scenario` expresses one cell of
that matrix declaratively instead of hand-wiring simulator, processes,
consumers, schedules and collectors::

    from repro import Scenario

    result = (
        Scenario()
        .group(n=5, relation="item-tagging", consensus="oracle")
        .latency("lognormal", mean=0.001)
        .workload("game", rounds=600)
        .consumers(rate=120)
        .perturb(pid=2, at=5.0, duration=1.0)
        .crash(pid=4, at=8.0)
        .collect("throughput", "queue_depth", "view_changes")
        .run(until=30.0)
    )
    assert result.ok          # the executable specification held
    result.write_json("run.json")

Every named component (relation, consensus, failure detector, latency
model, workload) is resolved through :mod:`repro.registry`, so anything a
third party registers is immediately usable here.

For experiments that need imperative access — custom callbacks, mid-run
triggers — :meth:`Scenario.build` returns a :class:`LiveScenario` exposing
the wired ``stack``, ``endpoints``, ``consumers`` and ``sim`` before
anything runs; :meth:`LiveScenario.run` then produces the same
:class:`~repro.scenario.result.ScenarioResult`.

A note on naming: :class:`LiveScenario` is the *built-but-not-yet-run
session* — "live" as in "live objects you can poke", not as in wall-clock
execution.  It exists for every scenario, simulated or not.  A *live
transport run* is the separate, opt-in thing selected with
:meth:`Scenario.transport`: the same wired session executed in real time
over :mod:`repro.transport` (asyncio loopback or UDP) instead of the
discrete-event kernel.  Either way, :meth:`LiveScenario.run` returns the
same result shape and applies the same executable-specification checks.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.message import View
from repro.core.obsolescence import ObsolescenceRelation
from repro.core.spec import CHECKS, check_all
from repro.core.svs import SVSListeners
from repro.faults.plan import (
    Crash as CrashEvent,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
    Perturb as PerturbEvent,
    Recover as RecoverEvent,
    ViewChange as ViewChangeEvent,
)
from repro.gcs.endpoint import GroupEndpoint, RateLimitedConsumer
from repro.gcs.stack import GroupStack, StackConfig
from repro.metrics.collectors import TimeWeightedStat
from repro.registry import (
    fault_profiles as fault_profile_registry,
    relations as relation_registry,
    workloads as workload_registry,
)
from repro.scenario.result import ScenarioResult, serialize_histories
from repro.sim.failure import Perturbation
from repro.workload.trace import Trace, annotated_messages

__all__ = ["Scenario", "LiveScenario", "ScenarioError", "KNOWN_METRICS"]

#: Metric names accepted by :meth:`Scenario.collect`.
KNOWN_METRICS = (
    "throughput",
    "queue_depth",
    "view_changes",
    "purges",
    "network",
)


class ScenarioError(ValueError):
    """An inconsistent or invalid scenario specification."""


# Named workloads are pure functions of (name, generation params); sweep
# cells that share a workload spec would otherwise regenerate the same
# trace once per (cell, replicate).  Traces are replayed read-only, so one
# instance can serve every cell of a worker process — and sharing the
# instance also lets downstream per-trace caches (annotation memoisation)
# hit across cells.
_workload_cache: Dict[str, Trace] = {}


def _cached_workload(name: str, params: Dict[str, Any]) -> Trace:
    key = json.dumps({"name": name, "params": params}, sort_keys=True, default=repr)
    trace = _workload_cache.get(key)
    if trace is None:
        trace = workload_registry.create(name, **params)
        _workload_cache[key] = trace
    return trace


@dataclass(frozen=True)
class _Injection:
    at: float
    payload: Any
    annotation: Any
    sender: int


@dataclass(frozen=True)
class _TraceWorkload:
    trace: Trace
    sender: int
    representation: Optional[str]
    k: Optional[int]
    start: Optional[float]


class Scenario:
    """Fluent builder for one experiment session.

    Every method returns ``self`` so calls chain; nothing is constructed
    until :meth:`build` (or :meth:`run`, which builds implicitly).
    """

    def __init__(self) -> None:
        self._n = 3
        self._seed = 0
        self._relation: Union[ObsolescenceRelation, str] = "item-tagging"
        self._relation_params: Dict[str, Any] = {}
        self._relation_explicit = False
        self._consensus = "chandra-toueg"
        self._fd = "oracle"
        self._config_kwargs: Dict[str, Any] = {}
        self._latency_model: Optional[str] = None
        self._latency_params: Dict[str, Any] = {}
        self._trace_workload: Optional[_TraceWorkload] = None
        self._injections: List[_Injection] = []
        self._drivers: List[Callable[["LiveScenario"], None]] = []
        self._consumer_specs: List[Tuple[Optional[Tuple[int, ...]], float]] = []
        self._drain_period: Optional[float] = None
        self._perturbations: List[Tuple[int, Perturbation]] = []
        self._crashes: List[Tuple[int, float]] = []
        self._recovers: List[RecoverEvent] = []
        self._view_changes: List[Tuple[int, float]] = []
        self._fault_plans: List[FaultPlan] = []
        self._metrics: List[str] = []
        self._sample_period = 0.05
        self._check = True
        self._check_names: Optional[Tuple[str, ...]] = None
        self._histories: Optional[bool] = None
        self._listener_hooks: Dict[str, Callable[..., None]] = {}
        self._view_hooks: List[Callable[[int, View], None]] = []
        self._transport: Optional[Tuple[str, Dict[str, Any]]] = None
        self._runtime_params: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Group composition
    # ------------------------------------------------------------------

    def group(
        self,
        n: Optional[int] = None,
        relation: Optional[Union[ObsolescenceRelation, str]] = None,
        consensus: Optional[str] = None,
        fd: Optional[str] = None,
        seed: Optional[int] = None,
        relation_params: Optional[Dict[str, Any]] = None,
        **config_kwargs: Any,
    ) -> "Scenario":
        """Set group size, obsolescence relation and substrate backends.

        ``relation``, ``consensus`` and ``fd`` accept registry names (or, for
        the relation, an instance).  Extra keyword arguments pass straight
        through to :class:`~repro.gcs.stack.StackConfig`
        (``stability_interval=0.1``, ``fd_delay=0.02``, ...).
        """
        if n is not None:
            if n < 1:
                raise ScenarioError("a group needs at least one member")
            self._n = n
        if relation is not None:
            if isinstance(relation, str):
                relation_registry.get(relation)  # fail fast on unknown names
            self._relation = relation
            self._relation_explicit = True
        if relation_params is not None:
            self._relation_params = dict(relation_params)
        if consensus is not None:
            self._consensus = consensus
        if fd is not None:
            self._fd = fd
        if seed is not None:
            self._seed = seed
        self._config_kwargs.update(config_kwargs)
        return self

    def latency(self, model: str, **params: Any) -> "Scenario":
        """Pick a registered latency model (``"constant"``, ``"uniform"``,
        ``"lognormal"``, or anything third parties registered)."""
        self._latency_model = model
        self._latency_params = dict(params)
        return self

    def transport(
        self,
        backend: str = "loopback",
        runtime: Optional[Dict[str, Any]] = None,
        **params: Any,
    ) -> "Scenario":
        """Execute this scenario *live*, in wall-clock time, over a
        registered transport backend instead of the discrete-event kernel.

        ``backend`` names an entry of :data:`repro.registry.transports` —
        ``"loopback"`` (in-process asyncio fabric, optionally with emulated
        latency/jitter/loss/duplication via ``params``) or ``"udp"`` (real
        datagram sockets; pass ``n=...`` or an explicit ``peers`` map).
        ``runtime`` tunes the liveness layer
        (:class:`repro.transport.runtime.LiveRuntime`: sync beacon
        interval/jitter, retransmission backoff, send-log bounds).

        Everything else about the scenario — workloads, consumers, fault
        plans, metrics, the executable-specification check — is unchanged;
        :meth:`run`'s ``until`` simply becomes wall-clock seconds.  Live
        runs keep the protocol's *safety* guarantees but are not
        event-for-event reproducible; see ``docs/transport.md``.  Not
        combinable with :meth:`latency` (link timing belongs to the
        transport backend in a live run).
        """
        # Import here so simulation-only users never pay for (or depend
        # on) the transport package; the import also registers backends.
        from repro.transport import transports

        transports.get(backend)  # fail fast on unknown names
        self._transport = (backend, dict(params))
        self._runtime_params = dict(runtime or {})
        return self

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------

    def workload(
        self,
        source: Union[Trace, str, Callable[["LiveScenario"], None]],
        *,
        sender: int = 0,
        representation: Optional[str] = None,
        k: Optional[int] = None,
        start: Optional[float] = None,
        **params: Any,
    ) -> "Scenario":
        """Drive the group with a workload.

        ``source`` may be:

        * a :class:`~repro.workload.trace.Trace` — replayed from ``sender``
          at its recorded timestamps;
        * a registered workload name (``"game"``, ``"periodic-updates"``,
          ...) — generated with ``params`` then replayed;
        * a callable — invoked with the :class:`LiveScenario` at build time
          to schedule arbitrary custom traffic.

        For traces, ``representation=None`` (default) annotates each
        obsolescible message with its item tag (pair with an item-tagging
        relation); naming a representation (``"k-enumeration"``, ...)
        pre-encodes the trace with :func:`~repro.workload.trace.to_data_messages`
        and, unless a relation was set explicitly, adopts the encoder's
        relation.
        """
        if callable(source) and not isinstance(source, (Trace, str)):
            if (
                sender != 0
                or representation is not None
                or k is not None
                or start is not None
                or params
            ):
                raise ScenarioError(
                    "sender/representation/k/start and generation parameters "
                    "only apply to trace workloads, not callable drivers"
                )
            self._drivers.append(source)
            return self
        if isinstance(source, str):
            source = _cached_workload(source, dict(params))
        elif params:
            raise ScenarioError(
                "workload generation parameters only apply to named workloads"
            )
        if not isinstance(source, Trace):
            raise ScenarioError(
                f"workload source must be a Trace, a registered name or a "
                f"callable, got {type(source).__name__}"
            )
        if self._trace_workload is not None:
            raise ScenarioError("only one trace workload per scenario")
        if start is not None and start < 0:
            raise ScenarioError(f"workload start must be non-negative: {start}")
        self._trace_workload = _TraceWorkload(
            trace=source,
            sender=sender,
            representation=representation,
            k=k,
            start=start,
        )
        return self

    def inject(
        self,
        at: float,
        payload: Any,
        annotation: Any = None,
        sender: int = 0,
    ) -> "Scenario":
        """Multicast one explicit message at an absolute simulated time."""
        if at < 0:
            raise ScenarioError(f"injection time must be non-negative: {at}")
        self._injections.append(_Injection(at, payload, annotation, sender))
        return self

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------

    def consumers(
        self, rate: float, pids: Optional[Sequence[int]] = None
    ) -> "Scenario":
        """Attach rate-limited consumers (``rate`` messages/second).

        With ``pids=None`` every member gets one; later calls override
        earlier ones per pid, so ``.consumers(rate=5000).consumers(rate=30,
        pids=[2])`` means "everyone fast, process 2 slow"."""
        if rate <= 0:
            raise ScenarioError(f"consumer rate must be positive: {rate}")
        self._consumer_specs.append(
            (tuple(pids) if pids is not None else None, float(rate))
        )
        return self

    def drain_every(self, period: float) -> "Scenario":
        """Bulk-drain every live process's queue at a fixed period —
        the cheap stand-in for "all consumers keep up easily"."""
        if period <= 0:
            raise ScenarioError(f"drain period must be positive: {period}")
        self._drain_period = period
        return self

    # ------------------------------------------------------------------
    # Faults and membership events
    # ------------------------------------------------------------------

    def perturb(self, pid: int, at: float, duration: float) -> "Scenario":
        """Stall ``pid``'s consumer completely for ``[at, at + duration)`` —
        the paper's transient performance perturbation (Section 2)."""
        if at < 0:
            raise ScenarioError(f"perturbation start must be non-negative: {at}")
        if duration <= 0:
            raise ScenarioError(
                f"perturbation duration must be positive: {duration}"
            )
        self._perturbations.append((pid, Perturbation(at, duration)))
        return self

    def crash(self, pid: int, at: float) -> "Scenario":
        """Crash-stop ``pid`` at the given simulated time."""
        if at < 0:
            raise ScenarioError(f"crash time must be non-negative: {at}")
        self._crashes.append((pid, at))
        return self

    def recover(
        self,
        pid: int,
        at: float,
        via: Optional[int] = None,
        retry: Optional[float] = 0.5,
    ) -> "Scenario":
        """Revive a crashed (or excluded) ``pid`` at ``at`` and rejoin it
        through the stack (state transfer + fresh incarnation; see
        :meth:`repro.gcs.stack.GroupStack.rejoin`).  ``retry`` keeps a
        watchdog re-attempting the join — on lossy links, leave it on."""
        try:
            self._recovers.append(
                RecoverEvent(at=at, pid=pid, via=via, retry=retry)
            )
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        return self

    def faults(
        self,
        source: Union[FaultPlan, str, Sequence[Any]],
        **params: Any,
    ) -> "Scenario":
        """Attach a fault plan (see :mod:`repro.faults`).

        ``source`` may be a :class:`~repro.faults.FaultPlan`, a registered
        fault-profile name (``"partition-heal"``, ``"lossy-links"``,
        ``"crash-rejoin"``, ``"partition-churn"``, ...) instantiated with
        ``params``, or a sequence of fault events / event dicts (the
        sweepable form).  May be called repeatedly; plans accumulate.
        """
        if isinstance(source, str):
            plan = fault_profile_registry.create(source, **params)
            if not isinstance(plan, FaultPlan):
                raise ScenarioError(
                    f"fault profile {source!r} returned "
                    f"{type(plan).__name__}, not a FaultPlan"
                )
        elif params:
            raise ScenarioError(
                "fault parameters only apply to named fault profiles"
            )
        elif isinstance(source, FaultPlan):
            plan = source
        elif isinstance(source, Sequence):
            try:
                if all(isinstance(e, FaultEvent) for e in source):
                    plan = FaultPlan(source)
                else:
                    plan = FaultPlan.from_dicts(source)
            except ValueError as exc:
                raise ScenarioError(str(exc)) from None
        else:
            raise ScenarioError(
                f"faults() takes a FaultPlan, a profile name or a sequence "
                f"of events, got {type(source).__name__}"
            )
        if plan.installed:
            raise ScenarioError("fault plan was already installed elsewhere")
        self._fault_plans.append(plan)
        return self

    def view_change(self, at: float, pid: int = 0) -> "Scenario":
        """Have ``pid`` trigger a view change at the given time (suspected
        and crashed members drop out via the t7 guard)."""
        if at < 0:
            raise ScenarioError(f"view-change time must be non-negative: {at}")
        self._view_changes.append((pid, at))
        return self

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def collect(self, *metrics: str) -> "Scenario":
        """Select the metrics the result should carry (see
        :data:`KNOWN_METRICS`)."""
        for name in metrics:
            if name not in KNOWN_METRICS:
                raise ScenarioError(
                    f"unknown metric: {name!r} "
                    f"(known: {', '.join(KNOWN_METRICS)})"
                )
            if name not in self._metrics:
                self._metrics.append(name)
        return self

    def sample_every(self, period: float) -> "Scenario":
        """Sampling period for time-weighted metrics (queue_depth)."""
        if period <= 0:
            raise ScenarioError(f"sample period must be positive: {period}")
        self._sample_period = period
        return self

    def check(
        self, enabled: bool = True, checks: Optional[Sequence[str]] = None
    ) -> "Scenario":
        """Toggle the executable-specification check after the run
        (on by default; requires history recording).

        ``checks`` selects a subset of :data:`repro.core.spec.CHECKS` by
        name (``"svs"``, ``"fifo-sr"``, ``"integrity"``,
        ``"view-agreement"``, ``"classic-vs"``); ``None`` runs the default
        set.  Unknown names fail here, not after the run.
        """
        self._check = enabled
        if checks is not None:
            unknown = [name for name in checks if name not in CHECKS]
            if unknown:
                raise ScenarioError(
                    f"unknown checks: {', '.join(map(repr, unknown))} "
                    f"(known: {', '.join(CHECKS)})"
                )
        self._check_names = tuple(checks) if checks is not None else None
        return self

    def histories(self, enabled: bool = True) -> "Scenario":
        """Toggle serialized per-process histories on the result.

        Defaults to following :meth:`check`: runs that verify the spec get
        histories, metrics-only runs (``check(False)``) skip the
        O(deliveries) serialization pass unless asked."""
        self._histories = enabled
        return self

    def listeners(self, **hooks: Callable[..., None]) -> "Scenario":
        """Attach :class:`~repro.core.svs.SVSListeners` hooks to every
        process (``on_install=...``, ``on_flush=...``, ``on_pred=...``).
        Hooks are chained with — never replace — the recorder's own."""
        valid = {f.name for f in SVSListeners.__dataclass_fields__.values()}
        for name in hooks:
            if name not in valid:
                raise ScenarioError(
                    f"unknown listener hook: {name!r} "
                    f"(known: {', '.join(sorted(valid))})"
                )
        self._listener_hooks.update(hooks)
        return self

    def on_view(self, hook: Callable[[int, View], None]) -> "Scenario":
        """Call ``hook(pid, view)`` whenever a consumer-equipped member's
        application sees a VIEW notification."""
        self._view_hooks.append(hook)
        return self

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def build(self) -> "LiveScenario":
        """Wire everything up without running; returns the live session."""
        return LiveScenario(self)

    def run(self, until: float, drain: bool = True) -> ScenarioResult:
        """Build, run until simulated time ``until``, and collect the result.

        ``until`` is mandatory: heartbeats and samplers re-arm
        themselves, so an unbounded run would never drain the event heap.
        """
        return self.build().run(until=until, drain=drain)


def _chain_listener(
    listeners: SVSListeners, attr: str, hook: Callable[..., None]
) -> None:
    """Add ``hook`` after whatever is already installed on ``attr``."""
    previous = getattr(listeners, attr)
    if previous is None:
        setattr(listeners, attr, hook)
        return

    def chained(*args: Any, _prev=previous, _hook=hook) -> None:
        _prev(*args)
        _hook(*args)

    setattr(listeners, attr, chained)


class LiveScenario:
    """A fully wired, not-yet-run scenario session.

    "Live" here means *live objects* — the wired ``stack``, ``sim``,
    ``endpoints`` (one per consumer-equipped pid) and ``consumers`` are
    exposed for imperative access between :meth:`Scenario.build` and
    :meth:`run` — not wall-clock execution.  Wall-clock (*live transport*)
    runs are requested with :meth:`Scenario.transport`; for those, this
    object additionally exposes ``clock`` (the
    :class:`~repro.transport.clock.WallClock` standing in for ``sim``),
    ``transport``, ``network`` and ``runtime`` (all ``None`` on simulated
    scenarios).
    """

    def __init__(self, spec: Scenario) -> None:
        self.spec = spec
        self._ran = False

        relation = self._resolve_relation_and_workload()
        config_kwargs = dict(spec._config_kwargs)
        if spec._latency_model is not None:
            config_kwargs["latency_model"] = spec._latency_model
            config_kwargs["latency_params"] = dict(spec._latency_params)
        try:
            config = StackConfig(
                n=spec._n,
                seed=spec._seed,
                consensus=spec._consensus,
                fd=spec._fd,
                **config_kwargs,
            )
        except TypeError as exc:
            raise ScenarioError(f"invalid group configuration: {exc}") from None
        self.clock = None
        self.transport = None
        self.network = None
        self.runtime = None
        if spec._transport is not None:
            if spec._latency_model is not None:
                raise ScenarioError(
                    "latency() models belong to the simulated network; in a "
                    "live run, link timing is the transport backend's "
                    "(e.g. transport('loopback', latency=..., jitter=...))"
                )
            from repro.transport import (
                LiveRuntime,
                TransportError,
                TransportNetwork,
                WallClock,
                transports,
            )

            backend, params = spec._transport
            self.clock = WallClock(seed=spec._seed)
            try:
                self.transport = transports.create(backend, self.clock, **params)
            except (TypeError, ValueError, TransportError) as exc:
                raise ScenarioError(
                    f"invalid transport configuration for {backend!r}: {exc}"
                ) from None
            self.clock.add_runner(self.transport)
            self.network = TransportNetwork(self.clock, self.transport)
            self.stack = GroupStack(
                relation, config, sim=self.clock, network=self.network
            )
            self.runtime = LiveRuntime(
                self.stack, self.network, **spec._runtime_params
            )
            self.runtime.start()
        else:
            self.stack = GroupStack(relation, config)
        self.sim = self.stack.sim
        self._validate_pids()

        # Observation hooks first (so endpoints chain after them, exactly
        # as a hand-wired experiment would attach them).
        for attr, hook in spec._listener_hooks.items():
            for proc in self.stack.processes.values():
                _chain_listener(proc.listeners, attr, hook)
        self._offered = 0
        self._delivered: Dict[int, int] = {pid: 0 for pid in self.stack.members}
        self._installs: Dict[int, List[Tuple[int, float]]] = {
            pid: [] for pid in self.stack.members
        }
        for pid, proc in self.stack.processes.items():
            _chain_listener(proc.listeners, "on_multicast", self._count_multicast)
            _chain_listener(proc.listeners, "on_deliver", self._count_delivery)
            _chain_listener(proc.listeners, "on_install", self._note_install)

        # Consumers (and their endpoints), in pid order.
        rates: Dict[int, float] = {}
        for pids, rate in spec._consumer_specs:
            for pid in self.stack.members if pids is None else pids:
                rates[pid] = rate
        self.endpoints: Dict[int, GroupEndpoint] = {}
        self.consumers: Dict[int, RateLimitedConsumer] = {}
        for pid in self.stack.members:
            if pid not in rates:
                continue
            endpoint = GroupEndpoint(self.stack.processes[pid])
            self.endpoints[pid] = endpoint
            for hook in spec._view_hooks:
                self._chain_view_hook(endpoint, pid, hook)
            consumer = RateLimitedConsumer(self.sim, endpoint, rates[pid])
            consumer.start()
            self.consumers[pid] = consumer

        # Time-weighted queue occupancy, sampled periodically.
        self._occupancy: Dict[int, TimeWeightedStat] = {}
        if "queue_depth" in spec._metrics:
            self._occupancy = {
                pid: TimeWeightedStat() for pid in self.stack.members
            }
            self.sim.schedule(spec._sample_period, self._sample_queues)

        self._schedule_workload()
        for injection in spec._injections:
            self.sim.schedule_at(
                injection.at,
                self._multicast,
                injection.sender,
                injection.payload,
                injection.annotation,
            )
        if spec._drain_period is not None:
            self.sim.schedule(spec._drain_period, self._drain_tick)

        # Fault and membership schedules: the perturb/crash/recover/
        # view-change sugar and every .faults() plan are folded into one
        # FaultPlan and installed together.  A fresh plan is built per
        # LiveScenario so the same Scenario can be built repeatedly; the
        # event order below reproduces the legacy wiring byte-for-byte.
        events: List[FaultEvent] = [
            PerturbEvent(at=p.start, pid=pid, duration=p.duration)
            for pid, p in spec._perturbations
        ]
        events.extend(
            CrashEvent(at=at, pid=pid) for pid, at in spec._crashes
        )
        events.extend(spec._recovers)
        events.extend(
            ViewChangeEvent(at=at, pid=pid) for pid, at in spec._view_changes
        )
        for plan in spec._fault_plans:
            events.extend(plan.events)
        self.fault_plan = FaultPlan(events)
        try:
            self.fault_plan.install(self.stack, consumers=self.consumers)
        except FaultPlanError as exc:
            # One error contract for the whole builder surface.
            raise ScenarioError(str(exc)) from None

        # Custom traffic drivers run last, with everything else wired.
        for driver in spec._drivers:
            driver(self)

    # ------------------------------------------------------------------
    # Spec resolution and validation
    # ------------------------------------------------------------------

    def _resolve_relation_and_workload(self) -> ObsolescenceRelation:
        """Resolve the relation, pre-annotating the trace workload when a
        wire representation was requested (stashed in ``self._annotated``)."""
        spec = self.spec
        self._annotated = None
        relation = spec._relation
        workload = spec._trace_workload
        if workload is not None and workload.representation is not None:
            k = workload.k if workload.k is not None else 30
            self._annotated, encoder_relation = annotated_messages(
                workload.trace, workload.representation, k
            )
            if not spec._relation_explicit:
                relation = encoder_relation
        if isinstance(relation, str):
            relation = relation_registry.create(relation, **spec._relation_params)
        return relation

    def _validate_pids(self) -> None:
        spec = self.spec
        members = set(self.stack.members)

        def need(pid: int, what: str) -> None:
            if pid not in members:
                raise ScenarioError(f"{what} names unknown process {pid}")

        for pids, _rate in spec._consumer_specs:
            for pid in pids or ():
                need(pid, "consumers()")
        for pid, _p in spec._perturbations:
            need(pid, "perturb()")
        for pid, _at in spec._crashes:
            need(pid, "crash()")
        for pid, _at in spec._view_changes:
            need(pid, "view_change()")
        for injection in spec._injections:
            need(injection.sender, "inject()")
        if spec._trace_workload is not None:
            need(spec._trace_workload.sender, "workload()")
        consumer_pids = set()
        for pids, _rate in spec._consumer_specs:
            consumer_pids.update(pids if pids is not None else members)
        for pid, _p in spec._perturbations:
            if pid not in consumer_pids:
                raise ScenarioError(
                    f"perturb(pid={pid}) requires a consumer on that process "
                    f"(perturbations stall the consumer)"
                )

    # ------------------------------------------------------------------
    # Wiring helpers
    # ------------------------------------------------------------------

    def _chain_view_hook(
        self, endpoint: GroupEndpoint, pid: int, hook: Callable[[int, View], None]
    ) -> None:
        previous = endpoint.on_view

        def on_view(view: View) -> None:
            if previous is not None:
                previous(view)
            hook(pid, view)

        endpoint.on_view = on_view

    def _count_multicast(self, pid: int, msg: Any) -> None:
        self._offered += 1

    def _count_delivery(self, pid: int, entry: Any) -> None:
        self._delivered[pid] = self._delivered.get(pid, 0) + 1

    def _note_install(self, pid: int, view: View) -> None:
        self._installs.setdefault(pid, []).append((view.vid, self.sim.now))

    def _sample_queues(self) -> None:
        for pid, stat in self._occupancy.items():
            stat.update(self.sim.now, self.stack.processes[pid].pending)
        self.sim.schedule(self.spec._sample_period, self._sample_queues)

    def _multicast(self, sender: int, payload: Any, annotation: Any) -> None:
        self.stack.processes[sender].multicast(payload, annotation)

    def _drain_tick(self) -> None:
        for proc in self.stack:
            if not proc.crashed:
                proc.drain()
        self.sim.schedule(self.spec._drain_period, self._drain_tick)

    def _schedule_workload(self) -> None:
        workload = self.spec._trace_workload
        if workload is None:
            return
        producer = self.stack.processes[workload.sender]
        if self._annotated is not None:
            messages = self._annotated

            # Pre-encoded trace: replay payload + wire annotation verbatim.
            def unpack(msg):
                return msg.payload, msg.annotation, msg.payload.time

        else:
            messages = workload.trace.messages

            # Raw trace: item tags for obsolescible messages (pairs with an
            # item-tagging relation), never-obsolete otherwise.
            def unpack(msg):
                annotation = msg.item if msg.kind.obsolescible else None
                return msg, annotation, msg.time

        if not messages:
            return
        first = unpack(messages[0])[2]
        start = workload.start if workload.start is not None else first
        # ``start`` shifts the whole replay; inter-message gaps are kept by
        # offsetting every trace timestamp, not just the first.
        offset = start - first

        def inject(index: int) -> None:
            if index >= len(messages) or producer.crashed:
                return
            payload, annotation, _time = unpack(messages[index])
            producer.multicast(payload, annotation)
            if index + 1 < len(messages):
                _p, _a, next_time = unpack(messages[index + 1])
                self.sim.schedule(
                    max(0.0, next_time + offset - self.sim.now), inject, index + 1
                )

        self.sim.schedule_at(start, inject, 0)

    # ------------------------------------------------------------------
    # Execution and collection
    # ------------------------------------------------------------------

    def settle(self, quiet_time: float = 1.0, max_time: float = 120.0) -> None:
        """Run until the group goes quiet (see :meth:`GroupStack.settle`)."""
        if self.spec._transport is not None:
            raise ScenarioError(
                "settle() needs the resumable discrete-event kernel; a live "
                "transport run is one-shot — bound it with run(until=...)"
            )
        self.stack.settle(quiet_time=quiet_time, max_time=max_time)

    def run(self, until: float, drain: bool = True) -> ScenarioResult:
        """Run the simulation until simulated time ``until`` and collect
        the declared metrics.

        ``until`` is mandatory: heartbeats and samplers re-arm
        themselves, so an unbounded run would never drain the event heap.
        ``drain=True`` (default) delivers everything still queued at the
        end — through each endpoint (so application callbacks fire) or the
        raw process queue — before properties are checked.
        """
        if until is None:
            raise ScenarioError("run() needs an explicit `until` time")
        if self._ran:
            raise ScenarioError("scenario already ran; build a fresh one")
        self._ran = True
        self.sim.run(until=until)
        if drain:
            for pid in sorted(self.endpoints):
                if not self.stack.processes[pid].crashed:
                    self.endpoints[pid].poll_all()
            for pid, proc in sorted(self.stack.processes.items()):
                if pid not in self.endpoints and not proc.crashed:
                    proc.drain()
        duration = self.sim.now

        violations: Optional[List[str]] = None
        if self.spec._check and self.stack.recorder is not None:
            violations = check_all(
                self.stack.recorder,
                self.stack.relation,
                checks=self.spec._check_names,
            )
        want_histories = (
            self.spec._histories
            if self.spec._histories is not None
            else self.spec._check
        )
        histories = (
            serialize_histories(self.stack.recorder)
            if want_histories and self.stack.recorder is not None
            else {}
        )
        config = asdict(self.stack.config)
        config["relation"] = type(self.stack.relation).__name__
        return ScenarioResult(
            seed=self.stack.config.seed,
            n=self.stack.config.n,
            duration=duration,
            config=config,
            metrics=self._collect_metrics(duration),
            histories=histories,
            violations=violations,
        )

    def _collect_metrics(self, duration: float) -> Dict[str, Any]:
        metrics: Dict[str, Any] = {}
        for name in self.spec._metrics:
            if name == "throughput":
                metrics[name] = {
                    "offered": self._offered,
                    "delivered": {
                        str(pid): count
                        for pid, count in sorted(self._delivered.items())
                    },
                    "consumed": {
                        str(pid): consumer.consumed
                        for pid, consumer in sorted(self.consumers.items())
                    },
                    "rate": {
                        str(pid): (count / duration if duration > 0 else 0.0)
                        for pid, count in sorted(self._delivered.items())
                    },
                }
            elif name == "queue_depth":
                for stat in self._occupancy.values():
                    stat.finish(duration)
                metrics[name] = {
                    "mean": {
                        str(pid): stat.mean
                        for pid, stat in sorted(self._occupancy.items())
                    },
                    "max": {
                        str(pid): stat.maximum
                        for pid, stat in sorted(self._occupancy.items())
                    },
                    "sample_period": self.spec._sample_period,
                }
            elif name == "view_changes":
                metrics[name] = {
                    "count": {
                        str(pid): len(installs)
                        for pid, installs in sorted(self._installs.items())
                    },
                    "installs": {
                        str(pid): [[vid, time] for vid, time in installs]
                        for pid, installs in sorted(self._installs.items())
                    },
                }
            elif name == "purges":
                per_process = {
                    str(pid): proc.purge_count
                    for pid, proc in sorted(self.stack.processes.items())
                }
                metrics[name] = {
                    "per_process": per_process,
                    "total": sum(per_process.values()),
                }
            elif name == "network":
                metrics[name] = {
                    "sent": self.stack.network.messages_sent,
                    "delivered": self.stack.network.messages_delivered,
                    "dropped": self.stack.network.messages_dropped,
                    "duplicated": self.stack.network.messages_duplicated,
                    "reordered": self.stack.network.messages_reordered,
                }
        return metrics
