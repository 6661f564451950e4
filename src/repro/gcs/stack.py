"""Group communication stack assembly.

:class:`GroupStack` wires together everything a running group needs — the
simulator, the network, one failure detector and one
:class:`~repro.core.svs.SVSProcess` per member, a consensus factory, and a
:class:`~repro.core.spec.HistoryRecorder` — so tests, examples and
experiments can build a complete group in one call instead of repeating
boilerplate.

Every pluggable substrate is resolved by name through the registries in
:mod:`repro.registry`, mirroring the paper's modularity claims:

* ``consensus="chandra-toueg"`` (default) runs the real ◇S protocol;
  ``consensus="oracle"`` decides instantly (optionally after a fixed delay);
* ``fd="oracle"`` (default) suspects exactly ``fd_delay`` after a crash;
  ``fd="heartbeat"`` runs the real heartbeat detector over the network;
* ``latency_model`` names any registered :class:`~repro.sim.network.LatencyModel`
  (``"constant"``, ``"uniform"``, ``"lognormal"``, ...).

Third-party backends register themselves with a decorator (see
:mod:`repro.registry`) and become valid configuration values here without
any change to this module.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

# Imported for their registry side-effects (the built-in backends register
# themselves at import time) as well as for typing.
from repro.consensus.chandra_toueg import ChandraTouegConsensus  # noqa: F401
from repro.consensus.interface import ConsensusFactory
from repro.consensus.oracle import OracleConsensusHub
from repro.core.message import View
from repro.core.obsolescence import ObsolescenceRelation
from repro.core.spec import HistoryRecorder
from repro.core.svs import SVSProcess
from repro.fd.detector import FailureDetector  # noqa: F401
from repro.gcs.context import StackConfig
from repro.registry import (
    consensus_protocols,
    failure_detectors,
    latency_models,
    relations as relation_registry,
)
from repro.sim.failure import check_positive
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.process import ProcessId

__all__ = ["GroupStack", "StackConfig"]


class GroupStack:
    """A fully wired group of SVS processes over one simulator.

    ``relation`` is an :class:`~repro.core.obsolescence.ObsolescenceRelation`
    instance, used as given, or a registry name created with default
    parameters.  ``config`` defaults to ``StackConfig()``; the simulator
    runs under ``config.seed``.

    ``sim`` and ``network`` inject an alternative substrate — a
    :class:`~repro.transport.clock.WallClock` plus a
    :class:`~repro.transport.network.TransportNetwork` for live runs.  The
    clock duck-types the simulator; the network shares its topology and
    fault model with the simulated one through
    :class:`~repro.sim.network.NetworkBase`.  So the assembly below (and
    the protocol it assembles) is one code path for both worlds.  ``pids``
    restricts which members this stack hosts locally (default: all of
    ``range(n)``); a live UDP deployment builds one single-pid stack per
    OS process.  Partial hosting needs per-process backends —
    ``consensus="chandra-toueg"`` and ``fd="heartbeat"`` — because the
    oracle variants share in-memory state across the whole group.
    """

    def __init__(
        self,
        relation: Union[ObsolescenceRelation, str],
        config: Optional[StackConfig] = None,
        sim: Optional[Simulator] = None,
        network: Optional[Network] = None,
        pids: Optional[Iterable[ProcessId]] = None,
    ) -> None:
        if isinstance(relation, str):
            relation = relation_registry.create(relation)
        self.config = config or StackConfig()
        self.relation = relation
        self.initial_view = View(0, frozenset(range(self.config.n)))
        self.sim = sim if sim is not None else Simulator(seed=self.config.seed)
        if network is not None:
            self.network = network
        else:
            self.network = Network(self.sim, self._build_latency_model())
        if pids is None:
            member_pids = list(range(self.config.n))
        else:
            member_pids = sorted(set(pids))
            bad = [p for p in member_pids if not 0 <= p < self.config.n]
            if bad:
                raise ValueError(
                    f"pids must lie in range({self.config.n}): {bad!r}"
                )
            if not member_pids:
                raise ValueError("pids must name at least one local member")
        self.recorder = HistoryRecorder() if self.config.record_history else None

        # Consensus plugins may stash shared state here (the oracle hub does).
        self.oracle_hub: Optional[OracleConsensusHub] = None
        consensus_factory: ConsensusFactory = consensus_protocols.create(
            self.config.consensus, self
        )
        fd_wiring = failure_detectors.create(self.config.fd, self)

        self.processes: Dict[ProcessId, SVSProcess] = {}
        for pid in member_pids:
            listeners = (
                self.recorder.listeners() if self.recorder is not None else None
            )
            proc = SVSProcess(
                pid=pid,
                sim=self.sim,
                network=self.network,
                initial_view=self.initial_view,
                relation=self.relation,
                consensus_factory=consensus_factory,
                fd=fd_wiring.fd,
                listeners=listeners,
                stability_interval=self.config.stability_interval,
                viewchange_retry=self.config.viewchange_retry,
            )
            self.processes[pid] = proc

        fd_wiring.finalize(self)

    def _build_latency_model(self):
        params = dict(self.config.latency_params or {})
        if self.config.latency_model == "constant":
            params.setdefault("latency", self.config.latency)
        return latency_models.create(self.config.latency_model, self.sim, **params)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    def __getitem__(self, pid: ProcessId) -> SVSProcess:
        return self.processes[pid]

    def __iter__(self):
        return iter(self.processes.values())

    def __len__(self) -> int:
        return len(self.processes)

    @property
    def members(self) -> List[ProcessId]:
        return sorted(self.processes)

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        self.sim.run(until=until, max_events=max_events)

    def settle(self, quiet_time: float = 1.0, max_time: float = 120.0) -> None:
        """Run until the simulation goes quiet (heartbeats excluded).

        "Quiet" means no view change in progress anywhere and all delivery
        traffic flushed; used by tests to wait out a reconfiguration.
        """
        deadline = self.sim.now + max_time
        while self.sim.now < deadline:
            self.sim.run(until=min(self.sim.now + quiet_time, deadline))
            busy = any(
                p.blocked and not p.crashed and not p.excluded
                for p in self.processes.values()
            )
            if not busy:
                return

    def crash(self, pid: ProcessId) -> None:
        self.processes[pid].crash()

    # ------------------------------------------------------------------
    # Rejoin orchestration (the recover/welcome extension)
    # ------------------------------------------------------------------

    def rejoin(
        self,
        pid: ProcessId,
        via: Optional[ProcessId] = None,
        retry: Optional[float] = None,
    ) -> None:
        """Bring a crashed (or excluded) member back into the group.

        Revives the process as a fresh incarnation (see
        :meth:`~repro.core.svs.SVSProcess.recover`), then has a live
        *sponsor* — ``via``, or the lowest-pid live member — trigger a view
        change whose ``join`` set names the returnee; the decided view's
        survivors transfer it the new view through a WELCOME message.

        ``retry`` (seconds) arms a watchdog that re-attempts the join until
        it completes: a concurrent view change can swallow the INIT, and on
        lossy links any of the messages involved may be dropped.  Each
        re-attempt either re-triggers the join or — when the joiner already
        made it into the current view but every WELCOME was lost — re-sends
        the state transfer.  Pass ``None`` for a single attempt (enough on
        reliable, quiescent groups).
        """
        # Validate everything before the first side effect: a rejected call
        # must not leave the group mid-rejoin (and a NaN retry would
        # poison the event queue).
        if retry is not None:
            check_positive(retry, "rejoin retry")
        proc = self.processes[pid]
        proc.recover()  # validates crashed-or-excluded before any bookkeeping
        if self.recorder is not None:
            self.recorder.record_rejoin(pid)
        self._attempt_join(pid, via)
        if retry is not None:
            self.sim.schedule(retry, self._rejoin_watch, pid, via, retry)

    def _sponsor_for(self, pid: ProcessId) -> Optional[ProcessId]:
        for candidate in self.members:
            proc = self.processes[candidate]
            if (
                candidate != pid
                and not proc.crashed
                and not proc.excluded
                and not proc.joining
            ):
                return candidate
        return None

    def _attempt_join(self, pid: ProcessId, via: Optional[ProcessId]) -> None:
        joiner = self.processes[pid]
        sponsor: Optional[ProcessId] = None
        if via is not None and via != pid:
            # `via` is a preference, not a hard pin: a sponsor that has
            # crashed (or is itself joining) cannot trigger anything, and
            # silently retrying through it forever would wedge the rejoin.
            candidate = self.processes[via]
            if not (candidate.crashed or candidate.excluded or candidate.joining):
                sponsor = via
        if sponsor is None:
            sponsor = self._sponsor_for(pid)
        if sponsor is None:
            return  # nobody left to sponsor; the watchdog may retry later
        sponsor_proc = self.processes[sponsor]
        if (
            pid in sponsor_proc.cv.members
            and sponsor_proc.cv.vid > joiner.cv.vid
        ):
            # A join view newer than the joiner's stale one was installed,
            # yet the joiner never heard: the WELCOMEs were lost.
            # Re-triggering would deadlock (t7 waits for the joiner's
            # PRED); re-send the transfer instead.
            sponsor_proc.send_welcome(pid)
        else:
            sponsor_proc.trigger_view_change(join=(pid,))

    def _rejoin_watch(
        self, pid: ProcessId, via: Optional[ProcessId], retry: float
    ) -> None:
        proc = self.processes[pid]
        if not proc.joining or proc.crashed:
            return  # joined (or crashed again); the watchdog stands down
        self._attempt_join(pid, via)
        self.sim.schedule(retry, self._rejoin_watch, pid, via, retry)

    def drain_all(self) -> None:
        """Have every live process deliver everything queued."""
        for proc in self.processes.values():
            if not proc.crashed:
                proc.drain()

    def live_members(self) -> List[ProcessId]:
        return [
            pid
            for pid, p in self.processes.items()
            if not p.crashed and not p.excluded
        ]
