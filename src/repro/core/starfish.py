"""The Starfish system facade.

:class:`StarfishCluster` is the top of the public API: it builds a
simulated cluster, boots a Starfish daemon on every node, joins them into
the Starfish group, and exposes submission, client sessions, fault
injection, and result collection.

Typical use::

    sf = StarfishCluster.build(spec=ClusterSpec(nodes=4))
    spec = AppSpec(program=MonteCarloPi, nprocs=4,
                   params={"shots": 100_000},
                   ft_policy=FaultPolicy.RESTART,
                   checkpoint=CheckpointConfig(protocol="stop-and-sync"))
    handle = sf.submit(spec)
    FaultPlan().at(5.0, CrashNode("n2")).apply_to(sf)   # fault injection
    result = sf.run_to_completion(handle)
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster import Architecture, Cluster, ClusterSpec
from repro.core.appspec import AppSpec
from repro.core.runtime import AppProcess
from repro.daemon import AppStatus, Client, StarfishDaemon
from repro.daemon.registry import AppRecord
from repro.errors import (ConvergenceTimeout, DaemonError, MajorityLost,
                          UnknownApplication)
from repro.gcs import GcsConfig
from repro.store import CheckpointStore, RepairService

_app_ids = itertools.count(1)


class AppHandle:
    """Client-side handle on a submitted application."""

    def __init__(self, sf: "StarfishCluster", app_id: str):
        self.sf = sf
        self.app_id = app_id

    def _record(self) -> AppRecord:
        for daemon in self.sf.live_daemons():
            record = daemon.registry.maybe(self.app_id)
            if record is not None:
                return record
        raise UnknownApplication(self.app_id)

    @property
    def status(self) -> AppStatus:
        return self._record().status

    @property
    def finished(self) -> bool:
        return self._record().finished

    @property
    def restarts(self) -> int:
        return self._record().restarts

    def results(self) -> Dict[int, Any]:
        """Per-rank results reported so far."""
        return dict(self._record().results)

    def result(self, rank: int = 0) -> Any:
        return self._record().results.get(rank)

    def __repr__(self) -> str:
        try:
            status = self.status.value
        except UnknownApplication:
            status = "unknown"
        return f"<AppHandle {self.app_id} {status}>"


class StarfishCluster:
    """A running Starfish system over a simulated cluster."""

    def __init__(self, cluster: Cluster,
                 gcs_config: Optional[GcsConfig] = None,
                 users: Optional[Dict[str, Tuple[str, bool]]] = None):
        self.cluster = cluster
        self.engine = cluster.engine
        self.gcs_config = gcs_config or GcsConfig()
        self.users = users
        self.store = self._build_store(cluster)
        self.daemons: Dict[str, StarfishDaemon] = {}
        self.program_registry: Dict[str, Any] = {}
        #: Per-application MPI address books (rank -> (node, port)).  A
        #: shared object per app: the real system pushes address updates as
        #: configuration messages; the shared dict models that channel.
        self.books: Dict[str, Dict[int, Tuple[str, str]]] = {}
        self._register_builtin_programs()
        for node_id in sorted(cluster.nodes):
            self._boot_daemon(node_id)

    def _build_store(self, cluster: Cluster) -> CheckpointStore:
        """The checkpoint store, configured by ``ClusterSpec``: stable
        disk by default, local disk + replicas with a
        ``replication_factor``, the listed hierarchy with ``store_tiers``.
        With ``k >= 2`` copies it gets the failure-driven repair daemon.
        """
        spec = cluster.spec
        store = CheckpointStore(self.engine, cluster, tiers=spec.store_tiers,
                                k=spec.replication_factor,
                                delta_depth=spec.delta_depth,
                                promotion=spec.tier_policy)
        if store.k is not None and store.k > 1:
            store.repair = RepairService(self.engine, cluster, store)
        cluster.watchers.append(store.on_membership)
        return store

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, spec: Optional[ClusterSpec] = None,
              **fields) -> "StarfishCluster":
        """Create a cluster, boot all daemons, and run the simulation
        until the Starfish group has converged.  Pass one
        ``spec=ClusterSpec(...)`` or its fields as keywords."""
        spec = ClusterSpec.coalesce(spec, **fields)
        cluster = Cluster.build(spec=spec)
        sf = cls(cluster, gcs_config=spec.gcs_config, users=spec.users)
        sf.settle()
        return sf

    def _register_builtin_programs(self) -> None:
        from repro import apps
        for name in apps.PROGRAMS:
            self.program_registry[name] = getattr(apps, apps.PROGRAMS[name])

    def register_program(self, name: str, program) -> None:
        """Make a program class available to ASCII ``SUBMIT`` commands."""
        self.program_registry[name] = program

    def _boot_daemon(self, node_id: str) -> StarfishDaemon:
        node = self.cluster.node(node_id)
        daemon = StarfishDaemon(
            self.engine, node, self.cluster, self.store,
            process_factory=self._make_process,
            program_registry=self.program_registry,
            gcs_config=self.gcs_config, users=self.users,
            node_provisioner=self.add_node)
        contact = None
        for other in self.live_daemons():
            if other is not daemon:
                contact = other.endpoint
                break
        daemon.start(contact=contact)
        self.daemons[node_id] = daemon
        return daemon

    def _make_process(self, daemon: StarfishDaemon, record: AppRecord,
                      rank: int, plan, replica: int = 0) -> AppProcess:
        book = self.books.setdefault(record.app_id, {})
        return AppProcess(daemon, record, rank, plan, book,
                          replica=replica)

    # ------------------------------------------------------------------
    # daemons & settling
    # ------------------------------------------------------------------

    def live_daemons(self) -> List[StarfishDaemon]:
        from repro.cluster.node import NodeState
        out = []
        for nid, daemon in sorted(self.daemons.items()):
            node = self.cluster.nodes.get(nid)
            if node is not None and node.state in (NodeState.UP,
                                                   NodeState.DISABLED):
                out.append(daemon)
        return out

    def any_daemon(self) -> StarfishDaemon:
        daemons = self.live_daemons()
        if not daemons:
            raise MajorityLost(
                f"no live daemons (all {len(self.daemons)} are down)")
        return daemons[0]

    def settle(self, timeout: float = 30.0) -> None:
        """Run until every live daemon shares one full view.

        Raises :class:`~repro.errors.MajorityLost` immediately if no
        daemon is left to converge, and
        :class:`~repro.errors.ConvergenceTimeout` (both are
        :class:`~repro.errors.StarfishError` subclasses) on the deadline —
        the caller gets a typed error, never a silent hang."""
        deadline = self.engine.now + timeout
        while self.engine.now < deadline:
            live = self.live_daemons()
            if not live:
                raise MajorityLost(
                    f"no live daemons (all {len(self.daemons)} are down); "
                    "the group can never converge")
            views = {tuple(d.gm.view.members) if d.gm.view else None
                     for d in live}
            if len(views) == 1 and None not in views:
                members = views.pop()
                if {m.node for m in members} == {d.node.node_id
                                                 for d in live}:
                    return
            self.engine.run(until=self.engine.now + 0.25)
        raise ConvergenceTimeout(
            f"Starfish group failed to converge within {timeout}s "
            f"({len(self.live_daemons())} live daemons)")

    # ------------------------------------------------------------------
    # submission & running
    # ------------------------------------------------------------------

    def submit(self, spec: AppSpec, app_id: Optional[str] = None,
               via_node: Optional[str] = None) -> AppHandle:
        """Submit an application through (any) daemon."""
        app_id = app_id or f"app{next(_app_ids)}"
        daemon = (self.daemons[via_node] if via_node is not None
                  else self.any_daemon())
        return AppHandle(self, daemon.submit(app_id, spec))

    def run_to_completion(self, handle: AppHandle,
                          timeout: float = 600.0) -> Dict[int, Any]:
        """Advance the simulation until the application finishes;
        returns its per-rank results."""
        deadline = self.engine.now + timeout
        while self.engine.now < deadline:
            if not self.live_daemons():
                raise MajorityLost(
                    f"all {len(self.daemons)} daemons are dead; app "
                    f"{handle.app_id!r} can never finish")
            try:
                if handle.finished:
                    break
            except UnknownApplication:
                pass
            self.engine.run(until=min(deadline, self.engine.now + 0.5))
        record = handle._record()
        if record.status is not AppStatus.DONE:
            raise DaemonError(
                f"app {handle.app_id} ended as {record.status.value}")
        return dict(record.results)

    def run(self, spec: AppSpec, timeout: float = 600.0) -> Dict[int, Any]:
        """Submit and run to completion (the quickstart one-liner)."""
        return self.run_to_completion(self.submit(spec), timeout=timeout)

    # ------------------------------------------------------------------
    # clients
    # ------------------------------------------------------------------

    def client(self, from_node: Optional[str] = None,
               to_node: Optional[str] = None) -> Client:
        """A client session object (drive it from a simulated process)."""
        src = self.cluster.node(from_node) if from_node \
            else self.cluster.node(self.any_daemon().node.node_id)
        dst = to_node or self.any_daemon().node.node_id
        return Client(self.engine, src, dst)

    # ------------------------------------------------------------------
    # dynamics & fault injection
    # ------------------------------------------------------------------

    def add_node(self, node_id: str,
                 arch: Optional[Architecture] = None) -> StarfishDaemon:
        """Provision a new workstation and boot a daemon on it."""
        from repro.cluster.arch import DEFAULT_ARCH
        self.cluster.add_node(node_id, arch=arch or DEFAULT_ARCH)
        return self._boot_daemon(node_id)

    @property
    def faults(self):
        """The system's :class:`~repro.faults.plan.FaultInjector` (shared
        with the underlying cluster, bound to this Starfish system so
        actions can resolve app placement and reboot daemons)."""
        injector = self.cluster.faults
        injector.starfish = self
        return injector

    def crash_node(self, node_id: str) -> None:
        self.cluster.crash_node(node_id)

    def recover_node(self, node_id: str) -> StarfishDaemon:
        """Bring a crashed node back and boot a fresh daemon on it."""
        self.cluster.recover_node(node_id)
        return self._boot_daemon(node_id)

    def migrate(self, handle: AppHandle, rank: int, target_node: str) -> None:
        """Move one rank to ``target_node`` (paper §3.2.1: C/R doubles as
        process migration — e.g. when "a better node becomes available").
        :meth:`StarfishDaemon.migrate` validates the request and raises a
        typed error before anything is cast."""
        self.any_daemon().migrate(handle.app_id, rank, target_node)

    def __repr__(self) -> str:
        return (f"<StarfishCluster {len(self.live_daemons())}/"
                f"{len(self.daemons)} daemons t={self.engine.now:.6g}>")
