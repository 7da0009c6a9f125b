"""The fleet controller: the in-sim long-running orchestrator process.

One :class:`FleetController` per :class:`~repro.core.starfish.
StarfishCluster` — the central control host of the ``master_control``
exemplar, run as an *engine-level* simulated process (it survives any
node crash).  Every tick it:

1. collects a heartbeat payload from every live, unpaused daemon into
   the :class:`~repro.fleet.view.FleetView`;
2. marks crashed nodes down and counts missed beats for silent ones;
3. re-scores suspicion (:class:`~repro.fleet.suspicion.SuspicionScorer`);
4. runs the drain lifecycle — auto-drains fresh suspects
   (cordon → proactive-migrate → confirm-empty), migrates ranks off
   draining nodes through the validated ``migrate()`` path (refusal-aware
   for replicated apps), and auto-uncordons drained nodes whose
   suspicion cleared;
5. folds finished applications back into the scheduler;
6. admits every queued job that now fits (quota + placement).

Cordon reuses the daemons' replicated ``node-admin`` op, so *failure*
restarts coordinated inside the daemon layer also avoid cordoned nodes
— the fleet and the daemons always agree on schedulability.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from repro.core.appspec import AppSpec
from repro.core.starfish import AppHandle, StarfishCluster
from repro.daemon import AppStatus
from repro.errors import (DaemonError, FleetError, PlacementError,
                          StarfishError)
from repro.fleet.scheduler import (FleetJob, JobScheduler, JobState,
                                   REJECT_PLACEMENT, REJECT_SHUTDOWN,
                                   TenantQuota)
from repro.fleet.suspicion import SuspicionScorer
from repro.fleet.view import TICK, FleetView, NodeHealth
from repro.obs import get_registry


class FleetController:
    """Heartbeat collection + suspicion + drain + admission, per tick."""

    def __init__(self, sf: StarfishCluster,
                 quotas: Optional[Dict[str, TenantQuota]] = None,
                 auto_drain: bool = True):
        self.sf = sf
        self.engine = sf.engine
        self.auto_drain = auto_drain
        self.registry = get_registry(sf.engine)
        self.view = FleetView()
        self.scheduler = JobScheduler(self.view, quotas,
                                      registry=self.registry)
        self.scorer = SuspicionScorer(self.registry)
        #: Live application handles of admitted jobs.
        self.handles: Dict[str, AppHandle] = {}
        #: Proactive migrations performed: (time, app_id, rank, src, dst).
        self.migrations: List[Tuple[float, str, int, str, str]] = []
        self._closed = False
        self._proc = self.engine.process(self._run(), name="fleet-ctl")

    # ------------------------------------------------------------------
    # the control loop
    # ------------------------------------------------------------------

    def _run(self):
        while not self._closed:
            yield self.engine.timeout(TICK)
            if self._closed:
                return
            try:
                self.step()
            except DaemonError:
                # A dead or still-converging cluster is not the
                # controller's emergency; keep ticking.
                continue

    def check_running(self) -> None:
        """Raise :class:`FleetError` naming the loop's error if the control
        loop ended without :meth:`close` — no job would be admitted again."""
        if self._closed or self._proc.is_alive:
            return
        exc = self._proc.value
        raise FleetError(
            f"fleet control loop ended: {type(exc).__name__}: {exc}")

    def step(self) -> None:
        """One synchronous control-loop iteration (tests call this too)."""
        now = self.engine.now
        from repro.cluster.node import NodeState
        down = {nid for nid, node in self.sf.cluster.nodes.items()
                if node.state is NodeState.DOWN}
        for daemon in self.sf.live_daemons():
            if daemon.gm.paused:
                continue   # a wedged daemon misses its beat
            self.view.observe(daemon.heartbeat(), now)
        self.view.refresh(now, down)
        self.scorer.update(self.view)
        self._lifecycle(now)
        self._poll_jobs(now)
        self._admit(now)

    # ------------------------------------------------------------------
    # drain / cordon lifecycle
    # ------------------------------------------------------------------

    def cordon(self, node_id: str) -> None:
        """Stop placing new work on ``node_id`` (fleet + daemon layer)."""
        self.sf.any_daemon().gm.cast(("node-admin", "disable", node_id))
        info = self.view.row(node_id)
        if info.health is NodeHealth.ACTIVE:
            info.health = NodeHealth.CORDONED
        self._event("fleet.cordon", node=node_id)

    def uncordon(self, node_id: str) -> None:
        self.sf.any_daemon().gm.cast(("node-admin", "enable", node_id))
        info = self.view.row(node_id)
        info.health = NodeHealth.ACTIVE
        info.auto_drained = False
        self._event("fleet.uncordon", node=node_id)

    def drain(self, node_id: str, auto: bool = False) -> None:
        """Cordon, then migrate every primary rank off ``node_id``."""
        self.cordon(node_id)
        info = self.view.row(node_id)
        info.health = NodeHealth.DRAINING
        info.auto_drained = auto
        self._event("fleet.drain", node=node_id, auto=auto)

    def _lifecycle(self, now: float) -> None:
        for nid in sorted(self.view.nodes):
            info = self.view.nodes[nid]
            if info.health is NodeHealth.DOWN:
                continue
            if self.auto_drain and info.suspect \
                    and info.health is NodeHealth.ACTIVE:
                self.drain(nid, auto=True)
            if info.health is NodeHealth.DRAINING:
                self._migrate_off(nid, now)
                if self._empty(nid):
                    info.health = NodeHealth.DRAINED
                    self._event("fleet.drained", node=nid)
            if info.health is NodeHealth.DRAINED \
                    and info.auto_drained and not info.suspect:
                # The suspicion signal cleared and the node is empty:
                # hand it back to the scheduler.
                self.uncordon(nid)

    def _empty(self, node_id: str) -> bool:
        """No active application keeps a primary rank on the node.

        Backup copies under active replication don't block a drain —
        they cannot migrate (refusal-aware path) and their primaries are
        elsewhere by construction.
        """
        registry = self.sf.any_daemon().registry
        return not any(rec.ranks_on(node_id)
                       for rec in registry.active())

    def _migrate_off(self, node_id: str, now: float) -> None:
        """Migrate at most one rank per app per tick off ``node_id``.

        One at a time because each migration is a rollback: casting a
        second migrate while the app is mid-restart would plan from a
        stale record.  The next tick picks up the remaining ranks.
        """
        registry = self.sf.any_daemon().registry
        for rec in registry.active():
            if rec.status is AppStatus.RESTARTING:
                continue
            ranks = rec.ranks_on(node_id)
            # The daemon layer refuses to migrate a replicated rank.
            if not ranks or rec.replicas:
                continue
            rank = min(ranks)
            target = self._migration_target(exclude=node_id)
            if target is None:
                continue
            try:
                self.sf.migrate(AppHandle(self.sf, rec.app_id), rank,
                                target)
            except (PlacementError, StarfishError):
                continue
            self.migrations.append((now, rec.app_id, rank, node_id,
                                    target))
            self._event("fleet.migrate", app=rec.app_id, rank=rank,
                        src=node_id, dst=target)

    def _migration_target(self, exclude: str) -> Optional[str]:
        candidates = [n for n in self.view.eligible() if n != exclude]
        if not candidates:
            return None
        loads = self.view.loads()
        return min(candidates, key=lambda n: (loads.get(n, 0), n))

    # ------------------------------------------------------------------
    # job lifecycle
    # ------------------------------------------------------------------

    def submit(self, spec: AppSpec) -> FleetJob:
        """Queue one spec with the admission scheduler."""
        return self.scheduler.submit(spec, self.engine.now)

    def _poll_jobs(self, now: float) -> None:
        for job in self.scheduler.running():
            handle = self.handles.get(job.job_id)
            if handle is None:
                continue
            try:
                status = handle.status
            except DaemonError:
                # Not registered yet: the admission cast is in flight.
                continue
            if status is AppStatus.DONE:
                self.scheduler.complete(job, JobState.DONE, now)
            elif status in (AppStatus.FAILED, AppStatus.KILLED):
                self.scheduler.complete(job, JobState.FAILED, now)

    def _admit(self, now: float) -> None:
        for job in self.scheduler.admit_ready(now):
            spec = dataclasses.replace(job.spec, placement=job.placement)
            try:
                self.handles[job.job_id] = self.sf.submit(
                    spec, app_id=job.job_id)
            except (PlacementError, StarfishError) as exc:
                job.state = JobState.REJECTED
                job.reason = REJECT_PLACEMENT
                job.finished_at = now
                self.registry.counter("fleet.jobs_rejected",
                                      tenant=job.tenant,
                                      reason=REJECT_PLACEMENT).inc()
                self._event("fleet.submit_failed", job=job.job_id,
                            error=type(exc).__name__)

    def pending_work(self) -> bool:
        """Any job not yet terminal?"""
        return any(not j.terminal for j in self.scheduler.jobs.values())

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------

    def close(self) -> List[FleetJob]:
        """Stop the loop; rejects still-queued jobs with a typed reason."""
        rejected = self.scheduler.reject_queued(REJECT_SHUTDOWN,
                                                self.engine.now)
        self._closed = True
        return rejected

    # ------------------------------------------------------------------

    def _event(self, name: str, **fields: Any) -> None:
        self.registry.events.emit(self.engine.now, name, **fields)

    def __repr__(self) -> str:
        jobs = self.scheduler.jobs
        running = sum(1 for j in jobs.values()
                      if j.state == JobState.RUNNING)
        return (f"<FleetController jobs={len(jobs)} running={running} "
                f"nodes={len(self.view.nodes)} t={self.engine.now:.6g}>")
