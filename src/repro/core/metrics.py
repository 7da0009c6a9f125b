"""Cluster and application observability.

:class:`ClusterMetrics` snapshots everything a Starfish operator would
want on a dashboard: per-application progress and fault history, stable
storage consumption, per-fabric traffic broken down by Table 1 message
kind, and group-communication health.  It is a thin *read-side view*
over the engine's :class:`~repro.obs.registry.MetricsRegistry` (plus a
few live objects for membership/placement), so it can be sampled at any
simulated time without its own instrumentation hooks.

Example::

    metrics = ClusterMetrics(sf)
    snap = metrics.snapshot()
    print(metrics.format_report())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.daemon.registry import AppStatus


@dataclass(frozen=True)
class AppSnapshot:
    app_id: str
    status: str
    nprocs: int
    placement: Dict[int, str]
    restarts: int
    world_version: int
    #: Finished ranks known to any live daemon (exact: includes the hosts).
    done_ranks: int
    ckpt_protocol: Optional[str]
    ckpt_versions: Dict[int, List[int]]
    committed_line: Optional[int]
    steps_completed: Dict[int, int]
    aborted_steps: Dict[int, int]
    paused_seconds: Dict[int, float]


@dataclass(frozen=True)
class FabricSnapshot:
    name: str
    frames: int
    bytes: int
    dropped: int
    by_kind: Dict[str, int]


@dataclass(frozen=True)
class ClusterSnapshot:
    time: float
    nodes_up: int
    nodes_total: int
    daemons: int
    group_epoch: Optional[int]
    apps: List[AppSnapshot]
    fabrics: List[FabricSnapshot]
    store_writes: int
    store_reads: int
    store_bytes: int


class ClusterMetrics:
    """Live metrics over a :class:`~repro.core.starfish.StarfishCluster`."""

    def __init__(self, sf):
        self.sf = sf

    # ------------------------------------------------------------------

    def snapshot(self) -> ClusterSnapshot:
        sf = self.sf
        daemons = sf.live_daemons()
        apps: List[AppSnapshot] = []
        seen = set()
        for daemon in daemons:
            for record in daemon.registry.all():
                if record.app_id in seen:
                    continue
                seen.add(record.app_id)
                apps.append(self._app_snapshot(record))
        epoch = None
        if daemons and daemons[0].gm.view is not None:
            epoch = daemons[0].gm.view.epoch
        reg = sf.engine.metrics
        fabrics = [
            FabricSnapshot(
                name=f.spec.name,
                frames=int(reg.sum("net.frames_sent", fabric=f.spec.name)),
                bytes=int(reg.sum("net.bytes_sent", fabric=f.spec.name)),
                dropped=int(reg.sum("net.frames_dropped",
                                    fabric=f.spec.name)),
                by_kind={k: int(v) for k, v in
                         reg.group_by("net.frames_sent", "kind",
                                      fabric=f.spec.name).items() if v})
            for f in (sf.cluster.ethernet, sf.cluster.myrinet)]
        return ClusterSnapshot(
            time=sf.engine.now,
            nodes_up=len(sf.cluster.up_nodes()),
            nodes_total=len(sf.cluster.nodes),
            daemons=len(daemons),
            group_epoch=epoch,
            apps=apps,
            fabrics=fabrics,
            store_writes=int(reg.sum("ckpt.store.writes")),
            store_reads=int(reg.sum("ckpt.store.reads")),
            store_bytes=int(reg.sum("ckpt.store.bytes_written")))

    def _app_snapshot(self, record) -> AppSnapshot:
        sf = self.sf
        steps: Dict[int, int] = {}
        aborted: Dict[int, int] = {}
        paused: Dict[int, float] = {}
        # While an app runs its finished ranks are known to their hosts and
        # the app authority only (DESIGN §21): this observer sees them all.
        done = set()
        for daemon in sf.live_daemons():
            known = daemon.registry.maybe(record.app_id)
            if known is not None:
                done.update(known.done_ranks)
            for (aid, rank), handle in daemon.handles.items():
                if aid != record.app_id:
                    continue
                steps[rank] = handle.steps_completed
                aborted[rank] = int(sf.engine.metrics.value(
                    "app.aborted_steps", app=aid, rank=rank))
                paused[rank] = handle.paused_accum
        versions = {rank: sf.store.versions_of(record.app_id, rank)
                    for rank in sorted(record.placement)}
        return AppSnapshot(
            app_id=record.app_id, status=record.status.value,
            nprocs=len(record.placement), placement=dict(record.placement),
            restarts=record.restarts, world_version=record.world_version,
            done_ranks=len(done),
            ckpt_protocol=record.ckpt_protocol,
            ckpt_versions={r: v for r, v in versions.items() if v},
            committed_line=sf.store.latest_committed(record.app_id),
            steps_completed=steps, aborted_steps=aborted,
            paused_seconds=paused)

    # ------------------------------------------------------------------

    def format_report(self) -> str:
        """Human-readable multi-line report of the current snapshot."""
        snap = self.snapshot()
        lines = [
            f"Starfish cluster @ t={snap.time:.3f}s — "
            f"{snap.nodes_up}/{snap.nodes_total} nodes up, "
            f"{snap.daemons} daemons, group epoch {snap.group_epoch}",
            f"stable storage: {snap.store_writes} checkpoint writes "
            f"({snap.store_bytes / 1e6:.1f} MB), {snap.store_reads} reads",
        ]
        for fab in snap.fabrics:
            kinds = ", ".join(f"{k}={v}" for k, v in
                              sorted(fab.by_kind.items())) or "-"
            lines.append(f"{fab.name}: {fab.frames} frames "
                         f"({fab.bytes / 1e6:.2f} MB, "
                         f"{fab.dropped} dropped) [{kinds}]")
        for app in snap.apps:
            lines.append(
                f"app {app.app_id}: {app.status}, "
                f"{app.nprocs} ranks, restarts={app.restarts}, "
                f"world v{app.world_version}, "
                f"line={app.committed_line}, "
                f"protocol={app.ckpt_protocol or '-'}")
            if app.steps_completed:
                steps = ", ".join(f"r{r}:{n}" for r, n in
                                  sorted(app.steps_completed.items()))
                lines.append(f"  steps [{steps}]")
        return "\n".join(lines)
