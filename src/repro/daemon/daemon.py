"""The Starfish daemon.

One instance per node.  See the package docstring for the architecture;
implementation notes:

* **Replicated state** (cluster config, application registry) mutates only
  through totally-ordered main-group casts, so every daemon's replica stays
  identical and any daemon can serve any client or coordinate any recovery.
  The one exception is *which ranks have finished* while an application
  runs: that is the application's business, so it travels inside the
  application's lightweight group (see "completion" below, DESIGN §21).
* **Deterministic reactions** to view changes (fault policies that need no
  new decisions — killing local ranks of a doomed app) are applied locally
  at every daemon: virtual synchrony guarantees they all act on the same
  event sequence.  Reactions that *choose* something (replacement nodes for
  a restart) are made by one daemon — the app's restart coordinator — and
  broadcast.
* **Application processes** are opaque handles created by a
  ``process_factory`` (provided by :mod:`repro.core.runtime`), so this
  package has no dependency on the program runtime above it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.calibration import LOCAL_TCP_HOP, SPAWN_COST
from repro.ckpt.restart import (RestartInputs, StoredVersion, least_loaded,
                                plan_restart, restart_coordinator)
from repro.cluster.node import NodeState
from repro.daemon.protocol import CTL_PORT
from repro.daemon.registry import AppRecord, AppStatus, Registry
from repro.daemon.session import accept_loop
from repro.errors import DaemonError, Interrupt, PlacementError
from repro.gcs import CastEvent, GcsConfig, GroupMember, ViewEvent
from repro.gcs.endpoint import EndpointId
from repro.lwg import LwgCast, LwgManager, LwgP2p, LwgView
from repro.net.conn import Listener
from repro.obs.registry import get_registry
from repro.store import CheckpointStore

#: Default accounts: {user: (password, is_admin)}.
DEFAULT_USERS = {"admin": ("adminpw", True), "alice": ("alicepw", False),
                 "bob": ("bobpw", False)}

#: Per-application counters (label ``app``), bumped through ``_count``.
_APP_COUNTERS = {
    "daemon.restarts": "rollback restarts coordinated for this application",
    "daemon.ranks_restarted":
        "application ranks respawned by failure restarts",
    "daemon.ranks_migrated":
        "application ranks respawned by requested migrations",
}

#: ``AppStatus`` by value, for decoding a record blob.
_STATUS = {status.value: status for status in AppStatus}


class StarfishDaemon:
    """One node's daemon."""

    def __init__(self, engine, node, cluster, store: CheckpointStore,
                 process_factory: Callable, program_registry: Dict[str, Any],
                 gcs_config: Optional[GcsConfig] = None,
                 users: Optional[Dict[str, Tuple[str, bool]]] = None,
                 node_provisioner: Optional[Callable[[str], Any]] = None):
        self.engine = engine
        self.node = node
        self.cluster = cluster
        self.store = store
        self.process_factory = process_factory
        self.program_registry = program_registry
        self.node_provisioner = node_provisioner
        self.users = dict(users or DEFAULT_USERS)

        self.gm = GroupMember(engine, node, config=gcs_config,
                              state_provider=self._state_blob)
        self.lwg = LwgManager(engine, self.gm)
        self.registry = Registry()
        self.config: Dict[str, str] = {}
        self.disabled_nodes: Set[str] = set()
        #: Local application process handles: (app_id, rank) -> handle.
        self.handles: Dict[Tuple[str, int], Any] = {}
        #: Finished ranks' handles: their C/R modules stay alive (peers may
        #: still checkpoint with them) until the whole application ends.
        self._lingering: Dict[str, List[Any]] = {}
        #: Completion reports stamped with an incarnation this daemon has
        #: not reached yet, replayed by the ``app-restart`` that gets there.
        self._early_reports: Dict[str, List[LwgP2p]] = {}
        #: app id -> incarnation whose ``app-done`` this daemon has cast.
        self._done_cast: Dict[str, int] = {}
        self._listener: Optional[Listener] = None
        self._procs: List = []
        #: Apps whose LWG upcalls are pumped here: those this daemon has
        #: spawned a rank or copy of.
        self._lwg_pumps: Set[str] = set()
        self.log: List[Tuple[float, str]] = []
        # Daemon telemetry: the per-node series are fetched once and start
        # at zero for a fresh daemon instance on this node.
        self._registry = get_registry(engine)
        nid = node.node_id
        self._m_view_changes = self._registry.counter(
            "daemon.view_changes", node=nid,
            help="main-group view changes handled")
        self._m_members_left = self._registry.counter(
            "daemon.membership.left", node=nid,
            help="members that left main-group views seen here")
        self._m_hb_sent = self._registry.counter(
            "daemon.heartbeat.sent", node=nid,
            help="fleet heartbeat payloads produced by this daemon")
        self._m_hb_ranks = self._registry.gauge(
            "daemon.heartbeat.ranks", node=nid,
            help="primary ranks hosted, per the last heartbeat")
        self._m_local = {kind: self._registry.counter(
            "daemon.local_msgs", node=nid, kind=kind,
            help="daemon<->local-process messages by Table 1 kind")
            for kind in ("configuration", "lightweight membership")}
        for inst in (self._m_view_changes, self._m_members_left,
                     self._m_hb_sent, self._m_hb_ranks,
                     *self._m_local.values()):
            inst.reset()
        self._absorbed = False
        #: The main-group upcall being handled (named if its handler dies).
        self._handling = None
        #: App ids submitted here whose replicated record is still in
        #: flight (duplicate-submission guard).
        self._pending_submits: Set[str] = set()

    def _count(self, name: str, app_id: str, n: int = 1) -> None:
        """Bump a per-application counter.  Every daemon adds its share to
        the same ``name{app}`` series (the cluster-wide value is the sum),
        so the registry's own get-or-create is the only cache."""
        if n:
            self._registry.counter(name, app=app_id,
                                   help=_APP_COUNTERS[name]).inc(n)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self, contact: Optional[EndpointId] = None) -> None:
        self.gm.start(contact=contact)
        self._listener = Listener(self.engine,
                                  self.node.nic("tcp-ethernet"), CTL_PORT)
        self._procs = [
            self.node.spawn(self._main(), name=f"dmn:{self.node.node_id}"),
            self.node.spawn(accept_loop(self, self._listener),
                            name=f"dmn-accept:{self.node.node_id}"),
        ]

    @property
    def endpoint(self) -> EndpointId:
        return self.gm.endpoint

    def _log(self, msg: str) -> None:
        self.log.append((self.engine.now, msg))

    def _state_blob(self) -> dict:
        """State transfer for daemons joining the Starfish group."""
        return {
            "config": dict(self.config),
            "disabled": sorted(self.disabled_nodes),
            "apps": [self._record_blob(r) for r in self.registry.all()],
            "lwg": self.lwg.snapshot(),
        }

    @staticmethod
    def _record_blob(r: AppRecord) -> dict:
        blob = {
            "app_id": r.app_id, "owner": r.owner, "nprocs": r.nprocs,
            "program": r.program, "params": dict(r.params),
            "ft_policy": r.ft_policy, "ckpt_protocol": r.ckpt_protocol,
            "ckpt_level": r.ckpt_level, "ckpt_interval": r.ckpt_interval,
            "transport": r.transport, "polling": r.polling,
            "placement": dict(r.placement), "status": r.status.value,
            "results": dict(r.results), "done_ranks": list(r.done_ranks),
            "restarts": r.restarts, "world_version": r.world_version,
        }
        if r.replicas:
            # Only under active replication: absent otherwise, so blobs
            # (and everything derived from them) stay byte-stable.
            blob["replicas"] = {rank: list(backups)
                                for rank, backups in r.replicas.items()}
        return blob

    @staticmethod
    def _record_from_blob(b: dict) -> AppRecord:
        # Nothing is copied: the spec is ``b`` itself, and the containers
        # a replica changes are replaced, never written in place.
        rec = AppRecord(
            app_id=b["app_id"], spec=b, nprocs=b["nprocs"],
            placement=b["placement"], status=_STATUS[b["status"]],
            results=b["results"], done_ranks=b["done_ranks"],
            restarts=b["restarts"], world_version=b["world_version"])
        replicas = b.get("replicas")
        if replicas:
            rec.replicas = {int(rank): tuple(backups)
                            for rank, backups in replicas.items()}
        return rec

    # ------------------------------------------------------------------
    # Starfish group upcalls: handled one at a time, inside the event that
    # delivered the frame while this daemon is idle (``Mailbox.deliver``);
    # ``_main`` runs the ops that wait (spawning) and what queues behind them
    # ------------------------------------------------------------------

    def _main(self):
        try:
            yield from self.gm.events.serve(self._on_main_event)
        except Exception as exc:
            # Containment: a handler that raises ends this daemon's upcall
            # loop, never the delivery batch or any other daemon.  Unless it
            # was stopped (Interrupt) or the node crashed under it, the run
            # artifact must say why a member of the view applies nothing.
            if isinstance(exc, Interrupt) \
                    or self.node.state is NodeState.DOWN:
                return
            ev = self._handling
            op = ev.payload[0] if isinstance(ev, CastEvent) and ev.payload \
                and isinstance(ev.payload, tuple) else type(ev).__name__
            self._log(f"op {op} failed: {exc!r}")
            self._registry.events.emit(
                self.engine.now, "daemon.op_failed", node=self.node.node_id,
                op=op, error=repr(exc))

    def _on_main_event(self, ev):
        """Handle one upcall; returns a generator iff the op waits."""
        self._handling = ev
        consumed = self.lwg.on_main_event(ev)
        if isinstance(ev, ViewEvent):
            if ev.state is not None and not self._absorbed:
                # Joining the Starfish group: adopt the replicated
                # cluster state from the coordinator's transfer.
                self._absorb_state(ev.state)
            self._absorbed = True
            self._on_main_view(ev)
        elif not consumed and isinstance(ev, CastEvent):
            return self._apply_op(ev.payload, ev.source)
        return None

    # ------------------------------------------------------------------
    # replicated operations
    # ------------------------------------------------------------------

    def _apply_op(self, payload, source):
        if not isinstance(payload, tuple) or not payload:
            return None
        op = payload[0]
        handler = getattr(self, "_op_" + op.replace("-", "_"), None)
        if handler is None:
            return None
        return handler(payload, source)

    # -- configuration ---------------------------------------------------

    def _op_cfg_set(self, payload, source):
        _, key, value = payload
        self.config[key] = value

    def _op_node_admin(self, payload, source):
        _, action, node_id = payload
        if action == "disable":
            self.disabled_nodes.add(node_id)
        else:
            self.disabled_nodes.discard(node_id)
        if node_id == self.node.node_id:
            try:
                if action == "disable" and self.node.is_up:
                    self.node.disable()
                elif action == "enable":
                    self.node.enable()
            except Exception:
                pass

    # -- application lifecycle ---------------------------------------------

    def _op_app_submit(self, payload, source):
        # It names the hosting daemons: applying it opens the app's LWG.
        _, blob, members = payload
        record = self._record_from_blob(blob)
        self.lwg.open(record.app_id, members)
        self.registry.add(record)
        self._pending_submits.discard(record.app_id)
        self._log(f"submit {record.app_id} x{record.nprocs} "
                  f"-> {record.placement}")
        return self._spawn_local_ranks(record, plan=None)

    def _op_app_restart(self, payload, source):
        # Migrations append a cause: their respawns land on
        # ``daemon.ranks_migrated``, so ``daemon.ranks_restarted`` measures
        # recovery work paid to *failures* only and a proactively-migrated
        # app can prove it never paid one (the fleet's gate).
        _, app_id, plan = payload[:3]
        respawned = ("daemon.ranks_migrated" if payload[3:] == ("migration",)
                     else "daemon.ranks_restarted")
        record = self.registry.maybe(app_id)
        if record is None or record.finished:
            return None
        record.placement = dict(plan.placement)
        record.world_version = plan.world_version
        record.restarts += 1
        self._count("daemon.restarts", app_id)
        self._registry.events.emit(
            self.engine.now, "daemon.restart", node=self.node.node_id,
            app=app_id)
        record.status = AppStatus.RUNNING
        if plan.mode.solo:
            # Only ``plan.line``'s ranks respawn (none under a failover):
            # survivors, and their "done" bookkeeping, are untouched.
            ranks = set(plan.line)
            record.done_ranks = [r for r in record.done_ranks
                                 if r not in ranks]
            for rank in sorted(ranks):
                self._kill_rank(app_id, rank, "solo restart")
        else:
            # Every rank re-executes from the recovery line: "done"
            # bookkeeping from the rolled-back execution is void.
            ranks = None
            record.done_ranks = []
            self._kill_local(app_id, "rollback")
        if plan.promote:
            # Active replication: a surviving copy of each lost rank is
            # promoted to primary *in place*.  Nothing respawns, survivors
            # never stopped, and ``daemon.ranks_restarted`` stays absent
            # — that is the mode's whole point.
            record.replicas = dict(plan.replicas)
            for rank, node_id in sorted(plan.promote.items()):
                if node_id != self.node.node_id:
                    continue
                # (A copy that finished as a backup is still in
                # ``handles``; promoting it reports the result it holds.)
                handle = self.handles.get((app_id, rank))
                if handle is not None and hasattr(handle, "promote"):
                    handle.promote()
        self._count(respawned, app_id, sum(
            1 for r in record.ranks_on(self.node.node_id)
            if ranks is None or r in ranks))
        self._new_incarnation(record)
        return self._spawn_local_ranks(record, plan=plan, only_ranks=ranks)

    def _op_app_grow(self, payload, source):
        _, app_id, new_placement, world_version = payload
        record = self.registry.maybe(app_id)
        if record is None or record.finished:
            return
        record.placement = {**record.placement, **new_placement}
        record.nprocs = len(record.placement)
        record.world_version = world_version
        spawning = self._spawn_local_ranks(
            record, plan=None, only_ranks=set(new_placement))
        if spawning is not None:
            yield from spawning
        # Tell running processes about the grown world.
        self._notify_world(record)

    # -- completion (DESIGN §21): a host knows its own finished ranks, the
    # *app authority* — the lowest member of the app's lightweight group —
    # collects them point-to-point, everybody else learns the result vector
    # from its one ``app-done`` cast.  Until then ``record.done_ranks`` /
    # ``record.results`` mean "known here".

    def rank_done(self, app_id: str, rank: int, result) -> None:
        """The one way a finished primary is reported (by its watcher, or a
        promoted copy that had finished): park the handle, keep the result
        here (R1), tell the app authority."""
        record = self.registry.maybe(app_id)
        if record is None or record.finished:
            return
        handle = self.handles.pop((app_id, rank), None)
        if handle is not None:
            self._lingering.setdefault(app_id, []).append(handle)
        self._merge_done(record, {rank: result})
        self._report_done(record)

    @staticmethod
    def _merge_done(record: AppRecord, results: Dict[int, Any]) -> None:
        record.done_ranks = record.done_ranks + [
            rank for rank in results if rank not in record.done_ranks]
        record.results = {**record.results, **results}

    def _report_done(self, record: AppRecord) -> None:
        """Send every finished rank hosted here to the app authority — the
        whole set each time, the receiver merges (R2) — or, being the
        authority, re-check completion (R4)."""
        authority = min(self.lwg.members(record.app_id), default=None)
        if authority == self.endpoint:
            self._check_complete(record)
            return
        mine = {r: record.results[r] for r in record.done_ranks
                if record.placement.get(r) == self.node.node_id}
        if mine and authority is not None:
            self.lwg.send(record.app_id, authority,
                          ("rank-done", record.restarts, mine),
                          kind="control")

    def _on_report(self, ev: LwgP2p) -> None:
        _, incarnation, results = ev.payload
        record = self.registry.maybe(ev.app_id)
        if record is None or record.finished \
                or incarnation < record.restarts:
            return      # R3: that execution was rolled back
        if incarnation > record.restarts:
            # R3: the reporter applied an ``app-restart`` we have not yet.
            self._early_reports.setdefault(ev.app_id, []).append(ev)
            return
        # Merged whoever we are (a sender may see an ``LwgView`` before we
        # do); only the authority acts.
        self._merge_done(record, results)
        self._check_complete(record)

    def _new_incarnation(self, record: AppRecord) -> None:
        """An ``app-restart`` has fixed what is still done: take the reports
        that waited for it (R3), re-send what is still valid here (R2)."""
        for ev in self._early_reports.pop(record.app_id, ()):
            self._on_report(ev)
        self._report_done(record)

    def _check_complete(self, record: AppRecord) -> None:
        """Authority only: once every rank still placed has reported, cast
        ``app-done`` (once per incarnation).  Checked when a report arrives,
        on becoming authority and when the placement shrinks (R4)."""
        app_id = record.app_id
        if record.finished or not self._is_app_authority(record) \
                or len(record.done_ranks) < len(record.placement) \
                or not set(record.done_ranks) >= set(record.placement) \
                or self._done_cast.get(app_id) == record.restarts:
            return
        self._done_cast[app_id] = record.restarts
        self.gm.cast(("app-done", app_id, record.restarts,
                      {r: record.results[r] for r in record.done_ranks}))

    def _op_app_done(self, payload, source):
        _, app_id, incarnation, results = payload
        record = self.registry.maybe(app_id)
        if record is None or record.finished \
                or incarnation != record.restarts:
            return      # a second authority's copy, or rolled back since (R3)
        record.results = results
        record.done_ranks = list(results)
        record.status = AppStatus.DONE
        self._log(f"app {app_id} done")
        self._kill_local(app_id, "application complete")
        self._early_reports.pop(app_id, None)
        self._done_cast.pop(app_id, None)
        self.lwg.close(app_id)

    def _op_app_rank_failed(self, payload, source):
        _, app_id, rank, reason = payload
        record = self.registry.maybe(app_id)
        if record is None or record.finished:
            return
        record.status = AppStatus.FAILED
        self._log(f"app {app_id} rank {rank} failed: {reason}")
        self._kill_local(app_id, f"rank {rank} failed: {reason}")

    def _op_app_migrate(self, payload, source):
        """Process migration via C/R (paper §3.2.1): a restart whose one
        "lost" rank is alive and whose replacement node is chosen.
        :meth:`migrate` validated the request before casting it; only what
        can change between that cast and this delivery is re-checked.
        """
        _, app_id, rank, target_node = payload
        record = self.registry.maybe(app_id)
        if record is None or record.finished or record.replicas \
                or record.placement.get(rank, target_node) == target_node:
            return
        alive_nodes = {m.node for m in self.gm.view.members} \
            if self.gm.view else set()
        self._begin_restart(record, [rank], alive_nodes, "migration",
                            {rank: target_node})

    def _op_app_cmd(self, payload, source):
        _, app_id, cmd = payload
        record = self.registry.maybe(app_id)
        if record is None:
            return
        if cmd == "kill":
            if not record.finished:
                record.status = AppStatus.KILLED
            self._kill_local(app_id, "killed")
        elif cmd == "suspend" and not record.finished:
            record.status = AppStatus.SUSPENDED
            for _rank, handle in self._local(app_id):
                handle.suspend()
        elif cmd == "resume" and not record.finished:
            record.status = AppStatus.RUNNING
            for _rank, handle in self._local(app_id):
                handle.resume()
        elif cmd == "checkpoint":
            for rank, handle in self._local(app_id):
                if rank == min(record.placement):
                    handle.request_user_checkpoint()
        elif cmd == "delete":
            if not record.finished:
                record.status = AppStatus.KILLED
            self._kill_local(app_id, "deleted")
            self.registry.remove(app_id)
            self.store.drop_app(app_id)

    def _local(self, app_id: str):
        """``(rank, handle)`` of every running local handle of an app (a
        snapshot: the caller may kill or park what it is given)."""
        for (aid, rank), handle in list(self.handles.items()):
            if aid == app_id:
                yield rank, handle

    def _kill_local(self, app_id: str, reason: str) -> None:
        if app_id not in self._lwg_pumps:
            return      # nothing of the app was ever spawned here
        for rank, handle in self._local(app_id):
            handle.kill(reason)
            del self.handles[(app_id, rank)]
        for handle in self._lingering.pop(app_id, []):
            handle.kill(reason)

    def _kill_rank(self, app_id: str, rank: int, reason: str) -> None:
        """Kill one local rank (solo restarts leave its peers running)."""
        handle = self.handles.pop((app_id, rank), None)
        if handle is not None:
            handle.kill(reason)

    # ------------------------------------------------------------------
    # spawning
    # ------------------------------------------------------------------

    def _spawn_local_ranks(self, record: AppRecord, plan,
                           only_ranks: Optional[Set[int]] = None):
        """The generator that spawns this node's share of ``record`` (one
        ``SPAWN_COST`` each; ``plan``: the restart they resume by, if
        any), or ``None`` when it hosts none of it."""
        if not record.hosted_on(self.node.node_id):
            return None
        mine = [(r, 0) for r in record.ranks_on(self.node.node_id)
                if only_ranks is None or r in only_ranks]
        # Backup copies under active replication: same rank, same program,
        # copy index >= 1.  A node hosts at most one copy of a given rank
        # (placement excludes co-location), so the handle key stays
        # (app_id, rank).
        mine += [(r, i) for (r, i) in record.copies_on(self.node.node_id)
                 if only_ranks is None or r in only_ranks]
        if not mine:
            return None
        self._ensure_lwg_pump(record.app_id)
        return self._spawn(record, mine, plan)

    def _spawn(self, record: AppRecord, mine, plan):
        for rank, copy in mine:
            yield self.engine.timeout(SPAWN_COST)
            if copy:
                handle = self.process_factory(self, record, rank, plan,
                                              replica=copy)
            else:
                handle = self.process_factory(self, record, rank, plan)
            self.handles[(record.app_id, rank)] = handle
            handle.start()
            # Initialization configuration messages (Table 1): the rank
            # reads them from record.params and record.transport.
            self._m_local["configuration"].inc(2)
            self.node.spawn(self._watch(record.app_id, rank, handle),
                            name=f"watch:{record.app_id}:{rank}")

    def _watch(self, app_id: str, rank: int, handle):
        try:
            outcome = yield handle.done
        except Exception:
            return
        kind, value = outcome
        current = self.handles.get((app_id, rank))
        if current is not handle:
            return  # superseded by a restart
        if getattr(handle, "replica", 0):
            # A backup copy's outcome is not the rank's: only the primary
            # reports.  If this copy is promoted after finishing, its
            # promote() reports the result it is holding.
            return
        if kind == "ok":
            self.rank_done(app_id, rank, value)
        elif kind == "error":
            self.gm.cast(("app-rank-failed", app_id, rank, repr(value)))
        # kind == "killed": deliberate; nothing to report.

    # ------------------------------------------------------------------
    # lightweight-group plumbing (C/R + coordination message relay)
    # ------------------------------------------------------------------

    def _ensure_lwg_pump(self, app_id: str) -> None:
        if app_id in self._lwg_pumps:
            return
        self._lwg_pumps.add(app_id)
        self.node.spawn(self._lwg_pump(self.lwg.subscribe(app_id)),
                        name=f"lwgpump:{app_id}@{self.node.node_id}")

    def _lwg_pump(self, ch):
        try:
            yield from ch.serve(self._on_lwg_event)
        except Exception:
            return  # stopped (Interrupt), or the node crashed under us

    def _on_lwg_event(self, ev):
        if isinstance(ev, LwgCast):
            return self._relay_cast(ev)
        if isinstance(ev, LwgP2p):
            self._on_report(ev)
        elif isinstance(ev, LwgView):
            record = self.registry.maybe(ev.app_id)
            if record is not None:
                self._notify_world(record)
                was = (set(ev.members) - set(ev.joined)) | set(ev.left)
                if ev.members and min(ev.members) != min(was, default=None):
                    self._report_done(record)   # R2/R4: new authority
        return None

    def _relay_cast(self, ev: LwgCast):
        # Daemon -> application process local TCP hop.
        yield self.engine.timeout(LOCAL_TCP_HOP)
        tag = ev.payload[0]
        if tag == "cr":
            _, src_rank, inner = ev.payload
            for handle in self._app_handles(ev.app_id):
                handle.deliver_cr(inner, src_rank)
        elif tag == "coord":
            _, src_rank, inner = ev.payload
            for handle in self._app_handles(ev.app_id):
                handle.deliver_coordination(inner, src_rank)

    def _app_handles(self, app_id: str):
        """Local handles of an app, including finished (lingering) ranks —
        those still participate in checkpoint protocols."""
        out = [handle for _rank, handle in self._local(app_id)]
        out.extend(self._lingering.get(app_id, ()))
        return out

    def _notify_world(self, record: AppRecord) -> None:
        """Push the app's current placement/world to local processes."""
        alive_nodes = {m.node for m in
                       self.lwg.members(record.app_id)} or \
            set(record.placement.values())
        world = sorted(r for r, n in record.placement.items()
                       if n in alive_nodes)
        for _rank, handle in self._local(record.app_id):
            self._m_local["lightweight membership"].inc()
            handle.deliver_membership(tuple(world), record.world_version,
                                      dict(record.placement))

    # -- services used by application-process handles -------------------------

    def cr_cast(self, app_id: str, src_rank: int, payload) -> None:
        """C/R message relay (Table 1: through daemons, lightweight group).

        The application process reaches its daemon over the local TCP
        connection first (one :data:`~repro.calibration.LOCAL_TCP_HOP`).
        """
        self._after_local_hop(
            lambda: self.lwg.cast(app_id, ("cr", src_rank, payload),
                                  kind="checkpoint/restart"))

    def coord_cast(self, app_id: str, src_rank: int, payload) -> None:
        self._after_local_hop(
            lambda: self.lwg.cast(app_id, ("coord", src_rank, payload),
                                  kind="coordination"))

    def _after_local_hop(self, action) -> None:
        ev = self.engine.timeout(LOCAL_TCP_HOP)
        ev.callbacks.append(lambda _e: action())

    def request_spawn(self, app_id: str, nprocs: int) -> None:
        """MPI-2 dynamic process management entry point."""
        record = self.registry.get(app_id)
        new_ranks = {}
        next_rank = max(record.placement) + 1
        targets = self._pick_nodes(nprocs)
        for i, node_id in enumerate(targets):
            new_ranks[next_rank + i] = node_id
        self._reconcile_lwg(app_id, {ep.node for ep in
                                     self.lwg.members(app_id)} | set(targets))
        self.gm.cast(("app-grow", app_id, new_ranks,
                      record.world_version + 1))

    # ------------------------------------------------------------------
    # fault handling (main view changes)
    # ------------------------------------------------------------------

    def _on_main_view(self, ev: ViewEvent) -> None:
        self._m_view_changes.inc()
        if not ev.left:
            return
        self._m_members_left.inc(len(ev.left))
        dead_nodes = {m.node for m in ev.left}
        alive_nodes = {m.node for m in ev.view.members}
        for record in self.registry.active():
            if record.replicas:
                # Deterministic at every daemon: forget backup copies the
                # dead nodes were hosting.  This never removes a lost
                # rank's failover candidates — those are on alive nodes —
                # and crashed backups are simply not re-replicated (no
                # re-replication service; see the replication module).
                pruned = {r: tuple(n for n in backups
                                   if n not in dead_nodes)
                          for r, backups in record.replicas.items()}
                record.replicas = {r: b for r, b in pruned.items() if b}
            lost = [r for r, n in record.placement.items()
                    if n in dead_nodes]
            if lost:
                self._handle_app_failure(record, lost, alive_nodes)

    def _handle_app_failure(self, record: AppRecord, lost: List[int],
                            alive_nodes: Set[str]) -> None:
        policy = record.ft_policy
        self._log(f"app {record.app_id} lost ranks {lost} (policy {policy})")
        if policy == "kill":
            # Deterministic at every daemon: mark and kill local ranks.
            record.status = AppStatus.FAILED
            self._kill_local(record.app_id, "node failure (kill policy)")
        elif policy == "view-notify":
            # The lightweight group already shrank; the registry forgets
            # the dead ranks and processes learn their new dense world.
            record.placement = {r: n for r, n in record.placement.items()
                                if r not in lost}
            record.world_version += 1
            self._notify_world(record)
            # Every survivor may have reported already.
            if record.placement:
                self._check_complete(record)
        elif policy == "restart":
            self._begin_restart(record, lost, alive_nodes,
                                "rollback on failure", {})

    def _begin_restart(self, record: AppRecord, ranks: List[int],
                       alive_nodes: Set[str], why: str,
                       moves: Dict[int, str]) -> None:
        """The one way a restart starts, at every daemon: mark the app,
        kill what will respawn here, and let the app's restart coordinator
        plan, place and cast ``app-restart``.  ``ranks`` restart because
        their node died (each gets a fresh node) or because ``moves``
        names the node they go to (a migration; empty for a failure).
        """
        mode = self._restart_mode(record)
        record.status = AppStatus.RESTARTING
        if mode is None or not mode.solo:
            # Rollback recovery restarts everyone; log-based recovery and
            # failover (solo) leave the survivors computing.
            self._kill_local(record.app_id, why)
        else:
            for rank in moves:          # lost ranks died with their node
                self._kill_rank(record.app_id, rank, why)
        if restart_coordinator(self.gm.view.members, record.placement,
                               alive_nodes) == self.endpoint:
            self._coordinate_restart(record, ranks, moves)

    def _is_app_authority(self, record: AppRecord) -> bool:
        members = self.lwg.members(record.app_id)
        return bool(members) and min(members) == self.endpoint

    @staticmethod
    def _restart_mode(record: AppRecord):
        """The restart mode of the app's C/R protocol (or None when the app
        checkpoints nothing)."""
        from repro.ckpt.protocols import PROTOCOLS
        cls = PROTOCOLS.get(record.ckpt_protocol)
        return None if cls is None else cls.restart_mode

    def _coordinate_restart(self, record: AppRecord, lost: List[int],
                            moves: Dict[int, str]) -> None:
        app_id = record.app_id
        plan = plan_restart(self._restart_inputs(record, lost, moves))
        # Fix the lightweight group membership before respawning: the
        # hosts of every rank and of every backup copy (after a k-exhausted
        # replication fallback the pruned backup hosts respawn theirs too).
        self._reconcile_lwg(app_id, plan.hosting)
        op = ("app-restart", app_id, plan)
        self.gm.cast(op + ("migration",) if moves else op)
        line = f"{plan.mode.value} {plan.line}"
        if moves:
            (rank, node_id), = moves.items()
            self._log(f"migrate {app_id} rank {rank} -> {node_id} "
                      f"(from {line})")
        elif plan.promote:
            self._log(f"failover {app_id}: promote {plan.promote}")
        else:
            self._log(f"restart {app_id} from {line} on {plan.placement}")

    def _restart_inputs(self, record: AppRecord, lost: List[int],
                        moves: Dict[int, str]) -> RestartInputs:
        """What :func:`plan_restart` decides from, read once here (a
        checkpoint is usable if it can be restored from this node)."""
        schedulable, nodes = self._schedulable(), self.cluster.nodes
        return RestartInputs(
            mode=self._restart_mode(record), lost=tuple(lost),
            alive=frozenset(m.node for m in self.gm.view.members),
            placement=dict(record.placement), moves=dict(moves),
            replicas=dict(record.replicas), level=record.ckpt_level,
            world_version=record.world_version,
            stored={rank: tuple(self._stored(record.app_id, rank))
                    for rank in sorted(record.placement)},
            committed=tuple(self.store.committed_versions(record.app_id)),
            load={n: load for load, n in schedulable},
            archs={n: nodes[n].arch for _load, n in schedulable
                   if n in nodes})

    def _stored(self, app_id: str, rank: int):
        """``rank``'s stored checkpoints, as the restart plan reads them."""
        store, me = self.store, self.node.node_id
        for version in store.versions_of(app_id, rank):
            rec = store.peek(app_id, rank, version)
            yield StoredVersion(
                version, store.record_available(app_id, rank, version,
                                                from_node=me),
                rec.arch_name, tuple(rec.deps))

    def _reconcile_lwg(self, app_id: str, hosting: Set[str]) -> None:
        """Make the app's lightweight group span the daemons on ``hosting``:
        those not in it join, members elsewhere (or gone from the main
        view) leave."""
        members = set(self.lwg.members(app_id))
        for node_id in sorted(hosting):
            ep = self.gm.view.member_on(node_id)
            if ep is not None and ep not in members:
                self.lwg.join(app_id, ep)
        for ep in sorted(members):
            if ep.node not in hosting or ep not in self.gm.view.members:
                self.lwg.leave(app_id, ep)

    def _pick_nodes(self, count: int) -> List[str]:
        """Least-loaded schedulable nodes (round-robin on ties)."""
        return least_loaded(self._schedulable(), count)

    def _schedulable(self) -> List[Tuple[int, str]]:
        """``(ranks of active apps placed there, node)`` of each view
        member's node that is not disabled."""
        if self.gm.view is None:
            raise PlacementError("daemon has no view of the cluster")
        load: Dict[str, int] = {}
        for rec in self.registry.active():
            for node_id in rec.placement.values():
                load[node_id] = load.get(node_id, 0) + 1
        return [(load.get(m.node, 0), m.node) for m in self.gm.view.members
                if m.node not in self.disabled_nodes]

    def _absorb_state(self, blob: dict) -> None:
        self.config = dict(blob.get("config", {}))
        self.disabled_nodes = set(blob.get("disabled", ()))
        for app_blob in blob.get("apps", ()):
            self.registry.add(self._record_from_blob(app_blob))
        self.lwg.absorb(blob.get("lwg", {}))

    # ------------------------------------------------------------------
    # the command surface: every client format (``StarfishCluster``, the
    # ASCII session server, the fleet's JSON ``ControlAPI``) reaches these
    # methods, which validate *before* anything is cast
    # ------------------------------------------------------------------

    def submit(self, app_id: str, spec) -> str:
        """Submit the application a (validated) :class:`~repro.core.AppSpec`
        describes; returns its app id.  The one place a spec becomes an
        :class:`AppRecord`."""
        if app_id in self.registry or app_id in self._pending_submits:
            raise DaemonError(f"duplicate app id {app_id!r}")
        ckpt = spec.checkpoint
        placement = spec.placement \
            or dict(enumerate(self._pick_nodes(spec.nprocs)))
        record = AppRecord(
            app_id=app_id, nprocs=spec.nprocs, placement=placement, spec={
                "owner": spec.owner, "program": spec.program,
                "params": spec.params, "ft_policy": spec.ft_policy.value,
                "ckpt_protocol": ckpt.protocol, "ckpt_level": ckpt.level,
                "ckpt_interval": ckpt.interval, "transport": spec.transport,
                "polling": spec.polling})
        if ckpt.replicas > 1:
            # Active replication: 1 primary + ``replicas - 1`` backups per
            # rank, each on a distinct node chosen by the ring rule.
            record.replicas = self._place_replicas(placement, ckpt.replicas)
        # The announcement names the hosting daemons (the app's LWG).
        hosting = set(placement.values())
        hosting.update(*record.replicas.values())
        members = []
        for node_id in sorted(hosting):
            ep = self.gm.view.member_on(node_id) if self.gm.view else None
            if ep is None:
                raise PlacementError(f"no daemon on node {node_id!r}")
            members.append(ep)
        self._pending_submits.add(app_id)
        self.gm.cast(("app-submit", self._record_blob(record),
                      tuple(members)))
        return app_id

    def migrate(self, app_id: str, rank: int, target_node: str) -> None:
        """Move one rank to ``target_node`` by rolling the application back
        to its last recovery line with that placement (paper §3.2.1: C/R
        doubles as process migration).  Every precondition lives here and
        raises a typed error before anything is cast, so no surface can
        strand a caller waiting for a migration that never runs.
        """
        record = self.registry.get(app_id)      # raises UnknownApplication
        node = self.cluster.nodes.get(target_node)
        if node is None:
            raise PlacementError(f"unknown node {target_node!r}")
        if not node.is_up:
            raise PlacementError(f"target node {target_node!r} is "
                                 f"{node.state.value}, not up")
        if record.finished:
            raise DaemonError(f"app {app_id} already finished "
                              f"({record.status.value})")
        source = record.placement.get(rank)
        if source is None:
            raise PlacementError(f"no rank {rank} in app {app_id} "
                                 f"(ranks: {sorted(record.placement)})")
        if source == target_node:
            raise PlacementError(f"rank {rank} of {app_id} already runs on "
                                 f"{target_node!r}")
        if record.replicas:
            raise PlacementError(
                f"app {app_id} uses active replication; replicated apps do "
                "not migrate (failover moves ranks instead)")
        if self.gm.view is None or self.gm.view.member_on(target_node) is None:
            raise PlacementError(
                f"no daemon registered on {target_node!r} in the current "
                "Starfish group view")
        origin = self.cluster.nodes.get(source)
        if record.ckpt_protocol and record.ckpt_level == "native" \
                and origin is not None \
                and not origin.arch.same_representation(node.arch):
            # The rule ``plan_restart`` applies to the nodes it picks
            # (paper §4), applied to the node the caller picked.
            raise PlacementError(
                f"app {app_id} checkpoints at native level: rank {rank} "
                f"restores only on {source!r}'s data representation, which "
                f"{target_node!r} ({node.arch.name}) does not share")
        self.gm.cast(("app-migrate", app_id, rank, target_node))

    def _place_replicas(self, placement: Dict[int, str],
                        replicas: int) -> Dict[int, Tuple[str, ...]]:
        """Backup-copy placement (active replication): ``replicas - 1``
        nodes per rank, the primary's ring successors (the store's rule),
        never the primary's node — co-located copies would die together,
        defeating the mode.
        """
        from repro.store.placement import ring_successors
        if self.gm.view is None:
            raise PlacementError("daemon has no view of the cluster")
        schedulable = sorted(m.node for m in self.gm.view.members
                             if m.node not in self.disabled_nodes)
        out: Dict[int, Tuple[str, ...]] = {}
        for rank in sorted(placement):
            primary = placement[rank]
            backups = ring_successors(primary, schedulable, replicas - 1)
            if len(backups) < replicas - 1:
                raise PlacementError(
                    f"cannot place {replicas} distinct copies of rank "
                    f"{rank}: only {1 + len(backups)} schedulable nodes")
            out[rank] = tuple(backups)
        return out

    # ------------------------------------------------------------------
    # fleet heartbeat (load/liveness payload for repro.fleet.FleetView)
    # ------------------------------------------------------------------

    def heartbeat(self) -> Dict[str, Any]:
        """One fleet heartbeat: this node's liveness + load payload, which
        is what :class:`repro.fleet.FleetView` reads (the two
        ``daemon.heartbeat.*`` instruments only count and mirror it)."""
        nid = self.node.node_id
        ranks = copies = 0
        apps: List[str] = []
        for rec in self.registry.active():
            mine = len(rec.ranks_on(nid))
            held = len(rec.copies_on(nid))
            ranks += mine
            copies += held
            if mine or held:
                apps.append(rec.app_id)
        self._m_hb_sent.inc()
        self._m_hb_ranks.set(ranks)
        return {"node": nid, "time": self.engine.now,
                "epoch": self.gm.view.epoch if self.gm.view else -1,
                "ranks": ranks, "copies": copies, "apps": apps,
                "store_bytes": self._store_bytes_held()}

    def _store_bytes_held(self) -> int:
        """Checkpoint-store bytes whose replicas live on this node."""
        nid = self.node.node_id
        total = 0
        for _key, record in self.store.iter_records():
            if nid in record.all_holders():
                total += record.nbytes
        return total
