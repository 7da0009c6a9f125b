"""The Starfish daemon.

One instance per node.  See the package docstring for the architecture;
implementation notes:

* **Replicated state** (cluster config, application registry) mutates only
  through totally-ordered main-group casts, so every daemon's replica stays
  identical and any daemon can serve any client or coordinate any recovery.
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

import itertools
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.calibration import LOCAL_TCP_HOP, SPAWN_COST
from repro.daemon.protocol import (MGMT_COMMANDS, USER_COMMANDS,
                                   format_response, parse_command,
                                   parse_submit_options)
from repro.daemon.registry import AppRecord, AppStatus, Registry
from repro.errors import (AuthenticationError, DaemonError, Interrupt,
                          PlacementError, ProtocolError, UnknownApplication)
from repro.gcs import CastEvent, GcsConfig, GroupMember, ViewEvent
from repro.gcs.endpoint import EndpointId
from repro.lwg import LwgCast, LwgManager, LwgView
from repro.net.conn import Listener
from repro.obs.registry import get_registry
from repro.store import CheckpointStore

CTL_PORT = "starfish-ctl"

#: Default accounts: {user: (password, is_admin)}.
DEFAULT_USERS = {"admin": ("adminpw", True), "alice": ("alicepw", False),
                 "bob": ("bobpw", False)}


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
        self._listener: Optional[Listener] = None
        self._procs: List = []
        self._lwg_pumps: Set[str] = set()
        self._submit_seq = itertools.count(1)
        self.log: List[Tuple[float, str]] = []
        # Daemon telemetry, one series per (node, kind) / (node) / (app).
        self._registry = get_registry(engine)
        self._m_local: Dict[str, Any] = {}
        self._m_restarts: Dict[str, Any] = {}
        self._m_ranks_restarted: Dict[str, Any] = {}
        self._m_ranks_migrated: Dict[str, Any] = {}
        self._m_view_changes = self._registry.counter(
            "daemon.view_changes", node=node.node_id,
            help="main-group view changes handled")
        self._m_view_changes.reset()
        # Structured counterparts of the heartbeat/membership log lines:
        # FleetView and `repro metrics` read these instead of parsing
        # ``_log`` output.
        self._m_members_joined = self._registry.counter(
            "daemon.membership.joined", node=node.node_id,
            help="members that joined main-group views seen here")
        self._m_members_left = self._registry.counter(
            "daemon.membership.left", node=node.node_id,
            help="members that left main-group views seen here")
        self._m_hb_sent = self._registry.counter(
            "daemon.heartbeat.sent", node=node.node_id,
            help="fleet heartbeat payloads produced by this daemon")
        self._m_hb_ranks = self._registry.gauge(
            "daemon.heartbeat.ranks", node=node.node_id,
            help="primary ranks hosted, per the last heartbeat")
        self._m_hb_copies = self._registry.gauge(
            "daemon.heartbeat.copies", node=node.node_id,
            help="replica copies hosted, per the last heartbeat")
        self._m_hb_apps = self._registry.gauge(
            "daemon.heartbeat.apps", node=node.node_id,
            help="applications with local processes, per the last heartbeat")
        self._m_hb_store_bytes = self._registry.gauge(
            "daemon.heartbeat.store_bytes", node=node.node_id,
            help="checkpoint-store bytes held, per the last heartbeat")
        for inst in (self._m_members_joined, self._m_members_left,
                     self._m_hb_sent, self._m_hb_ranks, self._m_hb_copies,
                     self._m_hb_apps, self._m_hb_store_bytes):
            inst.reset()   # fresh daemon instance on this node
        self._absorbed = False
        #: App ids submitted here whose replicated record is still in
        #: flight (duplicate-submission guard).
        self._pending_submits: Set[str] = set()

    @property
    def local_msgs(self) -> Dict[str, int]:
        """Local daemon<->application-process messages by Table 1 kind
        (read side of ``daemon.local_msgs{node,kind}``)."""
        return {k: int(m.value) for k, m in self._m_local.items()
                if m.value}

    def _count_local(self, kind: str, n: int = 1) -> None:
        counter = self._m_local.get(kind)
        if counter is None:
            counter = self._registry.counter(
                "daemon.local_msgs", node=self.node.node_id, kind=kind,
                help="daemon<->local-process messages by Table 1 kind")
            counter.reset()   # fresh daemon instance on this node
            self._m_local[kind] = counter
        counter.inc(n)

    def _count_restart(self, app_id: str) -> None:
        counter = self._m_restarts.get(app_id)
        if counter is None:
            counter = self._registry.counter(
                "daemon.restarts", app=app_id,
                help="rollback restarts coordinated for this application")
            self._m_restarts[app_id] = counter
        counter.inc()
        self._registry.events.emit(
            self.engine.now, "daemon.restart", node=self.node.node_id,
            app=app_id)

    def _count_ranks_restarted(self, app_id: str, n: int) -> None:
        """Ranks this daemon respawned for a restart (the cluster-wide
        series is the sum: each daemon only counts its local spawns)."""
        if not n:
            return
        counter = self._m_ranks_restarted.get(app_id)
        if counter is None:
            counter = self._registry.counter(
                "daemon.ranks_restarted", app=app_id,
                help="application ranks respawned by failure restarts")
            self._m_ranks_restarted[app_id] = counter
        counter.inc(n)

    def _count_respawns(self, app_id: str, n: int, cause: str) -> None:
        """Migration-driven respawns land on ``daemon.ranks_migrated``,
        not ``daemon.ranks_restarted``: the latter measures recovery work
        paid to *failures* only, so a proactively-migrated app can prove
        it never paid one (the fleet's ``ranks_restarted == 0`` gate)."""
        if cause != "migration":
            self._count_ranks_restarted(app_id, n)
            return
        if not n:
            return
        counter = self._m_ranks_migrated.get(app_id)
        if counter is None:
            counter = self._registry.counter(
                "daemon.ranks_migrated", app=app_id,
                help="application ranks respawned by requested migrations")
            self._m_ranks_migrated[app_id] = counter
        counter.inc(n)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self, contact: Optional[EndpointId] = None) -> None:
        self.gm.start(contact=contact)
        self._listener = Listener(self.engine,
                                  self.node.nic("tcp-ethernet"), CTL_PORT)
        self._procs = [
            self.node.spawn(self._main(), name=f"dmn:{self.node.node_id}"),
            self.node.spawn(self._accept_loop(),
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
        rec = AppRecord(
            app_id=b["app_id"], owner=b["owner"], nprocs=b["nprocs"],
            program=b["program"], params=dict(b["params"]),
            ft_policy=b["ft_policy"], ckpt_protocol=b["ckpt_protocol"],
            ckpt_level=b["ckpt_level"], ckpt_interval=b["ckpt_interval"],
            transport=b["transport"], polling=b["polling"],
            placement=dict(b["placement"]),
            status=AppStatus(b["status"]))
        rec.results = dict(b["results"])
        rec.done_ranks = list(b["done_ranks"])
        rec.restarts = b["restarts"]
        rec.world_version = b["world_version"]
        rec.replicas = {int(rank): tuple(backups)
                        for rank, backups in b.get("replicas", {}).items()}
        return rec

    # ------------------------------------------------------------------
    # Starfish group upcalls: handled one at a time, inside the event that
    # delivered the frame while this daemon is idle (``Mailbox.deliver``);
    # ``_main`` runs the ops that wait (spawning) and what queues behind them
    # ------------------------------------------------------------------

    def _main(self):
        try:
            yield from self.gm.events.serve(self._on_main_event)
        except Exception:
            return  # stopped (Interrupt), or the node crashed under us

    def _on_main_event(self, ev):
        """Handle one upcall; returns a generator iff the op waits."""
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
        _, blob = payload
        record = self._record_from_blob(blob)
        self.registry.add(record)
        self._pending_submits.discard(record.app_id)
        self._log(f"submit {record.app_id} x{record.nprocs} "
                  f"-> {record.placement}")
        return self._spawn_local_ranks(record, restore=None)

    def _op_app_restart(self, payload, source):
        # Failure restarts cast 5-tuples (byte-stable with older runs);
        # migrations append a cause so respawns are attributed correctly.
        _, app_id, placement, restore, world_version = payload[:5]
        cause = payload[5] if len(payload) > 5 else "failure"
        record = self.registry.maybe(app_id)
        if record is None or record.finished:
            return None
        mode = restore.get("mode") if restore else None
        record.placement = dict(placement)
        record.world_version = world_version
        record.restarts += 1
        self._count_restart(app_id)
        record.status = AppStatus.RUNNING
        if mode == "failover":
            # Active replication: a surviving copy of each lost rank is
            # promoted to primary *in place*.  Nothing respawns, survivors
            # never stopped, and ``daemon.ranks_restarted`` stays absent
            # — that is the mode's whole point.
            record.replicas = {int(r): tuple(backups) for r, backups
                               in restore["replicas"].items()}
            for rank, node_id in sorted(restore["promote"].items()):
                if node_id != self.node.node_id:
                    continue
                handle = self.handles.get((app_id, rank))
                if handle is None:
                    # The copy may have finished already (rank-done moved
                    # it to lingering); promoting it re-reports the result.
                    for h in self._lingering.get(app_id, ()):
                        if getattr(h, "rank", None) == rank:
                            handle = h
                            break
                if handle is not None and hasattr(handle, "promote"):
                    handle.promote()
            return None
        solo = mode == "log-replay"
        if solo:
            # Log-based recovery (planner.solo): only the crashed ranks
            # restart — survivors, and their "done" bookkeeping, are
            # untouched.  The world version did not bump.
            lost = set(restore["ranks"])
            record.done_ranks = [r for r in record.done_ranks
                                 if r not in lost]
            for rank in sorted(lost):
                self._kill_rank(app_id, rank, "solo restart")
            mine = [r for r in record.ranks_on(self.node.node_id)
                    if r in lost]
            self._count_respawns(app_id, len(mine), cause)
            return self._spawn_local_ranks(record, restore=restore,
                                           only_ranks=lost)
        # The rollback re-executes every rank from the recovery line, so
        # "done" bookkeeping from the rolled-back execution is void.
        record.done_ranks = []
        # Kill any local survivors: coordinated rollback restarts everyone.
        self._kill_local(app_id, "rollback")
        self._count_respawns(
            app_id, len(record.ranks_on(self.node.node_id)), cause)
        return self._spawn_local_ranks(record, restore=restore)

    def _op_app_grow(self, payload, source):
        _, app_id, new_placement, world_version = payload
        record = self.registry.maybe(app_id)
        if record is None or record.finished:
            return
        record.placement.update(new_placement)
        record.nprocs = len(record.placement)
        record.world_version = world_version
        spawning = self._spawn_local_ranks(
            record, restore=None, only_ranks=set(new_placement))
        if spawning is not None:
            yield from spawning
        # Tell running processes about the grown world.
        self._notify_world(record)

    def _op_app_rank_done(self, payload, source):
        _, app_id, rank, result = payload
        record = self.registry.maybe(app_id)
        if record is None:
            return
        if rank not in record.done_ranks:
            record.done_ranks.append(rank)
        record.results[rank] = result
        handle = self.handles.pop((app_id, rank), None)
        if handle is not None:
            self._lingering.setdefault(app_id, []).append(handle)
        if set(record.done_ranks) >= set(record.placement) and \
                not record.finished:
            record.status = AppStatus.DONE
            self._log(f"app {app_id} done")
            for lingering in self._lingering.pop(app_id, []):
                lingering.kill("application complete")
            if self._is_app_authority(record):
                self.lwg.destroy(app_id)

    def _op_app_rank_failed(self, payload, source):
        _, app_id, rank, reason = payload
        record = self.registry.maybe(app_id)
        if record is None or record.finished:
            return
        record.status = AppStatus.FAILED
        self._log(f"app {app_id} rank {rank} failed: {reason}")
        self._kill_local(app_id, f"rank {rank} failed: {reason}")

    def _op_app_migrate(self, payload, source):
        """Process migration via C/R (paper §3.2.1): move one rank to a
        chosen node by rolling the application back to its last recovery
        line with an updated placement.  Initiated by one daemon (total
        order dedups), applied everywhere through the normal restart op.
        """
        _, app_id, rank, target_node = payload
        record = self.registry.maybe(app_id)
        if record is None or record.finished or rank not in record.placement:
            return
        if record.placement.get(rank) == target_node:
            return
        if record.replicas:
            # Active replication has no recovery line to migrate from,
            # and moving one copy would co-locate or orphan its siblings.
            self._log(f"migrate {app_id} refused: replicated apps "
                      "do not migrate")
            return
        # One daemon decides (deterministic): the app's restart authority.
        planner = self._planner_for(record)
        solo = planner is not None and planner.solo
        alive_nodes = {m.node for m in self.gm.view.members} \
            if self.gm.view else set()
        if not self._is_restart_coordinator(record, alive_nodes):
            record.status = AppStatus.RESTARTING
            if solo:
                self._kill_rank(app_id, rank, "migration")
            else:
                self._kill_local(app_id, "migration rollback")
            return
        restore = planner.plan(self, record, [rank]) \
            if planner is not None else None
        record.status = AppStatus.RESTARTING
        if solo:
            self._kill_rank(app_id, rank, "migration")
        else:
            self._kill_local(app_id, "migration rollback")
        placement = dict(record.placement)
        placement[rank] = target_node
        new_nodes = set(placement.values())
        old_members = set(self.lwg.members(app_id))
        for node_id in sorted(new_nodes):
            ep = self.gm.view.member_on(node_id)
            if ep is not None and ep not in old_members:
                self.lwg.join(app_id, ep)
        for ep in sorted(old_members):
            if ep.node not in new_nodes:
                self.lwg.leave(app_id, ep)
        self.gm.cast(("app-restart", app_id, placement, restore,
                      record.world_version + (0 if solo else 1),
                      "migration"))
        self._log(f"migrate {app_id} rank {rank} -> {target_node} "
                  f"(from {restore})")

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
            for (aid, _r), handle in self.handles.items():
                if aid == app_id:
                    handle.suspend()
        elif cmd == "resume" and not record.finished:
            record.status = AppStatus.RUNNING
            for (aid, _r), handle in self.handles.items():
                if aid == app_id:
                    handle.resume()
        elif cmd == "checkpoint":
            for (aid, rank), handle in self.handles.items():
                if aid == app_id and rank == min(record.placement):
                    handle.request_user_checkpoint()
        elif cmd == "delete":
            if not record.finished:
                record.status = AppStatus.KILLED
            self._kill_local(app_id, "deleted")
            self.registry.remove(app_id)
            self.store.drop_app(app_id)

    def _kill_local(self, app_id: str, reason: str) -> None:
        for (aid, rank), handle in list(self.handles.items()):
            if aid == app_id:
                handle.kill(reason)
                del self.handles[(aid, rank)]
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

    def _spawn_local_ranks(self, record: AppRecord, restore,
                           only_ranks: Optional[Set[int]] = None):
        """The generator that spawns this node's share of ``record`` (one
        ``SPAWN_COST`` each), or ``None`` when it hosts none of it."""
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
        return self._spawn(record, mine, restore)

    def _spawn(self, record: AppRecord, mine, restore):
        for rank, copy in mine:
            yield self.engine.timeout(SPAWN_COST)
            if copy:
                handle = self.process_factory(self, record, rank, restore,
                                              replica=copy)
            else:
                handle = self.process_factory(self, record, rank, restore)
            self.handles[(record.app_id, rank)] = handle
            handle.start()
            # Initialization configuration messages (Table 1).
            handle.deliver_config("app.params", dict(record.params))
            handle.deliver_config("app.transport", record.transport)
            self._count_local("configuration", 2)
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
            # promote() re-reports the result it is holding.
            return
        if kind == "ok":
            self.gm.cast(("app-rank-done", app_id, rank, value))
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
        if isinstance(ev, LwgView):
            record = self.registry.maybe(ev.app_id)
            if record is not None:
                self._notify_world(record)
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
        out = [h for (aid, _r), h in list(self.handles.items())
               if aid == app_id]
        out.extend(self._lingering.get(app_id, ()))
        return out

    def _notify_world(self, record: AppRecord) -> None:
        """Push the app's current placement/world to local processes."""
        alive_nodes = {m.node for m in
                       self.lwg.members(record.app_id)} or \
            set(record.placement.values())
        world = sorted(r for r, n in record.placement.items()
                       if n in alive_nodes)
        for (aid, _r), handle in list(self.handles.items()):
            if aid == record.app_id:
                self._count_local("lightweight membership")
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
        for node_id in sorted(set(targets)):
            ep = self.gm.view.member_on(node_id) if self.gm.view else None
            if ep is not None and ep not in self.lwg.members(app_id):
                self.lwg.join(app_id, ep)
        self.gm.cast(("app-grow", app_id, new_ranks,
                      record.world_version + 1))

    # ------------------------------------------------------------------
    # fault handling (main view changes)
    # ------------------------------------------------------------------

    def _on_main_view(self, ev: ViewEvent) -> None:
        self._m_view_changes.inc()
        if ev.joined:
            self._m_members_joined.inc(len(ev.joined))
        if ev.left:
            self._m_members_left.inc(len(ev.left))
        if not ev.left:
            return
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
            if not lost:
                continue
            self._handle_app_failure(record, lost, ev, alive_nodes)

    def _handle_app_failure(self, record: AppRecord, lost: List[int],
                            ev: ViewEvent, alive_nodes: Set[str]) -> None:
        policy = record.ft_policy
        self._log(f"app {record.app_id} lost ranks {lost} (policy {policy})")
        if policy == "kill":
            # Deterministic at every daemon: mark and kill local ranks.
            record.status = AppStatus.FAILED
            self._kill_local(record.app_id, "node failure (kill policy)")
            return
        if policy == "view-notify":
            # The lightweight group already shrank; the registry forgets
            # the dead ranks and processes learn their new dense world.
            for r in lost:
                record.placement.pop(r, None)
            record.world_version += 1
            self._notify_world(record)
            return
        if policy == "restart":
            planner = self._planner_for(record)
            record.status = AppStatus.RESTARTING
            if planner is None or not planner.solo:
                # Rollback recovery restarts everyone; log-based (solo)
                # recovery leaves the survivors computing.
                self._kill_local(record.app_id, "rollback on failure")
            if self._is_restart_coordinator(record, alive_nodes):
                self._coordinate_restart(record, lost, alive_nodes)

    def _is_app_authority(self, record: AppRecord) -> bool:
        members = self.lwg.members(record.app_id)
        return bool(members) and min(members) == self.endpoint

    def _is_restart_coordinator(self, record: AppRecord,
                                alive_nodes: Set[str]) -> bool:
        hosts = [n for n in record.placement.values() if n in alive_nodes]
        if hosts:
            candidates = [m for m in self.gm.view.members
                          if m.node in hosts]
        else:
            candidates = list(self.gm.view.members)
        return bool(candidates) and min(candidates) == self.endpoint

    def _planner_for(self, record: AppRecord):
        """The restart-planner role of the app's C/R protocol (or None
        when the app checkpoints nothing)."""
        from repro.ckpt.protocols import PROTOCOLS
        cls = PROTOCOLS.get(record.ckpt_protocol)
        return None if cls is None else cls.planner()

    def _coordinate_restart(self, record: AppRecord, lost: List[int],
                            alive_nodes: Set[str]) -> None:
        app_id = record.app_id
        # Where does the computation resume from?  The protocol's restart
        # planner decides (latest committed line, dependency rollback, or
        # solo log replay); reachability caveats — diskless copies held on
        # the crashed node are gone, and under a replicated store versions
        # whose replicas are unreachable from this coordinator's partition
        # don't count — live inside the planners.
        planner = self._planner_for(record)
        restore = planner.plan(self, record, lost) \
            if planner is not None else None
        if restore is not None and restore.get("mode") == "failover":
            # Active replication: promote a surviving copy of each lost
            # rank.  No replacement nodes to pick, no respawns, and no
            # world-version bump — the world never changed size.
            placement = dict(record.placement)
            placement.update(restore["promote"])
            needed = set(placement.values())
            for backups in restore["replicas"].values():
                needed.update(backups)
            old_members = set(self.lwg.members(app_id))
            for node_id in sorted(needed):
                ep = self.gm.view.member_on(node_id)
                if ep is not None and ep not in old_members:
                    self.lwg.join(app_id, ep)
            for ep in sorted(old_members):
                if ep.node not in needed or ep not in self.gm.view.members:
                    self.lwg.leave(app_id, ep)
            self.gm.cast(("app-restart", app_id, placement, restore,
                          record.world_version))
            self._log(f"failover {app_id}: promote {restore['promote']}")
            return
        solo = bool(restore) and restore.get("mode") == "log-replay"
        # Fresh placement for the dead ranks.  Native-level checkpoints can
        # only restore on the same data representation (paper §4), so the
        # placement rule constrains replacements to matching machines.
        placement = dict(record.placement)
        for rank in sorted(lost):
            require_repr = None
            if restore is not None and record.ckpt_level == "native":
                version = (restore.get("version")
                           if restore["mode"] == "coordinated"
                           else restore["line"].get(rank))
                if version is not None and version >= 0 \
                        and self.store.has(app_id, rank, version):
                    from repro.cluster.arch import arch_by_name
                    require_repr = arch_by_name(
                        self.store.peek(app_id, rank, version).arch_name)
            placement[rank] = self._pick_nodes(
                1, require_repr=require_repr)[0]
        # Fix the lightweight group membership before respawning.
        old_members = set(self.lwg.members(app_id))
        new_nodes = set(placement.values())
        for backups in record.replicas.values():
            # k-exhausted replication fallback: the (pruned) backup hosts
            # respawn their copies too, so they stay group members.
            new_nodes.update(backups)
        for node_id in sorted(new_nodes):
            ep = self.gm.view.member_on(node_id)
            if ep is not None and ep not in old_members:
                self.lwg.join(app_id, ep)
        for ep in sorted(old_members):
            if ep.node not in new_nodes or ep not in self.gm.view.members:
                self.lwg.leave(app_id, ep)
        self.gm.cast(("app-restart", app_id, placement, restore,
                      record.world_version + (0 if solo else 1)))
        self._log(f"restart {app_id} from {restore} on {placement}")

    def _pick_nodes(self, count: int, exclude: Optional[Set[str]] = None,
                    require_repr=None) -> List[str]:
        """Least-loaded schedulable nodes (round-robin on ties).

        ``require_repr``: restrict to machines with this data
        representation (native-checkpoint restart rule).
        """
        exclude = exclude or set()
        candidates = []
        if self.gm.view is None:
            raise PlacementError("daemon has no view of the cluster")
        load: Dict[str, int] = {}
        for rec in self.registry.active():
            for node_id in rec.placement.values():
                load[node_id] = load.get(node_id, 0) + 1
        for member in self.gm.view.members:
            node_id = member.node
            if node_id in exclude or node_id in self.disabled_nodes:
                continue
            if require_repr is not None:
                node = self.cluster.nodes.get(node_id)
                if node is None or \
                        not node.arch.same_representation(require_repr):
                    continue
            candidates.append((load.get(node_id, 0), node_id))
        if not candidates:
            raise PlacementError("no schedulable nodes")
        candidates.sort()
        out = []
        i = 0
        while len(out) < count:
            out.append(candidates[i % len(candidates)][1])
            i += 1
        return out

    def _absorb_state(self, blob: dict) -> None:
        self.config = dict(blob.get("config", {}))
        self.disabled_nodes = set(blob.get("disabled", ()))
        for app_blob in blob.get("apps", ()):
            self.registry.add(self._record_from_blob(app_blob))
        self.lwg.absorb(blob.get("lwg", {}))

    # ------------------------------------------------------------------
    # submission (programmatic entry; the ASCII SUBMIT uses this too)
    # ------------------------------------------------------------------

    def submit(self, app_id: str, program, nprocs: int, owner: str = "local",
               params: Optional[dict] = None, ft_policy: str = "kill",
               ckpt_protocol: Optional[str] = None, ckpt_level: str = "vm",
               ckpt_interval: Optional[float] = None,
               transport: str = "bip-myrinet", polling: bool = True,
               placement: Optional[Dict[int, str]] = None,
               replicas: int = 1) -> str:
        """Submit an application; returns its app id.

        ``replicas``: copies per rank under active replication (protocol
        ``"replication"``): 1 primary + ``replicas - 1`` backups, each on
        a distinct node chosen by the ring placement policy.
        """
        if app_id in self.registry or app_id in self._pending_submits:
            raise DaemonError(f"duplicate app id {app_id!r}")
        if nprocs < 1:
            raise DaemonError("nprocs must be >= 1")
        self._pending_submits.add(app_id)
        if placement is None:
            nodes = self._pick_nodes(nprocs)
            placement = {rank: nodes[rank] for rank in range(nprocs)}
        record = AppRecord(
            app_id=app_id, owner=owner, nprocs=nprocs, program=program,
            params=dict(params or {}), ft_policy=ft_policy,
            ckpt_protocol=ckpt_protocol, ckpt_level=ckpt_level,
            ckpt_interval=ckpt_interval, transport=transport,
            polling=polling, placement=placement)
        if replicas > 1:
            record.replicas = self._place_replicas(app_id, placement,
                                                   replicas)
        # Create the lightweight group, then announce the app (sender FIFO
        # keeps this order at every daemon).
        hosting = set(placement.values())
        for backups in record.replicas.values():
            hosting.update(backups)
        members = []
        for node_id in sorted(hosting):
            ep = self.gm.view.member_on(node_id) if self.gm.view else None
            if ep is None:
                raise PlacementError(f"no daemon on node {node_id!r}")
            members.append(ep)
        self.lwg.create(app_id, members)
        self.gm.cast(("app-submit", self._record_blob(record)))
        return app_id

    def _place_replicas(self, app_id: str, placement: Dict[int, str],
                        replicas: int) -> Dict[int, Tuple[str, ...]]:
        """Backup-copy placement (active replication): ``replicas - 1``
        nodes per rank via the store's ring policy, never the primary's
        node — co-located copies would die together, defeating the mode.
        """
        from repro.store.placement import make_placement
        if self.gm.view is None:
            raise PlacementError("daemon has no view of the cluster")
        policy = make_placement("ring")
        schedulable = sorted(m.node for m in self.gm.view.members
                             if m.node not in self.disabled_nodes)
        out: Dict[int, Tuple[str, ...]] = {}
        for rank in sorted(placement):
            primary = placement[rank]
            candidates = [n for n in schedulable if n != primary]
            backups = policy.replicas((app_id, rank, 0), primary,
                                      candidates, replicas)
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
        """One fleet heartbeat: this node's liveness + load payload.

        The same numbers are published as ``daemon.heartbeat.*``
        instruments, so :class:`repro.fleet.FleetView` and the ``repro
        metrics`` CLI read identical values — nothing parses ``_log``
        output.
        """
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
        store_bytes = self._store_bytes_held()
        self._m_hb_sent.inc()
        self._m_hb_ranks.set(ranks)
        self._m_hb_copies.set(copies)
        self._m_hb_apps.set(len(apps))
        self._m_hb_store_bytes.set(store_bytes)
        return {"node": nid, "time": self.engine.now,
                "epoch": self.gm.view.epoch if self.gm.view else -1,
                "ranks": ranks, "copies": copies, "apps": apps,
                "store_bytes": store_bytes}

    def _store_bytes_held(self) -> int:
        """Checkpoint-store bytes whose replicas live on this node."""
        nid = self.node.node_id
        total = 0
        for _key, record in self.store.iter_records():
            if nid in record.all_holders():
                total += record.nbytes
        return total

    # ------------------------------------------------------------------
    # client sessions (ASCII protocol)
    # ------------------------------------------------------------------

    def _accept_loop(self):
        try:
            while True:
                conn = yield self._listener.accept()
                self.node.spawn(self._session(conn),
                                name=f"session:{self.node.node_id}")
        except Interrupt:
            return
        except Exception:
            return

    def _session(self, conn):
        user: Optional[str] = None
        is_admin = False
        try:
            while True:
                line = yield conn.recv()
                try:
                    verb, args = parse_command(line)
                except ProtocolError as exc:
                    yield from conn.send(format_response(False, exc))
                    continue
                if verb == "QUIT":
                    yield from conn.send(format_response(True, "bye"))
                    yield from conn.close()
                    return
                if verb == "LOGIN":
                    name, password, kind = args
                    cred = self.users.get(name)
                    if cred is None or cred[0] != password:
                        yield from conn.send(format_response(
                            False, "authentication failed"))
                        continue
                    if kind.upper() == "MGMT" and not cred[1]:
                        yield from conn.send(format_response(
                            False, "not an administrator"))
                        continue
                    user, is_admin = name, kind.upper() == "MGMT"
                    yield from conn.send(format_response(
                        True, "management session" if is_admin
                        else "user session"))
                    continue
                if user is None:
                    yield from conn.send(format_response(
                        False, "login required"))
                    continue
                if verb in MGMT_COMMANDS and not is_admin:
                    yield from conn.send(format_response(
                        False, "management command needs a MGMT session"))
                    continue
                try:
                    reply = yield from self._execute(verb, args, user,
                                                     is_admin)
                except (DaemonError, ProtocolError) as exc:
                    reply = format_response(False, exc)
                yield from conn.send(reply)
        except Exception:
            return  # client vanished / node down

    def _execute(self, verb: str, args: List[str], user: str,
                 is_admin: bool):
        """Process generator: run one authenticated command."""
        if verb == "SET":
            self.gm.cast(("cfg-set", args[0], args[1]))
            return format_response(True)
        if verb == "GET":
            if args[0] not in self.config:
                return format_response(False, f"no such key {args[0]}")
            return format_response(True, self.config[args[0]])
        if verb == "NODES":
            view = self.gm.view
            parts = []
            for m in sorted(view.members) if view else []:
                state = "disabled" if m.node in self.disabled_nodes else "up"
                parts.append(f"{m.node}:{state}")
            return format_response(True, *parts)
        if verb == "APPS":
            parts = [f"{r.app_id}:{r.status.value}"
                     for r in self.registry.all()]
            return format_response(True, *parts)
        if verb == "DISABLE":
            self.gm.cast(("node-admin", "disable", args[0]))
            return format_response(True)
        if verb == "ENABLE":
            self.gm.cast(("node-admin", "enable", args[0]))
            return format_response(True)
        if verb == "ADDNODE":
            if self.node_provisioner is None:
                return format_response(False, "no node provisioner")
            self.node_provisioner(args[0])
            return format_response(True, f"node {args[0]} provisioning")
        if verb == "REMOVENODE":
            self.gm.cast(("node-admin", "disable", args[0]))
            if args[0] in self.cluster.nodes:
                self.cluster.remove_node(args[0])
            return format_response(True)
        # -- user commands --
        if verb == "SUBMIT":
            app_id, nprocs = args[0], int(args[1])
            opts = parse_submit_options(args[2:])
            program_name = opts.pop("program", None)
            program = self.program_registry.get(program_name)
            if program is None:
                return format_response(
                    False, f"unknown program {program_name!r}; known: "
                    f"{sorted(self.program_registry)}")
            params = {k[6:]: _auto(v) for k, v in opts.items()
                      if k.startswith("param.")}
            self.submit(
                app_id, program, nprocs, owner=user, params=params,
                ft_policy=opts.get("ft", "kill"),
                ckpt_protocol=opts.get("ckpt") or None,
                ckpt_level=opts.get("level", "vm"),
                ckpt_interval=(float(opts["interval"])
                               if "interval" in opts else None),
                transport=opts.get("transport", "bip-myrinet"))
            return format_response(True, app_id)
        record = self.registry.maybe(args[0])
        if record is None:
            return format_response(False, f"unknown application {args[0]}")
        if not is_admin and record.owner != user:
            return format_response(
                False, f"{args[0]} belongs to {record.owner}")
        if verb == "STATUS":
            return format_response(True, record.status.value,
                                   f"done={len(record.done_ranks)}"
                                   f"/{len(record.placement)}",
                                   f"restarts={record.restarts}")
        if verb == "RESULT":
            if record.status is not AppStatus.DONE:
                return format_response(False,
                                       f"not finished ({record.status.value})")
            return format_response(True, repr(
                [record.results.get(r) for r in sorted(record.results)]))
        if verb == "MIGRATE":
            if not args[1].isdigit():
                return format_response(False, "rank must be a number")
            rank, target = int(args[1]), args[2]
            if rank not in record.placement:
                return format_response(False, f"no rank {rank}")
            if target not in self.cluster.nodes:
                return format_response(False, f"unknown node {target}")
            self.gm.cast(("app-migrate", args[0], rank, target))
            return format_response(
                True, f"migrating rank {rank} to {target} via the last "
                "recovery line")
        if verb in ("SUSPEND", "RESUME", "DELETE", "CHECKPOINT"):
            self.gm.cast(("app-cmd", args[0], verb.lower()))
            return format_response(True)
        return format_response(False, f"unhandled command {verb}")
        yield  # pragma: no cover — generator for uniform calling


def _auto(value: str):
    """Best-effort typed parse of an option value."""
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            pass
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    return value
