"""One application process (Figure 1 of the paper).

Assembles the five components inside every Starfish application process —
group handler (the daemon link), application module (the user's
:class:`~repro.core.program.StarfishProgram`), checkpoint/restart module
(a :mod:`repro.ckpt.protocols` instance), MPI module, and VNI — plus the
runtime's own scheduler driving the program's steps.  The paper puts an
object bus between the modules; here they are wired by direct upcalls (the
daemon calls ``deliver_cr`` → ``protocol.deliver``, ``deliver_coordination``
→ ``program.on_coordination``, ``deliver_membership``), DESIGN §24.

Data messages use the fast path (program → MPI module → VNI); everything
else (C/R, coordination, membership, configuration) goes through the
daemon, as in the paper.

Execution model and its guarantees are documented in
:mod:`repro.core.program`; the key mechanism here is the *safe point*
between steps, where pauses (checkpoints, suspension) and view-change
upcalls are honoured, and the *step abort*: a step caught in a view change
is interrupted and re-executed on the new world.  A step awaits its own
events; a world change that lands mid-step abandons the parked wait the way
an interrupt does (:meth:`~repro.sim.process.Process.abandon_wait`) and
throws ``_StepAborted`` into the step, under four rules:

* the abort is delivered through the queue, never inside
  ``deliver_membership``'s caller;
* a step event processed first in that instant is consumed, and the *next*
  wait aborts;
* from then on every wait of the same step on a not-yet-processed event
  aborts (through the queue); a processed one is consumed;
* a kill wins over a disturbance, and a disturbance never reaches a later
  step or a wait outside ``_one_step``.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, List, Optional, Tuple

from repro.calibration import RESTART_BASE
from repro.ckpt import make_checkpointer
from repro.ckpt.protocols import PROTOCOLS, make_protocol
from repro.ckpt.protocols.base import CrContext
from repro.core.program import ProgramContext, ViewInfo
from repro.errors import CheckpointError, Interrupt, MpiError
from repro.mpi import Communicator, MpiEndpoint
from repro.obs.registry import get_registry
from repro.sim.events import Event


class _StepAborted(Exception):
    """Internal: the current step was cancelled by a view change."""


class AppProcess:
    """One rank of one application, hosted on one node."""

    def __init__(self, daemon, record, rank: int, plan,
                 addressbook: Dict[int, Tuple[str, str]],
                 replica: int = 0):
        self.daemon = daemon
        self.engine = daemon.engine
        self.node = daemon.node
        self.record = record
        self.rank = rank
        #: Copy index under active replication (0 = primary).  Backups run
        #: the identical program but own no address and report no result
        #: until :meth:`promote` makes them the rank's primary.
        self.replica = replica
        #: The ``RestartPlan`` it resumes by (``None``: a first start).
        self.plan = plan
        self.was_restored = False
        self.app_log: List[Tuple[float, int, str]] = []

        # --- Figure 1 components -------------------------------------
        self.endpoint = MpiEndpoint(
            self.engine, self.node, app_id=record.app_id, world_rank=rank,
            addressbook=addressbook, transport=record.transport,
            polling=record.polling, register=replica == 0)
        #: The world communicator (``ctx.mpi``), swapped for a densely
        #: renumbered one at each world change (:meth:`_apply_view`).
        self.world_version = record.world_version
        self.world = self._world_comm(tuple(sorted(record.placement)))
        self.program = record.program()
        self.ctx = ProgramContext(self)
        self.protocol = None
        if record.ckpt_protocol is not None:
            # Each protocol class declares which constructor kwargs it
            # derives from the app record (e.g. its interval).
            cls = PROTOCOLS.get(record.ckpt_protocol)
            kwargs = cls.runtime_kwargs(record) if cls is not None else {}
            self.protocol = make_protocol(record.ckpt_protocol, **kwargs)
        self.checkpointer = make_checkpointer(record.ckpt_level)

        # --- scheduler state ---------------------------------------------
        self.done = Event(self.engine, name=f"app:{record.app_id}:{rank}")
        self._proc = None
        #: Completed (committed-to-state) steps; snapshots record it and
        #: coordinated pauses target a common value of it across ranks.
        self.steps_completed = 0
        self._pause_req = 0
        self._pause_target = 0
        self._pause_waiters: List[Event] = []
        self._at_safe_point = False
        #: The step event the runtime is suspended on, if any (the step
        #: cannot send while we wait).
        self._awaited: Optional[Event] = None
        #: The running step's generator (``None`` between steps) and
        #: whether a world change has reached it.
        self._step = None
        self._disturbed = False
        #: >0 while the program itself is blocked awaiting a checkpoint
        #: commit (ctx.checkpoint()): that wait is itself a safe point.
        self._ckpt_blocked = 0
        #: Last step-boundary MPI state (message-logging protocols only):
        #: channel counters, unexpected queue, and communicator sequences
        #: captured at the commit instant, where they are mutually
        #: consistent with the committed program state.  A self-paced
        #: pause can freeze the rank *mid*-step ("de-facto frozen"), so
        #: pause-time counters may already include the uncommitted step's
        #: traffic — unusable for solo replay, which re-executes from the
        #: step boundary.
        self._boundary_state: Optional[dict] = None
        #: Accumulated simulated time the application was actually frozen
        #: (pause acknowledged -> resumed); the protocol-comparison bench
        #: reports this as "blocked time".
        self.paused_accum = 0.0
        self._pause_started: Optional[float] = None
        self._resume_evt: Optional[Event] = None
        self._pending_view: Optional[ViewInfo] = None
        self._spawn_waiters: List[Tuple[int, Event]] = []
        self._tickers: List = []
        # Per-process series; a restarted rank is a new AppProcess, so the
        # series reset here to keep the seed's fresh-instance semantics.
        reg = get_registry(self.engine)
        # Backup copies get their own series (rank "1r2" = rank 1, copy
        # 2): sharing the primary's label would reset and double-count it.
        rank_label = f"{rank}r{replica}" if replica else str(rank)
        labels = dict(app=record.app_id, rank=rank_label)
        self._m_steps = reg.counter("app.steps", **labels,
                                    help="committed program steps")
        self._m_aborted = reg.counter(
            "app.aborted_steps", **labels,
            help="steps rolled back by a view change mid-step")
        self._m_views = reg.counter("app.views", **labels,
                                    help="view changes applied")
        for m in (self._m_steps, self._m_aborted, self._m_views):
            m.reset()

    # ------------------------------------------------------------------
    # handle protocol (what the daemon drives)
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self.protocol is not None:
            self.protocol.start(_CrContextImpl(self))
            # The protocol's WaveScheduler decides whether this rank hosts
            # a runtime-side checkpoint ticker (coordinated protocols: the
            # lowest rank only; self-paced ones run their own).
            ticker = self.protocol.scheduler.runtime_ticker(self)
            if ticker is not None:
                self._tickers.append(self.node.spawn(
                    ticker, name=f"ckpt-tick:{self.rank}"))
        self._proc = self.node.spawn(
            self._run(), name=f"app:{self.record.app_id}:{self.rank}")

    def kill(self, reason: str) -> None:
        if not self.done.triggered:
            self.done.succeed(("killed", reason))
        for proc in (self._proc, *self._tickers):
            if proc is not None and proc.is_alive:
                proc.interrupt(reason)
        if self.protocol is not None:
            self.protocol.stop()
        self.endpoint.close()

    def suspend(self) -> None:
        self._pause_req += 1

    def resume(self) -> None:
        self._release_pause()

    def request_user_checkpoint(self) -> None:
        if self.protocol is None:
            return
        ev = self.protocol.request_checkpoint()
        del ev  # fire and forget; commit is observable in the store

    def promote(self) -> None:
        """Failover upcall (active replication): this backup copy is now
        the rank's primary.  It owns the rank's address from here on; if
        it already finished (its watcher reported nothing while it was a
        backup), the held result is reported now, the way a watcher would."""
        if self.replica == 0:
            return
        self.replica = 0
        self.endpoint.addressbook[self.rank] = (self.node.node_id,
                                               self.endpoint.port)
        if self.protocol is not None and \
                hasattr(self.protocol, "on_promoted"):
            self.protocol.on_promoted()
        if self.done.triggered:
            kind, value = self.done.value
            if kind == "ok":
                self.daemon.rank_done(self.record.app_id, self.rank, value)

    def deliver_cr(self, payload, src_rank: int) -> None:
        if self.protocol is not None:
            self.protocol.deliver(payload, src_rank)

    def deliver_coordination(self, payload, src_rank: int) -> None:
        self.program.on_coordination(self.ctx, src_rank, payload)

    def deliver_membership(self, world_ranks: Tuple[int, ...],
                           world_version: int,
                           placement: Dict[int, str]) -> None:
        if world_version <= self.world_version:
            return
        old = self.world.group
        if tuple(world_ranks) == old:
            return
        info = ViewInfo(old_world=old, new_world=tuple(world_ranks),
                        my_old_rank=(old.index(self.rank)
                                     if self.rank in old else None),
                        world_version=world_version)
        self._pending_view = info
        # Wake spawn() callers as soon as the grown world is known.
        for want, ev in self._spawn_waiters[:]:
            if len(info.new_world) >= want and not ev.triggered:
                ev.succeed(len(info.new_world))
                self._spawn_waiters.remove((want, ev))
        # Any world change invalidates in-flight communication (the old
        # communicator is retired): abort the step; the redo runs on the
        # new world.  A rank blocked in an old-world receive would
        # otherwise never reach the safe point that refreshes its world.
        if self._step is not None and not self._disturbed:
            self._post_abort()
        # The C/R module needs the fresh membership NOW, not at the next
        # safe point: a coordinated wave waiting on a lost peer holds the
        # app paused, which is exactly what prevents the safe point.
        if self.protocol is not None:
            self.protocol.on_membership_change(tuple(world_ranks))

    # ------------------------------------------------------------------
    # the scheduler (main loop)
    # ------------------------------------------------------------------

    def _run(self):
        try:
            yield from self._wait_world_up()
            if self.plan is not None:
                yield from self._restore()
            else:
                self.program.setup(self.ctx)
            # Step 0 boundary (or, after a solo restore, the restored
            # boundary: replayed-but-unconsumed messages are in the
            # unexpected queue and counted).
            self._capture_boundary()
            if self.record.world_version > 0:
                # This process enters a world that has already changed
                # (spawned into a grown app, or respawned by a restart):
                # run the view upcall so any program-level resynchron-
                # ization collectives include this rank too.
                yield from self._apply_view(ViewInfo(
                    old_world=(), new_world=self.world.group,
                    my_old_rank=None,
                    world_version=self.record.world_version))
            while True:
                yield from self._safe_point()
                if self.program.is_done(self.ctx):
                    break
                yield from self._one_step()
            result = self.program.finalize(self.ctx)
            if result is not None and hasattr(result, "__next__"):
                result = yield from result
            if not self.done.triggered:
                self.done.succeed(("ok", result))
        except Interrupt:
            if not self.done.triggered:
                self.done.succeed(("killed", "interrupted"))
        except Exception as exc:
            if not self.done.triggered:
                self.done.succeed(("error", exc))
        finally:
            self._cleanup()

    def _wait_world_up(self):
        """MPI_Init-style synchronization: wait until every rank of the
        current world has registered its network address (spawning is
        staggered across daemons).

        An entry must match the rank's *current* placement: after a
        restart the book still holds the previous incarnation's address
        (possibly a dead node), and a fast-restoring rank must not race
        ahead and send into the void.  A world change that arrives during
        the wait (a rank's host crashed under ``view-notify``) is what the
        wait is for: the dead rank never registers.

        Each poll resumes the scan at the rank that blocked the previous
        one (and wraps round), so a long wait costs O(ranks + polls)
        checks, not O(ranks × polls).
        """
        book = self.endpoint.addressbook
        placement = self.record.placement
        start = 0
        while True:
            world = (self._pending_view.new_world
                     if self._pending_view is not None
                     else self.world.group)
            n = len(world)
            if start >= n:
                start = 0
            for i in chain(range(start, n), range(start)):
                r = world[i]
                if r not in book or (r in placement
                                     and book[r][0] != placement[r]):
                    start = i
                    break
            else:
                return
            yield self.engine.timeout(0.002)

    def _cleanup(self) -> None:
        """Wind down after the program finished (NOT after a kill).

        The C/R module and the endpoint deliberately stay alive: a rank
        that finished early must keep participating in checkpoints (pause
        requests auto-ack — final state is trivially a safe point), or
        slower peers would hang waiting for its protocol messages.  The
        daemon kills everything for real when the application ends.
        """
        self._at_safe_point = True
        self._ack_pause_waiters()
        for t in self._tickers:
            if t.is_alive:
                t.interrupt("app-done")

    def _one_step(self):
        """Drive one program step, event by event.

        The runtime (not a detached process) advances the step generator so
        that *between* any two of the step's events it can: abort the step
        on a view change, and freeze the rank for a pause whose step target
        has been reached (no message can escape while frozen — the step's
        side effects only happen inside ``gen.send``).
        """
        step = self.program.step(self.ctx)
        if step is None or not hasattr(step, "__next__"):
            self._commit_step()
            return
        self._step, self._disturbed = step, False
        send_val = None
        throw_exc: Optional[BaseException] = None
        aborted = False
        while True:
            # Freeze here when a pause targeting our progress is active
            # (this rank ran ahead of the checkpoint boundary): no step
            # side effects can happen while we hold the generator.
            if self._pause_req:
                yield from self._mid_step_gate()
            try:
                if throw_exc is not None:
                    ev = step.throw(throw_exc)
                else:
                    ev = step.send(send_val)
            except StopIteration:
                break
            except _StepAborted:
                aborted = True
                break
            throw_exc = None
            if self._disturbed:
                self._post_abort()
            self._awaited = ev
            try:
                send_val = yield ev
            except Interrupt:
                step.close()
                raise
            except Exception as exc:   # the event failed, or the abort
                throw_exc = exc
            finally:
                self._awaited = None
        self._step = None
        if aborted:
            self._m_aborted.inc()
            self.endpoint.matching.fail_all_posted(
                MpiError("step aborted by view change"))
            return
        self._commit_step()

    def _post_abort(self) -> None:
        """Queue an abort of the running step's current wait."""
        hit = Event(self.engine)
        hit.callbacks.append(self._deliver_abort)
        hit.succeed(self._step)

    def _deliver_abort(self, hit: Event) -> None:
        if hit._value is not self._step:
            return      # that step is over
        self._disturbed = True
        ev = self._awaited
        # Frozen in the mid-step gate, or the awaited event has already
        # happened (its bounce is in flight): consumed, the next wait
        # aborts.  (``processed``, not ``triggered``: a Timeout is born
        # triggered but has not *happened* until the engine processes it.)
        # An interrupt in flight is a kill, and a kill wins.
        if ev is None or ev.callbacks is None or self._proc._interrupts:
            return
        self._proc.abandon_wait(_StepAborted())

    def _commit_step(self) -> None:
        self.steps_completed += 1
        self._m_steps.inc()
        self._capture_boundary()

    def _capture_boundary(self) -> None:
        """Snapshot the endpoint + communicator state at a step boundary.

        The commit instant is a consistent cut: the finished step's sends
        and consumptions are all reflected, the next step has issued
        nothing, and arrivals ingested-but-unmatched sit in the unexpected
        queue snapshotted with the very counters that counted them.  Only
        protocols that restore channel state solo (message logging) ask
        for this; for everyone else it is skipped bookkeeping.
        """
        if self.protocol is None or not getattr(
                self.protocol, "wants_boundary_capture", False):
            return
        self._boundary_state = {
            **self.endpoint.export_state(),
            "comm_seqs": {self.world.comm_id: self.world.export_seqs()},
        }

    def _pause_eligible(self) -> bool:
        return (self._pause_req > 0
                and self.steps_completed >= self._pause_target)

    def _ack_pause_waiters(self) -> None:
        if self._pause_started is None:
            self._pause_started = self.engine.now
        for ev in self._pause_waiters:
            if not ev.triggered:
                ev.succeed()
        self._pause_waiters = []

    def _mid_step_gate(self):
        while self._pause_eligible():
            self._at_safe_point = True
            self._ack_pause_waiters()
            self._resume_evt = Event(self.engine, name=f"resume:{self.rank}")
            yield self._resume_evt
            self._at_safe_point = False

    def request_pause(self, target_step: Optional[int]) -> Optional[Event]:
        """Register a pause; returns an event to wait on (or ``None`` if
        the rank counts as paused right away)."""
        self._pause_req += 1
        if target_step is not None and target_step > self._pause_target:
            self._pause_target = target_step
        if self._at_safe_point or self._ckpt_blocked > 0:
            if self._pause_started is None:
                self._pause_started = self.engine.now
            return None
        if self._awaited is not None and self._pause_eligible():
            # Blocked mid-step beyond the target: de-facto frozen (the
            # mid-step gate will hold it if its event completes).
            if self._pause_started is None:
                self._pause_started = self.engine.now
            return None
        ev = Event(self.engine, name=f"pause:{self.rank}")
        self._pause_waiters.append(ev)
        return ev

    def _safe_point(self):
        while True:
            if self._pending_view is not None and self._pause_req == 0:
                info = self._pending_view
                self._pending_view = None
                yield from self._apply_view(info)
                continue
            if self._pause_eligible():
                self._at_safe_point = True
                self._ack_pause_waiters()
                self._resume_evt = Event(self.engine,
                                         name=f"resume:{self.rank}")
                yield self._resume_evt
                self._at_safe_point = False
                continue
            return

    def _apply_view(self, info: ViewInfo):
        self._m_views.inc()
        # The cluster-assigned version names the new communicator, so
        # every process derives the same id even if some of them
        # coalesced several view changes into one.
        self.world_version = info.world_version
        if info.new_world != self.world.group:
            self.world = self._world_comm(info.new_world)
        handler = self.program.on_view_change(self.ctx, info)
        if handler is not None and hasattr(handler, "__next__"):
            yield from handler
        return
        yield  # pragma: no cover

    def _world_comm(self, group: Tuple[int, ...]) -> Communicator:
        return Communicator(
            self.endpoint,
            f"world:{self.record.app_id}:v{self.world_version}", group)

    def _release_pause(self) -> None:
        if self._pause_req > 0:
            self._pause_req -= 1
        if self._pause_req == 0:
            self._pause_target = 0
            if self._pause_started is not None:
                self.paused_accum += self.engine.now - self._pause_started
                self._pause_started = None
            if self._resume_evt is not None \
                    and not self._resume_evt.triggered:
                self._resume_evt.succeed()
            # No pause outstanding: anyone still waiting for one to take
            # hold (a checkpoint wave aborted before the rank stopped)
            # would otherwise wait for an ack that can no longer come.
            for ev in self._pause_waiters:
                if not ev.triggered:
                    ev.succeed()
            self._pause_waiters = []

    def _ckpt_ticker(self):
        try:
            while True:
                yield self.engine.timeout(self.record.ckpt_interval)
                ev = self.protocol.request_checkpoint()
                yield ev
        except Interrupt:
            return
        except Exception:
            return

    # ------------------------------------------------------------------
    # restart from a checkpoint
    # ------------------------------------------------------------------

    def _restore(self):
        """Resume from this rank's version of the plan's line (``None``:
        the initial state).  After a rollback the re-execution regenerates
        the in-flight traffic a snapshot holds, so the fresh endpoint starts
        with empty queues and zero counters.  A rank restarted solo (the
        survivors' counters never reset) also takes back its channel
        counters and communicator sequences, and the messages it consumed
        after its checkpoint are re-fed from the sender-side logs."""
        solo = self.plan.mode.solo
        version = self.plan.line.get(self.rank)
        if version is None:
            # A fresh start (solo: the whole logs are replayed, and the
            # re-sends are duplicate-suppressed at the survivors).
            self.program.setup(self.ctx)
            if not solo:
                return
        else:
            record = yield from self.daemon.store.read(
                self.node, self.record.app_id, self.rank, version)
            state, convert_cost = self.checkpointer.restore(
                record.image, record.nbytes, self.node.arch)
            yield self.engine.timeout(RESTART_BASE + convert_cost)
            self.program.state = state
            self.steps_completed = record.mpi_state.get("steps_completed", 0)
            if solo:
                self.endpoint.import_state(record.mpi_state)
                seqs = record.mpi_state.get("comm_seqs", {}).get(
                    self.world.comm_id)
                if seqs is not None:
                    self.world.import_seqs(seqs)
        self.was_restored = True
        tap = self.endpoint.tap
        if solo and tap is not None and hasattr(tap, "replay"):
            yield from tap.replay(self.endpoint, self.daemon.store)
        hook = self.program.on_restart(self.ctx)
        if hook is not None and hasattr(hook, "__next__"):
            yield from hook

    def __repr__(self) -> str:
        return (f"<AppProcess {self.record.app_id}#{self.rank} on "
                f"{self.node.node_id}>")


class _CrContextImpl(CrContext):
    """The runtime side of the checkpoint-protocol interface."""

    def __init__(self, rt: AppProcess):
        self.rt = rt
        self.engine = rt.engine
        self.app_id = rt.record.app_id
        self.rank = rt.rank
        self.node = rt.node
        self.arch = rt.node.arch
        self.endpoint = rt.endpoint
        self.checkpointer = rt.checkpointer
        self.store = rt.daemon.store

    def peers(self):
        return sorted(self.rt.world.group)

    def cast(self, payload):
        self.rt.daemon.cr_cast(self.app_id, self.rank, payload)

    def pause(self, target_step=None):
        ev = self.rt.request_pause(target_step)
        if ev is not None:
            yield ev

    def resume(self):
        self.rt._release_pause()

    def snapshot_state(self):
        return self.rt.program.state

    def current_step(self) -> int:
        return self.rt.steps_completed

    def runtime_meta(self) -> dict:
        return {"steps_completed": self.rt.steps_completed}

    def restoring(self) -> bool:
        return self.rt.plan is not None and self.rt.plan.mode.solo

    def replica_index(self) -> int:
        return self.rt.replica

    def comm_state(self) -> dict:
        world = self.rt.world
        return {world.comm_id: world.export_seqs()}

    def boundary_state(self):
        return self.rt._boundary_state
