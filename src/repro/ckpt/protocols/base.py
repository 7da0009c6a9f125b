"""Protocol/runtime interface.

A :class:`CrProtocol` instance lives inside *each* application process (one
per rank) as the process's checkpoint/restart module.  It talks to its
peers exclusively through :meth:`CrContext.cast` — checkpoint/restart
messages ride the application's lightweight group through the daemons
(Table 1) — and through MPI control tags for in-band channel markers.
"""

from __future__ import annotations

from typing import Any, List, Optional, Set, Tuple

from repro.check.oracles import WaveOracle
from repro.ckpt.protocols.roles import CoordinatedWaveScheduler, StateCapturer
from repro.ckpt.restart import RestartMode
from repro.errors import CheckpointError, Interrupt, OracleViolation
from repro.obs.instruments import NULL_COUNTER
from repro.obs.registry import get_registry
from repro.sim.channel import Channel
from repro.sim.events import Event


class CrContext:
    """What the runtime provides to a checkpoint protocol.

    Subclassed by the Starfish runtime (:mod:`repro.core.runtime`) and by
    the unit-test harness.  All methods that take simulated time are
    process generators.
    """

    engine: Any
    app_id: str
    rank: int
    node: Any            # repro.cluster.Node
    arch: Any            # Architecture
    endpoint: Any        # MpiEndpoint
    checkpointer: Any    # LocalCheckpointer
    store: Any           # CheckpointStore

    def peers(self) -> List[int]:
        """World ranks of all live processes of the app (incl. self)."""
        raise NotImplementedError

    def cast(self, payload: Any) -> None:
        """Totally-ordered C/R multicast to every rank's module (incl. us),
        relayed through the daemons' lightweight group."""
        raise NotImplementedError

    def pause(self, target_step: Optional[int] = None):
        """Process generator: returns once the application is stopped at a
        safe point (no sends can happen until :meth:`resume`).

        ``target_step``: for coordinated protocols, the common step
        boundary every rank must reach before it counts as paused, so the
        checkpointed states are mutually consistent under step-replay
        recovery (see :mod:`repro.core.program`)."""
        raise NotImplementedError

    def resume(self) -> None:
        raise NotImplementedError

    def snapshot_state(self) -> Any:
        """Serializable application + program-runtime state."""
        raise NotImplementedError

    def current_step(self) -> int:
        """The application's completed-step counter (0 if not tracked)."""
        return 0

    def runtime_meta(self) -> dict:
        """Extra runtime state to store alongside the MPI state."""
        return {"steps_completed": self.current_step()}

    def restoring(self) -> bool:
        """True while this rank is being restored solo (the survivors kept
        running): live traffic must be held back until replay finishes."""
        return False

    def replica_index(self) -> int:
        """This process's copy index under active replication
        (0 = primary; backups never register addresses or report
        results until promoted)."""
        return 0

    def comm_state(self) -> dict:
        """Communicator call counters (collective-tag sequences); the
        message-logging protocols checkpoint them so a solo-restarted
        rank resumes the tag sequence its peers are already using."""
        return {}

    def boundary_state(self) -> Optional[dict]:
        """The last step-boundary MPI state (counters, unexpected queue,
        communicator sequences), or ``None`` if the runtime does not
        track it.  Solo-replay recovery needs channel state consistent
        with the committed step the checkpoint restores to — a pause can
        freeze the rank mid-step, when the live counters already include
        the uncommitted step's traffic."""
        return None


class CrProtocol:
    """Base: inbox plumbing, lifecycle, and completion events.

    A protocol is a composition of three roles (see
    :mod:`repro.ckpt.protocols.roles`): ``scheduler`` decides when waves
    start, ``capturer`` takes/persists the local snapshot, and ``tap``
    (when not ``None``) intercepts the endpoint's message path.  The
    ``restart_mode`` class attribute tells the daemons how the app
    recovers after a failure (:func:`~repro.ckpt.restart.plan_restart`).
    """

    name = "abstract"
    restart_mode = RestartMode.COORDINATED

    def __init__(self):
        self.ctx: Optional[CrContext] = None
        self.inbox: Optional[Channel] = None
        self._proc = None
        self.scheduler = CoordinatedWaveScheduler()
        self.capturer = StateCapturer()
        #: DeliveryTap installed on the endpoint at start (None = none).
        self.tap = None
        self._waiters: List[Tuple[int, Event]] = []
        self.last_committed: Optional[int] = None
        self._live_hint: Optional[Set[int]] = None
        self._commit_started: Optional[int] = None
        #: Always-on state-machine invariant checker (repro.check).
        self.oracle = WaveOracle(self)
        # Instruments materialize in start() (that's when we learn the
        # engine); until then the no-op twins absorb the writes.
        self._m_checkpoints = NULL_COUNTER
        self._m_bytes = NULL_COUNTER

    # -- lifecycle ---------------------------------------------------------

    def start(self, ctx: CrContext) -> None:
        self.ctx = ctx
        self.oracle.bind(ctx.rank)
        reg = get_registry(ctx.engine)
        labels = dict(protocol=self.name, app=ctx.app_id, rank=str(ctx.rank))
        self._m_checkpoints = reg.counter(
            "ckpt.protocol.checkpoints", **labels,
            help="local checkpoints taken by this rank's module")
        self._m_bytes = reg.counter("ckpt.protocol.bytes", **labels,
                                    help="checkpoint bytes produced")
        # A restarted rank gets a fresh module: per-instance series reset.
        for m in (self._m_checkpoints, self._m_bytes):
            m.reset()
        self.inbox = Channel(ctx.engine, name=f"cr:{ctx.app_id}:{ctx.rank}")
        if self.tap is not None:
            ctx.endpoint.tap = self.tap
        self._proc = ctx.node.spawn(self._main(),
                                    name=f"cr-{self.name}:{ctx.rank}")
        self.scheduler.start(self, ctx)

    @classmethod
    def runtime_kwargs(cls, record) -> dict:
        """Constructor kwargs the runtime derives from the app record."""
        return {}

    def stop(self) -> None:
        self.scheduler.stop()
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("cr-stop")

    def deliver(self, payload: Any, source_rank: int) -> None:
        """Runtime feeds incoming C/R messages here (total order)."""
        if self.inbox is not None and not self.inbox.closed:
            self.inbox.put((payload, source_rank))

    def on_membership_change(self, live_ranks) -> None:
        """Synchronous upcall from the runtime when the app's world
        changes.

        Deliberately NOT routed through the inbox: a coordinated wave
        holds the application paused while it waits for protocol messages
        from every peer, and the world refresh that would shrink
        ``ctx.peers()`` only happens at the next safe point — which the
        pause prevents the app from reaching.  Messages from a lost peer
        will never arrive, so without this upcall the wave (and the app)
        would hang forever.  Base behaviour: remember the fresh membership
        so :meth:`live_peers` stops waiting on the dead.
        """
        self._live_hint = set(live_ranks)

    def live_peers(self) -> Set[int]:
        """World ranks believed alive: the MPI world (refreshed at safe
        points) intersected with the latest membership upcall, which is
        fresher while the app is paused mid-wave."""
        peers = set(self.ctx.peers())
        if self._live_hint is not None:
            peers &= self._live_hint
        return peers

    def _abort_wave_waiters(self) -> None:
        """Fire pending completion events after an aborted wave (with
        ``None``, not a version): every rank's checkpoint ticker blocks on
        its event, and an abort hits all ranks at once — leaving the
        events untriggered would stop checkpointing for good."""
        for _v, ev in self._waiters:
            if not ev.triggered:
                ev.succeed(None)
        self._waiters = []

    # -- main loop ------------------------------------------------------------

    def _main(self):
        try:
            while True:
                payload, source = yield self.inbox.get()
                handler = getattr(self, "on_" + payload[0].replace("-", "_"),
                                  None)
                if handler is None:
                    continue
                result = handler(payload, source)
                if result is not None and hasattr(result, "__next__"):
                    yield from result
        except Interrupt:
            return
        except OracleViolation:
            # An invariant broke — surface it as a typed failure of the
            # run, never as a silent module death.
            raise
        except Exception:
            # Node crash closes the inbox mid-get; the module dies with it.
            return

    # -- user-facing ------------------------------------------------------------

    def request_checkpoint(self) -> Event:
        """Initiate a checkpoint; the event fires with the committed
        version number."""
        raise NotImplementedError

    def _completion_event(self, version: int) -> Event:
        ev = Event(self.ctx.engine, name=f"ckpt-commit:{version}")
        self._waiters.append((version, ev))
        return ev

    def record_checkpoint(self, nbytes: int) -> None:
        """Count one locally-taken checkpoint of ``nbytes`` bytes."""
        self._m_checkpoints.inc()
        self._m_bytes.inc(nbytes)

    def _committed(self, version: int, *, participating: bool = True) -> None:
        self.oracle.committed(version, participating=participating)
        self.last_committed = version
        for v, ev in self._waiters[:]:
            if v <= version and not ev.triggered:
                ev.succeed(version)
                self._waiters.remove((v, ev))
