"""The Starfish programming model.

A :class:`StarfishProgram` is an MPI program structured for application-
level checkpointing (the repo's substitution for process-image dumps, see
DESIGN.md §2):

* everything worth saving lives in ``self.state`` — a plain-data dict that
  the VM-level encoder can serialize for any Table 2 machine;
* execution is a sequence of *steps* driven by the runtime; step boundaries
  are the *safe points* where checkpoints, suspension, and view-change
  upcalls happen;
* a step interrupted by a view change (a peer died mid-collective) is
  **aborted and re-executed** on the new world, so programs should mutate
  ``self.state`` only once the step's communication has succeeded
  (at-least-once step semantics).

``ctx.mpi`` is the world communicator itself: the plain MPI surface.  The
Starfish downcalls — ``ctx.checkpoint()`` and ``ctx.spawn(n)`` — live on
the context, beside ``ctx.coordinate``, and are serviced by the daemon.
Programs that call none of them and override none of the optional hooks
are conventional MPI programs; Starfish runs them unmodified — they just
don't get the dynamic features (exactly the paper's API compatibility
story).

Example::

    class MonteCarloPi(StarfishProgram):
        def setup(self, ctx):
            self.state.update(shots=ctx.params["shots"], done=0, hits=0)

        def step(self, ctx):
            n = min(1000, self.state["shots"] - self.state["done"])
            hits = ...  # local computation
            total = yield from ctx.mpi.allreduce(hits)
            self.state["hits"] += total
            self.state["done"] += n * ctx.mpi.size

        def is_done(self, ctx):
            return self.state["done"] >= self.state["shots"]

        def finalize(self, ctx):
            return 4.0 * self.state["hits"] / self.state["done"]
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.errors import MpiError
from repro.mpi import Communicator
from repro.sim.events import Event


class ProgramContext:
    """What every program hook receives."""

    def __init__(self, runtime):
        self._rt = runtime

    @property
    def mpi(self) -> Communicator:
        """The world communicator.  A world change swaps in a new one, so
        read it afresh in every step rather than keeping it."""
        return self._rt.world

    @property
    def rank(self) -> int:
        return self._rt.world.rank

    @property
    def size(self) -> int:
        return self._rt.world.size

    @property
    def params(self) -> Dict[str, Any]:
        """Submission parameters (read-only by convention)."""
        return self._rt.record.params

    @property
    def now(self) -> float:
        return self._rt.engine.now

    @property
    def node_id(self) -> str:
        return self._rt.node.node_id

    @property
    def app_id(self) -> str:
        return self._rt.record.app_id

    @property
    def restarted(self) -> bool:
        """True if this process was restored from a checkpoint."""
        return self._rt.was_restored

    def sleep(self, seconds: float):
        """Process generator: simulated computation / idle time."""
        yield self._rt.engine.timeout(seconds)

    def coordinate(self, payload) -> None:
        """Starfish coordination message: broadcast ``payload`` to every
        process of this application *through the daemons* (Table 1's
        "Coordination" row — reliable, totally ordered, off the fast
        path).  Delivered via :meth:`StarfishProgram.on_coordination`."""
        self._rt.daemon.coord_cast(self._rt.record.app_id,
                                   self._rt.rank, payload)

    def checkpoint(self):
        """Process generator, Starfish downcall: checkpoint the application
        now (§3.2.2).  Returns the committed version (blocks until the
        commit; call it as the last communication-free action of a
        step)."""
        rt = self._rt
        if rt.protocol is None:
            raise MpiError(
                "checkpoint() called but the application was submitted "
                "without a checkpoint protocol")
        ev = rt.protocol.request_checkpoint()
        # The caller blocks mid-step until the commit; that wait is a safe
        # point (the program promises its state is step-consistent here),
        # otherwise the protocol's own pause() could never be satisfied.
        rt._ckpt_blocked += 1
        try:
            version = yield ev
        finally:
            rt._ckpt_blocked -= 1
        return version

    def spawn(self, nprocs: int):
        """Process generator, MPI-2 dynamic process management: ask the
        daemons for ``nprocs`` more processes of this application.
        Returns the new world size once they have joined."""
        rt = self._rt
        if nprocs < 1:
            raise MpiError("spawn() needs nprocs >= 1")
        want = len(rt.world.group) + nprocs
        ev = Event(rt.engine, name=f"spawn-wait:{rt.rank}")
        rt._spawn_waiters.append((want, ev))
        rt.daemon.request_spawn(rt.record.app_id, nprocs)
        new_size = yield ev
        return new_size

    def log(self, message: str) -> None:
        self._rt.app_log.append((self._rt.engine.now, self.rank, message))

    def __repr__(self) -> str:
        return f"<ProgramContext {self.app_id}#{self.rank}>"


class StarfishProgram:
    """Base class for applications; subclass and override the hooks."""

    def __init__(self):
        #: The checkpointable state container: plain data only (numbers,
        #: strings, lists/tuples/dicts, numpy arrays).
        self.state: Dict[str, Any] = {}

    # -- required hooks ------------------------------------------------------

    def setup(self, ctx: ProgramContext) -> None:
        """Initialize ``self.state``.  Called once on a fresh start (NOT
        after a restart — state comes from the checkpoint then)."""

    def step(self, ctx: ProgramContext):
        """One unit of work; may be a generator using ``ctx.mpi``."""
        raise NotImplementedError

    def is_done(self, ctx: ProgramContext) -> bool:
        """Checked at every safe point; True ends the run."""
        raise NotImplementedError

    def finalize(self, ctx: ProgramContext):
        """Produce this rank's result (may be a generator)."""
        return None

    # -- optional Starfish upcalls ------------------------------------------

    def on_view_change(self, ctx: ProgramContext, info: "ViewInfo"):
        """The application's world changed (ranks died or joined).

        Called at a safe point, *after* the world communicator has been
        renumbered.  Trivially parallel programs repartition here.  May be
        a generator.  Programs that don't override this simply keep the
        conventional MPI model (paper §3.2.2).
        """

    def on_restart(self, ctx: ProgramContext):
        """Called after this process was restored from a checkpoint,
        before stepping resumes.  May be a generator."""

    def on_coordination(self, ctx: ProgramContext, source: int,
                        payload) -> None:
        """A coordination message (``ctx.coordinate``) arrived from
        ``source`` (world rank).  Called immediately on delivery; must not
        block (no generator) — stash data in ``self.state`` and act on it
        in the next step."""


class ViewInfo:
    """Argument of :meth:`StarfishProgram.on_view_change`."""

    def __init__(self, old_world: Tuple[int, ...],
                 new_world: Tuple[int, ...], my_old_rank: Optional[int],
                 world_version: int):
        #: Previous world ranks (original numbering).
        self.old_world = old_world
        #: Surviving/current world ranks (original numbering).
        self.new_world = new_world
        #: This process's rank in the *old* world (None if it is new).
        self.my_old_rank = my_old_rank
        self.world_version = world_version

    @property
    def lost(self) -> Tuple[int, ...]:
        return tuple(r for r in self.old_world if r not in self.new_world)

    @property
    def joined(self) -> Tuple[int, ...]:
        return tuple(r for r in self.new_world if r not in self.old_world)

    @property
    def grew(self) -> bool:
        return bool(self.joined) and not self.lost

    def __repr__(self) -> str:
        return (f"<ViewInfo v{self.world_version} {self.old_world} -> "
                f"{self.new_world}>")
