"""Uncoordinated (independent) checkpointing with dependency tracking.

Each rank checkpoints on its own schedule — no synchronization, no drain,
no commit barrier; the price is paid at *recovery* time, when a consistent
recovery line must be computed on the rollback-dependency graph and
surviving processes may be rolled back too (up to the domino effect).

Mechanics:

* every outgoing data message piggybacks ``(rank, interval)`` — the
  sender's current checkpoint interval;
* every incoming data message records the dependency *(sender, its
  interval) → (me, my interval)*;
* a local checkpoint stores program + MPI state plus the rank's dependency
  log so the graph can be rebuilt from stable storage alone.

Recovery-line computation lives in :mod:`repro.ckpt.recovery_line`; the
restart coordinator reads the stored dependency logs and
:func:`~repro.ckpt.restart.plan_restart` calls it.  The
versions of uncoordinated checkpointing that restart *only* the failed
process (paper §3.2.2) are the message-logging protocols of
:mod:`repro.ckpt.protocols.msg_logging`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.ckpt.protocols.base import CrProtocol
from repro.ckpt.protocols.roles import DeliveryTap, SelfPacedWaveScheduler
from repro.ckpt.restart import RestartMode
from repro.sim.events import Event


class _DependencyTap(DeliveryTap):
    """Piggyback the sender's interval; record dependencies on arrival."""

    def __init__(self, protocol: "UncoordinatedProtocol"):
        self.protocol = protocol

    def piggyback(self, dest_world: int):
        p = self.protocol
        return (p.ctx.rank, p._ckpt_index)

    def on_deliver(self, src_world: int, inbound, pb):
        p = self.protocol
        if pb is not None:
            sender, s_interval = pb
            p._deps.append((sender, s_interval, p._ckpt_index))
        return False


class UncoordinatedProtocol(CrProtocol):
    """One rank's independent checkpointing module."""

    name = "uncoordinated"
    restart_mode = RestartMode.UNCOORDINATED

    def __init__(self, interval: Optional[float] = None):
        """``interval``: checkpoint period in simulated seconds (``None``
        = only on explicit request)."""
        super().__init__()
        self.interval = interval
        self.scheduler = SelfPacedWaveScheduler("uc-take",
                                                "cr-uncoord-tick")
        self.tap = _DependencyTap(self)
        self._ckpt_index = 0                      # == current interval
        self._deps: List[Tuple[int, int, int]] = []   # (sender, s_iv, my_iv)

    @classmethod
    def runtime_kwargs(cls, record) -> dict:
        return {"interval": record.ckpt_interval}

    # -- wiring ---------------------------------------------------------------

    def start(self, ctx) -> None:
        super().start(ctx)
        existing = ctx.store.versions_of(ctx.app_id, ctx.rank)
        if existing:       # continue interval numbering after a restart
            self._ckpt_index = max(existing) + 1

    # -- user request ----------------------------------------------------------

    def request_checkpoint(self) -> Event:
        """Take a *local* checkpoint now (no coordination with peers)."""
        ev = self._completion_event(self._ckpt_index + 1)
        self.inbox.put((("uc-take",), self.ctx.rank))
        return ev

    # -- handlers ----------------------------------------------------------------

    def on_uc_take(self, payload, source):
        ctx = self.ctx
        yield from ctx.pause()
        # snapshot_parts, not snapshot: the app resumes below, so the
        # runtime meta (step counter) is sampled at record-build time.
        state, mpi_state = self.capturer.snapshot_parts(ctx)
        deps = list(self._deps)
        index = self._ckpt_index          # this checkpoint's version
        self._ckpt_index += 1             # new interval begins
        ctx.resume()                      # independent: nobody waits for us

        image, nbytes = self.capturer.materialize(ctx, state)
        record = self.capturer.build_record(
            ctx, index, image, nbytes, {**mpi_state, **ctx.runtime_meta()},
            deps=deps)
        yield from self.capturer.persist(ctx, record)
        self.oracle.dumped(index)
        self.record_checkpoint(nbytes)
        # No coordination: "committing" is just local bookkeeping, and the
        # completion-event version is the *interval* the checkpoint opened
        # (index + 1), which the oracle must not match against the dump.
        self._committed(index + 1, participating=False)

    # -- recovery-side helpers ---------------------------------------------------

    def live_deps(self) -> List[Tuple[int, int, int]]:
        """Dependencies recorded so far (incl. the current interval)."""
        return list(self._deps)
