"""The three separable roles of a recovery stack.

A checkpoint/restart protocol answers four independent questions, and the
monolithic :class:`~repro.ckpt.protocols.base.CrProtocol` used to fuse all
four.  This module splits out the three a rank's protocol module plays,
so protocols compose them instead:

* :class:`WaveScheduler` — *when* to snapshot.  Coordinated protocols are
  driven by one runtime-side ticker on the lowest rank (a wave reaches
  everyone through the protocol rounds); self-paced protocols run a
  per-rank ticker of their own.
* :class:`StateCapturer` — *what* to save.  Snapshot the program + MPI
  runtime state, materialize an image through the checkpointer, build the
  :class:`~repro.store.CheckpointRecord`, persist it to the store.
* :class:`DeliveryTap` — the interception point on the message path.
  Protocols piggyback metadata on outgoing data messages, log or record
  arriving ones, and may suppress a delivery entirely (duplicate
  suppression under message-logging recovery).

The fourth — *who* rolls back after a failure, to which checkpoint
version, replaying what — is not a role object: each protocol names a
:class:`~repro.ckpt.restart.RestartMode`, and the restart coordinator
daemon decides with :func:`~repro.ckpt.restart.plan_restart`.

The four existing C/R protocols are re-expressed on these roles without
changing a single scheduled event (the determinism goldens gate that);
the message-logging family (:mod:`repro.ckpt.protocols.msg_logging`) is
the first protocol whose roles differ in *shape*: a self-paced scheduler,
a logging tap, and a restart mode that restarts only the crashed rank.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import Interrupt
from repro.store.checkpoint import CheckpointRecord

#: Fraction of the checkpoint interval over which self-paced ranks spread
#: their first checkpoints (rank-dependent, deterministic).
JITTER = 0.25


# ----------------------------------------------------------------------
# WaveScheduler — when to snapshot
# ----------------------------------------------------------------------

class WaveScheduler:
    """Decides when checkpoints are initiated.

    Two hooks, one per side of the protocol/runtime boundary:
    :meth:`runtime_ticker` lets the runtime host a ticker process (the
    coordinated protocols' single initiator), and :meth:`start` lets the
    protocol spawn its own (per-rank self-paced checkpointing).
    """

    def runtime_ticker(self, rt) -> Optional[Any]:
        """Generator for a runtime-hosted ticker process, or ``None``.

        ``rt`` is the :class:`~repro.core.runtime.AppProcess`; the
        runtime spawns the returned generator under its own process
        accounting (name ``ckpt-tick:<rank>``).
        """
        return None

    def start(self, protocol, ctx) -> None:
        """Called from :meth:`CrProtocol.start` once ``ctx`` is bound."""

    def stop(self) -> None:
        """Called from :meth:`CrProtocol.stop` before the module dies."""


class CoordinatedWaveScheduler(WaveScheduler):
    """One initiator: the lowest rank's runtime ticks the protocol.

    The wave reaches every peer through the protocol's own rounds
    (``ss-begin`` / ``cl-begin`` ride the lightweight group), so only one
    rank needs a clock.
    """

    def runtime_ticker(self, rt) -> Optional[Any]:
        if rt.record.ckpt_interval is not None \
                and rt.rank == min(rt.record.placement):
            return rt._ckpt_ticker()
        return None


class SelfPacedWaveScheduler(WaveScheduler):
    """Every rank checkpoints on its own (jittered) clock.

    ``op`` is the protocol inbox operation a tick enqueues (``uc-take``,
    ``log-take``); ``tick_name`` prefixes the ticker process name.  The
    period comes from the protocol's ``interval`` attribute;
    ``interval=None`` disables the ticker (checkpoints only on explicit
    request).
    """

    def __init__(self, op: str, tick_name: str):
        self.op = op
        self.tick_name = tick_name
        self._ticker = None

    def start(self, protocol, ctx) -> None:
        if protocol.interval is not None:
            self._ticker = ctx.node.spawn(
                self._periodic(protocol, ctx),
                name=f"{self.tick_name}:{ctx.rank}")

    def _periodic(self, protocol, ctx):
        # Deterministic de-synchronization: spread the ranks across a
        # JITTER fraction of the interval so independent checkpoints do
        # not all land on the same instant.
        offset = protocol.interval * JITTER * ctx.rank \
            / max(1, len(ctx.peers()))
        try:
            yield ctx.engine.timeout(offset)
            while True:
                yield ctx.engine.timeout(protocol.interval)
                protocol.inbox.put(((self.op,), ctx.rank))
        except Interrupt:
            return
        except Exception:
            return

    def stop(self) -> None:
        if self._ticker is not None and self._ticker.is_alive:
            self._ticker.interrupt("cr-stop")


# ----------------------------------------------------------------------
# StateCapturer — what to save
# ----------------------------------------------------------------------

class StateCapturer:
    """Snapshot, materialize, describe, and persist one local checkpoint.

    Two snapshot flavours, matching the two timing disciplines the
    protocols need: :meth:`snapshot` samples the runtime meta (step
    counter) *with* the MPI state — the coordinated protocols capture
    everything at the pause instant — while :meth:`snapshot_parts` leaves
    the runtime meta to the caller, because the self-paced protocols
    resume the application before the record is built and the meta must
    be sampled at build time.
    """

    def snapshot(self, ctx):
        """``(program_state, mpi_state)`` with runtime meta folded in."""
        return (ctx.snapshot_state(),
                {**ctx.endpoint.export_state(), **ctx.runtime_meta()})

    def snapshot_parts(self, ctx):
        """``(program_state, mpi_state)`` without runtime meta."""
        return (ctx.snapshot_state(), ctx.endpoint.export_state())

    def materialize(self, ctx, state):
        """``(image, nbytes)`` through the configured checkpointer."""
        return ctx.checkpointer.capture(state, ctx.arch)

    def build_record(self, ctx, version: int, image, nbytes: int,
                     mpi_state: dict, **extra) -> CheckpointRecord:
        return CheckpointRecord(
            app_id=ctx.app_id, rank=ctx.rank, version=version,
            level=ctx.checkpointer.level, nbytes=nbytes, image=image,
            arch_name=ctx.arch.name, taken_at=ctx.engine.now,
            mpi_state=mpi_state, **extra)

    def persist(self, ctx, record: CheckpointRecord):
        """Process generator: write the record through the local disk."""
        yield from ctx.store.write(
            ctx.node, record, bandwidth=ctx.checkpointer.write_bandwidth)


# ----------------------------------------------------------------------
# DeliveryTap — interception on the message path
# ----------------------------------------------------------------------

class DeliveryTap:
    """Protocol hooks on the MPI endpoint's send and delivery paths.

    Installed as ``endpoint.tap``; all hooks default to no-ops so a
    protocol overrides only the interception it needs.
    """

    def piggyback(self, dest_world: int):
        """Metadata to ride the outgoing data packet (or ``None``).

        Called after the channel send counter moved, so the counter value
        is this message's per-channel sequence number.
        """
        return None

    def on_send(self, dest_world: int, comm_id: str, src_comm_rank: int,
                tag: int, data, nbytes: int, pb):
        """Optional process generator run *before* the wire send.

        Message-logging protocols persist the message here — running
        before the VNI send is what makes logged-before-sent hold by
        construction.
        """
        return None

    def route_send(self, dest_world: int, comm_id: str, src_comm_rank: int,
                   tag: int, data, nbytes: int, pb, pre_delay: float):
        """Optionally *replace* the point-to-point wire send.

        Return a process generator to carry the message yourself (the
        active-replication tap reroutes every data send onto the GCS
        total-order multicast so all replicas of the destination observe
        one sequence); return ``None`` for the normal VNI send.
        ``pre_delay`` is the software-stack cost the endpoint would have
        folded into the wire send — a replacement route owes it.
        """
        return None

    def on_deliver(self, src_world: int, inbound, pb):
        """An arriving data message, *before* the receive counter moves.

        Return truthy to suppress the delivery entirely: no counter
        increment, no matching — the message never existed as far as the
        application is concerned (duplicate suppression during
        log-replay recovery).
        """
        return False

    def on_control(self, msg, src_world: int):
        """A control message (``tag <= CKPT_TAG_BASE``: Chandy–Lamport
        markers, diskless transfers).  A plain call from the dispatcher's
        filing callback: it cannot wait."""
