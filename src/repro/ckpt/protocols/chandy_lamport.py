"""Chandy–Lamport coordinated (non-blocking) snapshot protocol.

The contrast to stop-and-sync: processes are paused only for the instant of
the local state capture; the application keeps computing while in-channel
messages are *recorded* and while the image is written to disk.  Channel
state (messages in flight at snapshot time) is captured by FIFO **markers**
sent in-band on every data channel:

1. ``cl-begin v`` (lightweight group, total order) — every rank treats it
   as the initiator's marker: capture local state, send a marker down every
   outgoing channel, start recording every incoming channel.  As in the
   original algorithm, a *marker* arriving before the begin notice also
   triggers the snapshot (markers ride the Myrinet fast path and can beat
   the daemons' Ethernet broadcast).
2. a data message arriving on channel *c* before *c*'s marker belongs to
   the snapshot: record it.
3. marker on channel *c* → stop recording *c*.  All markers in → write the
   record (state + recorded channel messages), cast ``cl-done``.
4. lowest rank collects ``cl-done`` from everyone, pays the commit barrier,
   casts ``cl-commit``.

Markers travel as MPI control messages (``CKPT_TAG_BASE - 1``) so they are
FIFO-ordered with data on the same channel — exactly the property the
algorithm requires.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.ckpt.protocols.base import CrProtocol
from repro.ckpt.protocols.roles import DeliveryTap
from repro.ckpt.protocols.stop_and_sync import commit_barrier_cost
from repro.mpi.constants import CKPT_TAG_BASE
from repro.sim.events import Event

MARKER_TAG = CKPT_TAG_BASE - 1


class _MarkerTap(DeliveryTap):
    """Record in-channel data while a snapshot is open; route markers.

    Installed permanently; recording is gated on the protocol's
    ``_active``/``_recording`` state, which is exactly when the old
    dynamically-installed data tap existed.
    """

    def __init__(self, protocol: "ChandyLamportProtocol"):
        self.protocol = protocol

    def on_deliver(self, src_world: int, inbound, pb):
        p = self.protocol
        if p._active is not None and src_world in p._recording:
            p._recorded.append((src_world, inbound.comm_id, inbound.source,
                                inbound.tag, inbound.data, inbound.nbytes))
        return False

    def on_control(self, msg, src_world: int):
        if msg.tag == MARKER_TAG:
            tag, version, target = msg.data
            if tag == "cl-marker":
                self.protocol.deliver(
                    ("cl-marker-in", version, src_world, target), src_world)


class ChandyLamportProtocol(CrProtocol):
    """One rank's Chandy–Lamport module."""

    name = "chandy-lamport"

    def __init__(self):
        super().__init__()
        self.tap = _MarkerTap(self)
        self._version = 0            # highest snapshot version seen/taken
        self._active: Optional[int] = None
        self._recording: Set[int] = set()
        self._recorded: List[tuple] = []
        self._early_markers: Set[int] = set()
        self._done: set = set()
        self._pending_state = None

    def start(self, ctx) -> None:
        super().start(ctx)
        # Continue the (app-wide) version sequence after a restart.
        self._version = max(self._version, ctx.store.max_version(ctx.app_id))

    def request_checkpoint(self) -> Event:
        version = self._version + 1
        ev = self._completion_event(version)
        self.ctx.cast(("cl-begin", version, self.ctx.current_step() + 1))
        return ev

    # ------------------------------------------------------------------
    # snapshot initiation (from begin notice OR from an early marker)
    # ------------------------------------------------------------------

    def on_membership_change(self, live_ranks) -> None:
        """The app keeps running under Chandy–Lamport (only the marker
        wave stalls on a lost peer), so the clean-up can ride the inbox:
        close the dead peer's channels and re-run the commit check that
        its ``cl-done`` would have triggered."""
        super().on_membership_change(live_ranks)
        if self._active is not None:
            self.deliver(("cl-prune", tuple(live_ranks)), self.ctx.rank)

    def on_cl_prune(self, payload, source):
        _, live = payload
        version = self._active
        if version is None:
            return None
        self._recording &= set(live)
        if self._pending_state is not None and not self._recording:
            return self._finish(version)  # own cl-done cast rechecks commit
        return self._maybe_commit(version)

    def _take_snapshot(self, version: int, target: Optional[int] = None):
        self._version = version
        self._active = version
        self.oracle.wave_begin(version)
        self._done = set()
        self._recorded = []
        ctx = self.ctx
        peers = [r for r in self.live_peers() if r != ctx.rank]

        # Momentary pause: capture local state at the common step boundary.
        yield from ctx.pause(target)
        self._pending_state = self.capturer.snapshot(ctx)
        # Channels whose marker raced ahead of the begin notice are empty.
        # (The delivery tap starts recording them from here on.)
        self._recording = set(peers) - self._early_markers
        self._early_markers = set()
        # Send markers down every outgoing channel (before any new data).
        for peer in peers:
            yield from ctx.endpoint.send(
                peer, f"cr:{ctx.app_id}", ctx.rank, MARKER_TAG,
                ("cl-marker", version, target), nbytes=16)
        ctx.resume()                      # app continues immediately
        if not self._recording:
            yield from self._finish(version)

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------

    def on_cl_begin(self, payload, source):
        version = payload[1]
        target = payload[2] if len(payload) > 2 else None
        if version <= self._version:
            return None  # already taken (possibly marker-initiated)
        return self._take_snapshot(version, target)

    def on_cl_marker_in(self, payload, source):
        _, version, src_world, target = payload
        if version < self._version or (version == self._version
                                       and self._active is None):
            return None               # stale marker for a finished snapshot
        if version > self._version:
            # Marker beat the begin notice: it initiates our snapshot and
            # its own channel is recorded as empty.
            self._early_markers = {src_world}
            return self._take_snapshot(version, target)
        return self._marker_closes(version, src_world)

    def _marker_closes(self, version: int, src_world: int):
        if self._active is None or self._pending_state is None:
            # Snapshot still being initiated (we are inside _take_snapshot):
            # remember the marker so the channel starts closed.
            self._early_markers.add(src_world)
            return
        self._recording.discard(src_world)
        if not self._recording:
            yield from self._finish(version)

    def _finish(self, version: int):
        ctx = self.ctx
        state, mpi_state = self._pending_state
        self._pending_state = None
        image, nbytes = self.capturer.materialize(ctx, state)
        record = self.capturer.build_record(
            ctx, version, image, nbytes, mpi_state,
            channel_msgs=list(self._recorded))
        yield from self.capturer.persist(ctx, record)
        self.oracle.dumped(version)
        self.record_checkpoint(nbytes)
        ctx.cast(("cl-done", version, ctx.rank))

    def on_cl_done(self, payload, source):
        _, version, rank = payload
        if version != self._active:
            return None
        self._done.add(rank)
        return self._maybe_commit(version)

    def _maybe_commit(self, version: int):
        peers = self.live_peers()
        if not peers or not peers <= self._done:
            return
        if self.ctx.rank == min(peers) and self._commit_started != version:
            self._commit_started = version
            self.oracle.commit_coordination(version)
            yield self.ctx.engine.timeout(
                commit_barrier_cost(self.ctx.checkpointer.level, len(peers)))
            self.ctx.store.commit(self.ctx.app_id, version)
            self.ctx.store.gc_committed(self.ctx.app_id, keep=2)
            self.ctx.cast(("cl-commit", version))

    def on_cl_commit(self, payload, source):
        _, version = payload
        if version != self._active:
            return None
        self._active = None
        self._committed(version)
        return None
