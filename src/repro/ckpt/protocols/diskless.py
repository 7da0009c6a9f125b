"""Diskless checkpointing over the fast network — the paper's future work.

§7: "developing newer and faster C/R protocols, in particular ones that
utilize fast networks, is a natural research direction."  This protocol is
that direction, after Plank's diskless checkpointing: the stop-and-sync
structure is kept (stop, drain, dump, commit), but the *dump* streams the
checkpoint image over BIP/Myrinet into a **buddy node's memory** instead
of through the ~6.5 MB/s IDE disk — turning checkpoint latency from
disk-bound into network-bound.

Placement rotates with the version (buddy of rank *i* at version *v* is
rank ``(i + 1 + (v-1) mod (n-1))`` among the live peers), so consecutive
recovery lines never share holders: a single node crash wipes at most one
rank's copy of each version, and since the crash also always leaves the
*previous* line intact on different holders, single failures remain
recoverable (the restart coordinator uses
:meth:`~repro.store.CheckpointStore.latest_restorable`).

Trade-offs measured by the ``ABL-DISKLESS`` row of ``benchmarks/paper.py``:
checkpoints are ~5x faster, restores skip the disk read, but a crash can
invalidate the newest line (extra rollback distance) and memory holds the
images instead of stable storage.
"""

from __future__ import annotations

from repro.ckpt.protocols.roles import DeliveryTap
from repro.ckpt.protocols.stop_and_sync import StopAndSyncProtocol
from repro.mpi.constants import CKPT_TAG_BASE
from repro.store.checkpoint import TIER_MEMORY
from repro.store.placement import rotating_mirrors

#: In-band tag for checkpoint-image transfers and their acks.
DL_TAG = CKPT_TAG_BASE - 2


class _BuddyTap(DeliveryTap):
    """Route in-band checkpoint-image transfers into the module."""

    def __init__(self, protocol: "DisklessProtocol"):
        self.protocol = protocol

    def on_control(self, msg, src_world: int):
        if msg.tag == DL_TAG:
            self.protocol.deliver(msg.data, src_world)


class DisklessProtocol(StopAndSyncProtocol):
    """Stop-and-sync with fast-network buddy storage instead of disks."""

    name = "diskless"

    def __init__(self):
        super().__init__()
        self.tap = _BuddyTap(self)
        self._acks_pending = 0

    def on_membership_change(self, live_ranks) -> None:
        super().on_membership_change(live_ranks)
        self._acks_pending = 0       # dl-acks from a lost buddy never come

    def _buddies(self, version: int):
        """Mirror targets, delegated to the storage fabric's placement.

        The protocol is a thin client of ``repro.store``: the rotation
        rule lives in :func:`repro.store.placement.rotating_mirrors` and
        the copy count comes from the store (its replication factor
        ``k``; double mirroring when none is configured — Plank-style
        diskless checkpointing uses parity; mirroring is the simple
        variant).
        """
        return rotating_mirrors(self.live_peers(), self.ctx.rank, version,
                                copies=self.ctx.store.mirror_fanout())

    # ------------------------------------------------------------------
    # the dump phase: stream to the buddy instead of writing locally
    # ------------------------------------------------------------------

    def _drain_and_dump(self, version: int):
        captured = yield from self._drain_and_capture(version)
        if captured is None:
            return
        record, nbytes = captured
        ctx = self.ctx
        buddies = self._buddies(version)
        if not buddies:
            # Singleton application: nowhere to mirror; keep it in our own
            # memory (it dies with us — an honest diskless limitation).
            ctx.store.write_tier(record, TIER_MEMORY,
                                 holder_node=ctx.node.node_id)
            self._after_dump(version, nbytes)
            return
        # Stream the image to each mirror over the fast network.  The wire
        # cost comes from the message size = the checkpoint size.
        self._acks_pending = len(buddies)
        for buddy in buddies:
            yield from ctx.endpoint.send(
                buddy, f"cr:{ctx.app_id}", ctx.rank, DL_TAG,
                ("dl-store", version, ctx.rank, record), nbytes=nbytes)

    # ------------------------------------------------------------------
    # buddy-side storage + ack
    # ------------------------------------------------------------------

    def on_dl_store(self, payload, source):
        _, version, owner, record = payload
        self.ctx.store.write_tier(record, TIER_MEMORY,
                                  holder_node=self.ctx.node.node_id)
        yield from self.ctx.endpoint.send(
            owner, f"cr:{self.ctx.app_id}", self.ctx.rank, DL_TAG,
            ("dl-ack", version), nbytes=16)

    def on_dl_ack(self, payload, source):
        _, version = payload
        if version != self._active:
            return None
        self.oracle.buddy_ack(version, self._acks_pending)
        self._acks_pending -= 1
        if self._acks_pending > 0:
            return None
        rec = self.ctx.store.peek(self.ctx.app_id, self.ctx.rank, version)
        self._after_dump(version, rec.nbytes)
        return None

    def _commit_barrier(self, nodes: int) -> float:
        # No stable-storage sync: committing a diskless line is just the
        # (already simulated) message rounds.
        return 0.0
