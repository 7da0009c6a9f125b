"""The stop-and-sync coordinated checkpoint protocol.

This is the protocol the paper measures in Figures 3 and 4: stop every
process, let in-flight messages drain, dump every process, then commit.

Rounds (all C/R messages ride the lightweight group, totally ordered):

1. ``ss-begin v``      — any rank initiates; the total order resolves races.
2. *stop*              — each rank pauses its application at a safe point
                         and publishes its per-channel send counters
                         (``ss-counts``).
3. *sync/drain*        — each rank waits until it has ingested exactly as
                         many messages as its peers report having sent to
                         it: the network is then empty of application data.
4. *dump*              — each rank captures program + MPI-runtime state and
                         writes it through its local disk (``ss-done``).
5. *commit*            — the lowest live rank waits for all ``ss-done``,
                         pays the stable-storage commit barrier (calibrated
                         against the paper's 1/2/4-node anchors), and casts
                         ``ss-commit``; everyone resumes.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.calibration import (FIG3_ANCHORS, FIG4_ANCHORS,
                               NATIVE_DISK_BANDWIDTH, NATIVE_EMPTY_IMAGE,
                               VM_DUMP_BANDWIDTH, VM_EMPTY_IMAGE,
                               protocol_round_estimate, sync_residual)
from repro.ckpt.protocols.base import CrProtocol
from repro.sim.events import Event

#: How often a draining rank re-checks its receive counters.
DRAIN_POLL = 0.0002


def commit_barrier_cost(level: str, nodes: int) -> float:
    """Stable-storage commit + barrier-skew residual (paper-calibrated).

    The simulated protocol rounds already cost time, so their estimate is
    deducted from the calibrated residual — total checkpoint time then
    lands on the paper's anchors instead of paying the rounds twice.
    """
    if level == "native":
        residual = sync_residual(nodes, FIG3_ANCHORS, NATIVE_EMPTY_IMAGE,
                                 NATIVE_DISK_BANDWIDTH)
    else:
        residual = sync_residual(nodes, FIG4_ANCHORS, VM_EMPTY_IMAGE,
                                 VM_DUMP_BANDWIDTH)
    return max(0.0, residual - protocol_round_estimate(nodes))


class StopAndSyncProtocol(CrProtocol):
    """One rank's stop-and-sync module."""

    name = "stop-and-sync"

    def __init__(self):
        super().__init__()
        self._version = 0
        self._counts: Dict[int, Dict[int, int]] = {}   # rank -> sent map
        self._done: set = set()
        self._active: Optional[int] = None
        self._dump_started: Optional[int] = None
        self._floor = 0              # highest version known committed

    def on_membership_change(self, live_ranks) -> None:
        """A peer left (or joined) mid-wave: counts/done from a lost rank
        can never arrive and the wave holds the app paused, so it can
        never complete either — abort it.  The checkpoint tickers
        initiate a fresh wave on the new world."""
        super().on_membership_change(live_ranks)
        if self._active is None:
            return
        self.oracle.wave_abort(self._active)
        self._active = None
        self._counts = {}
        self._done = set()
        # _active was set, so this rank's on_ss_begin has requested its
        # pause (it happens before control ever leaves the module).
        self.ctx.resume()
        self._abort_wave_waiters()

    def start(self, ctx) -> None:
        super().start(ctx)
        # A restarted process continues the version sequence: colliding
        # with stored versions would overwrite live recovery lines, and
        # all ranks must agree (app-wide max — a rank that died mid-
        # checkpoint stored fewer versions than its peers).
        self._version = max(self._version, ctx.store.max_version(ctx.app_id))
        committed = ctx.store.committed_versions(ctx.app_id)
        self._floor = max([self._floor, *committed]) if committed else \
            self._floor

    def request_checkpoint(self) -> Event:
        version = self._version + 1
        ev = self._completion_event(version)
        # Target boundary: one step past the initiator's progress, so all
        # (globally synchronizing) ranks stop at the same step count.
        # The version rides the cast: restarted ranks can observe
        # different store contents (a late in-flight mirror from the dead
        # incarnation), so local ``_version + 1`` does not agree across
        # ranks — the totally-ordered proposal does.
        self.ctx.cast(("ss-begin", self.ctx.current_step() + 1, version))
        return ev

    # ------------------------------------------------------------------
    # handlers (run in the module's main loop, strictly serialized)
    # ------------------------------------------------------------------

    def on_ss_begin(self, payload, source):
        if self._active is not None:
            return                      # already checkpointing: coalesce
        target = payload[1] if len(payload) > 1 else None
        proposed = payload[2] if len(payload) > 2 else self._version + 1
        if proposed <= self._floor:
            return        # that line committed while the begin was queued
        self._version = max(self._version, proposed)
        self._active = proposed
        self.oracle.wave_begin(proposed)
        self._counts = {}
        self._done = set()
        yield from self.ctx.pause(target)
        if self._active != proposed:
            return            # aborted by a membership change mid-pause
        sent, _ = self.ctx.endpoint.channel_counters()
        self.oracle.counts_published(proposed)
        self.ctx.cast(("ss-counts", proposed, self.ctx.rank, sent))

    def on_ss_counts(self, payload, source):
        _, version, rank, sent = payload
        if version != self._active:
            return
        self._counts[rank] = sent
        # Subset (not count equality): _counts may hold a rank that died
        # after publishing, and live_peers() may be smaller than the
        # world the wave started on.
        if self._dump_started != version \
                and self.live_peers() <= set(self._counts):
            self._dump_started = version
            yield from self._drain_and_dump(version)

    def _drain_and_dump(self, version: int):
        captured = yield from self._drain_and_capture(version)
        if captured is None:
            return
        record, nbytes = captured
        yield from self.capturer.persist(self.ctx, record)
        self._after_dump(version, nbytes)

    def _drain_and_capture(self, version: int):
        """Process generator: wait until every message sent to this rank
        has been ingested, then capture its checkpoint record.  Returns
        ``(record, nbytes)``, or ``None`` once the wave has been aborted
        by a membership change.  Diskless shares it and stores the record
        its own way."""
        ctx = self.ctx
        me = ctx.rank
        live = self.live_peers()
        expected = {r: counts.get(me, 0) for r, counts in
                    self._counts.items() if r != me and r in live}
        while any(ctx.endpoint.recv_count.get(r, 0) < n
                  for r, n in expected.items()):
            if self._active != version:
                return None
            yield ctx.engine.timeout(DRAIN_POLL)
        if self._active != version:
            return None
        # StateCapturer role: the app is paused, so runtime meta is sampled
        # together with the MPI state.
        state, mpi_state = self.capturer.snapshot(ctx)
        image, nbytes = self.capturer.materialize(ctx, state)
        record = self.capturer.build_record(ctx, version, image, nbytes,
                                            mpi_state)
        return record, nbytes

    def _after_dump(self, version: int, nbytes: int) -> None:
        self.oracle.dumped(version)
        self.record_checkpoint(nbytes)
        self.ctx.cast(("ss-done", version, self.ctx.rank))

    def on_ss_done(self, payload, source):
        _, version, rank = payload
        if version != self._active:
            return
        self._done.add(rank)
        peers = self.live_peers()
        if not peers or not peers <= self._done:
            return
        if self.ctx.rank == min(peers) and self._commit_started != version:
            self._commit_started = version
            self.oracle.commit_coordination(version)
            # Commit coordinator: stable-storage barrier, then release.
            yield self.ctx.engine.timeout(self._commit_barrier(len(peers)))
            self.ctx.store.commit(self.ctx.app_id, version)
            self.ctx.store.gc_committed(self.ctx.app_id, keep=2)
            self.ctx.cast(("ss-commit", version))

    def _commit_barrier(self, nodes: int) -> float:
        """Stable-storage commit cost (overridden by diskless)."""
        return commit_barrier_cost(self.ctx.checkpointer.level, nodes)

    def on_ss_commit(self, payload, source):
        _, version = payload
        self._floor = max(self._floor, version)
        if version != self._active:
            return None
        self._active = None
        self.ctx.resume()
        self._committed(version)
        return None
