"""Sender-based message logging: the escape from domino rollback.

Both protocols here checkpoint *independently* (self-paced, like the
uncoordinated protocol) but additionally log every sent data message —
with its per-channel send sequence number (ssn) — to stable storage via
the checkpoint store.  After a failure their restart mode,
``LOG_REPLAY``, restarts **only the crashed rank**: it resumes from its
own latest checkpoint (channel counters included) and the inbound side
of every channel is re-fed from the sender logs through the delivery
tap, in the original receive order.  Survivors never roll back; the restarted rank's
re-sends are duplicate-suppressed at the receivers by their ssn.

Two flavours, differing only in *when the log IO is charged*:

* :class:`SenderLoggingProtocol` (``sender-logging``) — **pessimistic**:
  the sender's disk write happens before the message goes on the wire
  (the tap's ``on_send`` runs before the VNI send), so logged-before-sent
  holds by construction and no orphan can ever be created.  Steady-state
  cost: one log write per message, on the send path.
* :class:`CausalLoggingProtocol` (``causal-logging``) — the log entry is
  recorded immediately but its IO is deferred and batched into the next
  checkpoint (the determinant is bounded by the checkpoint, as in causal
  logging's recovery guarantee); sends stay fast, and the flush rides the
  checkpoint's disk write.

Invariants are watched by :class:`~repro.check.oracles.ReplayOracle`
(logged-before-sent, replay-exactly-once, orphan-free).

Known modelling limit: per-channel receive counters count *arrivals*, so
unrecovered frame loss toward a rank that later crashes can skew the
replay window (see DESIGN.md §15).  The shipped campaigns exercise crash
faults, where in-flight-at-crash messages are exactly what the log heals.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.check.oracles import ReplayOracle
from repro.ckpt.protocols.base import CrProtocol
from repro.ckpt.protocols.roles import DeliveryTap, SelfPacedWaveScheduler
from repro.ckpt.restart import RestartMode
from repro.mpi.matching import InboundMsg
from repro.sim.events import Event


class ReplayTap(DeliveryTap):
    """The logging protocols' interception point.

    Send side: piggyback the message's ssn, append it to the sender log,
    charge the protocol's log-IO policy.  Delivery side: suppress
    duplicates (a restarted sender re-executing its past re-sends with
    the original ssns) and, while this rank is itself being restored,
    stash live traffic until replay has caught the channel up.
    """

    def __init__(self, protocol: "SenderLoggingProtocol"):
        self.protocol = protocol
        self._holding = False
        #: Live messages that arrived mid-restore: (src, inbound, ssn).
        self._stash: List[Tuple[int, InboundMsg, Optional[int]]] = []

    # -- send path ------------------------------------------------------

    def piggyback(self, dest_world: int):
        # sent_count was incremented just before this call, so it IS this
        # message's ssn on the (us -> dest) channel.
        ep = self.protocol.ctx.endpoint
        return ("ssn", ep.sent_count[dest_world])

    def on_send(self, dest_world: int, comm_id: str, src_comm_rank: int,
                tag: int, data, nbytes: int, pb):
        p = self.protocol
        ssn = pb[1]
        fresh = p.ctx.store.log_append(
            p.ctx.app_id, p.ctx.rank, dest_world, ssn,
            (comm_id, src_comm_rank, tag, data, nbytes))
        if fresh:
            # A re-executed send (same ssn) is already covered: charging
            # it again would bill the same log entry twice.
            cost = p.charge_send_log(nbytes)
            if cost is not None:
                yield from cost

    # -- delivery path --------------------------------------------------

    @staticmethod
    def _ssn_of(pb) -> Optional[int]:
        if isinstance(pb, tuple) and len(pb) == 2 and pb[0] == "ssn":
            return pb[1]
        return None

    def on_deliver(self, src_world: int, inbound, pb):
        ssn = self._ssn_of(pb)
        if self._holding:
            # Mid-restore: replay must re-feed the channel history first;
            # live traffic waits its turn (flushed by replay()).
            self._stash.append((src_world, inbound, ssn))
            return True
        if ssn is None:
            return False
        p = self.protocol
        ep = p.ctx.endpoint
        if ssn <= ep.recv_count.get(src_world, 0):
            # Duplicate: a restarted sender re-executing its past.
            return True
        p.replay_oracle.delivered(
            src_world, ssn,
            p.ctx.store.log_end(p.ctx.app_id, src_world, p.ctx.rank))
        return False

    # -- restore-side replay --------------------------------------------

    def replay(self, endpoint, store):
        """Process generator: re-feed logged inbound channels.

        Called by the runtime's solo-restore path after the checkpoint
        (and its channel counters) are back in place.  Every channel is
        replayed gap-free from its restored receive counter to the log
        end; the read IO for the replayed bytes is charged to this
        node's disk in one batch.
        """
        p = self.protocol
        oracle = p.replay_oracle
        app_id = endpoint.app_id
        me = endpoint.world_rank
        total_bytes = 0
        replayed = 0
        for sender in store.log_senders(app_id, me):
            if sender == me:
                # Self-channel messages are regenerated by re-execution.
                continue
            rc = endpoint.recv_count.get(sender, 0)
            oracle.restored(sender, rc, store.log_end(app_id, sender, me))
            for ssn, entry in store.log_tail(app_id, sender, me,
                                             after_ssn=rc):
                oracle.replayed(sender, ssn, rc + 1)
                rc = ssn
                endpoint.recv_count[sender] = rc
                comm_id, src_comm_rank, tag, data, nbytes = entry
                endpoint.matching.arrived(InboundMsg(
                    comm_id=comm_id, source=src_comm_rank, tag=tag,
                    data=data, nbytes=nbytes))
                total_bytes += nbytes
                replayed += 1
        if total_bytes:
            yield from endpoint.node.disk.read(total_bytes)
        p.record_replay(replayed, total_bytes)
        # Release the stash: live messages that raced the restore.  Any
        # of them the replay already covered is a duplicate now.
        self._holding = False
        stash, self._stash = self._stash, []
        for src_world, inbound, ssn in stash:
            if ssn is not None \
                    and ssn <= endpoint.recv_count.get(src_world, 0):
                continue
            endpoint.recv_count[src_world] += 1
            endpoint.matching.arrived(inbound)


class SenderLoggingProtocol(CrProtocol):
    """Pessimistic sender-based message logging (solo restart)."""

    name = "sender-logging"
    restart_mode = RestartMode.LOG_REPLAY
    #: Ask the runtime to snapshot channel state at every step commit:
    #: solo replay restores counters, so they must be consistent with the
    #: step boundary the checkpoint resumes from (a pause may freeze the
    #: rank mid-step, with the uncommitted step's traffic already counted).
    wants_boundary_capture = True

    def __init__(self, interval: Optional[float] = None):
        super().__init__()
        self.interval = interval
        self.scheduler = SelfPacedWaveScheduler("log-take", "cr-log-tick")
        self.tap = ReplayTap(self)
        self.replay_oracle = ReplayOracle(self)
        self._ckpt_index = 0
        self._unflushed_bytes = 0
        self._replayed_msgs = 0

    @classmethod
    def runtime_kwargs(cls, record) -> dict:
        return {"interval": record.ckpt_interval}

    def start(self, ctx) -> None:
        super().start(ctx)
        self.replay_oracle.bind(ctx.rank)
        existing = ctx.store.versions_of(ctx.app_id, ctx.rank)
        if existing:       # continue version numbering after a restart
            self._ckpt_index = max(existing) + 1
        # Hold live traffic back while a solo restore replays the logs.
        self.tap._holding = ctx.restoring()

    # -- log IO policy (the one knob the causal variant overrides) -------

    def charge_send_log(self, nbytes: int):
        """Pessimistic: the send blocks on the sender's log write."""
        return self.ctx.node.disk.write(nbytes)

    def flush_cost(self) -> int:
        """Log bytes to force out with the next checkpoint (pessimistic:
        none — everything already hit the disk on the send path)."""
        return 0

    def record_replay(self, messages: int, nbytes: int) -> None:
        self._replayed_msgs += messages

    # -- checkpointing ---------------------------------------------------

    def request_checkpoint(self) -> Event:
        """Take a *local* checkpoint now (no coordination with peers)."""
        ev = self._completion_event(self._ckpt_index + 1)
        self.inbox.put((("log-take",), self.ctx.rank))
        return ev

    def on_log_take(self, payload, source):
        ctx = self.ctx
        yield from ctx.pause()
        # The program state only mutates at step commits, so the paused
        # snapshot is the last committed boundary — but the live channel
        # counters may already include the uncommitted step's traffic
        # (mid-step freeze).  Pair the state with the runtime's
        # step-boundary MPI capture, which is consistent with it.
        state = ctx.snapshot_state()
        mpi_state = ctx.boundary_state()
        if mpi_state is None:     # harness contexts: live state is fine
            mpi_state = {**ctx.endpoint.export_state(),
                         "comm_seqs": ctx.comm_state()}
        # Meta sampled *at pause* (not build) time: the causal flush below
        # yields, and a step committing during it would desync the step
        # counter from the boundary channel state.
        meta = ctx.runtime_meta()
        index = self._ckpt_index
        self._ckpt_index += 1
        ctx.resume()                  # independent: nobody waits for us

        image, nbytes = self.capturer.materialize(ctx, state)
        flush = self.flush_cost()
        if flush:
            yield from ctx.node.disk.write(flush)
        record = self.capturer.build_record(
            ctx, index, image, nbytes, {**mpi_state, **meta})
        yield from self.capturer.persist(ctx, record)
        self.oracle.dumped(index)
        self.record_checkpoint(nbytes)
        self._committed(index + 1, participating=False)


class CausalLoggingProtocol(SenderLoggingProtocol):
    """Causal-style logging: log IO deferred into the next checkpoint.

    The log entry itself is recorded at send time (the determinant is
    never lost in this idealized store), but the disk traffic for it is
    accumulated and flushed as one batched write with the checkpoint —
    the steady-state send path pays nothing.
    """

    name = "causal-logging"

    def charge_send_log(self, nbytes: int):
        self._unflushed_bytes += nbytes
        return None

    def flush_cost(self) -> int:
        flush, self._unflushed_bytes = self._unflushed_bytes, 0
        return flush
