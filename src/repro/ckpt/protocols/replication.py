"""Active rank replication (the FTHP-MPI mode): failover, not rollback.

The third fault-tolerance pillar next to checkpoint/restart and message
logging.  Every MPI rank runs as a *replica group* of ``k`` copies placed
on distinct nodes — the primary's ring successors
(:func:`~repro.store.placement.ring_successors`); a node crash costs
**zero ranks restarted** — a live sibling copy is promoted in place and
the computation never rolls back.  The steady-state price is the
replication tax this trades for: every data send is carried by the GCS
total-order multicast instead of a point-to-point wire send
(the ``RECOVERY-MODES`` row of ``benchmarks/paper.py`` measures it
against the C/R and logging modes).

How the three guarantees fall out of the ordering substrate:

* **replica-consistent delivery** — every copy of a rank subscribes to
  the application's lightweight group, and every data send (from every
  copy of the sender — the copies execute deterministically, so their
  streams are identical) is cast through it.  The group's sequencer
  assigns one global order, so all copies of a destination observe the
  identical inbound message sequence.
* **duplicate suppression** — sends carry their per-channel send
  sequence number (the PR 6 tap piggyback); a receiver accepts ssn ==
  recv_count + 1 and drops everything at or below its counter — the
  sibling copies' re-emissions of the same send.  Because each copy's
  stream is FIFO through the total order, ssn can never *exceed*
  recv_count + 1; the :class:`~repro.check.oracles.ReplicaOracle`
  asserts exactly that (no-orphan-send).
* **instant failover** — the :class:`ReplicaFailoverPlanner` is a solo
  planner whose plan respawns nothing: it promotes a surviving copy of
  each lost rank to primary (``mode="failover"``).  Survivors keep
  running, the world version does not bump, ``daemon.ranks_restarted``
  stays at zero, and there is no rollback wave to wait out.

Degenerate paths: if every copy of some lost rank is gone (k exhausted),
the planner returns ``None`` and the daemons fall back to a full restart
from the initial state — replication takes no checkpoints, so there is
nothing between "a copy survived" and "start over".  Recovered nodes are
not re-seeded with fresh copies (no re-replication service yet), and
migration of replicated apps is unsupported.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.check.oracles import ReplicaOracle
from repro.ckpt.protocols.base import CrProtocol
from repro.ckpt.protocols.roles import (DeliveryTap, RestartPlanner,
                                        WaveScheduler)
from repro.mpi.matching import InboundMsg
from repro.obs.instruments import NULL_COUNTER
from repro.obs.registry import get_registry
from repro.sim.events import Event


class ReplicaTap(DeliveryTap):
    """Reroute every data send onto the total-order multicast.

    ``piggyback`` stamps the per-channel ssn (the endpoint moved the
    counter at send entry, so its value *is* this message's sequence
    number); ``route_send`` replaces the VNI wire send with a C/R cast
    that reaches every copy of every rank in one global order.  Any data
    packet that still arrives over the point-to-point wire is stale by
    construction (pre-restart in-flight traffic) and is suppressed.
    """

    def __init__(self, protocol: "ReplicationProtocol"):
        self.protocol = protocol

    def piggyback(self, dest_world: int):
        return ("ssn", self.protocol.ctx.endpoint.sent_count[dest_world])

    def route_send(self, dest_world: int, comm_id: str, src_comm_rank: int,
                   tag: int, data, nbytes: int, pb, pre_delay: float):
        proto = self.protocol

        def _carry():
            # The software send stack still costs its merged timeout; the
            # wire cost is the cast's (daemon relay + sequencer ordering —
            # the replication tax, billed where it is actually paid).
            yield proto.ctx.engine.timeout(pre_delay)
            proto.ctx.cast(("repl-data", dest_world, pb[1], comm_id,
                            src_comm_rank, tag, data, nbytes))
        return _carry()

    def on_deliver(self, src_world: int, inbound, pb):
        # The replicated delivery path IS the cast; a wire data arrival
        # can only be a stale frame from before a full restart.
        return True


class ReplicaFailoverPlanner(RestartPlanner):
    """Promote a surviving copy of each lost rank; respawn nothing.

    ``solo`` keeps the survivors running (no kill-everyone step, no
    world-version bump).  The plan maps each failed rank to the first
    live node of its replica set and prunes promoted/dead nodes from the
    record's replica map; if any lost rank has no live copy left, the
    plan is ``None`` — full restart from the initial state.
    """

    solo = True

    def plan(self, daemon, record, failed_ranks: List[int]) -> Optional[dict]:
        view = daemon.gm.view
        alive = ({m.node for m in view.members} if view is not None
                 else set())
        promote = {}
        for rank in sorted(failed_ranks):
            survivors = [n for n in record.replicas.get(rank, ())
                         if n in alive]
            if not survivors:
                return None          # k exhausted: start the app over
            promote[rank] = survivors[0]
        replicas = {}
        for rank, backups in record.replicas.items():
            keep = tuple(n for n in backups
                         if n in alive and n != promote.get(rank))
            if keep:
                replicas[rank] = keep
        return {"mode": "failover", "promote": promote,
                "replicas": replicas, "ranks": sorted(failed_ranks)}


class ReplicationProtocol(CrProtocol):
    """k-replica groups per rank with instant failover (FTHP-MPI).

    No waves, no captures, no restore path: the base
    :class:`~repro.ckpt.protocols.roles.WaveScheduler` never ticks,
    :meth:`request_checkpoint` succeeds immediately with nothing, and
    the whole recovery story lives in the tap (replica-consistent
    delivery) and the planner (failover).
    """

    name = "replication"
    planner = ReplicaFailoverPlanner
    #: The runtime must not sample step-boundary channel state for us.
    wants_boundary_capture = False

    def __init__(self, replicas: int = 2):
        super().__init__()
        #: Copies per rank (1 primary + replicas-1 backups); informational
        #: at the module level — placement happens at submit time.
        self.replicas = replicas
        self.scheduler = WaveScheduler()     # no ticker: nothing to pace
        self.tap = ReplicaTap(self)
        self.replica_oracle = ReplicaOracle(self)
        #: Accepted inbound deliveries, in total order:
        #: ``(src_world, ssn, tag, repr(data))`` — the replica-consistency
        #: property asserts all copies of a rank log identical sequences.
        self.inbound_log: List[Tuple[int, int, int, str]] = []
        self._m_promotions = NULL_COUNTER

    @classmethod
    def runtime_kwargs(cls, record) -> dict:
        k = 1 + max((len(b) for b in record.replicas.values()), default=0)
        return {"replicas": k}

    def start(self, ctx) -> None:
        super().start(ctx)
        self.replica_oracle.bind(ctx.rank, primary=self.copy_index() == 0)
        self._m_promotions = get_registry(ctx.engine).counter(
            "repl.promotions", app=ctx.app_id, rank=str(ctx.rank),
            help="backup copies promoted to primary (failovers)")

    def copy_index(self) -> int:
        getter = getattr(self.ctx, "replica_index", None)
        return getter() if getter is not None else 0

    # -- delivery (the replicated data path) -------------------------------

    def on_repl_data(self, payload: Any, source: int) -> None:
        """One data send, in total order, observed by every copy."""
        (_op, dest, ssn, comm_id, src_comm_rank, tag, data,
         nbytes) = payload
        if dest != self.ctx.rank:
            return
        ep = self.ctx.endpoint
        rc = ep.recv_count.get(source, 0)
        if ssn <= rc:
            # A sibling copy's re-emission of a send we already took.
            return
        self.replica_oracle.delivered(source, ssn, rc + 1)
        ep.recv_count[source] = ssn
        ep.matching.arrived(InboundMsg(comm_id=comm_id, source=src_comm_rank,
                                       tag=tag, data=data, nbytes=nbytes))
        self.inbound_log.append((source, ssn, tag, repr(data)))

    # -- failover ----------------------------------------------------------

    def on_promoted(self) -> None:
        """Upcall from the runtime: this copy is now the rank's primary."""
        self.replica_oracle.promoted()
        self._m_promotions.inc()

    # -- user-facing -------------------------------------------------------

    def request_checkpoint(self) -> Event:
        """Replication takes no checkpoints; succeed immediately with
        ``None`` so callers pacing on the event never block."""
        ev = Event(self.ctx.engine, name="repl-no-checkpoint")
        ev.succeed(None)
        return ev
