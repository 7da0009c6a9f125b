"""The per-process MPI engine: eager sends, dispatcher, channel counters.

One :class:`MpiEndpoint` lives inside each application process.  It owns
the process's VNI, the matching engine, and per-peer channel counters (the
raw material of the checkpoint protocols' quiescence detection and channel
recording).  Data messages are delivered *eagerly*: the paper's polling
thread (inside the VNI) moves them off the network whether or not a
matching receive exists yet, and the dispatcher behind it — the same
shape, a fixed ``mpi_recv`` per message — files them into the matching
engine (one event per message, at its filing instant: see
:class:`repro.vni.Vni`).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Optional, Tuple

from repro.calibration import LayerCosts
from repro.errors import Interrupt, MpiError, NetworkError, NodeDown
from repro.mpi.constants import CKPT_TAG_BASE, MSG_HEADER, PROC_NULL
from repro.mpi.datatypes import nbytes_of
from repro.mpi.matching import InboundMsg, MatchingEngine
from repro.mpi.request import Request
from repro.obs.registry import get_registry
from repro.sim.events import Event
from repro.vni.interface import Vni

#: Wire packet: ("mpi", comm_id, src_comm_rank, tag, data, nbytes, src_world)
_PKT_TAG = "mpi"


class MpiEndpoint:
    """MPI engine of one rank of one application.

    Parameters
    ----------
    world_rank:
        This process's rank in the application's world communicator.
    addressbook:
        ``{world_rank: (node_id, vni_port)}`` — mutated in place by the
        runtime when processes migrate or restart elsewhere.
    transport:
        Fabric for the data fast path (default BIP/Myrinet, as the paper's
        performance configuration).
    polling:
        Run the paper's polling-thread receive path (see
        :class:`repro.vni.Vni`).
    """

    def __init__(self, engine, node, app_id: str, world_rank: int,
                 addressbook: Dict[int, Tuple[str, str]],
                 transport: str = "bip-myrinet", polling: bool = True,
                 register: bool = True):
        self.engine = engine
        self.node = node
        self.app_id = app_id
        self.world_rank = world_rank
        self.addressbook = addressbook
        self.port = f"mpi:{app_id}:{world_rank}"
        if register:
            # Backup replicas of a rank (active replication) share the
            # rank's world slot but must not clobber the primary's
            # address; a promoted backup registers itself on failover.
            addressbook[world_rank] = (node.node_id, self.port)
        layers = node.nic(transport).fabric.spec.layers
        self.vni = Vni(engine, node, port=self.port, transport=transport,
                       polling=polling, sink=self._on_frame,
                       sink_cost=layers.mpi_recv)
        self.polling = polling
        self.matching = MatchingEngine()
        #: Data messages sent to / received from each peer world rank —
        #: per-channel *protocol state* (quiescence detection, channel
        #: recording), checkpointed and restored; deliberately NOT registry
        #: instruments.
        self.sent_count: Dict[int, int] = defaultdict(int)
        self.recv_count: Dict[int, int] = defaultdict(int)
        # Simulated-latency distributions of the MPI layer (Figure 5 / 6
        # material); shared per-engine series, cached here off the hot path.
        self._registry = get_registry(engine)
        self._h_send = self._registry.histogram(
            "mpi.p2p.latency_seconds", op="send",
            help="simulated seconds from send() entry to wire handoff")
        self._h_recv = self._registry.histogram(
            "mpi.p2p.latency_seconds", op="recv",
            help="simulated seconds a recv() waits for its message")
        self._h_collectives: Dict[str, Any] = {}
        #: DeliveryTap role object (repro.ckpt.protocols.roles): the C/R
        #: module's interception point on both the send and delivery
        #: paths; its piggyback() value rides every outgoing data packet.
        self.tap: Optional[Any] = None

    @property
    def layers(self) -> LayerCosts:
        return self.vni.layers

    # ------------------------------------------------------------------
    # send side
    # ------------------------------------------------------------------

    def _packet(self, dest_world: int, comm_id: str, src_comm_rank: int,
                tag: int, data: Any, nbytes: Optional[int]):
        """``(address, nbytes, piggyback, wire packet)`` of one outgoing
        message.  The channel counter and the piggyback are sampled at send
        *entry*, not ``mpi_send`` later: the software send stack is one
        merged timeout, and the sender cannot act in between either way."""
        addr = self.addressbook.get(dest_world)
        if addr is None:
            raise MpiError(f"rank {dest_world} has no address "
                           f"(app {self.app_id})")
        nbytes = nbytes if nbytes is not None else nbytes_of(data)
        pb = None
        if tag > CKPT_TAG_BASE:  # control messages don't move the counters
            self.sent_count[dest_world] += 1
            if self.tap is not None:
                pb = self.tap.piggyback(dest_world)
        return addr, nbytes, pb, (_PKT_TAG, comm_id, src_comm_rank, tag, data,
                                  nbytes, self.world_rank, pb)

    def send(self, dest_world: int, comm_id: str, src_comm_rank: int,
             tag: int, data: Any, nbytes: Optional[int] = None,
             pre_delay: float = 0.0):
        """Process generator: eager-send one data message.

        ``pre_delay`` is software cost already owed by the caller (the
        communicator's ``app_send``); it is folded — together with this
        layer's ``mpi_send`` — into the VNI's single merged timeout, so
        the whole software send stack costs one engine wakeup and the
        caller waits once, for the frame to have left.
        """
        if dest_world == PROC_NULL:
            return
        (node_id, port), nbytes, pb, packet = self._packet(
            dest_world, comm_id, src_comm_rank, tag, data, nbytes)
        t0 = self.engine.now
        if self.tap is not None and tag > CKPT_TAG_BASE:
            # Pre-wire hook: message-logging protocols persist the message
            # here, so the log strictly precedes the wire send.
            gen = self.tap.on_send(dest_world, comm_id, src_comm_rank,
                                   tag, data, nbytes, pb)
            if gen is not None:
                yield from gen
            # Replacement route: active replication carries data sends on
            # the total-order multicast instead of the point-to-point wire.
            route = self.tap.route_send(dest_world, comm_id, src_comm_rank,
                                        tag, data, nbytes, pb,
                                        pre_delay + self.layers.mpi_send)
            if route is not None:
                try:
                    yield from route
                finally:
                    self._h_send.observe(self.engine.now - t0)
                return
        try:
            yield from self.vni.send(node_id, port, packet,
                                     size=nbytes + MSG_HEADER, kind="data",
                                     pre_delay=pre_delay
                                     + self.layers.mpi_send)
        except (NodeDown, NetworkError):
            # Peer (or our NIC) died mid-send: eager sends complete locally;
            # failure surfaces through the daemons' failure detection.
            pass
        finally:
            self._h_send.observe(self.engine.now - t0)

    def observe_recv(self, dt: float) -> None:
        """Record how long a blocking receive waited for its match."""
        self._h_recv.observe(dt)

    def observe_collective(self, op: str, dt: float) -> None:
        """Record one collective's wall-to-wall simulated duration."""
        hist = self._h_collectives.get(op)
        if hist is None:
            hist = self._registry.histogram(
                "mpi.collective.latency_seconds", op=op,
                help="simulated seconds per collective call, by operation")
            self._h_collectives[op] = hist
        hist.observe(dt)

    def isend(self, dest_world: int, comm_id: str, src_comm_rank: int,
              tag: int, data: Any, nbytes: Optional[int] = None) -> Request:
        """Non-blocking eager send: posted to the VNI, and the request
        completes inside the event in which the frame leaves — no process.
        Under a C/R tap a data message runs :meth:`send`'s body instead,
        resumed by the callbacks of the events it waits for
        (``DeliveryTap.on_send`` / ``route_send`` may wait)."""
        req = Request(self.engine, "send")
        message = (dest_world, comm_id, src_comm_rank, tag, data, nbytes)
        if self.tap is not None and tag > CKPT_TAG_BASE:
            self._drive(self.send(*message), req)
            return req
        (node_id, port), nbytes, _pb, packet = self._packet(*message)
        t0 = self.engine.now

        def left(done) -> None:
            # A NIC lost with the frame queued fails ``done``: eager sends
            # complete locally all the same.
            done.defuse()
            self._h_send.observe(self.engine.now - t0)
            req.sent()

        self.vni.submit(node_id, port, packet, nbytes + MSG_HEADER, "data",
                        self.layers.mpi_send).callbacks.append(left)
        return req

    def _drive(self, gen, req: Request) -> None:
        """Run the send generator ``gen`` to its end on event callbacks: its
        first stretch now (the packet is sampled at entry), each later one
        in the callbacks of the event it waited for; ``req`` completes when
        it returns.  A node that died meanwhile ends it as a crash ends a
        process — ``Interrupt`` at its wait, a channel item it was just
        handed given back — and ``req`` fails, defused: the rank died with
        us, so the failure may never be observed, and a waiter that *is*
        parked on the request still gets it through its callback."""
        nic = self.vni.nic

        def advance(step, arg) -> None:
            try:
                target = step(arg)
            except StopIteration:
                req.sent()
                return
            except Interrupt:
                req.fail(MpiError("isend interrupted"))
                req.event.defuse()
                return
            if target.callbacks is None:        # over already: next event
                bounce = Event(self.engine)
                bounce.callbacks.append(resume)
                bounce.trigger_from(target)
            else:
                target.callbacks.append(resume)

        def resume(event) -> None:
            if not event._ok:
                event._defused = True
                advance(gen.throw, event._value)
            elif nic.is_up:
                advance(gen.send, event._value)
            else:
                salvage = getattr(event, "salvage", None)
                if salvage is not None:
                    salvage()
                advance(gen.throw, Interrupt(NodeDown(
                    f"{self.node.node_id} is down")))

        advance(gen.send, None)

    # ------------------------------------------------------------------
    # receive side
    # ------------------------------------------------------------------

    def _on_frame(self, frame) -> None:
        """VNI sink: the dispatcher files one polled message."""
        self._ingest(frame.payload)

    def _ingest(self, payload) -> None:
        """Classify one raw packet and file it."""
        if not (isinstance(payload, tuple) and payload
                and payload[0] == _PKT_TAG):
            return
        _, comm_id, src_rank, tag, data, nbytes, src_world, pb = payload
        inbound = InboundMsg(comm_id, src_rank, tag, data, nbytes)
        if tag <= CKPT_TAG_BASE:
            if self.tap is not None:
                self.tap.on_control(inbound, src_world)
            return
        if self.tap is not None and self.tap.on_deliver(src_world, inbound,
                                                        pb):
            # Suppressed (duplicate under log-replay, or stashed during a
            # solo restore): the counter must not move.
            return
        self.recv_count[src_world] += 1
        self.matching.arrived(inbound)

    def pump_blocking(self):
        """Process generator: ingest exactly one message from the NIC.

        Used when the polling thread is disabled (ablation §2.2.1): the
        receiver itself must enter the kernel per message.
        """
        vmsg = yield from self.vni.recv()
        yield self.engine.timeout(self.layers.mpi_recv)
        self._ingest(vmsg.payload)

    # ------------------------------------------------------------------
    # checkpoint/restart support
    # ------------------------------------------------------------------

    def channel_counters(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        return dict(self.sent_count), dict(self.recv_count)

    def export_state(self) -> dict:
        """Serializable runtime state saved inside checkpoints."""
        return {
            "sent_count": dict(self.sent_count),
            "recv_count": dict(self.recv_count),
            "unexpected": self.matching.snapshot_unexpected(),
        }

    def import_state(self, state: dict) -> None:
        self.sent_count = defaultdict(int, state["sent_count"])
        self.recv_count = defaultdict(int, state["recv_count"])
        self.matching.restore_unexpected(state["unexpected"])

    def close(self) -> None:
        self.vni.close()

    def __repr__(self) -> str:
        return (f"<MpiEndpoint {self.app_id}#{self.world_rank} on "
                f"{self.node.node_id}>")
