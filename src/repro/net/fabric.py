"""Interconnect fabrics.

A :class:`Fabric` is one physical network (the Ethernet or the Myrinet of
the paper's testbed).  It owns the wire-time model of its
:class:`TransportSpec` and the set of attached NICs, and supports fault
injection: frame loss (seeded, deterministic), network partitions, and
detaching the NICs of crashed nodes.

The *fixed* per-layer software costs (Figure 6) are charged by the layers
themselves (driver send side in :mod:`repro.net.nic`, VNI in
:mod:`repro.vni`, MPI in :mod:`repro.mpi`).  The fabric charges the wire
term ``wire_latency + size / bandwidth`` (serialization at the sending NIC,
propagation here) and the receiving driver's ``driver_recv``: a frame's
arrival is one event, at whose end it is in its port's hands — except a
frame bound for a polling VNI, which is handed over at transmit with its
arrival instant and judged there only if something that judgement reads
changes while it is in flight (``docs/records/34-three-events-per-message.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.calibration import (BIP_BANDWIDTH, BIP_LAYERS, LayerCosts,
                               TCP_BANDWIDTH, TCP_LAYERS)
from repro.errors import Unreachable
from repro.net.message import Frame
from repro.obs.instruments import Counter
from repro.obs.registry import get_registry
from repro.sim.events import Timeout


@dataclass(frozen=True)
class TransportSpec:
    """Timing model of one interconnect technology."""

    name: str
    layers: LayerCosts
    bandwidth: float  # bytes/second

    def wire_time(self, size: int) -> float:
        """Time from NIC tx to NIC rx for a frame of ``size`` bytes."""
        return self.layers.wire + size / self.bandwidth

    def one_way(self, size: int) -> float:
        """Full predicted app-to-app one-way latency (Figure 5 model)."""
        return self.layers.one_way_fixed + size / self.bandwidth


TCP_ETHERNET = TransportSpec("tcp-ethernet", TCP_LAYERS, TCP_BANDWIDTH)
BIP_MYRINET = TransportSpec("bip-myrinet", BIP_LAYERS, BIP_BANDWIDTH)


class Fabric:
    """One interconnect: a set of attached NICs plus a wire-time model.

    Parameters
    ----------
    engine:
        The simulation engine.
    spec:
        The transport's timing model.
    loss_prob:
        Probability a frame is silently dropped (drawn from the seeded
        ``net.loss`` stream).  Reliable connections recover via ARQ.
    """

    def __init__(self, engine, spec: TransportSpec, loss_prob: float = 0.0):
        self.engine = engine
        self.spec = spec
        self.loss_prob = loss_prob
        self._nics: Dict[str, "Nic"] = {}          # node_id -> Nic
        self._partitions: Optional[Dict[str, int]] = None
        self._wire = spec.layers.wire
        self._driver_recv = spec.layers.driver_recv
        #: Folded ports open on this fabric (``Nic.fold_port``): their
        #: frames skip the arrival event.
        self._folding = 0
        #: Arrival instant -> ``(frame, vni)`` of the folded frames to be
        #: judged there, in arrival order (``_judge``).
        self._judgements: Dict[float, List[tuple]] = {}
        # In-flight batch of frames transmitted at the same instant: they
        # all arrive at once, so a burst schedules ONE arrival event
        # instead of N.  Delivery iterates in transmit order, which is the
        # order the per-frame arrival events would have fired in anyway
        # (equal fire time, consecutive transmit => ascending seq).
        self._batch: Optional[list] = None
        self._batch_now: float = -1.0
        # Per-(src, dst) last-arrival floor under delivery jitter
        # (repro.check): jittered frames must still arrive in per-link
        # FIFO order, the one property the C/R protocols rely on.
        self._jitter_floor: Dict[tuple, float] = {}
        # Traffic telemetry: one registry series per Table 1 message kind
        # (net.frames_sent{fabric=...,kind=...}); read totals and per-kind
        # splits from the registry (``sum`` / ``group_by``).
        self._registry = get_registry(engine)
        self._m_dropped = self._registry.counter(
            "net.frames_dropped", fabric=spec.name,
            help="frames lost to crash/partition/injected loss")
        #: kind -> (frames counter, bytes counter)
        self._m_kind: Dict[str, Tuple[Counter, Counter]] = {}
        self._tap = None

    @property
    def delivery_tap(self):
        """Delivery interception point: ``tap(frame) -> bool`` called just
        before a frame reaches the destination port; truthy suppresses the
        delivery.  Protocol harnesses hook here to drop, reorder, or
        observe traffic below every software layer."""
        return self._tap

    @delivery_tap.setter
    def delivery_tap(self, tap) -> None:
        self._tap = tap
        if tap is not None and self._folding:
            self._recall(self._folded_vnis())

    def _kind_instruments(self, kind: str) -> Tuple[Counter, Counter]:
        pair = self._m_kind.get(kind)
        if pair is None:
            pair = self._m_kind[kind] = (
                self._registry.counter(
                    "net.frames_sent", fabric=self.spec.name, kind=kind,
                    help="frames handed to the wire, by Table 1 message kind"),
                self._registry.counter(
                    "net.bytes_sent", fabric=self.spec.name, kind=kind,
                    help="payload bytes handed to the wire"))
        return pair

    # -- attachment --------------------------------------------------------

    def attach(self, nic: "Nic") -> None:
        if nic.node_id in self._nics and self._folding:
            self._recall(self._folded_vnis())
        self._nics[nic.node_id] = nic

    def detach(self, node_id: str) -> None:
        """Remove a node's NIC (node crash or removal)."""
        if node_id in self._nics and self._folding:
            self._recall(self._folded_vnis())
        self._nics.pop(node_id, None)

    # -- fault injection -----------------------------------------------------
    # These are the *mechanisms*; the one scheduling/policy surface is
    # repro.faults (FaultPlan actions call down into them).

    def set_partition(self, *groups: Iterable[str]) -> None:
        """Split the network: frames may only flow within a group.

        Nodes not named in any group form one implicit extra group.
        """
        mapping: Dict[str, int] = {}
        for gi, group in enumerate(groups):
            for node in group:
                mapping[node] = gi
        if self._folding:
            self._recall(self._folded_vnis())
        self._partitions = mapping

    def clear_partition(self) -> None:
        """Remove any partition.  (No folded frame is recalled: one that was
        reachable when sent stays reachable.)"""
        self._partitions = None

    def set_loss(self, prob: float) -> float:
        """Set the frame-loss probability; returns the previous value."""
        if not 0.0 <= prob < 1.0:
            raise ValueError(f"loss probability must be in [0, 1), got {prob}")
        prev, self.loss_prob = self.loss_prob, prob
        return prev

    def _reachable(self, src: str, dst: str) -> bool:
        if dst not in self._nics or src not in self._nics:
            return False
        if self._partitions is None:
            return True
        implicit = len(self._partitions) + 1  # distinct from explicit ids
        return (self._partitions.get(src, implicit)
                == self._partitions.get(dst, implicit))

    # -- transmission --------------------------------------------------------

    def transmit(self, frame: Frame) -> None:
        """Put ``frame`` in flight; delivery is scheduled on the engine.

        Raises :class:`Unreachable` if the *sender* is detached; frames to
        detached or partitioned destinations are silently lost (exactly what
        a real sender observes — it cannot tell loss from slowness, the
        failure detector does that).
        """
        nics = self._nics
        if frame.src not in nics:
            raise Unreachable(
                f"node {frame.src!r} is not attached to {self.spec.name}")
        kind = frame.kind
        frames, nbytes = (self._m_kind.get(kind)
                          or self._kind_instruments(kind))
        frames.inc()
        nbytes.inc(frame.size)
        engine = self.engine
        now = frame.sent_at = engine._now

        dst = frame.dst
        if (dst not in nics if self._partitions is None
                else not self._reachable(frame.src, dst)):
            self._m_dropped.inc()
            return
        if self.loss_prob > 0.0:
            if engine.rng.stream("net.loss").random() < self.loss_prob:
                self._m_dropped.inc()
                return

        # Serialization (size/bandwidth) was charged by the sending NIC;
        # propagation/switching and the receiving driver remain, and the
        # frame reaches its port at the end of both, at the instant the two
        # charges used to be scheduled one after the other (``(now + wire)
        # + driver_recv``, not ``now + (wire + ...)``).  A frame for a
        # polling VNI is handed to it now, with that instant; any other is
        # delivered by one arrival event, which same-instant transmits join.
        perturb = engine._perturb
        if perturb is not None:
            self._transmit_perturbed(frame, perturb)
            return
        if self._folding:
            vni = nics[dst]._folds.get(frame.port)
            if vni is not None:
                arrival = (now + self._wire) + self._driver_recv
                vni._arrive(frame, arrival)
                if self._tap is not None:
                    self._judge_at(arrival, frame, vni)
                return
        batch = self._batch
        if batch is not None and self._batch_now == now:
            batch.append(frame)
            return
        batch = [frame]
        self._batch = batch
        self._batch_now = now
        Timeout.at(engine, (now + self._wire) + self._driver_recv,
                   value=batch,
                   name=f"wire:{frame.frame_id}+" if engine.tracer is not None
                   else None).callbacks.append(self._deliver_batch)

    def _transmit_perturbed(self, frame: Frame, perturb) -> None:
        """Per-frame arrival under a schedule perturbation (repro.check).

        Bypasses the same-instant batch — batched frames share one event
        and could never be reordered by the tie shuffle — and the fold into
        a polling VNI's filing event, so the shuffle sees every arrival.
        Safe for per-link FIFO even without jitter: NIC tx is serialized
        (driver cost + link time per frame), so same-instant transmits
        always come from *different* source nodes.  With jitter enabled,
        each frame's wire time is stretched by a seeded draw, and a
        per-link arrival floor keeps FIFO: a frame never lands at or before
        its predecessor on the same (src, dst) link, so even the tie
        shuffle (which only reorders *equal* times) cannot swap them.
        """
        engine = self.engine
        delay = self.spec.layers.wire
        if perturb.delivery_jitter > 0.0:
            delay += perturb.draw_jitter()
        arrival_at = engine._now + delay
        key = (frame.src, frame.dst)
        floor = self._jitter_floor.get(key, -1.0)
        if arrival_at <= floor:
            arrival_at = floor + 1e-12
            delay = arrival_at - engine._now
        self._jitter_floor[key] = arrival_at
        Timeout.at(engine, (engine._now + delay)
                   + self.spec.layers.driver_recv, value=[frame],
                   name=f"wire:{frame.frame_id}~" if engine.tracer is not None
                   else None).callbacks.append(self._deliver_batch)

    def _deliver_batch(self, event) -> None:
        """The frames of one arrival event reach their ports, in transmit
        order.  Each is judged here, once: a destination that crashed (a
        downed NIC is detached) or was partitioned away since transmit
        loses it, then the delivery tap may take it."""
        frames = event._value
        if self._batch is frames:    # zero-delay fabrics deliver in-instant
            self._batch = None
        nics = self._nics
        for frame in frames:
            nic = nics.get(frame.dst)
            if nic is None or (frame.src not in nics
                               if self._partitions is None
                               else not self._reachable(frame.src,
                                                        frame.dst)):
                self._m_dropped.inc()
                continue
            if self._tap is not None and self._tap(frame):
                continue
            sink = nic._ports.get(frame.port)
            if sink is not None:
                sink(frame)
            else:
                # No listener — frame dropped, like a closed UDP port.
                nic._m_rx_dropped.inc()

    # -- folded frames: judged at arrival when something changed ---------------

    def _folded_vnis(self) -> List:
        return [vni for nic in self._nics.values()
                for vni in nic._folds.values()]

    def _recall(self, vnis) -> None:
        """Something a frame's judgement at arrival reads is about to change:
        every folded frame of ``vnis`` whose arrival instant has not passed
        is judged at that instant (``_judge``) instead of being taken as
        delivered."""
        now = self.engine._now
        ahead = sorted(((filing.arrival, filing.frame, vni)
                        for vni in vnis for filing in vni._filing
                        if filing.arrival >= now), key=itemgetter(0))
        for arrival, frame, vni in ahead:
            pending = self._judgements.get(arrival)
            if pending is None or all(f is not frame for f, _vni in pending):
                self._judge_at(arrival, frame, vni)

    def _judge_at(self, arrival: float, frame: Frame, vni) -> None:
        pending = self._judgements.get(arrival)
        if pending is None:
            pending = self._judgements[arrival] = []
            Timeout.at(self.engine, arrival, value=arrival).callbacks.append(
                self._judge)
        pending.append((frame, vni))

    def _judge(self, event) -> None:
        """``_deliver_batch``'s checks, in its order and with its counters,
        for folded frames already in their VNI's FIFO: one judged lost
        leaves it (``Vni._drop``); one whose port another sink took since
        goes to that sink."""
        nics = self._nics
        for frame, vni in self._judgements.pop(event._value):
            nic = nics.get(frame.dst)
            if nic is None or (frame.src not in nics
                               if self._partitions is None
                               else not self._reachable(frame.src,
                                                        frame.dst)):
                self._m_dropped.inc()
                vni._drop(frame)
            elif self._tap is not None and self._tap(frame):
                vni._drop(frame)
            elif nic._folds.get(frame.port) is not vni:
                vni._drop(frame)
                sink = nic._ports.get(frame.port)
                if sink is not None:
                    sink(frame)
                else:
                    nic._m_rx_dropped.inc()

    def __repr__(self) -> str:
        reg, name = self._registry, self.spec.name
        return (f"<Fabric {name} nics={len(self._nics)} "
                f"sent={reg.sum('net.frames_sent', fabric=name):g} "
                f"dropped={reg.sum('net.frames_dropped', fabric=name):g}>")
