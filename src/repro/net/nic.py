"""Network interface cards.

A :class:`Nic` attaches one node to one fabric.  It charges the send side
of the *driver* layer costs of Figure 6, ``driver_send`` before a frame
reaches the wire (for TCP this is the syscall + kernel stack; for BIP the
user-level doorbell write).  The receive side, ``driver_recv`` before an
arriving frame becomes visible to the node's software (the VNI / polling
thread), ends the fabric's arrival event: one event per arrival, at whose
end the fabric hands the frame to this NIC's port.

The transmit side is serialized: the NIC owns one FIFO of pending frames
and puts them on the link one at a time, one timeout per frame, which models
link serialization without a full switch model.  ``post`` queues a frame
fire-and-forget; ``submit`` queues on the same FIFO with a completion event
that fires inside the event in which the frame leaves, and ``send`` is
``submit`` plus the wait.  A submitted frame may carry a *ready* instant
still ahead — when the software above the driver is done with it: it takes
its place in the FIFO by ready instant, then submit order, so the FIFO's
software stage costs no event of its own.  A receive port is a queue, or a
*sink* callable handed each arriving frame synchronously; a sink's owner
may ask to be told when the NIC goes down (a queue port learns it from its
queue being closed).  A polling VNI also *folds* its port: the fabric hands
it each frame at transmit, with the frame's arrival instant.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional

from repro.errors import NodeDown
from repro.net.fabric import Fabric
from repro.net.message import Frame
from repro.obs.registry import get_registry
from repro.sim.channel import Channel
from repro.sim.events import _PENDING, Event, Timeout


class SendDone(Event):
    """One send's completion, and its place in the transmit FIFO: fires once
    the frame has left, fails with :class:`NodeDown` if the NIC goes down
    while the frame is in the driver.  ``ready`` is the instant the frame
    reaches the driver (from :meth:`Nic.submit` on); ``frame`` is the
    :class:`Frame`, or ``None`` once it is known never to reach the driver
    (withdrawn, or its NIC lost, before ``ready``)."""

    __slots__ = ("frame", "ready")


def _fire_if_pending(event) -> None:
    done = event._value
    if done._value is _PENDING:
        done.fire()


class Nic:
    """One node's interface on one fabric."""

    def __init__(self, engine, node_id: str, fabric: Fabric):
        self.engine = engine
        self.node_id = node_id
        self.fabric = fabric
        # Driver-layer telemetry, aggregated per fabric (get-or-create:
        # all NICs of one fabric share the series).
        self._m_rx_dropped = get_registry(engine).counter(
            "net.nic.rx_dropped", fabric=fabric.spec.name,
            help="frames that arrived at a closed port")
        #: Transmit FIFO, ordered by ready instant, then submit order; the
        #: head is the entry being serialized, or the next to be.  A posted
        #: frame (ready when posted) waits as its bare ``(dst, port,
        #: payload, size, kind)`` and becomes a :class:`Frame` only then (a
        #: 256-node group coordinator parks ~65k of these); a submitted one
        #: as its :class:`SendDone`.
        self._txq: deque = deque()
        #: The head's serialization timeout; any other ``_tx_done`` is stale
        #: (its head was overtaken or withdrawn before it started).
        self._armed: Optional[Timeout] = None
        # Per-frame timing constants, cached off the spec's attribute chain.
        self._driver_send = fabric.spec.layers.driver_send
        self._bandwidth = fabric.spec.bandwidth
        #: Per-port frame sinks, ``_queues[port].put`` for a queue port;
        #: ports are opened by the software above, and the fabric hands
        #: each arriving frame to its port's sink.
        self._ports: Dict[str, Callable[[Frame], None]] = {}
        self._queues: Dict[str, Channel] = {}
        self._on_down: Dict[str, Callable[[BaseException], None]] = {}
        #: Folded ports: port -> the polling VNI handed each frame for it at
        #: transmit (``Vni._arrive``), with no arrival event.
        self._folds: Dict[str, object] = {}
        self._up = True
        fabric.attach(self)

    @property
    def is_up(self) -> bool:
        return self._up

    # -- ports ---------------------------------------------------------------

    def open_port(self, port: str, sink: Optional[Callable[[Frame], None]]
                  = None, on_down: Optional[Callable[[BaseException], None]]
                  = None) -> Optional[Channel]:
        """Create (or return) the receive queue for ``port`` — or, given
        ``sink``, hand each arriving frame to ``sink(frame)`` synchronously
        inside its arrival event instead (no queue); ``on_down(exc)``
        is then called if the NIC goes down while the port is open."""
        self._unfold(port)
        if sink is not None:
            self._ports[port] = sink
            if on_down is not None:
                self._on_down[port] = on_down
            return None
        ch = self._queues.get(port)
        if ch is None:
            ch = self._queues[port] = Channel(
                self.engine, name=f"rx:{self.node_id}:{port}")
            self._ports[port] = ch.put
        return ch

    def fold_port(self, port: str, vni) -> None:
        """Hand each frame for the open sink port ``port`` to
        ``vni._arrive(frame, arrival)`` when it is transmitted, instead of
        to the sink when it arrives.  A frame the fabric judges at its
        arrival still comes through the sink, so ``vni`` must file the
        frames of both paths in arrival order."""
        self._unfold(port)
        self._folds[port] = vni
        self.fabric._folding += 1

    def _unfold(self, port: str) -> None:
        vni = self._folds.pop(port, None)
        if vni is not None:
            self.fabric._folding -= 1
            self.fabric._recall((vni,))

    def close_port(self, port: str) -> None:
        self._unfold(port)
        self._ports.pop(port, None)
        self._queues.pop(port, None)
        self._on_down.pop(port, None)

    # -- send path -----------------------------------------------------------

    def post(self, dst: str, port: str, payload, size: int,
             kind: str = "data") -> None:
        """Queue a frame and return.  Like a write into a socket buffer it
        leaves behind the frames ahead of it even if the poster has stopped
        by then, and is silently dropped if the NIC is down or goes down."""
        if self._up:
            self._tx_enqueue((dst, port, payload, size, kind),
                             self.engine._now)

    def submit(self, frame: Frame, done: SendDone, ready: float) -> None:
        """Queue ``frame``; ``done`` completes once it left.  ``ready`` (now
        or later) is when the software above the driver is done with it.
        A NIC that is down, or goes down before ``ready``, sends nothing:
        ``done`` then completes locally at ``ready`` (an eager send; the
        failure surfaces through failure detection)."""
        done.frame = frame
        done.ready = ready
        if self._up:
            self._tx_enqueue(done, ready)
        else:
            self._complete_locally(done)

    def withdraw(self, done: SendDone) -> None:
        """The sender gave up: a send still in the software above (before
        its ready instant) never reaches the driver, one queued is
        withdrawn; one already serializing is in the hardware and leaves
        regardless."""
        if done._value is not _PENDING:
            return                      # left, failed or completed locally
        in_software = self.engine._now < done.ready
        if in_software:
            done.frame = None
        if not self._up:
            return
        txq = self._txq
        if txq[0] is not done:
            txq.remove(done)
        elif in_software:               # a head that has not started
            txq.popleft()
            if txq:
                self._tx_start()
            else:
                self._armed = None

    def send(self, frame: Frame):
        """Process generator: transmit ``frame`` (charges driver_send).

        Yields until the frames queued ahead have left and this one has
        been handed to the wire.  Use as ``yield from nic.send(frame)``.
        An interrupted caller withdraws its frame.
        """
        if not self._up:
            raise NodeDown(f"NIC of {self.node_id} is down")
        done = SendDone(self.engine)
        self.submit(frame, done, self.engine._now)
        try:
            yield done
        finally:
            self.withdraw(done)

    def queued(self) -> List:
        """Payloads of the frames in the driver, in FIFO order: the one
        serializing first, and none the software above still holds."""
        now = self.engine._now
        return [entry[2] if entry.__class__ is tuple else entry.frame.payload
                for entry in self._txq
                if entry.__class__ is tuple or entry.ready <= now]

    def _tx_enqueue(self, entry, ready: float) -> None:
        txq = self._txq
        if not txq:
            txq.append(entry)
            self._tx_start()
        elif txq[-1].__class__ is not SendDone or txq[-1].ready <= ready:
            txq.append(entry)
        else:
            self._tx_overtake(entry, ready)

    def _tx_overtake(self, entry, ready: float) -> None:
        # Behind everything ready no later than ``ready``: an entry still in
        # software with a later ready instant (only ever a submitted one) is
        # overtaken, as it would have reached the driver after this one.  A
        # head that has started is in the driver, so it is never passed.
        txq = self._txq
        i = len(txq) - 1
        while i and (prev := txq[i - 1]).__class__ is SendDone \
                and prev.ready > ready:
            i -= 1
        txq.insert(i, entry)
        if not i:
            self._tx_start()            # the new head overtook the old one

    def _tx_start(self) -> None:
        # Driver cost + link serialization from the head's start, the later
        # of its ready instant and now (the previous departure, or the
        # instant it became the head): the NIC is busy until the last byte
        # is on the wire; only propagation happens "in flight" (charged by
        # the fabric).
        entry = self._txq[0]
        if entry.__class__ is not SendDone:
            frame = Frame(self.node_id, *entry)
            armed = Timeout(self.engine, self._driver_send
                            + frame.size / self._bandwidth, value=frame)
        else:
            frame = entry.frame
            cost = self._driver_send + frame.size / self._bandwidth
            engine = self.engine
            armed = (Timeout.at(engine, entry.ready + cost, value=frame)
                     if entry.ready > engine._now
                     else Timeout(engine, cost, value=frame))
        armed.callbacks.append(self._tx_done)
        self._armed = armed

    def _tx_done(self, event) -> None:
        if event is not self._armed:
            return      # superseded, or shutdown() emptied the FIFO
        self.fabric.transmit(event._value)
        entry = self._txq.popleft()
        # Re-arm first: what a resumed sender schedules comes after the next
        # frame's serialization timeout, as when its wakeup was an event.
        if self._txq:
            self._tx_start()
        if entry.__class__ is SendDone:
            entry.fire()

    def _complete_locally(self, done: SendDone) -> None:
        done.frame = None
        Timeout.at(self.engine, done.ready, value=done).callbacks.append(
            _fire_if_pending)

    # -- lifecycle ---------------------------------------------------------------

    def shutdown(self, exc: Optional[BaseException] = None) -> None:
        """Bring the NIC down (node crash): detach, close all ports, fail
        the submitted sends in the driver (through the queue), complete
        those still in software locally at their ready instant, and drop
        every posted frame."""
        if not self._up:
            return
        self._up = False
        self.fabric.detach(self.node_id)
        err = exc or NodeDown(f"node {self.node_id} is down")
        for ch in self._queues.values():
            ch.close(err)
        self._queues.clear()
        self._ports.clear()
        self.fabric._folding -= len(self._folds)
        self._folds.clear()
        for on_down in self._on_down.values():
            on_down(err)
        self._on_down.clear()
        now = self.engine._now
        for entry in self._txq:
            if entry.__class__ is SendDone:
                if entry.ready > now:
                    self._complete_locally(entry)
                else:
                    entry.fail(err)
        self._txq.clear()
        self._armed = None

    def __repr__(self) -> str:
        state = "up" if self._up else "down"
        return (f"<Nic {self.node_id}@{self.fabric.spec.name} {state} "
                f"ports={sorted(self._ports)}>")
