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
``submit`` plus the wait.  A receive port is a queue, or a *sink* callable
handed each arriving frame synchronously; a sink's owner may ask to be told
when the NIC goes down (a queue port learns it from its queue being closed).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Optional

from repro.errors import NodeDown
from repro.net.fabric import Fabric
from repro.net.message import Frame
from repro.obs.registry import get_registry
from repro.sim.channel import Channel
from repro.sim.events import _PENDING, Event, Timeout


class SendDone(Event):
    """One send's completion, and its place in the transmit FIFO: fires once
    the frame has left, fails with :class:`NodeDown` if the NIC goes down
    first.  ``frame`` is the :class:`Frame` from :meth:`Nic.submit` on; the
    software above may park what it has not built yet there."""

    __slots__ = ("frame",)


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
        #: Transmit FIFO; the head is the entry being serialized.  A posted
        #: frame waits as its bare ``(dst, port, payload, size, kind)`` and
        #: becomes a :class:`Frame` only then (a 256-node group coordinator
        #: parks ~65k of these); a submitted one as its :class:`SendDone`.
        self._txq: deque = deque()
        # Per-frame timing constants, cached off the spec's attribute chain.
        self._driver_send = fabric.spec.layers.driver_send
        self._bandwidth = fabric.spec.bandwidth
        #: Per-port frame sinks, ``_queues[port].put`` for a queue port;
        #: ports are opened by the software above, and the fabric hands
        #: each arriving frame to its port's sink.
        self._ports: Dict[str, Callable[[Frame], None]] = {}
        self._queues: Dict[str, Channel] = {}
        self._on_down: Dict[str, Callable[[BaseException], None]] = {}
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

    def close_port(self, port: str) -> None:
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
            self._tx_enqueue((dst, port, payload, size, kind))

    def submit(self, frame: Frame, done: SendDone) -> None:
        """Queue ``frame`` of a live NIC; ``done`` completes once it left."""
        done.frame = frame
        self._tx_enqueue(done)

    def withdraw(self, done: SendDone) -> None:
        """The sender gave up: a send still in the software above never
        reaches the driver, one queued is withdrawn; one already serializing
        is in the hardware and leaves regardless."""
        if done.frame.__class__ is not Frame:
            done.frame = None
        elif done._value is _PENDING and self._txq[0] is not done:
            self._txq.remove(done)

    def send(self, frame: Frame):
        """Process generator: transmit ``frame`` (charges driver_send).

        Yields until the frames queued ahead have left and this one has
        been handed to the wire.  Use as ``yield from nic.send(frame)``.
        An interrupted caller withdraws its frame.
        """
        if not self._up:
            raise NodeDown(f"NIC of {self.node_id} is down")
        done = SendDone(self.engine)
        self.submit(frame, done)
        try:
            yield done
        finally:
            self.withdraw(done)

    def _tx_enqueue(self, entry) -> None:
        self._txq.append(entry)
        if len(self._txq) == 1:
            self._tx_start()

    def _tx_start(self) -> None:
        # Driver cost + link serialization: the NIC is busy until the last
        # byte is on the wire; only propagation happens "in flight" (charged
        # by the fabric).
        entry = self._txq[0]
        frame = (entry.frame if entry.__class__ is SendDone
                 else Frame(self.node_id, *entry))
        Timeout(self.engine, self._driver_send + frame.size / self._bandwidth,
                value=frame).callbacks.append(self._tx_done)

    def _tx_done(self, event) -> None:
        if not self._up:
            return      # shutdown() failed the waiters and emptied the FIFO
        self.fabric.transmit(event._value)
        entry = self._txq.popleft()
        # Re-arm first: what a resumed sender schedules comes after the next
        # frame's serialization timeout, as when its wakeup was an event.
        if self._txq:
            self._tx_start()
        if entry.__class__ is SendDone:
            entry.fire()

    # -- lifecycle ---------------------------------------------------------------

    def shutdown(self, exc: Optional[BaseException] = None) -> None:
        """Bring the NIC down (node crash): detach, close all ports, fail
        the submitted sends (through the queue) and drop every posted
        frame."""
        if not self._up:
            return
        self._up = False
        self.fabric.detach(self.node_id)
        err = exc or NodeDown(f"node {self.node_id} is down")
        for ch in self._queues.values():
            ch.close(err)
        self._queues.clear()
        self._ports.clear()
        for on_down in self._on_down.values():
            on_down(err)
        self._on_down.clear()
        for entry in self._txq:
            if entry.__class__ is SendDone:
                entry.fail(err)
        self._txq.clear()

    def __repr__(self) -> str:
        state = "up" if self._up else "down"
        return (f"<Nic {self.node_id}@{self.fabric.spec.name} {state} "
                f"ports={sorted(self._ports)}>")
