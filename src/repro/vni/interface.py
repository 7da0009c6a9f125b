"""VNI implementation: thin driver layer + the polling thread."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from repro.calibration import BLOCKING_RECV_SYSCALL, POLL_PERIOD
from repro.errors import Interrupt, NetworkError, NodeDown
from repro.net.message import Frame
from repro.obs.registry import get_registry
from repro.sim.channel import Channel
from repro.sim.events import Timeout

_msg_ids = itertools.count(1)


@dataclass(frozen=True)
class VniMessage:
    """What the VNI hands to the MPI module (a received data message)."""

    src_node: str
    src_port: str
    payload: Any
    size: int
    msg_id: int
    recv_time: float


class Vni:
    """One application process's interface to one fabric.

    Parameters
    ----------
    node:
        Hosting node; supplies the NIC.
    port:
        This process's network address on the fabric (unique per process).
    transport:
        ``"bip-myrinet"`` (the fast path) or ``"tcp-ethernet"``.
    polling:
        When true (default, the paper's design) a polling-thread process
        moves frames from the NIC into the received-messages queue as they
        arrive; receives then cost only the VNI dequeue.  When false, each
        receive enters the "kernel" itself
        (:data:`~repro.calibration.BLOCKING_RECV_SYSCALL`).
    """

    def __init__(self, engine, node, port: str,
                 transport: str = "bip-myrinet", polling: bool = True):
        self.engine = engine
        self.node = node
        self.port = port
        self.transport = transport
        self.polling = polling
        self.nic = node.nic(transport)
        self._rx = self.nic.open_port(port)
        self.recv_q = Channel(engine, name=f"vni-rq:{port}")
        self._poller = None
        #: Wire-level observation point: an object with ``on_send(frame)``
        #: / ``on_recv(msg)``, called synchronously on every frame this
        #: VNI sends or wraps.  Protocols and harnesses hook here when
        #: they need to see traffic below the MPI layer.
        self.tap: Optional[Any] = None
        # Per-port VNI telemetry.  The path label separates the fast data
        # path (BIP/Myrinet) from the control path (TCP/Ethernet).  A
        # restarted process reuses its port, so the series reset to zero
        # here to keep per-instance semantics.
        path = "fast" if transport == "bip-myrinet" else "control"
        reg = get_registry(engine)
        self._m_sent = reg.counter("vni.sent", port=port, path=path,
                                   help="messages handed to the driver")
        self._m_received = reg.counter("vni.received", port=port, path=path,
                                       help="messages delivered upward")
        self._m_bytes_sent = reg.counter("vni.bytes_sent", port=port,
                                         path=path)
        self._m_bytes_received = reg.counter("vni.bytes_received", port=port,
                                             path=path)
        for m in (self._m_sent, self._m_received,
                  self._m_bytes_sent, self._m_bytes_received):
            m.reset()
        if polling:
            self._poller = node.spawn(self._poll_loop(),
                                      name=f"poll:{port}")

    @property
    def layers(self):
        return self.nic.fabric.spec.layers

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------

    def send(self, dst_node: str, dst_port: str, payload: Any, size: int,
             kind: str = "data", pre_delay: float = 0.0):
        """Process generator: charge the VNI layer and hand to the driver.

        ``pre_delay`` folds the caller's already-owed software cost (MPI +
        application send layers) into this layer's timeout: the stack above
        charges one merged event instead of one per layer, which removes
        two engine wakeups per message without changing any total latency.
        """
        yield Timeout(self.engine, pre_delay + self.layers.vni_send)
        frame = Frame(src=self.node.node_id, dst=dst_node, port=dst_port,
                      payload=payload, size=size, kind=kind)
        if self.tap is not None:
            self.tap.on_send(frame)
        self._m_sent.inc()
        self._m_bytes_sent.inc(size)
        yield from self.nic.send(frame)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------

    def _poll_loop(self):
        """The polling thread: drain the NIC into the receive queue."""
        try:
            while True:
                try:
                    frame = yield self._rx.get()
                except (NetworkError, NodeDown, Exception):
                    if not self.recv_q.closed:
                        self.recv_q.close(NodeDown(
                            f"VNI {self.port} lost its NIC"))
                    return
                # The polling thread's dequeue-and-enqueue cost; kernel
                # interaction already charged by the NIC driver model.
                yield Timeout(self.engine, self.layers.vni_recv)
                if not self.recv_q.closed:
                    self.recv_q.put(self._wrap(frame))
        except Interrupt:
            return

    def _wrap(self, frame: Frame) -> VniMessage:
        self._m_received.inc()
        self._m_bytes_received.inc(frame.size)
        msg = VniMessage(src_node=frame.src, src_port=frame.port,
                         payload=frame.payload, size=frame.size,
                         msg_id=next(_msg_ids), recv_time=self.engine.now)
        if self.tap is not None:
            self.tap.on_recv(msg)
        return msg

    def recv(self):
        """Process generator: next received message.

        With the polling thread, this just dequeues (the kernel work
        already happened, interleaved).  Without it, the caller pays the
        blocking-receive syscall path on every message.
        """
        if self.polling:
            msg = yield self.recv_q.get()
            return msg
        frame = yield self._rx.get()
        yield self.engine.timeout(BLOCKING_RECV_SYSCALL
                                  + self.layers.vni_recv)
        return self._wrap(frame)

    def recv_nowait(self):
        """Non-blocking probe of the received-messages queue.

        Raises the queue's close exception (:class:`~repro.errors.NodeDown`
        when the NIC went down) once the queue is closed and drained, so
        polling loops against a dead interface fail fast instead of
        spinning on ``(False, None)`` forever.
        """
        if self.polling:
            return self.recv_q.get_nowait()
        ok, frame = self._rx.get_nowait()
        if not ok:
            return False, None
        return True, self._wrap(frame)

    def pending(self) -> int:
        return len(self.recv_q) if self.polling else len(self._rx)

    def close(self) -> None:
        if self._poller is not None and self._poller.is_alive:
            self._poller.interrupt("vni-close")
        self.nic.close_port(self.port)
        if not self.recv_q.closed:
            self.recv_q.close(NodeDown(f"VNI {self.port} closed"))

    def __repr__(self) -> str:
        mode = "polling" if self.polling else "blocking"
        return f"<Vni {self.port}@{self.transport} {mode}>"
