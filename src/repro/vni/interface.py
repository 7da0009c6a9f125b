"""VNI implementation: thin driver layer + the polling thread."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.calibration import BLOCKING_RECV_SYSCALL
from repro.errors import NodeDown
from repro.net.message import Frame
from repro.net.nic import SendDone
from repro.obs.registry import get_registry
from repro.sim.channel import Channel
from repro.sim.events import Timeout


@dataclass(frozen=True)
class VniMessage:
    """What the VNI hands to the MPI module (a received data message)."""

    src_node: str
    payload: Any
    size: int


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
        When true (default, the paper's design) the polling thread moves
        frames from the NIC into the received-messages queue as they
        arrive; receives then cost only the VNI dequeue.  When false, each
        receive enters the "kernel" itself
        (:data:`~repro.calibration.BLOCKING_RECV_SYSCALL`).
    sink:
        With ``polling``: hand each polled message to ``sink(msg)`` instead
        of queueing it in ``recv_q`` (the MPI module's dispatcher).

    The polling thread is the receive-side mirror of the NIC's transmit
    FIFO: an arriving frame joins ``_polling``, whose head is being moved
    by exactly one ``vni_recv`` timeout; a frame therefore starts at the
    later of its arrival and its predecessor's completion.
    """

    def __init__(self, engine, node, port: str,
                 transport: str = "bip-myrinet", polling: bool = True,
                 sink: Optional[Callable[[VniMessage], None]] = None):
        self.engine = engine
        self.node = node
        self.port = port
        self.transport = transport
        self.polling = polling
        self.nic = node.nic(transport)
        self.recv_q = Channel(engine, name=f"vni-rq:{port}")
        self._vni_send = self.layers.vni_send
        self._vni_recv = self.layers.vni_recv
        #: Frames the polling thread has not moved yet, oldest first.
        self._polling: deque = deque()
        self._sink = sink or self.recv_q.put
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
        self._m_sent.reset()
        self._m_received.reset()
        if polling:
            self._rx = self.nic.open_port(port, sink=self._on_frame,
                                          on_down=self.recv_q.close)
        else:
            self._rx = self.nic.open_port(port)

    @property
    def layers(self):
        return self.nic.fabric.spec.layers

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------

    def submit(self, dst_node: str, dst_port: str, payload: Any, size: int,
               kind: str = "data", pre_delay: float = 0.0) -> SendDone:
        """Post one send; returns the event that completes when the frame
        has left the NIC.  Two callback stages: one timeout for the software
        above the driver (:meth:`_staged`), then the NIC's transmit FIFO.

        ``pre_delay`` folds the caller's already-owed software cost (MPI +
        application send layers) into this layer's timeout: the stack above
        charges one merged event instead of one per layer, which removes
        two engine wakeups per message without changing any total latency.
        """
        done = SendDone(self.engine)
        done.frame = (dst_node, dst_port, payload, size, kind)
        Timeout(self.engine, pre_delay + self._vni_send,
                value=done).callbacks.append(self._staged)
        return done

    def _staged(self, event) -> None:
        """The software stage is over: hand the frame to the driver."""
        done = event._value
        unbuilt = done.frame
        if unbuilt is None:
            return      # withdrawn while still in software
        if not self.nic.is_up:
            # Eager send: completes locally, nothing is sent or counted;
            # the failure surfaces through the daemons' failure detection.
            done.fire()
            return
        self._m_sent.inc()
        self.nic.submit(Frame(self.node.node_id, *unbuilt), done)

    def send(self, dst_node: str, dst_port: str, payload: Any, size: int,
             kind: str = "data", pre_delay: float = 0.0):
        """Process generator: :meth:`submit`, and wait until the frame has
        left (a NIC lost meanwhile raises :class:`NodeDown`)."""
        done = self.submit(dst_node, dst_port, payload, size, kind, pre_delay)
        try:
            yield done
        finally:
            self.nic.withdraw(done)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------

    def _on_frame(self, frame: Frame) -> None:
        """NIC sink: a frame arrived for the polling thread."""
        self._polling.append(frame)
        if len(self._polling) == 1:
            self._poll_start()

    def _poll_start(self) -> None:
        # The polling thread's dequeue-and-enqueue cost; kernel
        # interaction already charged by the NIC driver model.
        Timeout(self.engine, self._vni_recv).callbacks.append(self._polled)

    def _polled(self, _event) -> None:
        if self.recv_q.closed:
            return      # NIC lost or VNI closed mid-poll: nothing is filed
        self._sink(self._wrap(self._polling.popleft()))
        if self._polling:
            self._poll_start()

    def _wrap(self, frame: Frame) -> VniMessage:
        self._m_received.inc()
        return VniMessage(frame.src, frame.payload, frame.size)

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
        self.nic.close_port(self.port)
        self.recv_q.close(NodeDown(f"VNI {self.port} closed"))

    def __repr__(self) -> str:
        mode = "polling" if self.polling else "blocking"
        return f"<Vni {self.port}@{self.transport} {mode}>"
