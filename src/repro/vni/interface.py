"""VNI implementation: thin driver layer + the polling thread."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.calibration import BLOCKING_RECV_SYSCALL
from repro.errors import NetworkError
from repro.net.message import Frame
from repro.net.nic import SendDone
from repro.obs.instruments import Counter
from repro.obs.registry import get_registry
from repro.sim.events import Timeout


@dataclass(frozen=True)
class VniMessage:
    """What a blocking-mode :meth:`Vni.recv` returns."""

    src_node: str
    payload: Any
    size: int


class _FromReady(Counter):
    """``vni.sent`` / ``vni.received``: each parked item counts from its
    ``ready`` instant on — a send from when it reaches the driver, a message
    from when the polling thread hands it on — unless its ``frame`` became
    ``None`` before then.  No event marks that instant, so the count is
    settled when read; a reset forgets what was ready by then, and what is
    still ahead counts after it."""

    def __init__(self, name: str, labels=(), help: str = ""):
        super().__init__(name, labels, help)
        self.engine = None
        # Made on the first park: the registry keeps every port's series
        # for the engine's life, and most ports of a short job send nothing.
        self._parked: Optional[deque] = None

    def park(self, item) -> None:
        parked = self._parked
        if parked is None:
            parked = self._parked = deque()
        now = self.engine._now
        while parked and parked[0].ready <= now:
            if parked.popleft().frame is not None:
                self._value += 1
        parked.append(item)

    @property
    def value(self) -> float:
        if not self._parked:
            return self._value
        now = self.engine._now
        return self._value + sum(1 for item in self._parked
                                 if item.ready <= now
                                 and item.frame is not None)

    def reset(self) -> None:
        if self._parked:
            now = self.engine._now
            self._parked = deque(item for item in self._parked
                                 if item.ready > now)
        self._value = 0


def _from_ready(engine, name: str, help: str, **labels) -> _FromReady:
    reg = get_registry(engine)
    counter = (reg._get_or_create(_FromReady, name, labels, help)
               if reg.enabled else _FromReady(name, help=help))
    counter.engine = engine
    # A restarted process reuses its port: the series restarts at zero, to
    # keep per-instance semantics.
    counter.reset()
    return counter


class _Filing(Timeout):
    """One arrived message's filing event.  ``ready`` is the instant the
    polling thread hands it on; ``frame`` turns ``None`` if the VNI closes
    before that."""

    __slots__ = ("ready", "frame")


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
        each arriving frame on to ``sink``; receives then cost only the VNI
        dequeue.  When false, each :meth:`recv` enters the "kernel" itself
        (:data:`~repro.calibration.BLOCKING_RECV_SYSCALL`).
    sink:
        With ``polling`` (required): called with each frame once the stage
        behind the polling thread has filed it.
    sink_cost:
        That stage's fixed cost per message (the MPI dispatcher's
        ``mpi_recv``).

    The polling thread and the sink's stage are two fixed-cost FIFO servers
    in series, the receive-side mirror of the NIC's transmit FIFO: a frame
    arriving at ``a`` is handed on at ``polled = max(a, previous polled) +
    vni_recv`` and filed at ``max(polled, previous filed) + sink_cost``.
    Both instants are known at arrival, so a message costs one event, at
    its filing instant.
    """

    def __init__(self, engine, node, port: str,
                 transport: str = "bip-myrinet", polling: bool = True,
                 sink: Optional[Callable[[Frame], None]] = None,
                 sink_cost: float = 0.0):
        self.engine = engine
        self.node = node
        self.port = port
        self.transport = transport
        self.polling = polling
        self.nic = node.nic(transport)
        self._vni_send = self.layers.vni_send
        self._vni_recv = self.layers.vni_recv
        self._sink = sink
        self._sink_cost = sink_cost
        #: Filing events of the messages in the pipeline, oldest first.
        self._filing: deque = deque()
        self._polled_at = self._filed_at = 0.0
        self._closed = False
        # Per-port VNI telemetry.  The path label separates the fast data
        # path (BIP/Myrinet) from the control path (TCP/Ethernet).
        path = "fast" if transport == "bip-myrinet" else "control"
        self._m_sent = _from_ready(engine, "vni.sent", port=port, path=path,
                                   help="messages handed to the driver")
        self._m_received = _from_ready(engine, "vni.received", port=port,
                                       path=path,
                                       help="messages delivered upward")
        if polling:
            if sink is None:
                raise ValueError(f"polling VNI {port} needs a sink")
            self._rx = self.nic.open_port(port, sink=self._on_frame,
                                          on_down=self._shut)
        else:
            self._rx = self.nic.open_port(port)

    @property
    def layers(self):
        return self.nic.fabric.spec.layers

    @property
    def closed(self) -> bool:
        """Closed, or its NIC lost: nothing more is filed."""
        return self._closed

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------

    def submit(self, dst_node: str, dst_port: str, payload: Any, size: int,
               kind: str = "data", pre_delay: float = 0.0) -> SendDone:
        """Post one send; returns the event that completes when the frame
        has left the NIC.  No event of its own: the frame joins the NIC's
        transmit FIFO ready at ``now + (pre_delay + vni_send)``, when the
        software above the driver is done with it.

        ``pre_delay`` folds the caller's already-owed software cost (MPI +
        application send layers) into that instant: the stack above charges
        nothing per layer, without changing any total latency.
        """
        engine = self.engine
        done = SendDone(engine)
        self.nic.submit(Frame(self.node.node_id, dst_node, dst_port, payload,
                              size, kind), done,
                        engine._now + (pre_delay + self._vni_send))
        self._m_sent.park(done)
        return done

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
        """NIC sink, inside the frame's arrival event: both stages' instants
        are fixed now, so arm the one filing event."""
        engine = self.engine
        now = engine._now
        prev = self._polled_at
        polled = self._polled_at = (now if now > prev else prev) \
            + self._vni_recv
        prev = self._filed_at
        filed = self._filed_at = (polled if polled > prev else prev) \
            + self._sink_cost
        filing = _Filing.at(engine, filed)
        filing.ready = polled
        filing.frame = frame
        filing.callbacks.append(self._filed)
        self._filing.append(filing)
        self._m_received.park(filing)

    def _filed(self, event) -> None:
        if self._closed:
            return      # NIC lost or VNI closed mid-pipeline: nothing filed
        self._filing.popleft()
        self._sink(event.frame)

    def _shut(self, _exc=None) -> None:
        if self._closed:
            return
        self._closed = True
        now = self.engine._now
        for filing in self._filing:
            if filing.ready > now:
                filing.frame = None     # not polled yet: never received
        self._filing.clear()

    def in_flight(self) -> Tuple[int, int]:
        """``(held by the polling thread, in the sink's stage)``: the
        messages arrived and not yet filed, by where they are now."""
        now = self.engine._now
        polling = sum(1 for filing in self._filing if filing.ready > now)
        return polling, len(self._filing) - polling

    def recv(self):
        """Process generator (blocking mode only): the next message; the
        caller pays the blocking-receive syscall path on every message."""
        if self.polling:
            raise NetworkError(f"VNI {self.port} polls: frames go to its "
                               f"sink")
        frame = yield self._rx.get()
        yield self.engine.timeout(BLOCKING_RECV_SYSCALL
                                  + self.layers.vni_recv)
        self._m_received.inc()
        return VniMessage(frame.src, frame.payload, frame.size)

    def close(self) -> None:
        self.nic.close_port(self.port)
        self._shut()

    def __repr__(self) -> str:
        mode = "polling" if self.polling else "blocking"
        return f"<Vni {self.port}@{self.transport} {mode}>"
