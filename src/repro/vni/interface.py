"""VNI implementation: thin driver layer + the polling thread."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Optional, Tuple
from weakref import WeakSet, ref

from repro.calibration import BLOCKING_RECV_SYSCALL
from repro.errors import NetworkError
from repro.net.message import Frame
from repro.net.nic import SendDone
from repro.obs.instruments import Counter
from repro.obs.registry import get_registry
from repro.sim.events import _NORMAL, Timeout


@dataclass(frozen=True)
class VniMessage:
    """What a blocking-mode :meth:`Vni.recv` returns."""

    src_node: str
    payload: Any
    size: int


class _FromReady(Counter):
    """``vni.sent``: each parked send counts from its ``ready`` instant on
    (when it reaches the driver) unless its ``frame`` became ``None`` before
    then.  No event marks that instant, so the count is settled when read;
    a reset forgets what was ready by then, and what is still ahead counts
    after it."""

    def __init__(self, name: str, labels=(), help: str = ""):
        super().__init__(name, labels, help)
        self.engine = None
        # Made on the first park: the registry keeps every port's series
        # for the engine's life, and most ports of a short job send nothing.
        self._parked: Optional[deque] = None

    def park(self, item) -> None:
        # Settles what is ready at the head as it goes, so a message's item
        # is let go once the next one is parked.
        parked = self._parked
        if parked:
            now = self.engine._now
            while parked[0].ready <= now:
                if parked.popleft().frame is not None:
                    self._value += 1
                if not parked:
                    break
            parked.append(item)
        elif parked is None:
            self._parked = deque((item,))
        else:
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


class _Received(Counter):
    """``vni.received``: a message counts from its polled instant
    (``_Filing.ready``) on, if its VNI was still open then.  It is counted
    when it is filed (``Vni._filed``) or when its VNI closes (``Vni._shut``);
    in between, a read adds the messages still in the open polling VNIs'
    pipelines whose polled instant has passed.  A reset forgets what was
    ready by then: those still in a pipeline are taken off in advance, and
    what is still ahead counts after it.  A blocking VNI counts with
    ``inc()``."""

    def __init__(self, name: str, labels=(), help: str = ""):
        super().__init__(name, labels, help)
        self.engine = None
        #: The polling VNIs counting here: a weak reference to the one, or a
        #: ``WeakSet`` once a second opens (a port reused by a restarted or
        #: backup rank).  Weak: the series must not keep a finished rank's
        #: VNI, and its endpoint, alive; a VNI with a message in its FIFO is
        #: held by that message's filing event.  A closed VNI's FIFO is
        #: empty.
        self._held = None

    def open(self, vni) -> None:
        held = self._vnis()
        self._held = WeakSet((*held, vni)) if held else ref(vni)

    def _vnis(self):
        held = self._held
        if held is None or isinstance(held, WeakSet):
            return held or ()
        vni = held()
        return () if vni is None else (vni,)

    def _polled_at(self, vni) -> int:
        now = self.engine._now
        return sum(1 for filing in vni._filing if filing.ready <= now)

    @property
    def value(self) -> float:
        return self._value + sum(map(self._polled_at, self._vnis()))

    def reset(self) -> None:
        self._value = -sum(map(self._polled_at, self._vnis()))


def _from_ready(engine, name: str, help: str, cls=_FromReady, **labels):
    reg = get_registry(engine)
    counter = (reg._get_or_create(cls, name, labels, help)
               if reg.enabled else cls(name, help=help))
    counter.engine = engine
    return counter


class _Filing(Timeout):
    """One message's filing event, armed when its frame is handed to the VNI
    (at transmit, or at arrival).  ``arrival`` is the instant the frame
    reaches the VNI, ``ready`` the instant the polling thread hands it on,
    ``filed`` this event's own instant; ``frame`` turns ``None`` if the
    frame is lost before ``arrival`` (``Vni._drop``)."""

    __slots__ = ("arrival", "ready", "filed", "frame")

    def __init__(self, vni: "Vni", frame: Frame, arrival: float,
                 ready: float, filed: float):
        # Timeout.at inlined: one filing per MPI message.
        engine = vni.engine
        self.engine = engine
        self.name = None
        self.callbacks = [vni._filed]
        self._value = None
        self._ok = True
        self._defused = False
        self.delay = filed - engine._now
        self.arrival = arrival
        self.ready = ready
        self.filed = filed
        self.frame = frame
        engine._seq = seq = engine._seq + 1
        engine._push((filed, _NORMAL, seq, self))


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
    Both instants follow from the arrival instant, which the fabric knows
    at transmit: a polling VNI folds its port (``Nic.fold_port``), so a
    message costs one event, at its filing instant.
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
        self.layers = self.nic.fabric.spec.layers
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
                                       path=path, cls=_Received,
                                       help="messages delivered upward")
        if polling:
            if sink is None:
                raise ValueError(f"polling VNI {port} needs a sink")
            self._rx = self.nic.open_port(port, sink=self._on_frame,
                                          on_down=self._shut)
            self.nic.fold_port(port, self)
            self._m_received.open(self)
        else:
            self._rx = self.nic.open_port(port)

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

    def _arrive(self, frame: Frame, arrival: float) -> None:
        """``frame`` reaches the VNI at ``arrival`` (now, or later when the
        fabric hands it over at transmit; calls come in arrival order): both
        stages' instants are fixed, so arm the one filing event."""
        prev = self._polled_at
        polled = self._polled_at = (arrival if arrival > prev else prev) \
            + self._vni_recv
        prev = self._filed_at
        filed = self._filed_at = (polled if polled > prev else prev) \
            + self._sink_cost
        self._filing.append(_Filing(self, frame, arrival, polled, filed))

    def _on_frame(self, frame: Frame) -> None:
        """NIC sink, inside the frame's arrival event: a frame that was not
        folded (under a schedule perturbation, or judged for this port
        after another VNI's close).  It takes its place by arrival instant,
        ahead of folded frames that arrive later."""
        now = self.engine._now
        fifo = self._filing
        if not fifo or fifo[-1].arrival <= now:
            self._arrive(frame, now)
            return
        i = next(i for i, filing in enumerate(fifo) if filing.arrival > now)
        # Instants unknown yet: _rechain gives it its filing event.
        fifo.insert(i, SimpleNamespace(arrival=now, ready=None, filed=None,
                                       frame=frame, callbacks=[]))
        self._rechain(i)

    def _filed(self, event) -> None:
        if self._closed:
            return      # NIC lost or VNI closed mid-pipeline: nothing filed
        self._filing.popleft()
        self._m_received._value += 1    # _Received: polled, VNI open then
        self._sink(event.frame)

    def _drop(self, frame: Frame) -> None:
        """``frame``, handed over at transmit, was judged lost at its arrival
        instant (now): it is never polled, and the messages behind it are
        re-chained."""
        if self._closed:
            return
        fifo = self._filing
        for i, filing in enumerate(fifo):
            if filing.frame is frame:
                break
        else:
            return
        del fifo[i]
        filing.frame = None
        filing.callbacks.clear()
        self._rechain(i)

    def _rechain(self, i: int) -> None:
        """The FIFO changed at position ``i`` (now, no later than any
        arrival from there on): re-derive the two stages' instants from
        there, from each message's arrival instant.  A message whose
        instants move gets a new filing event, and so does every one after
        it, so the events keep FIFO order.  Before ``i`` every message is
        in the FIFO or filed by now, so the head starts from zero."""
        fifo = self._filing
        polled, filed = (fifo[i - 1].ready, fifo[i - 1].filed) if i \
            else (0.0, 0.0)
        moved = False
        for j in range(i, len(fifo)):
            old = fifo[j]
            polled = max(old.arrival, polled) + self._vni_recv
            filed = max(polled, filed) + self._sink_cost
            if moved or polled != old.ready or filed != old.filed:
                moved = True
                fifo[j] = _Filing(self, old.frame, old.arrival, polled, filed)
                old.frame = None
                old.callbacks.clear()
        self._polled_at, self._filed_at = polled, filed

    def _shut(self, _exc=None) -> None:
        if self._closed:
            return
        self._closed = True
        if self.polling:
            # Polled by now: received; not polled yet: never received.
            received = self._m_received
            received._value += received._polled_at(self)
        self._filing.clear()

    def in_flight(self) -> Tuple[int, int]:
        """``(held by the polling thread, in the sink's stage)``: the
        messages arrived and not yet filed, by where they are now."""
        now = self.engine._now
        polling = sum(1 for filing in self._filing
                      if filing.arrival <= now < filing.ready)
        return polling, sum(1 for filing in self._filing
                            if filing.ready <= now)

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

    def restart_counts(self) -> None:
        """A restarted rank reuses its port: the ``vni.*`` series start
        again at zero (not for a backup copy: they are the primary's)."""
        self._m_sent.reset()
        self._m_received.reset()

    def __repr__(self) -> str:
        mode = "polling" if self.polling else "blocking"
        return f"<Vni {self.port}@{self.transport} {mode}>"
