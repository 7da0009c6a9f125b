"""Reliable, in-order, connection-oriented messaging (simulated TCP).

Starfish uses plain TCP connections for the client↔daemon management and
user sessions.  This module provides that abstraction:

* :class:`Listener` — accepts connections on a well-known port;
* :class:`Connection` — an ARQ-protected (sequence numbers, cumulative
  acks, retransmission) in-order message stream that survives the fabric's
  configured frame loss and transient partitions; its two ends are a
  :class:`~repro.net.seqwin.SendHistory` and a
  :class:`~repro.net.seqwin.RecvWindow`.

The local daemon↔application-process link is not a connection: the daemon
calls a rank's modules directly and charges the paper's local TCP hop
(:data:`~repro.calibration.LOCAL_TCP_HOP`) itself.

All ``send`` operations are process generators (``yield from conn.send(x)``)
and ``recv()`` returns an event (``msg = yield conn.recv()``).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConnectionClosed, NetworkError, RequestTimeout
from repro.net.message import Frame
from repro.net.nic import Nic
from repro.net.seqwin import RecvWindow, SendHistory
from repro.obs.registry import get_registry
from repro.sim.channel import Channel

_port_ids = itertools.count(1)

#: Modelled wire size of connection control frames (SYN/ACK/FIN).
CTRL_SIZE = 64
#: Per-message framing overhead added to the caller's payload size.
HEADER_SIZE = 32
#: Retransmission timeout, seconds.
RTO = 0.004
#: Give up retransmitting after this many attempts; the connection breaks.
MAX_RETRANSMITS = 30


class Listener:
    """Accepts incoming connections on ``(nic.node_id, port)``."""

    def __init__(self, engine, nic: Nic, port: str):
        self.engine = engine
        self.nic = nic
        self.port = port
        self._accept_q = Channel(engine, name=f"accept:{nic.node_id}:{port}")
        self._rx = nic.open_port(port)
        self._known: Dict[Tuple[str, str], "Connection"] = {}
        self._pump = engine.process(self._run(), name=f"listener:{port}")

    def _run(self):
        while True:
            try:
                frame = yield self._rx.get()
            except Exception as exc:        # listening NIC went down
                if not self._accept_q.closed:
                    self._accept_q.close(
                        exc if isinstance(exc, ConnectionClosed)
                        else ConnectionClosed(str(exc)))
                return
            tag, *args = frame.payload
            if tag != "SYN":
                continue  # stray frame on the listening port
            (client_port,) = args
            key = (frame.src, client_port)
            conn = self._known.get(key)
            if conn is None:
                conn = Connection(self.engine, self.nic,
                                  peer_node=frame.src, peer_port=client_port)
                self._known[key] = conn
                if not self._accept_q.closed:
                    self._accept_q.put(conn)
            # (Re-)answer; duplicate SYNs just get the same SYNACK again.
            yield from conn._send_ctrl("SYNACK", conn.local_port)

    def accept(self):
        """Event that fires with the next accepted :class:`Connection`."""
        return self._accept_q.get()

    def close(self) -> None:
        self.nic.close_port(self.port)


class Connection:
    """One side of a reliable in-order connection over a fabric.

    Create the client side with :meth:`Connection.connect`; server sides are
    produced by :class:`Listener`.
    """

    def __init__(self, engine, nic: Nic, peer_node: str, peer_port: str):
        self.engine = engine
        self.nic = nic
        self.peer_node = peer_node
        self.peer_port = peer_port
        self.local_port = f"conn-{next(_port_ids)}"
        self._rx = nic.open_port(self.local_port)
        self._inbox = Channel(engine, name=f"in:{self.local_port}")
        #: [frame, retransmissions] from the first seq not acknowledged up.
        self._sent = SendHistory()
        self._received = RecvWindow()
        self._m_retransmits = get_registry(engine).counter(
            "net.conn.retransmits", fabric=nic.fabric.spec.name,
            help="ARQ retransmissions across all connections")
        self._retransmitter = None
        self._closed = False
        self._pump = engine.process(self._run(), name=f"conn:{self.local_port}")

    # -- establishment -------------------------------------------------------

    @classmethod
    def connect(cls, engine, nic: Nic, peer_node: str, peer_port: str,
                timeout: Optional[float] = None):
        """Process generator: open a connection to a :class:`Listener`.

        Returns the connected :class:`Connection`.  Retries the SYN until
        answered, so it tolerates frame loss.  With ``timeout=None`` it
        retries forever (a dead peer hangs the caller); with a timeout it
        tears the half-open connection down and raises
        :class:`~repro.errors.RequestTimeout` at the deadline.
        """
        conn = cls(engine, nic, peer_node=peer_node, peer_port=peer_port)
        deadline = engine.now + timeout if timeout is not None else None
        handshake = Channel(engine, name=f"hs:{conn.local_port}")
        conn._handshake = handshake
        # One persistent getter: a fresh get() per retry would leave stale
        # getters queued on the channel that would swallow the SYNACK.
        answer = handshake.get()
        while True:
            syn = Frame(src=nic.node_id, dst=peer_node, port=peer_port,
                        payload=("SYN", conn.local_port), size=CTRL_SIZE,
                        kind="control")
            yield from nic.send(syn)
            yield answer | engine.timeout(RTO * 4)
            if answer.triggered:
                conn.peer_port = answer.value
                conn._handshake = None
                return conn
            if deadline is not None and engine.now >= deadline:
                conn.abort()
                raise RequestTimeout(
                    f"connect to {peer_node}:{peer_port} timed out "
                    f"after {timeout}s")

    # -- internal receive pump --------------------------------------------------

    def _run(self):
        received = self._received
        while True:
            try:
                frame = yield self._rx.get()
            except Exception as exc:        # rx port died (crash/close)
                self._teardown(exc)
                return
            tag = frame.payload[0]
            if tag == "DATA":
                _, seq, payload, _kind = frame.payload
                received.offer(seq, payload)
                for item in received.drain():
                    if not self._inbox.closed:
                        self._inbox.put(item)
                # A duplicate is acked again: the first ack may have been lost.
                yield from self._send_ctrl("ACK", received.next)
            elif tag == "ACK":
                self._sent.drop_below(frame.payload[1])
            elif tag == "SYNACK":
                hs = getattr(self, "_handshake", None)
                if hs is not None and not hs.closed:
                    hs.put(frame.payload[1])
            elif tag == "FIN":
                self._teardown(ConnectionClosed(
                    f"{self.peer_node} closed the connection"))
                return

    def _send_ctrl(self, tag: str, arg: Any):
        frame = Frame(src=self.nic.node_id, dst=self.peer_node,
                      port=self.peer_port, payload=(tag, arg),
                      size=CTRL_SIZE, kind="control")
        try:
            yield from self.nic.send(frame)
        except NetworkError:
            pass  # our own NIC died; the pump will find out

    # -- retransmission ---------------------------------------------------------

    def _retransmit_loop(self):
        sent = self._sent
        while sent.held and not self._closed:
            yield self.engine.timeout(RTO)
            # Snapshot: acks may arrive (and trim the history) while we are
            # suspended inside nic.send below.
            for seq, entry in enumerate(list(sent.held), sent.base):
                if seq < sent.base or self._closed:
                    continue
                entry[1] += 1
                self._m_retransmits.inc()
                if entry[1] > MAX_RETRANSMITS:
                    self._teardown(ConnectionClosed(
                        f"gave up retransmitting to {self.peer_node}"))
                    return
                try:
                    yield from self.nic.send(entry[0])
                except NetworkError:
                    self._teardown(ConnectionClosed("local NIC down"))
                    return
        self._retransmitter = None

    # -- public API ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, payload: Any, size: int = 128, kind: str = "control"):
        """Process generator: reliably send one message.

        ``size`` is the modelled payload size in bytes; ``kind`` tags the
        frame for the Table 1 message-taxonomy audit.
        """
        if self._closed:
            raise ConnectionClosed(f"send on closed connection to "
                                   f"{self.peer_node}")
        frame = Frame(src=self.nic.node_id, dst=self.peer_node,
                      port=self.peer_port,
                      payload=("DATA", self._sent.end, payload, kind),
                      size=size + HEADER_SIZE, kind=kind)
        self._sent.held.append([frame, 0])
        if self._retransmitter is None or self._retransmitter.triggered:
            self._retransmitter = self.engine.process(
                self._retransmit_loop(), name=f"rto:{self.local_port}")
        yield from self.nic.send(frame)

    def recv(self):
        """Event firing with the next in-order message."""
        return self._inbox.get()

    def close(self):
        """Process generator: send FIN and tear down this side."""
        if not self._closed:
            yield from self._send_ctrl("FIN", None)
            self._teardown(ConnectionClosed("locally closed"))

    def abort(self) -> None:
        """Immediate local teardown (no FIN, not a generator).  Used when
        a request deadline expires and the connection state can no longer
        be trusted — e.g. a reply may arrive for a request the caller has
        already given up on."""
        self._teardown(ConnectionClosed("aborted"))

    def _teardown(self, exc: BaseException) -> None:
        if self._closed:
            return
        self._closed = True
        self._sent.drop_below(self._sent.end)
        self.nic.close_port(self.local_port)
        if not self._inbox.closed:
            if not isinstance(exc, ConnectionClosed):
                exc = ConnectionClosed(str(exc))
            self._inbox.close(exc)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"<Connection {self.nic.node_id}:{self.local_port} -> "
                f"{self.peer_node}:{self.peer_port} {state}>")
