"""Client-side helper for the ASCII management/user protocol.

A :class:`Client` models the paper's remote administrator or user (or its
Java GUI, which speaks the same textual protocol underneath): it opens a
TCP connection to *any* daemon and issues commands.  Cluster state changes
made through one daemon propagate to all others via the Starfish group.

Hardening: :meth:`connect` and :meth:`command` take deadlines and raise
:class:`~repro.errors.RequestTimeout` instead of hanging on a dead or
partitioned daemon; :meth:`request` adds retry with exponential backoff
and automatic reconnection on top (a timed-out connection is torn down —
its reply stream can no longer be trusted).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.daemon.protocol import CTL_PORT
from repro.errors import (AuthenticationError, NetworkError, ProtocolError,
                          RequestTimeout)
from repro.net.conn import Connection


class Client:
    """One client session (management or user)."""

    def __init__(self, engine, node, daemon_node_id: str):
        self.engine = engine
        self.node = node
        self.daemon_node_id = daemon_node_id
        self.conn: Optional[Connection] = None
        self.transcript: List[Tuple[str, str]] = []
        self._login: Optional[Tuple[str, str, bool]] = None

    # -- plumbing -----------------------------------------------------------

    def connect(self, timeout: Optional[float] = None,
                attempts: int = 1, backoff: float = 0.05):
        """Process generator: open the control connection.

        ``timeout`` bounds each attempt (``None`` = wait forever);
        ``attempts`` > 1 retries with exponential ``backoff`` between
        tries, raising the last :class:`~repro.errors.RequestTimeout` when
        all attempts are spent."""
        for attempt in range(max(1, attempts)):
            try:
                self.conn = yield from Connection.connect(
                    self.engine, self.node.nic("tcp-ethernet"),
                    self.daemon_node_id, CTL_PORT, timeout=timeout)
                return self
            except RequestTimeout:
                if attempt == max(1, attempts) - 1:
                    raise
                yield self.engine.timeout(backoff * (2 ** attempt))

    def command(self, line: str, timeout: Optional[float] = None):
        """Process generator: send one command line; returns the reply.

        With a ``timeout``, a missing reply raises
        :class:`~repro.errors.RequestTimeout` and ABORTS the connection:
        the late reply would otherwise be mistaken for the answer to the
        next command."""
        if self.conn is None:
            raise ProtocolError("client not connected")
        yield from self.conn.send(line, size=len(line) + 8)
        if timeout is None:
            reply = yield self.conn.recv()
        else:
            answer = self.conn.recv()
            yield answer | self.engine.timeout(timeout)
            if not answer.triggered:
                self.conn.abort()
                self.conn = None
                raise RequestTimeout(
                    f"no reply to {line.split()[0]!r} from "
                    f"{self.daemon_node_id} within {timeout}s")
            reply = answer.value
        self.transcript.append((line, reply))
        return reply

    def request(self, line: str, timeout: float = 1.0, attempts: int = 3,
                backoff: float = 0.1):
        """Process generator: :meth:`command` with retry + reconnect.

        Safe for idempotent commands (the management protocol's queries
        and state-setting commands are).  Re-logs-in after a reconnect if
        :meth:`login` succeeded earlier on this session."""
        last: Exception = RequestTimeout(f"request {line!r} never attempted")
        for attempt in range(max(1, attempts)):
            try:
                if self.conn is None or self.conn.closed:
                    yield from self.connect(timeout=timeout)
                    if self._login is not None:
                        user, password, mgmt = self._login
                        yield from self.login(user, password, mgmt=mgmt)
                return (yield from self.command(line, timeout=timeout))
            except (RequestTimeout, NetworkError) as exc:
                last = exc
                if self.conn is not None:
                    self.conn.abort()
                    self.conn = None
                if attempt < max(1, attempts) - 1:
                    yield self.engine.timeout(backoff * (2 ** attempt))
        raise last

    def must(self, line: str, timeout: Optional[float] = None):
        """Process generator: run a command, asserting an OK reply."""
        reply = yield from self.command(line, timeout=timeout)
        if not reply.startswith("OK"):
            raise ProtocolError(f"{line!r} failed: {reply}")
        return reply

    # -- conveniences ----------------------------------------------------------

    def login(self, user: str, password: str, mgmt: bool = False):
        kind = "MGMT" if mgmt else "USER"
        reply = yield from self.command(f"LOGIN {user} {password} {kind}")
        if not reply.startswith("OK"):
            raise AuthenticationError(reply)
        self._login = (user, password, mgmt)
        return reply

    def close(self):
        if self.conn is not None:
            yield from self.command("QUIT")
            yield from self.conn.close()
            self.conn = None
