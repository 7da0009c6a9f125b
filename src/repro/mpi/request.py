"""Non-blocking operation handles (MPI_Request)."""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.errors import MpiError
from repro.mpi.status import Status
from repro.sim.events import Event


class Request:
    """Handle for a pending isend/irecv.

    ``yield from req.wait()`` blocks until completion and returns the
    received data (receives) or ``None`` (sends); ``req.test()`` polls.
    """

    def __init__(self, engine, kind: str):
        self.engine = engine
        self.kind = kind                     # "send" | "recv"
        self.event: Event = Event(engine, name=f"req:{kind}")
        self._status: Optional[Status] = None
        self._data: Any = None
        self.cancelled = False

    # -- completion (called by the engine/matching layer) -------------------

    def complete(self, data: Any = None, status: Optional[Status] = None):
        if self.event.triggered:
            raise MpiError("request completed twice")
        self._data = data
        self._status = status
        self.event.succeed((data, status))

    def sent(self) -> None:
        """Complete a send inside the event in which its frame left."""
        self.event.fire((None, None))

    def fail(self, exc: BaseException) -> None:
        if not self.event.triggered:
            self.event.fail(exc)

    # -- user side -----------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.event.triggered

    @property
    def status(self) -> Optional[Status]:
        return self._status

    def wait(self):
        """Process generator: block until complete; returns the data."""
        if not self.event.processed:
            yield self.event
        data, _status = self.event.value
        return data

    def test(self) -> Tuple[bool, Any]:
        """Non-blocking completion check: ``(done, data_or_None)``."""
        if self.event.triggered:
            return True, self._data
        return False, None

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return f"<Request {self.kind} {state}>"


class BlockingRecv(Request):
    """The request behind a blocking ``recv``: the match records how long the
    receive waited and completes it ``app_recv`` later — the application
    layer's cost rides the request's own event, so the receiver resumes
    once.  ``done`` is true from the match on."""

    def __init__(self, endpoint):
        super().__init__(endpoint.engine, "recv")
        self._endpoint = endpoint
        self._posted_at = endpoint.engine.now

    def complete(self, data: Any = None, status: Optional[Status] = None):
        if self.event.triggered:
            raise MpiError("request completed twice")
        self._data = data
        self._status = status
        endpoint = self._endpoint
        endpoint.observe_recv(self.engine.now - self._posted_at)
        self.event.succeed((data, status), delay=endpoint.layers.app_recv)


def waitall(engine, requests):
    """Process generator: wait for every request; returns their data list."""
    out = []
    for req in requests:
        data = yield from req.wait()
        out.append(data)
    return out


def waitany(engine, requests):
    """Process generator: wait until one request completes.

    Returns ``(index, data)`` of the first completed request (by position
    for already-completed ones).
    """
    if not requests:
        raise MpiError("waitany on empty request list")
    while True:
        for i, req in enumerate(requests):
            if req.done:
                data = yield from req.wait()
                return i, data
        yield engine.any_of([r.event for r in requests])
