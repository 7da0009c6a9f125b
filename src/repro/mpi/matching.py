"""MPI message matching: posted receives vs the unexpected-message queue.

Standard MPI semantics:

* a receive posted with ``(source, tag)`` — either possibly ``ANY_SOURCE``
  / ``ANY_TAG`` — matches the *earliest arrived* unexpected message that
  fits; an arriving message matches the *earliest posted* fitting receive;
* non-overtaking: two messages from the same source with the same tag (and
  communicator) match receives in their send order — guaranteed here
  because arrival order per (source, comm) is FIFO and both queues are
  scanned oldest-first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.request import Request
from repro.mpi.status import Status


@dataclass
class InboundMsg:
    """A data message after the MPI layer unwrapped it."""

    comm_id: str
    source: int          # rank within the communicator
    tag: int
    data: Any
    nbytes: int

    def status(self) -> Status:
        return Status(source=self.source, tag=self.tag, nbytes=self.nbytes)


@dataclass
class PostedRecv:
    """A receive waiting for a message."""

    comm_id: str
    source: int
    tag: int
    request: Request

    def matches(self, msg: InboundMsg) -> bool:
        if self.comm_id != msg.comm_id:
            return False
        if self.source not in (ANY_SOURCE, msg.source):
            return False
        # ANY_TAG never matches internal (negative) tags, as in MPI.
        if self.tag == ANY_TAG:
            return msg.tag >= 0
        return self.tag == msg.tag


class MatchingEngine:
    """The two queues and their matching discipline."""

    def __init__(self):
        self.unexpected: List[InboundMsg] = []
        self.posted: List[PostedRecv] = []

    # -- arrival side --------------------------------------------------------

    def arrived(self, msg: InboundMsg) -> Optional[PostedRecv]:
        """Offer an arriving message; completes and returns the matched
        posted receive, or queues the message as unexpected.

        The match test is inlined (see :meth:`PostedRecv.matches` for the
        reference semantics): both queues are scanned once per message on
        the data fast path.
        """
        comm_id, source, tag = msg.comm_id, msg.source, msg.tag
        for i, recv in enumerate(self.posted):
            if (recv.comm_id == comm_id
                    and (recv.source == source or recv.source == ANY_SOURCE)
                    and (tag >= 0 if recv.tag == ANY_TAG
                         else recv.tag == tag)):
                del self.posted[i]
                recv.request.complete(msg.data,
                                      Status(source, tag, msg.nbytes))
                return recv
        self.unexpected.append(msg)
        return None

    # -- receive side -----------------------------------------------------------

    def post(self, recv: PostedRecv) -> Optional[InboundMsg]:
        """Post a receive; if an unexpected message fits, consume it and
        complete immediately (returns it), else queue the receive."""
        comm_id, source, tag = recv.comm_id, recv.source, recv.tag
        any_src = source == ANY_SOURCE
        for i, msg in enumerate(self.unexpected):
            if (msg.comm_id == comm_id
                    and (any_src or source == msg.source)
                    and (msg.tag >= 0 if tag == ANY_TAG
                         else tag == msg.tag)):
                del self.unexpected[i]
                recv.request.complete(msg.data, msg.status())
                return msg
        self.posted.append(recv)
        return None

    def cancel(self, request: Request) -> bool:
        for i, recv in enumerate(self.posted):
            if recv.request is request:
                del self.posted[i]
                request.cancelled = True
                return True
        return False

    def probe(self, comm_id: str, source: int, tag: int) -> Optional[Status]:
        """First unexpected message matching, without consuming it."""
        probe_recv = PostedRecv(comm_id=comm_id, source=source, tag=tag,
                                request=None)  # type: ignore[arg-type]
        for msg in self.unexpected:
            if probe_recv.matches(msg):
                return msg.status()
        return None

    # -- checkpoint support ----------------------------------------------------

    def snapshot_unexpected(self) -> List[Tuple]:
        """Serializable image of the unexpected queue (C/R protocols)."""
        return [(m.comm_id, m.source, m.tag, m.data, m.nbytes)
                for m in self.unexpected]

    def restore_unexpected(self, items) -> None:
        self.unexpected = [InboundMsg(comm_id=c, source=s, tag=t, data=d,
                                      nbytes=n) for c, s, t, d, n in items]

    def fail_all_posted(self, exc: BaseException) -> None:
        for recv in self.posted:
            recv.request.fail(exc)
        self.posted.clear()
