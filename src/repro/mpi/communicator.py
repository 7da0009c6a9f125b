"""Communicators and collective operations.

A :class:`Communicator` maps communicator-local ranks onto the world ranks
of its group, provides the blocking/non-blocking point-to-point API, and
implements the collectives over point-to-point with reserved negative tags
(one tag per collective *instance*, derived from a per-communicator call
counter — which is why, as in real MPI, all members must call collectives
in the same order).

Collective algorithms: binomial trees for bcast/reduce/barrier (log₂ n
rounds), linear for (all)gather/scatter/alltoall/scan — matching a
late-90s MPICH-style implementation.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CommunicatorError, InvalidRank, InvalidTag, MpiError
from repro.mpi.constants import (ANY_SOURCE, ANY_TAG, COLL_TAG_BASE,
                                 MAX_USER_TAG, PROC_NULL, UNDEFINED)
from repro.mpi.datatypes import nbytes_of
from repro.mpi.endpoint import MpiEndpoint
from repro.mpi.matching import PostedRecv
from repro.mpi.reduce_ops import SUM, ReduceOp, apply_op
from repro.mpi.request import BlockingRecv, Request
from repro.mpi.status import Status


def _timed_collective(fn):
    """Wrap a collective generator so its simulated wall-to-wall duration
    lands in the ``mpi.collective.latency_seconds{op}`` histogram.

    Composite collectives (allreduce = reduce + bcast, barrier =
    allreduce) record at every level, so the histograms mirror the call
    tree rather than double-count a single series.
    """
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        t0 = self.endpoint.engine.now
        try:
            result = yield from fn(self, *args, **kwargs)
        finally:
            self.endpoint.observe_collective(
                fn.__name__, self.endpoint.engine.now - t0)
        return result
    return wrapper


class Communicator:
    """One communication context over a fixed group of world ranks."""

    def __init__(self, endpoint: MpiEndpoint, comm_id: str,
                 group: Tuple[int, ...]):
        if endpoint.world_rank not in group:
            raise CommunicatorError(
                f"rank {endpoint.world_rank} not in group of {comm_id!r}")
        self.endpoint = endpoint
        self.comm_id = comm_id
        self.group = tuple(group)
        #: Number of ranks (the group is fixed for the communicator's life).
        self.size = len(self.group)
        self._rank = self.group.index(endpoint.world_rank)
        self._coll_seq = 0
        self._split_seq = 0
        self._dup_seq = 0
        self._freed = False

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    def world_rank_of(self, comm_rank: int) -> int:
        self._check_rank(comm_rank)
        return self.group[comm_rank]

    def export_seqs(self) -> Tuple[int, int, int]:
        """Checkpointable call counters (collective/split/dup tags derive
        from these, so a solo-restarted rank must resume the sequence —
        its peers' counters never reset)."""
        return (self._coll_seq, self._split_seq, self._dup_seq)

    def import_seqs(self, seqs) -> None:
        self._coll_seq, self._split_seq, self._dup_seq = seqs

    # The point-to-point calls test the common case inline (not freed, a
    # rank of the group, a user tag) and call these only outside it: they
    # pass PROC_NULL (and ANY_SOURCE with ``wildcard_ok``), raise otherwise.

    def _check_rank(self, r: int, wildcard_ok: bool = False) -> None:
        if self._freed:
            raise CommunicatorError(f"{self.comm_id!r} has been freed")
        if r == PROC_NULL or (wildcard_ok and r == ANY_SOURCE):
            return
        if not 0 <= r < self.size:
            raise InvalidRank(f"rank {r} outside communicator of size "
                              f"{self.size}")

    def _check_tag(self, tag: int) -> None:
        if not 0 <= tag <= MAX_USER_TAG:
            raise InvalidTag(f"send tag must be in [0, {MAX_USER_TAG}], "
                             f"got {tag}")

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------

    def send(self, data: Any, dest: int, tag: int = 0,
             size: Optional[int] = None):
        """Process generator: blocking standard-mode (eager) send."""
        if (self._freed or not 0 <= dest < self.size
                or not 0 <= tag <= MAX_USER_TAG):
            self._check_rank(dest)
            self._check_tag(tag)
            if dest == PROC_NULL:
                return
        # app_send rides down as pre_delay: the whole software send stack
        # (app + MPI + VNI layers) charges one merged timeout.
        endpoint = self.endpoint
        yield from endpoint.send(self.group[dest], self.comm_id, self._rank,
                                 tag, data, size,
                                 pre_delay=endpoint.layers.app_send)

    def isend(self, data: Any, dest: int, tag: int = 0,
              size: Optional[int] = None) -> Request:
        """Non-blocking send; returns a :class:`Request`."""
        if (self._freed or not 0 <= dest < self.size
                or not 0 <= tag <= MAX_USER_TAG):
            self._check_rank(dest)
            self._check_tag(tag)
            if dest == PROC_NULL:
                req = Request(self.endpoint.engine, "send")
                req.complete(None)
                return req
        return self.endpoint.isend(self.group[dest], self.comm_id,
                                   self._rank, tag, data, size)

    def irecv(self, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; returns a :class:`Request`."""
        return self._post_recv(Request(self.endpoint.engine, "recv"),
                               source, tag)

    def _post_recv(self, req: Request, source: int, tag: int) -> Request:
        if self._freed or not 0 <= source < self.size:
            self._check_rank(source, wildcard_ok=True)
            if source == PROC_NULL:
                req.complete(None, Status(PROC_NULL, tag, 0))
                return req
        self.endpoint.matching.post(
            PostedRecv(comm_id=self.comm_id, source=source, tag=tag,
                       request=req))
        return req

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             with_status: bool = False):
        """Process generator: blocking receive; returns the data (or
        ``(data, status)`` with ``with_status=True``)."""
        endpoint = self.endpoint
        req = self._post_recv(BlockingRecv(endpoint), source, tag)
        if not endpoint.polling:
            # No polling thread: the receiver itself drains the NIC.
            while not req.done:
                yield from endpoint.pump_blocking()
        # req.wait()'s body: one generator frame fewer on the data path.
        event = req.event
        if event.callbacks is not None:         # not processed yet
            yield event
        data = event._value[0]
        if with_status:
            return data, req.status
        return data

    def sendrecv(self, data: Any, dest: int, source: int = ANY_SOURCE,
                 sendtag: int = 0, recvtag: int = ANY_TAG,
                 size: Optional[int] = None):
        """Process generator: combined send+receive (deadlock-free)."""
        sreq = self.isend(data, dest, tag=sendtag, size=size)
        out = yield from self.recv(source=source, tag=recvtag)
        yield from sreq.wait()
        return out

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Process generator: block until a matching message is queued;
        returns its :class:`Status` without receiving it."""
        while True:
            st = self.iprobe(source, tag)
            if st is not None:
                return st
            if self.endpoint.polling:
                yield self.endpoint.engine.timeout(
                    self.endpoint.layers.mpi_recv)
            else:
                yield from self.endpoint.pump_blocking()

    def iprobe(self, source: int = ANY_SOURCE,
               tag: int = ANY_TAG) -> Optional[Status]:
        self._check_rank(source, wildcard_ok=True)
        return self.endpoint.matching.probe(self.comm_id, source, tag)

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------

    def _next_coll_tag(self) -> int:
        if self._freed:
            raise CommunicatorError(f"{self.comm_id!r} has been freed")
        self._coll_seq += 1
        return COLL_TAG_BASE - 16 * self._coll_seq

    @_timed_collective
    def bcast(self, data: Any, root: int = 0):
        """Process generator: binomial-tree broadcast; returns the data."""
        self._check_rank(root)
        tag = self._next_coll_tag()
        size, rank = self.size, self._rank
        vrank = (rank - root) % size
        mask = 1
        while mask < size:
            if vrank & mask:
                src = ((vrank - mask) + root) % size
                data = yield from self.recv(source=src, tag=tag)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if vrank + mask < size:
                dst = ((vrank + mask) + root) % size
                yield from self.endpoint.send(
                    self.group[dst], self.comm_id, self._rank, tag, data,
                    pre_delay=self.endpoint.layers.app_send)
            mask >>= 1
        return data

    @_timed_collective
    def reduce(self, data: Any, op: ReduceOp = SUM, root: int = 0):
        """Process generator: binomial-tree reduction to ``root``.

        Returns the reduced value at the root, ``None`` elsewhere.
        """
        self._check_rank(root)
        tag = self._next_coll_tag()
        size, rank = self.size, self._rank
        vrank = (rank - root) % size
        result = data
        mask = 1
        while mask < size:
            if vrank & mask:
                dst = ((vrank - mask) + root) % size
                yield from self.endpoint.send(
                    self.group[dst], self.comm_id, self._rank, tag, result,
                    pre_delay=self.endpoint.layers.app_send)
                return None
            peer = vrank + mask
            if peer < size:
                contrib = yield from self.recv(source=(peer + root) % size,
                                               tag=tag)
                result = apply_op(op, result, contrib)
            mask <<= 1
        return result

    @_timed_collective
    def allreduce(self, data: Any, op: ReduceOp = SUM):
        """Process generator: reduce + broadcast; all ranks get the result."""
        partial = yield from self.reduce(data, op=op, root=0)
        result = yield from self.bcast(partial, root=0)
        return result

    @_timed_collective
    def barrier(self):
        """Process generator: no rank leaves before all have entered."""
        yield from self.allreduce(0, op=SUM)

    @_timed_collective
    def gather(self, data: Any, root: int = 0):
        """Process generator: root returns the list by rank, others None."""
        self._check_rank(root)
        tag = self._next_coll_tag()
        if self._rank != root:
            yield from self.endpoint.send(
                self.group[root], self.comm_id, self._rank, tag, data,
                pre_delay=self.endpoint.layers.app_send)
            return None
        out: List[Any] = [None] * self.size
        out[root] = data
        for _ in range(self.size - 1):
            msg, status = yield from self.recv(source=ANY_SOURCE, tag=tag,
                                               with_status=True)
            out[status.source] = msg
        return out

    @_timed_collective
    def scatter(self, data: Optional[List[Any]], root: int = 0):
        """Process generator: root distributes ``data[i]`` to rank i."""
        self._check_rank(root)
        tag = self._next_coll_tag()
        if self._rank == root:
            if data is None or len(data) != self.size:
                raise MpiError(f"scatter needs a {self.size}-element list "
                               "at the root")
            for r in range(self.size):
                if r != root:
                    yield from self.endpoint.send(
                        self.group[r], self.comm_id, self._rank, tag, data[r],
                        pre_delay=self.endpoint.layers.app_send)
            return data[root]
        out = yield from self.recv(source=root, tag=tag)
        return out

    @_timed_collective
    def allgather(self, data: Any):
        """Process generator: every rank returns the full by-rank list."""
        gathered = yield from self.gather(data, root=0)
        out = yield from self.bcast(gathered, root=0)
        return out

    @_timed_collective
    def alltoall(self, data: List[Any]):
        """Process generator: rank i's ``data[j]`` ends at rank j's slot i."""
        if len(data) != self.size:
            raise MpiError(f"alltoall needs a {self.size}-element list")
        tag = self._next_coll_tag()
        reqs = [self.endpoint.isend(self.group[r], self.comm_id, self._rank,
                                    tag, data[r])
                for r in range(self.size) if r != self._rank]
        out: List[Any] = [None] * self.size
        out[self._rank] = data[self._rank]
        for _ in range(self.size - 1):
            msg, status = yield from self.recv(source=ANY_SOURCE, tag=tag,
                                               with_status=True)
            out[status.source] = msg
        for req in reqs:
            yield from req.wait()
        return out

    @_timed_collective
    def scan(self, data: Any, op: ReduceOp = SUM):
        """Process generator: inclusive prefix reduction by rank order."""
        tag = self._next_coll_tag()
        acc = data
        if self._rank > 0:
            prev = yield from self.recv(source=self._rank - 1, tag=tag)
            acc = apply_op(op, prev, data)
        if self._rank < self.size - 1:
            yield from self.endpoint.send(
                self.group[self._rank + 1], self.comm_id, self._rank, tag, acc,
                pre_delay=self.endpoint.layers.app_send)
        return acc

    # ------------------------------------------------------------------
    # communicator management
    # ------------------------------------------------------------------

    def dup(self):
        """Process generator: duplicate (synchronizing, like MPI_Comm_dup).

        All members must call it; returns the new communicator.
        """
        yield from self.barrier()
        self._dup_seq += 1
        return Communicator(self.endpoint,
                            f"{self.comm_id}.d{self._dup_seq}", self.group)

    def split(self, color: int, key: Optional[int] = None):
        """Process generator: partition by ``color``; order within a new
        communicator follows ``(key, old rank)``.  Ranks passing
        ``UNDEFINED`` get ``None``."""
        key = key if key is not None else self._rank
        triples = yield from self.allgather((color, key, self._rank))
        self._split_seq += 1
        if color == UNDEFINED:
            return None
        mine = sorted(((k, r) for c, k, r in triples if c == color))
        group = tuple(self.group[r] for _k, r in mine)
        return Communicator(self.endpoint,
                            f"{self.comm_id}.s{self._split_seq}c{color}",
                            group)

    def free(self) -> None:
        self._freed = True

    def __repr__(self) -> str:
        return (f"<Communicator {self.comm_id!r} rank {self._rank}/"
                f"{self.size}>")
