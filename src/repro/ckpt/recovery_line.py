"""Recovery lines on the rollback-dependency graph.

Used by the uncoordinated protocol: every process checkpoints independently,
so the set of checkpoints that together form a *consistent cut* (no orphan
messages — a message received before the cut must have been sent before the
cut) has to be computed at recovery time.  This is the classic rollback-
propagation calculation (Randell; Plank; the authors' own follow-up work
quantifies it), including its failure mode: the **domino effect**, where
dependencies force every process back to its initial state.

Model: process ``r`` lives through intervals ``0, 1, 2, ...``; taking its
``i``-th checkpoint ends interval ``i`` (so checkpoint index ``i`` captures
all intervals ``< i+1``... we adopt the convention that checkpoint ``i`` of
rank ``r`` begins interval ``i+1``, with interval 0 preceding any
checkpoint).  A received message creates the dependency: *if the sender
rolls back to before the sending interval, the receiver must roll back to
before the receiving interval.*
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.errors import RecoveryLineError


@dataclass(frozen=True)
class MessageDep:
    """One recorded message: sent in ``send_interval`` of ``sender``,
    received in ``recv_interval`` of ``receiver``."""

    sender: int
    send_interval: int
    receiver: int
    recv_interval: int


@dataclass(frozen=True)
class RecoveryLine:
    """A consistent cut: rank -> checkpoint index (-1 = initial state)."""

    cut: Dict[int, int]
    discarded_intervals: int     # total rollback distance (work lost)

    @property
    def is_initial(self) -> bool:
        return all(v < 0 for v in self.cut.values())


class DependencyGraph:
    """Accumulates checkpoints and message dependencies for one app."""

    def __init__(self, ranks: Iterable[int]):
        self.ranks = sorted(ranks)
        #: Number of checkpoints each rank has taken (index of next one).
        self.ckpt_count: Dict[int, int] = {r: 0 for r in self.ranks}
        self.deps: List[MessageDep] = []

    def current_interval(self, rank: int) -> int:
        """The interval ``rank`` is executing right now."""
        return self.ckpt_count[rank]

    def record_checkpoint(self, rank: int) -> int:
        """Rank took a checkpoint; returns its index."""
        idx = self.ckpt_count[rank]
        self.ckpt_count[rank] = idx + 1
        return idx

    def record_message(self, sender: int, send_interval: int,
                       receiver: int, recv_interval: int) -> None:
        self.deps.append(MessageDep(sender, send_interval,
                                    receiver, recv_interval))


def compute_recovery_line(graph: DependencyGraph,
                          failed: Optional[Iterable[int]] = None,
                          allow_initial: bool = True) -> RecoveryLine:
    """Most recent consistent cut.

    ``failed`` ranks are forced back to their last *stored* checkpoint
    (they lost their volatile state); surviving ranks start from their
    current (live) interval, which counts as an implicit "checkpoint" of
    index ``ckpt_count[r] - 0`` — they only roll back if orphan messages
    force them to.

    Rollback propagation: cut ``x[r]`` (interval from which r resumes; a
    rank resuming from checkpoint ``i`` replays from interval ``i+1``...
    here ``x[r]`` is the number of checkpoints kept, i.e. resuming at the
    start of interval ``x[r]``).  A dependency (s, si) -> (r, ri) is
    violated when the sender rolled back to before the send
    (``x[s] <= si``) while the receiver kept the receive
    (``x[r] > ri``): the message becomes an orphan, so ``x[r] := ri``.
    Iterate to a fixpoint (monotone, hence terminating).

    Raises :class:`RecoveryLineError` if the cut collapses to the initial
    state and ``allow_initial`` is false.
    """
    failed = set(failed or ())
    # x[r]: the interval rank r resumes at (kept checkpoints count).
    x: Dict[int, int] = {}
    for r in graph.ranks:
        if r in failed:
            x[r] = graph.ckpt_count[r]          # resume from last stored ckpt
        else:
            x[r] = graph.current_interval(r) + 1  # keep live state

    changed = True
    while changed:
        changed = False
        for dep in graph.deps:
            if dep.receiver not in x:
                continue           # receiver departed: nothing to roll back
            if dep.sender not in x:
                # Departed/dynamic sender: it will never re-execute, so any
                # message received from it is unconditionally an orphan with
                # respect to the cut — the receiver must roll back to before
                # the receive, exactly as if the sender rolled to interval 0.
                if x[dep.receiver] > dep.recv_interval:
                    x[dep.receiver] = dep.recv_interval
                    changed = True
                continue
            if x[dep.sender] <= dep.send_interval and \
                    x[dep.receiver] > dep.recv_interval:
                x[dep.receiver] = dep.recv_interval
                changed = True

    cut = {r: x[r] - 1 for r in graph.ranks}     # checkpoint index per rank
    discarded = sum(graph.current_interval(r) + (0 if r in failed else 1)
                    - x[r] for r in graph.ranks)
    line = RecoveryLine(cut=cut, discarded_intervals=discarded)
    if line.is_initial and not allow_initial and graph.deps:
        raise RecoveryLineError(
            "domino effect: no consistent recovery line above the initial "
            "state")
    return line
