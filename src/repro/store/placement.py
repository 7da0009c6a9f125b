"""Replica placement policies for the replicated checkpoint store.

A :class:`PlacementPolicy` answers one question: given a record key, its
primary holder and the currently placeable nodes, which other nodes
should hold the ``k-1`` extra copies?  Policies are deterministic (the
seeded-random one draws from a named engine RNG stream), so replica maps
are a pure function of the cluster seed — campaign reports stay
byte-identical across same-seed runs.

Three policies ship (ReStore's menu, §4 of Hübner et al. 2022):

* ``ring`` — successors of the primary on the sorted node-id ring; the
  classic consistent-placement rule (cheap, no state, and a single crash
  only un-replicates the records whose primary or successor it was);
* ``random`` — a seeded shuffle per record; spreads repair load across
  the whole cluster at the cost of more distinct holder pairs;
* ``partition-aware`` — ring placement restricted to nodes *currently
  reachable* from the primary on the data fabric, so a partitioned
  writer never counts an unreachable copy toward its replication factor.

:func:`rotating_mirrors` is the version-rotating mirror rule the diskless
protocol has always used (buddy of rank *i* at version *v* among *n*
live peers starts at stride ``1 + (v-1) mod (n-1)``), extracted here so
the protocol is a thin client of ``repro.store`` — generalized to any
copy count while reproducing the historical two-mirror choice exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, List, Optional, Sequence, Tuple

from repro.cluster.spec import PLACEMENT_POLICIES as POLICIES
from repro.errors import CheckpointError

#: A checkpoint record key: (app_id, rank, version).
Key = Tuple[str, int, int]


def rotating_mirrors(peers: Sequence[int], rank: int, version: int,
                     copies: int = 2) -> List[int]:
    """Version-rotating mirror ranks for diskless checkpointing.

    Walks the sorted peer ring from ``rank`` with a version-dependent
    starting stride, skipping self and duplicates, until ``copies``
    distinct targets are found (or the ring is exhausted).  Consecutive
    versions never share their full holder set, so a single node crash
    wipes at most one rank's copy of each version and always leaves the
    previous line intact on different holders.
    """
    peers = sorted(peers)
    n = len(peers)
    if n < 2 or copies < 1:
        return []
    idx = peers.index(rank)
    stride = 1 + (version - 1) % (n - 1)
    out: List[int] = []
    for j in range(stride, stride + n):
        cand = peers[(idx + j) % n]
        if cand == rank or cand in out:
            continue
        out.append(cand)
        if len(out) >= copies:
            break
    return out


class PlacementPolicy:
    """Chooses the replica holders for one record.

    Subclasses set :attr:`name` and implement :meth:`replicas`.
    """

    name = "abstract"

    def replicas(self, key: Key, primary: str,
                 candidates: Sequence[str], k: int) -> List[str]:
        """Up to ``k - 1`` replica holders for ``key``.

        ``primary`` already holds the first copy; ``candidates`` is the
        sorted list of currently placeable node ids (the caller excludes
        ``primary``).  Returns fewer than ``k - 1`` nodes when the
        cluster is too small — the store records the deficit and the
        repair service closes it when capacity returns.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def _ring_successors(primary: str, candidates: Sequence[str],
                     want: int) -> List[str]:
    """First ``want`` candidates after ``primary`` in sorted ring order."""
    ring = sorted(candidates)
    if not ring or want <= 0:
        return []
    start = bisect_right(ring, primary)
    return [ring[(start + i) % len(ring)]
            for i in range(min(want, len(ring)))]


class RingPlacement(PlacementPolicy):
    """Successors of the primary on the sorted node-id ring."""

    name = "ring"

    def replicas(self, key: Key, primary: str,
                 candidates: Sequence[str], k: int) -> List[str]:
        return _ring_successors(primary,
                                [c for c in candidates if c != primary],
                                k - 1)


class RandomPlacement(PlacementPolicy):
    """A seeded shuffle per record (stream ``store.place``).

    Deterministic per master seed: each placement decision draws one
    permutation from the named stream, so two same-seed runs pick the
    same holders in the same order.
    """

    name = "random"

    def __init__(self, rng=None):
        #: ``numpy.random.Generator`` (an engine stream) or None, in
        #: which case the policy degrades to ring successors.
        self.rng = rng

    def replicas(self, key: Key, primary: str,
                 candidates: Sequence[str], k: int) -> List[str]:
        pool = sorted(c for c in candidates if c != primary)
        want = k - 1
        if want <= 0 or not pool:
            return []
        if self.rng is None:
            return _ring_successors(primary, pool, want)
        order = self.rng.permutation(len(pool))
        return [pool[i] for i in order[:want]]


class PartitionAwarePlacement(PlacementPolicy):
    """Ring placement over the nodes reachable from the primary.

    ``reachable(src, dst)`` is a probe into the data fabric (honoring
    any open network partition); unreachable candidates are never chosen,
    so a partitioned writer's replication deficit is visible immediately
    instead of being discovered by a failed transfer.
    """

    name = "partition-aware"

    def __init__(self, reachable: Optional[Callable[[str, str], bool]] = None):
        self.reachable = reachable

    def replicas(self, key: Key, primary: str,
                 candidates: Sequence[str], k: int) -> List[str]:
        pool = [c for c in candidates if c != primary
                and (self.reachable is None or self.reachable(primary, c))]
        return _ring_successors(primary, pool, k - 1)


def make_placement(name: str, *, rng=None,
                   reachable: Optional[Callable[[str, str], bool]] = None
                   ) -> PlacementPolicy:
    """Build a policy by registry name."""
    if name == "ring":
        return RingPlacement()
    if name == "random":
        return RandomPlacement(rng=rng)
    if name == "partition-aware":
        return PartitionAwarePlacement(reachable=reachable)
    raise CheckpointError(
        f"unknown placement policy {name!r} (known: {', '.join(POLICIES)})")
