"""Replica placement: one ring rule, and the diskless mirror rule.

:func:`ring_successors` answers one question: given a copy's primary
holder and the currently placeable nodes, which other nodes hold the
extra copies?  The answer is the primary's successors on the sorted
node-id ring — the classic consistent-placement rule (cheap, no state,
and a single crash only un-replicates the records whose primary or
successor it was).  It is deterministic, so replica maps are a pure
function of the cluster and campaign reports stay byte-identical across
same-seed runs.  The checkpoint store's writes and repairs, the fleet
scheduler and active replication's backup placement all use it.

:func:`rotating_mirrors` is the version-rotating mirror rule the diskless
protocol has always used (buddy of rank *i* at version *v* among *n*
live peers starts at stride ``1 + (v-1) mod (n-1)``), extracted here so
the protocol is a thin client of ``repro.store`` — generalized to any
copy count while reproducing the historical two-mirror choice exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Sequence


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


def ring_successors(primary: str, candidates: Sequence[str],
                    want: int) -> List[str]:
    """Up to ``want`` replica holders for a copy whose primary is
    ``primary``: the first candidates after it on the sorted node-id ring
    (``primary`` itself is never picked).

    Fewer come back when the cluster is too small — the store records the
    deficit and the repair service closes it when capacity returns.
    """
    ring = sorted([c for c in candidates if c != primary])
    if not ring or want <= 0:
        return []
    start = bisect_right(ring, primary)
    return [ring[(start + i) % len(ring)]
            for i in range(min(want, len(ring)))]
