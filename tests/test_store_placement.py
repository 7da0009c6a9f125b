"""Replica placement of the checkpoint store: the ring rule and the
diskless mirror rule."""

import pytest

from repro.cluster.spec import ClusterSpec
from repro.store import ring_successors, rotating_mirrors


def _legacy_buddies(peers, rank, version):
    """The historical diskless mirror rule, verbatim (pre-extraction)."""
    peers = sorted(peers)
    if len(peers) < 2:
        return []
    idx = peers.index(rank)
    stride = 1 + (version - 1) % (len(peers) - 1)
    first = peers[(idx + stride) % len(peers)]
    out = [first]
    if len(peers) > 2:
        second = peers[(idx + stride + 1) % len(peers)]
        if second == rank:
            second = peers[(idx + stride + 2) % len(peers)]
        if second != first:
            out.append(second)
    return out


def test_rotating_mirrors_reproduces_legacy_diskless_choice():
    for n in (2, 3, 4, 5, 7, 9):
        peers = list(range(n))
        for rank in peers:
            for version in range(1, 3 * n):
                assert rotating_mirrors(peers, rank, version) == \
                    _legacy_buddies(peers, rank, version), \
                    f"n={n} rank={rank} v={version}"


def test_rotating_mirrors_edges():
    assert rotating_mirrors([3], 3, 1) == []
    assert rotating_mirrors([1, 2], 1, 5, copies=0) == []
    # copies beyond the ring: every other peer, self excluded, no dupes.
    out = rotating_mirrors([0, 1, 2, 3], 2, 2, copies=10)
    assert sorted(out) == [0, 1, 3] and 2 not in out
    # unsorted input is normalized.
    assert rotating_mirrors([4, 0, 2], 0, 1) == rotating_mirrors([0, 2, 4],
                                                                 0, 1)


def test_rotating_mirrors_consecutive_versions_rotate():
    peers = list(range(5))
    for rank in peers:
        sets = [tuple(rotating_mirrors(peers, rank, v)) for v in (1, 2, 3)]
        assert len(set(sets)) == 3


def test_ring_placement_successors_and_wrap():
    cands = ["n0", "n1", "n3", "n4"]
    assert ring_successors("n2", cands, 1) == ["n3"]
    assert ring_successors("n2", cands, 2) == ["n3", "n4"]
    # wrap past the end of the ring
    assert ring_successors("n4", ["n0", "n1", "n2"], 1) == ["n0"]
    # no extra copies wanted; a tiny cluster caps the answer
    assert ring_successors("n0", ["n1"], 0) == []
    assert ring_successors("n0", ["n1"], 3) == ["n1"]
    # the primary is never its own replica, whether or not it is listed
    assert ring_successors("n1", ["n0", "n1", "n2"], 2) == ["n2", "n0"]


def test_cluster_spec_store_field_validation():
    spec = ClusterSpec(replication_factor=3)
    assert spec.replication_factor == 3
    assert ClusterSpec().replication_factor is None
    with pytest.raises(ValueError):
        ClusterSpec(replication_factor=0)
