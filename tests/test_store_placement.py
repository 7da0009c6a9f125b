"""Placement policies of the replicated checkpoint store."""

import pytest

from repro.cluster.spec import ClusterSpec
from repro.errors import CheckpointError
from repro.sim.engine import Engine
from repro.store import (PartitionAwarePlacement, RandomPlacement,
                         RingPlacement, make_placement, rotating_mirrors)


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
    ring = RingPlacement()
    cands = ["n0", "n1", "n3", "n4"]
    assert ring.replicas(("a", 0, 1), "n2", cands, 2) == ["n3"]
    assert ring.replicas(("a", 0, 1), "n2", cands, 3) == ["n3", "n4"]
    # wrap past the end of the ring
    assert ring.replicas(("a", 0, 1), "n4", ["n0", "n1", "n2"], 2) == ["n0"]
    # k=1 means no extra copies; tiny cluster caps the answer
    assert ring.replicas(("a", 0, 1), "n0", ["n1"], 1) == []
    assert ring.replicas(("a", 0, 1), "n0", ["n1"], 4) == ["n1"]


def test_random_placement_is_seed_deterministic():
    cands = [f"n{i}" for i in range(8)]

    def picks(seed):
        rng = Engine(seed=seed).rng.stream("store.place")
        pol = RandomPlacement(rng=rng)
        return [pol.replicas(("a", r, 1), "n8", cands, 3) for r in range(6)]

    first = picks(11)
    assert picks(11) == first                       # same seed, same choices
    assert picks(12) != first                       # different stream
    assert all(len(p) == 2 and "n8" not in p for p in first)
    # without an rng it degrades to the ring rule
    assert RandomPlacement().replicas(("a", 0, 1), "n2", cands, 2) == ["n3"]


def test_partition_aware_placement_filters_unreachable():
    reach = lambda src, dst: dst != "n2"
    pol = PartitionAwarePlacement(reachable=reach)
    cands = ["n0", "n2", "n3"]
    assert pol.replicas(("a", 0, 1), "n1", cands, 3) == ["n3", "n0"]
    # no probe: behaves like ring
    assert PartitionAwarePlacement().replicas(("a", 0, 1), "n1",
                                              cands, 2) == ["n2"]


def test_make_placement_registry():
    assert make_placement("ring").name == "ring"
    assert make_placement("random").name == "random"
    assert make_placement("partition-aware").name == "partition-aware"
    with pytest.raises(CheckpointError, match="unknown placement policy"):
        make_placement("rack-aware")


def test_cluster_spec_store_field_validation():
    spec = ClusterSpec(replication_factor=3, placement_policy="random",
                       repair_bandwidth=1e6)
    assert spec.replication_factor == 3
    assert ClusterSpec().replication_factor is None
    with pytest.raises(ValueError):
        ClusterSpec(replication_factor=0)
    with pytest.raises(ValueError):
        ClusterSpec(placement_policy="nope")
    with pytest.raises(ValueError):
        ClusterSpec(repair_bandwidth=0.0)
