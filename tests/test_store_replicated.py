"""The checkpoint store with a replication factor + RepairService: k
copies, honest availability."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.errors import NoCheckpoint
from repro.store import (REPAIR_BANDWIDTH, TIER_MEMORY, CheckpointRecord,
                         CheckpointStore, RepairService)


def _rec(app_id, rank, version, nbytes=20_000):
    return CheckpointRecord(app_id=app_id, rank=rank, version=version,
                            level="vm", nbytes=nbytes, image=b"x" * 8,
                            arch_name="test", taken_at=0.0)


def _build(nodes=5, seed=0, k=2, repair=False):
    cluster = Cluster.build(spec=ClusterSpec(nodes=nodes, seed=seed))
    store = CheckpointStore(cluster.engine, cluster, k=k)
    cluster.watchers.append(store.on_membership)
    if repair:
        store.repair = RepairService(cluster.engine, cluster, store)
    return cluster, store


def _write_all(cluster, store, app_id, ranks, version, nbytes=20_000):
    """Write one record per rank (rank r dumps through node n<r>)."""
    for rank in ranks:
        node = cluster.nodes[f"n{rank}"]
        cluster.engine.process(
            store.write(node, _rec(app_id, rank, version, nbytes)))
    cluster.engine.run()


def _drive(engine, gen, out):
    """Run a store read generator in a process, capturing result/error."""
    def runner():
        try:
            out["record"] = yield from gen
        except NoCheckpoint as exc:
            out["error"] = exc
    engine.process(runner())
    engine.run()


# ---------------------------------------------------------------------------
# replication fan-out and availability
# ---------------------------------------------------------------------------

def test_write_fans_out_to_k_holders():
    cluster, store = _build(nodes=5, k=3)
    _write_all(cluster, store, "app", range(3), 1)
    for rank in range(3):
        rec = store.peek("app", rank, 1)
        assert len(rec.all_holders()) == 3
        assert rec.all_holders()[0] == f"n{rank}"    # primary first
        assert len(set(rec.all_holders())) == 3
    assert store.replica_deficit() == 0


def test_small_cluster_caps_fanout_and_reports_deficit_honestly():
    cluster, store = _build(nodes=2, k=3)
    _write_all(cluster, store, "app", [0], 1)
    rec = store.peek("app", 0, 1)
    assert sorted(rec.all_holders()) == ["n0", "n1"]
    # target is min(k, up nodes) = 2: fully provisioned for this cluster
    assert store.replica_deficit() == 0


def test_crash_of_k_minus_1_holders_keeps_line_restorable():
    cluster, store = _build(nodes=5, k=2)
    _write_all(cluster, store, "app", range(3), 1)
    store.commit("app", 1)
    assert store.latest_restorable("app", range(3)) == 1
    # crash ANY single node: with k=2 the line must survive
    for victim in sorted(cluster.nodes):
        c2, s2 = _build(nodes=5, k=2)
        _write_all(c2, s2, "app", range(3), 1)
        s2.commit("app", 1)
        c2.crash_node(victim)
        assert s2.latest_restorable("app", range(3)) == 1, victim


def test_k1_guard_single_crash_loses_the_line():
    cluster, store = _build(nodes=5, k=1)
    _write_all(cluster, store, "app", range(3), 1)
    store.commit("app", 1)
    assert store.latest_restorable("app", range(3)) == 1
    cluster.crash_node("n1")            # the only holder of rank 1
    assert store.latest_restorable("app", range(3)) is None


def test_read_from_remote_replica_after_primary_crash():
    cluster, store = _build(nodes=4, k=2)
    _write_all(cluster, store, "app", [0], 1)
    cluster.crash_node("n0")            # primary gone; replica on n1
    out = {}
    _drive(cluster.engine,
           store.read(cluster.nodes["n2"], "app", 0, 1), out)
    assert out["record"].version == 1
    assert cluster.engine.metrics.value("store.replica.remote_reads") == 1


def test_read_with_no_reachable_replica_raises_nocheckpoint():
    cluster, store = _build(nodes=3, k=2)
    _write_all(cluster, store, "app", [0], 1)
    for holder in store.peek("app", 0, 1).all_holders():
        cluster.crash_node(holder)
    out = {}
    _drive(cluster.engine,
           store.read(cluster.nodes["n2"], "app", 0, 1), out)
    assert "no tier holds a reachable copy" in str(out["error"])


def test_partitioned_reader_cannot_count_remote_replicas():
    cluster, store = _build(nodes=5, k=2)
    _write_all(cluster, store, "app", [0], 1)   # holders n0, n1
    store.commit("app", 1)
    cluster.myrinet.set_partition(["n0", "n1"], ["n2", "n3", "n4"])
    assert store.latest_restorable("app", [0], from_node="n3") is None
    assert store.latest_restorable("app", [0], from_node="n0") == 1
    cluster.myrinet.clear_partition()
    assert store.latest_restorable("app", [0], from_node="n3") == 1


def test_partition_during_write_fails_replica_and_leaves_deficit():
    cluster, store = _build(nodes=4, k=2)
    # ring successor of n0 is n1 — unreachable during the write
    cluster.myrinet.set_partition(["n0", "n2", "n3"], ["n1"])
    _write_all(cluster, store, "app", [0], 1)
    rec = store.peek("app", 0, 1)
    assert rec.all_holders() == ["n0"]
    assert cluster.engine.metrics.value("store.replica.failed") == 1
    assert store.replica_deficit() == 1


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------

def test_repair_restores_replication_after_crash():
    cluster, store = _build(nodes=5, k=2, repair=True)
    _write_all(cluster, store, "app", range(3), 1)
    store.commit("app", 1)
    cluster.crash_node("n1")            # holder of (rank0 replica, rank1 prim)
    assert store.replica_deficit() > 0
    cluster.engine.run(until=cluster.engine.now + 5.0)
    assert store.replica_deficit() == 0
    status = store.repair.status()
    assert status["repaired"] >= 1 and status["failed"] == 0
    for rank in range(3):
        live = store.available_holders(store.peek("app", rank, 1))
        assert len(live) == 2, rank
    # the line stayed restorable throughout (k=2 contract)
    assert store.latest_restorable("app", range(3)) == 1


def test_repair_respects_bytes_per_second_budget():
    nbytes = 8_000_000                  # REPAIR_BANDWIDTH: >= 2 s per copy
    assert nbytes / REPAIR_BANDWIDTH >= 2.0
    cluster, store = _build(nodes=4, k=2, repair=True)
    _write_all(cluster, store, "app", [0], 1, nbytes=nbytes)
    t0 = cluster.engine.now
    cluster.crash_node("n1")            # the replica holder
    cluster.engine.run(until=t0 + 1.5)  # well before nbytes/budget elapses
    assert store.repair.status()["repaired"] == 0
    cluster.engine.run(until=t0 + 6.0)
    assert store.repair.status()["repaired"] == 1
    assert store.replica_deficit() == 0


def test_repair_after_partition_heals():
    cluster, store = _build(nodes=4, k=2, repair=True)
    cluster.myrinet.set_partition(["n0", "n2", "n3"], ["n1"])
    _write_all(cluster, store, "app", [0], 1)
    assert store.replica_deficit() == 1
    cluster.myrinet.clear_partition()
    store.repair.kick(reason="heal")
    cluster.engine.run(until=cluster.engine.now + 3.0)
    assert store.replica_deficit() == 0
    assert len(store.peek("app", 0, 1).all_holders()) == 2


def test_node_removal_drops_disk_holders_and_repairs():
    cluster, store = _build(nodes=5, k=2, repair=True)
    _write_all(cluster, store, "app", [0], 1)   # holders n0, n1
    cluster.remove_node("n1")
    rec = store.peek("app", 0, 1)
    assert "n1" not in rec.all_holders()        # disk left for good
    cluster.engine.run(until=cluster.engine.now + 3.0)
    assert len(store.peek("app", 0, 1).all_holders()) == 2


# ---------------------------------------------------------------------------
# satellite (a): GC vs concurrent restart read
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [None, 2], ids=["stable", "replicated"])
def test_gc_cannot_collect_a_version_mid_read(k):
    cluster = Cluster.build(spec=ClusterSpec(nodes=3, seed=0))
    engine = cluster.engine
    store = CheckpointStore(engine, cluster, k=k)
    node = cluster.nodes["n0"]
    for v in (1, 2, 3):
        engine.process(store.write(node, _rec("app", 0, v, nbytes=500_000)))
        engine.run()
        store.commit("app", v)
    out = {}

    def reader():
        out["record"] = yield from store.read(node, "app", 0, 1)
    engine.process(reader())
    engine.run(until=engine.now + 1e-4)     # inside the disk read: pinned
    assert store._pins.get(("app", 0, 1))
    removed = store.gc_committed("app", keep=1)
    # v2 is collectable now; the pinned v1 must survive until the read ends
    assert not store.has("app", 0, 2) and removed >= 1
    assert store.has("app", 0, 1)
    engine.run()
    assert out["record"].version == 1       # reader got its record
    assert not store.has("app", 0, 1)       # deferred GC swept it at unpin


# ---------------------------------------------------------------------------
# satellite (b): crash -> volatile-copy drop is atomic
# ---------------------------------------------------------------------------

def test_crashed_holder_volatile_copy_never_counts_restorable():
    cluster = Cluster.build(spec=ClusterSpec(nodes=3, seed=0))
    store = CheckpointStore(cluster.engine, cluster)
    rec = _rec("app", 0, 1)
    store.write_tier(rec, TIER_MEMORY, "n1")
    store.commit("app", 1)
    assert store.latest_restorable("app", [0]) == 1
    # crash the node directly — NO watcher runs, drop_copies not called
    cluster.nodes["n1"].crash()
    assert store.has("app", 0, 1)           # record still registered, but
    assert not store.record_available("app", 0, 1)
    assert store.latest_restorable("app", [0]) is None


def test_remove_node_notifies_crash_then_remove_same_instant():
    cluster = Cluster.build(spec=ClusterSpec(nodes=3, seed=0))
    events = []
    cluster.watchers.append(lambda nid, ev: events.append((nid, ev)))
    cluster.remove_node("n2")
    assert events == [("n2", "crash"), ("n2", "remove")]
