"""Diskless (fast-network buddy) checkpointing — the §7 future-work
protocol."""

import pytest

from repro.apps import ComputeSleep, Jacobi1D
from repro.ckpt.protocols import DisklessProtocol, make_protocol
from repro.core import AppSpec, CheckpointConfig, FaultPolicy, StarfishCluster
from repro.store import TIER_MEMORY


def submit_diskless(sf, nprocs=3, steps=80, state_bytes=2_000_000,
                    interval=0.5):
    return sf.submit(AppSpec(
        program=ComputeSleep, nprocs=nprocs,
        params={"steps": steps, "step_time": 0.05,
                "state_bytes": state_bytes},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="diskless", level="vm",
                                    interval=interval),
        placement={r: f"n{r}" for r in range(nprocs)}))


def test_factory_knows_diskless():
    assert isinstance(make_protocol("diskless"), DisklessProtocol)


def test_records_live_in_buddy_memory_not_disk():
    sf = StarfishCluster.build(nodes=3)
    handle = submit_diskless(sf)
    sf.engine.run(until=sf.engine.now + 1.3)
    version = sf.store.latest_committed(handle.app_id)
    assert version is not None
    disk_bytes = sum(n.disk.bytes_written for n in sf.cluster.nodes.values())
    assert disk_bytes == 0                       # no disk involved
    for rank in range(3):
        rec = sf.store.peek(handle.app_id, rank, version)
        assert rec.tier == TIER_MEMORY
        assert len(rec.all_holders()) == 2       # double mirroring
        assert f"n{rank}" not in rec.all_holders()  # both copies off-node


def test_rotating_buddies_across_versions():
    # With 4 ranks the two mirror targets rotate with the version, so
    # consecutive lines are not held by the same pair of nodes.
    sf = StarfishCluster.build(nodes=4)
    handle = submit_diskless(sf, nprocs=4, interval=0.4)
    sf.engine.run(until=sf.engine.now + 1.6)
    versions = sf.store.committed_versions(handle.app_id)
    assert len(versions) >= 2
    v1, v2 = versions[-2], versions[-1]
    h1 = set(sf.store.peek(handle.app_id, 0, v1).all_holders())
    h2 = set(sf.store.peek(handle.app_id, 0, v2).all_holders())
    assert h1 != h2                              # rotation


def test_diskless_checkpoint_much_faster_than_disk():
    def wave_duration(protocol):
        sf = StarfishCluster.build(nodes=2)
        handle = sf.submit(AppSpec(
            program=ComputeSleep, nprocs=2,
            params={"steps": 10**6, "step_time": 0.01,
                    "state_bytes": 8_000_000},
            ft_policy=FaultPolicy.RESTART,
            checkpoint=CheckpointConfig(protocol=protocol, level="native")))
        sf.engine.run(until=sf.engine.now + 1.0)
        proto = None
        for d in sf.live_daemons():
            for (aid, rank), h in d.handles.items():
                if aid == handle.app_id and rank == 0:
                    proto = h.protocol
        ev = proto.request_checkpoint()
        t0 = sf.engine.now
        sf.engine.run(until=ev)
        return sf.engine.now - t0

    disk = wave_duration("stop-and-sync")
    diskless = wave_duration("diskless")
    assert diskless < disk / 3


def test_crash_recovers_from_surviving_line():
    sf = StarfishCluster.build(nodes=3)
    handle = submit_diskless(sf, steps=60)
    sf.engine.run(until=sf.engine.now + 1.8)
    assert len(sf.store.committed_versions(handle.app_id)) >= 2
    victim = handle._record().placement[2]
    sf.crash_node(victim)
    results = sf.run_to_completion(handle, timeout=600)
    assert results == {0: 60, 1: 60, 2: 60}
    assert handle.restarts == 1


def test_crash_invalidates_held_copies_but_mirrors_survive():
    sf = StarfishCluster.build(nodes=3)
    handle = submit_diskless(sf)
    sf.engine.run(until=sf.engine.now + 1.3)
    version = sf.store.latest_committed(handle.app_id)
    held = [r for r in range(3)
            if "n2" in sf.store.peek(handle.app_id, r, version).all_holders()]
    assert held
    sf.cluster.crash_node("n2")
    # The mirror on the surviving node keeps every record alive...
    for rank in held:
        rec = sf.store.peek(handle.app_id, rank, version)
        assert "n2" not in rec.all_holders()
        assert sf.store.available_holders(rec)    # at least one copy left
    # ...so the newest line is still fully restorable after one crash.
    assert sf.store.latest_restorable(handle.app_id, range(3)) == version


def test_latest_restorable_falls_back_past_wiped_line():
    # Pure-store scenario: version 2 of rank 1 lost all copies (e.g. two
    # crashes); recovery falls back to version 1, which is intact.
    from repro.store import CheckpointRecord, CheckpointStore
    store = CheckpointStore(None)
    for version in (1, 2):
        for rank in range(2):
            rec = CheckpointRecord(app_id="a", rank=rank, version=version,
                                   level="vm", nbytes=10, image=b"",
                                   arch_name="x", taken_at=0.0)
            store.write_tier(rec, TIER_MEMORY, f"h{version}{rank}a")
            store.write_tier(rec, TIER_MEMORY, f"h{version}{rank}b")
        store.commit("a", version)
    assert store.latest_restorable("a", range(2)) == 2
    store.drop_copies("h21a")
    assert store.latest_restorable("a", range(2)) == 2   # mirror survives
    store.drop_copies("h21b")                           # both copies gone
    assert store.latest_restorable("a", range(2)) == 1
    store.drop_copies("h10a")
    store.drop_copies("h10b")
    assert store.latest_restorable("a", range(2)) is None


def test_diskless_works_for_tightly_coupled_apps():
    sf = StarfishCluster.build(nodes=4)
    handle = sf.submit(AppSpec(
        program=Jacobi1D, nprocs=4,
        params={"n": 256, "iterations": 500, "iters_per_step": 10,
                "compute_ns_per_cell": 200_000},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="diskless", level="vm",
                                    interval=1.0)))
    sf.engine.run(until=sf.engine.now + 3.0)
    sf.crash_node(handle._record().placement[3])
    results = sf.run_to_completion(handle, timeout=600)
    assert results[0][0] == 500
    assert handle.restarts == 1


def test_singleton_app_keeps_local_memory_copy():
    sf = StarfishCluster.build(nodes=1)
    handle = sf.submit(AppSpec(
        program=ComputeSleep, nprocs=1,
        params={"steps": 40, "step_time": 0.02},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="diskless", level="vm",
                                    interval=0.3)))
    sf.engine.run(until=sf.engine.now + 1.0)
    version = sf.store.latest_committed(handle.app_id)
    rec = sf.store.peek(handle.app_id, 0, version)
    assert rec.tier == TIER_MEMORY
    assert sf.store.available_holders(rec) == ["n0"]
    sf.run_to_completion(handle, timeout=120)
