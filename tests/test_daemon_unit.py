"""Daemon-internals unit tests: registry, placement, state transfer, GC."""

import pytest

from repro.apps import ComputeSleep
from repro.store import CheckpointRecord, CheckpointStore
from repro.ckpt.restart import (RestartInputs, RestartMode, StoredVersion,
                                plan_restart)
from repro.cluster import arch_by_name
from repro.core import AppSpec, CheckpointConfig, FaultPolicy, StarfishCluster
from repro.daemon import AppRecord, AppStatus, Registry
from repro.daemon.registry import SPEC_FIELDS
from repro.errors import DaemonError, PlacementError, UnknownApplication


def make_record(app_id="a", **kw):
    defaults = dict(owner="u", nprocs=2, program=ComputeSleep, params={},
                    ft_policy="kill", ckpt_protocol=None, ckpt_level="vm",
                    ckpt_interval=None, transport="bip-myrinet",
                    polling=True, placement={0: "n0", 1: "n1"})
    defaults.update(kw)
    spec = {name: defaults.pop(name) for name in SPEC_FIELDS}
    return AppRecord(app_id=app_id, spec=spec, **defaults)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_crud():
    reg = Registry()
    rec = make_record()
    reg.add(rec)
    assert reg.get("a") is rec
    assert "a" in reg and len(reg) == 1
    assert reg.maybe("nope") is None
    with pytest.raises(UnknownApplication):
        reg.get("nope")
    reg.remove("a")
    assert "a" not in reg


def test_record_helpers():
    rec = make_record(placement={0: "n0", 1: "n1", 2: "n0"})
    assert rec.ranks_on("n0") == [0, 2]
    assert rec.nodes() == ["n0", "n1"]
    assert not rec.finished
    rec.status = AppStatus.DONE
    assert rec.finished


def test_registry_active_filters_finished():
    reg = Registry()
    reg.add(make_record("a"))
    done = make_record("b")
    done.status = AppStatus.KILLED
    reg.add(done)
    assert [r.app_id for r in reg.active()] == ["a"]
    assert [r.app_id for r in reg.all()] == ["a", "b"]


def test_registry_active_scans_only_unfinished_records(monkeypatch):
    # The daemon heartbeat calls active(): it must cost the running apps,
    # not every app ever submitted, and keep the sorted-app_id order that
    # _on_main_view, _pick_nodes and heartbeat() iterate in.
    reg = Registry()
    ids = [f"job{i:03d}" for i in range(203)]
    for app_id in reversed(ids):                # added out of order
        reg.add(make_record(app_id))
    live = {"job007", "job100", "job202"}
    for app_id in ids:
        if app_id not in live:
            reg.get(app_id).status = AppStatus.DONE
    assert [r.app_id for r in reg.active()] == sorted(live)   # prunes
    reads = []
    finished = AppRecord.finished.fget
    monkeypatch.setattr(AppRecord, "finished", property(
        lambda rec: reads.append(rec.app_id) or finished(rec)))
    assert [r.app_id for r in reg.active()] == sorted(live)
    assert reads == sorted(live)
    # Removal and re-submission under the same id (DELETE, then SUBMIT).
    reg.remove("job100")
    reg.add(make_record("job100"))
    reg.add(make_record("job050"))
    assert [r.app_id for r in reg.active()] == [
        "job007", "job050", "job100", "job202"]
    assert len(reg.all()) == 203


def test_record_blob_roundtrip():
    from repro.daemon.daemon import StarfishDaemon
    rec = make_record(ckpt_protocol="stop-and-sync", ckpt_interval=2.0)
    rec.results = {0: 13}
    rec.done_ranks = [0]
    rec.restarts = 3
    back = StarfishDaemon._record_from_blob(StarfishDaemon._record_blob(rec))
    assert back.app_id == rec.app_id
    assert back.placement == rec.placement
    assert back.ckpt_protocol == "stop-and-sync"
    assert back.results == {0: 13}
    assert back.restarts == 3
    assert back.status is rec.status


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------

def test_pick_nodes_prefers_least_loaded():
    sf = StarfishCluster.build(nodes=3)
    daemon = sf.any_daemon()
    sf.submit(AppSpec(program=ComputeSleep, nprocs=2,
                      params={"steps": 1000, "step_time": 0.05},
                      placement={0: "n0", 1: "n1"}))
    sf.engine.run(until=sf.engine.now + 0.5)
    assert daemon._pick_nodes(1) == ["n2"]
    # Round-robin when demand exceeds nodes.
    picks = daemon._pick_nodes(5)
    assert len(picks) == 5 and set(picks) == {"n0", "n1", "n2"}


def test_restart_placement_representation_filter():
    # A native-level image restores only on the representation that wrote
    # it: four ranks lost with n0, each with a stored image of ``image``.
    linux = arch_by_name("Intel P-II 350 MHz, i686")
    sun = arch_by_name("Sun Ultra Enterprise 3000")
    archs = {"n0": linux, "n1": sun, "n2": linux}

    def placed(image):
        return plan_restart(RestartInputs(
            mode=RestartMode.LOG_REPLAY, lost=(0, 1, 2, 3),
            alive=frozenset({"n1", "n2"}), placement=dict.fromkeys(
                range(4), "n0"), level="native",
            stored=dict.fromkeys(range(4), (StoredVersion(1, True,
                                                          image.name),)),
            load={"n1": 0, "n2": 0}, archs=archs)).placement

    assert set(placed(sun).values()) == {"n1"}
    with pytest.raises(PlacementError):
        placed(arch_by_name("Dual Alpha DS20 500 MHz"))


def test_submit_rejects_duplicates_and_bad_nprocs():
    sf = StarfishCluster.build(nodes=2)
    daemon = sf.any_daemon()
    daemon.submit("x", AppSpec(program=ComputeSleep, nprocs=1))
    with pytest.raises(DaemonError):
        daemon.submit("x", AppSpec(program=ComputeSleep, nprocs=1))
    with pytest.raises(DaemonError):
        daemon.submit("y", AppSpec(program=ComputeSleep, nprocs=0))


@pytest.mark.parametrize("interval", [0, 0.0, -1.0, float("inf"),
                                      float("nan")])
def test_checkpoint_interval_must_be_finite_and_positive(interval):
    # Parent: 0 wedged the run (the self-paced ticker looped on timeout(0)
    # at one instant) and -1 silently disabled checkpointing.
    with pytest.raises(DaemonError, match="interval"):
        CheckpointConfig(protocol="uncoordinated", interval=interval)
    assert CheckpointConfig(protocol="uncoordinated",
                            interval=0.1).interval == 0.1
    assert CheckpointConfig(protocol="uncoordinated").interval is None


# ---------------------------------------------------------------------------
# state transfer to a daemon joining later
# ---------------------------------------------------------------------------

def test_new_daemon_absorbs_registry_and_config():
    sf = StarfishCluster.build(nodes=2)
    handle = sf.submit(AppSpec(program=ComputeSleep, nprocs=1,
                               params={"steps": 1000, "step_time": 0.05}))
    sf.any_daemon().gm.cast(("cfg-set", "quantum", "7ms"))
    sf.engine.run(until=sf.engine.now + 1.0)
    late = sf.add_node("n9")
    sf.settle()
    assert late.registry.maybe(handle.app_id) is not None
    assert late.config.get("quantum") == "7ms"


# ---------------------------------------------------------------------------
# checkpoint garbage collection
# ---------------------------------------------------------------------------

def test_gc_committed_keeps_last_k():
    store = CheckpointStore(None)
    for v in range(1, 6):
        for rank in range(2):
            store._records[("a", rank, v)] = CheckpointRecord(
                app_id="a", rank=rank, version=v, level="vm", nbytes=1,
                image=b"", arch_name="x", taken_at=0.0)
        store.commit("a", v)
    removed = store.gc_committed("a", keep=2)
    assert removed == 6              # versions 1..3 x 2 ranks
    assert store.committed_versions("a") == [4, 5]
    assert store.versions_of("a", 0) == [4, 5]
    # Idempotent.
    assert store.gc_committed("a", keep=2) == 0


def test_gc_noop_cases():
    store = CheckpointStore(None)
    assert store.gc_committed("ghost") == 0
    store.commit("a", 1)
    assert store.gc_committed("a", keep=1) == 0   # only one committed
    assert store.gc_committed("a", keep=0) == 0   # invalid keep


def test_periodic_checkpoints_get_gced_live():
    sf = StarfishCluster.build(nodes=2)
    handle = sf.submit(AppSpec(
        program=ComputeSleep, nprocs=2,
        params={"steps": 200, "step_time": 0.02},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="stop-and-sync", level="vm",
                                    interval=0.4)))
    sf.engine.run(until=sf.engine.now + 3.0)
    committed = sf.store.committed_versions(handle.app_id)
    assert len(committed) == 2           # keep=2 enforced by the protocol
    # And recovery still works from what is left.
    sf.crash_node(handle._record().placement[1])
    results = sf.run_to_completion(handle, timeout=300)
    assert results == {0: 200, 1: 200}


def test_daemon_log_records_lifecycle():
    sf = StarfishCluster.build(nodes=2)
    handle = sf.submit(AppSpec(program=ComputeSleep, nprocs=1,
                               params={"steps": 2, "step_time": 0.01}))
    sf.run_to_completion(handle)
    lines = [msg for _t, msg in sf.any_daemon().log]
    assert any("submit" in line for line in lines)
    assert any("done" in line for line in lines)
