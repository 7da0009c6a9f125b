"""Local checkpointers, storage, and timing model unit tests."""

import numpy as np
import pytest

from repro.calibration import (NATIVE_DISK_BANDWIDTH, NATIVE_EMPTY_IMAGE,
                               VM_DUMP_BANDWIDTH, VM_EMPTY_IMAGE,
                               native_checkpoint_time, vm_checkpoint_time)
from repro.ckpt import (NativeCheckpointer, VmCheckpointer,
                        make_checkpointer)
from repro.cluster import Cluster, arch_by_name
from repro.errors import CheckpointError, NoCheckpoint
from repro.store import CheckpointRecord, CheckpointStore

LINUX = arch_by_name("Intel P-II 350 MHz, i686")
SUN = arch_by_name("Sun Ultra Enterprise 3000")
WINNT = arch_by_name("Intel P-II, 350 MHz")

STATE = {"iter": 42, "grid": np.ones(100), "label": "x"}


def test_factory():
    assert isinstance(make_checkpointer("native"), NativeCheckpointer)
    assert isinstance(make_checkpointer("vm"), VmCheckpointer)
    with pytest.raises(CheckpointError):
        make_checkpointer("quantum")


def test_native_empty_image_size_matches_paper():
    image, nbytes = NativeCheckpointer().capture({}, LINUX)
    # 632 KB for an "empty" program, plus a sliver for the empty dict.
    assert nbytes == pytest.approx(NATIVE_EMPTY_IMAGE, rel=0.01)


def test_vm_empty_image_size_matches_paper():
    _, nbytes = VmCheckpointer().capture({}, LINUX)
    assert nbytes == pytest.approx(VM_EMPTY_IMAGE, rel=0.01)


def test_native_roundtrip_same_representation():
    ck = NativeCheckpointer()
    image, nbytes = ck.capture(STATE, LINUX)
    state, extra = ck.restore(image, nbytes, WINNT)  # same repr as LINUX
    assert extra == 0.0
    assert state["iter"] == 42
    assert np.array_equal(state["grid"], STATE["grid"])


def test_native_rejects_cross_representation_restore():
    ck = NativeCheckpointer()
    image, nbytes = ck.capture(STATE, LINUX)
    with pytest.raises(CheckpointError, match="heterogeneous"):
        ck.restore(image, nbytes, SUN)


def test_native_capture_is_deep_copy():
    ck = NativeCheckpointer()
    state = {"xs": [1, 2, 3]}
    image, _ = ck.capture(state, LINUX)
    state["xs"].append(4)
    restored, _ = ck.restore(image, 0, LINUX)
    assert restored["xs"] == [1, 2, 3]


def test_vm_roundtrip_cross_representation_charges_conversion():
    ck = VmCheckpointer()
    image, nbytes = ck.capture(STATE, LINUX)
    state, extra = ck.restore(image, nbytes, SUN)
    assert extra > 0.0
    assert np.array_equal(state["grid"], STATE["grid"])
    # Same representation: no conversion cost.
    _, extra_same = ck.restore(image, nbytes, WINNT)
    assert extra_same == 0.0


def test_vm_image_smaller_than_native_for_same_state():
    big = {"grid": np.zeros(200_000, dtype=np.float64)}
    _, n_native = NativeCheckpointer().capture(big, LINUX)
    _, n_vm = VmCheckpointer().capture(big, LINUX)
    assert n_vm < n_native


def test_store_write_read_cycle():
    cluster = Cluster.build(nodes=1)
    store = CheckpointStore(cluster.engine)
    node = cluster.node("n0")
    rec = CheckpointRecord(app_id="a", rank=0, version=1, level="native",
                           nbytes=1000, image=("native-image", LINUX.name,
                                               {"x": 1}),
                           arch_name=LINUX.name, taken_at=0.0)

    def writer():
        yield from store.write(node, rec)
        got = yield from store.read(node, "a", 0, 1)
        return got

    out = cluster.engine.run(cluster.engine.process(writer()))
    assert out is rec
    assert cluster.engine.metrics.value("ckpt.store.writes") == 1
    assert cluster.engine.metrics.value("ckpt.store.reads") == 1


def test_store_missing_checkpoint_raises():
    cluster = Cluster.build(nodes=1)
    store = CheckpointStore(cluster.engine)
    with pytest.raises(NoCheckpoint):
        store.peek("ghost", 0, 0)


def test_store_commit_tracking():
    store = CheckpointStore(None)
    assert store.latest_committed("a") is None
    store.commit("a", 1)
    store.commit("a", 2)
    assert store.latest_committed("a") == 2
    assert store.committed_versions("a") == [1, 2]


def test_store_drop_app():
    """drop_app forgets everything keyed by the app.  Regression: it left
    the GC floor, read pins and the delta base cache behind, so a
    resubmitted app with the same id had its fresh v1 swept by the first
    read's unpin (stale floor 5)."""
    cluster = Cluster.build(nodes=1)
    engine, node = cluster.engine, cluster.node("n0")
    store = CheckpointStore(engine, cluster, tiers=("disk",), delta_depth=2)

    def dump(version):
        rec = CheckpointRecord(app_id="a", rank=0, version=version,
                               level="vm", nbytes=4096,
                               image=bytes([version]) * 4096,
                               arch_name="x", taken_at=float(version))
        engine.run(engine.process(store.write(node, rec)))
        store.commit("a", version)

    for version in range(1, 6):
        dump(version)
    store.gc_committed("a")
    assert store._base_cache and store._gc_floor == {"a": 5}
    store.drop_app("a")
    assert not store.has("a", 0, 5)
    assert store.latest_committed("a") is None
    assert not store._base_cache and not store._chain_len
    assert not store._gc_floor and not store._pins

    dump(1)                                   # same app id, resubmitted
    got = engine.run(engine.process(store.read(node, "a", 0, 1)))
    assert got.image == bytes([1]) * 4096
    assert store.has("a", 0, 1)               # the read kept the record
    assert store.latest_restorable("a", [0]) == 1


def test_write_time_follows_level_bandwidth():
    cluster = Cluster.build(nodes=1)
    store = CheckpointStore(cluster.engine)
    node = cluster.node("n0")
    rec = CheckpointRecord(app_id="a", rank=0, version=1, level="vm",
                           nbytes=int(VM_DUMP_BANDWIDTH), image=b"",
                           arch_name="x", taken_at=0.0)

    def writer():
        t0 = cluster.engine.now
        yield from store.write(node, rec, bandwidth=VM_DUMP_BANDWIDTH)
        return cluster.engine.now - t0

    assert cluster.engine.run(cluster.engine.process(writer())) == \
        pytest.approx(1.0)


# ---------------------------------------------------------------------------
# the closed-form timing model hits the paper's anchors exactly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nodes,expected", [(1, 0.104061), (2, 0.131898),
                                            (4, 0.149219)])
def test_fig3_model_anchors(nodes, expected):
    assert native_checkpoint_time(0, nodes) == pytest.approx(expected)


@pytest.mark.parametrize("nodes,expected", [(1, 0.0077), (2, 0.0205),
                                            (4, 0.052)])
def test_fig4_model_anchors(nodes, expected):
    assert vm_checkpoint_time(0, nodes) == pytest.approx(expected)


def test_models_grow_linearly_in_payload():
    for fn in (native_checkpoint_time, vm_checkpoint_time):
        t1 = fn(10_000_000, 2)
        t2 = fn(20_000_000, 2)
        t3 = fn(30_000_000, 2)
        assert t2 - t1 == pytest.approx(t3 - t2)
        assert t2 > t1
