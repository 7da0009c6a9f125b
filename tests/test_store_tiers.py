"""The checkpoint store over explicit tiers: L1/L2/L3 failover, delta
chains, configuration plumbing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec
from repro.errors import NoCheckpoint
from repro.store import (TIER_DISK, TIER_FABRIC, TIER_MEMORY, TIER_ORDER,
                         WRITE_BACK, CheckpointRecord, CheckpointStore,
                         Delta, delta_apply, delta_encode, normalize_tiers,
                         squash)


def _rec(app_id, rank, version, image=b"x" * 2048, taken_at=0.0):
    return CheckpointRecord(app_id=app_id, rank=rank, version=version,
                            level="vm", nbytes=max(len(image), 1),
                            image=image, arch_name="test", taken_at=taken_at)


def _build(nodes=5, seed=0, tiers=TIER_ORDER, k=2, delta_depth=0,
           promotion="write-through"):
    cluster = Cluster.build(spec=ClusterSpec(nodes=nodes, seed=seed))
    store = CheckpointStore(cluster.engine, cluster, tiers=tiers, k=k,
                            delta_depth=delta_depth, promotion=promotion)
    cluster.watchers.append(store.on_membership)
    return cluster, store


def _write(cluster, store, rec, node="n0"):
    cluster.engine.process(store.write(cluster.nodes[node], rec))
    cluster.engine.run()


def _read(cluster, store, app_id, rank, version, from_node="n4"):
    out = {}

    def runner():
        try:
            out["record"] = yield from store.read(
                cluster.nodes[from_node], app_id, rank, version)
        except NoCheckpoint as exc:
            out["error"] = exc
    cluster.engine.process(runner())
    cluster.engine.run()
    return out


# ---------------------------------------------------------------------------
# tier-failover matrix: shrink-to-fit recovery, fastest tier first
# ---------------------------------------------------------------------------

def test_write_through_populates_every_tier():
    cluster, store = _build(nodes=6, k=2)
    _write(cluster, store, _rec("app", 0, 1))
    rec = store.peek("app", 0, 1)
    by_tier = store.available_by_tier(rec)
    assert len(by_tier[TIER_MEMORY]) == 2       # k full partner copies
    assert "n0" not in by_tier[TIER_MEMORY]     # writer's RAM doesn't count
    assert by_tier[TIER_DISK] == ["n0"]         # local disk
    assert len(by_tier[TIER_FABRIC]) == 1       # k-1 remote disks
    assert "n0" not in by_tier[TIER_FABRIC]


def test_failover_l1_partner_crash_restores_from_l2_disk():
    cluster, store = _build(nodes=6, k=2)
    _write(cluster, store, _rec("app", 0, 1))
    store.commit("app", 1)
    rec = store.peek("app", 0, 1)
    for holder in list(rec.holders[TIER_MEMORY]):
        cluster.crash_node(holder)
    by_tier = store.available_by_tier(rec)
    assert by_tier.get(TIER_MEMORY, []) == []
    assert by_tier[TIER_DISK] == ["n0"]         # L2 takes over
    out = _read(cluster, store, "app", 0, 1)
    assert out["record"].image == b"x" * 2048
    assert store.record_available("app", 0, 1)


def test_failover_node_removal_restores_from_l3_fabric():
    cluster, store = _build(nodes=6, k=2)
    _write(cluster, store, _rec("app", 0, 1))
    store.commit("app", 1)
    rec = store.peek("app", 0, 1)
    # Reboot every memory partner: a crash wipes RAM (drop_copies) but
    # the machine's disk survives its recovery — so the fabric copy one
    # partner also holds on disk comes back while all L1 copies stay lost.
    for holder in list(rec.holders[TIER_MEMORY]):
        cluster.crash_node(holder)
        cluster.recover_node(holder)
    cluster.remove_node("n0")                   # writer + its disk, for good
    by_tier = store.available_by_tier(rec)
    assert by_tier.get(TIER_MEMORY, []) == []
    assert by_tier.get(TIER_DISK, []) == []
    fabric = by_tier[TIER_FABRIC]
    assert fabric and "n0" not in fabric
    out = _read(cluster, store, "app", 0, 1,
                from_node=next(n for n in sorted(cluster.nodes)
                               if cluster.nodes[n].is_up))
    assert out["record"].image == b"x" * 2048


def test_failover_all_tiers_gone_raises_nocheckpoint():
    cluster, store = _build(nodes=6, k=2)
    _write(cluster, store, _rec("app", 0, 1))
    store.commit("app", 1)
    rec = store.peek("app", 0, 1)
    for holder in set(rec.all_holders()):
        cluster.crash_node(holder)
    assert not store.record_available("app", 0, 1)
    assert store.latest_restorable("app", [0]) is None
    survivor = next(n for n in sorted(cluster.nodes)
                    if cluster.nodes[n].is_up)
    out = _read(cluster, store, "app", 0, 1, from_node=survivor)
    assert isinstance(out.get("error"), NoCheckpoint)


# ---------------------------------------------------------------------------
# delta chains: property + store round-trip
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=20_000),
       st.lists(st.binary(min_size=0, max_size=20_000),
                min_size=1, max_size=5))
def test_delta_squash_matches_full_dump(base, successors):
    deltas = []
    prev = base
    for new in successors:
        delta = delta_encode(prev, new)
        assert isinstance(delta, Delta)
        assert delta_apply(prev, delta) == new
        deltas.append(delta)
        prev = new
    assert squash(base, deltas) == successors[-1]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=8192),
                min_size=2, max_size=6),
       st.integers(min_value=1, max_value=4))
def test_store_delta_chain_roundtrips_every_version(images, depth):
    cluster, store = _build(nodes=5, k=2, delta_depth=depth)
    for v, image in enumerate(images, start=1):
        _write(cluster, store, _rec("app", 0, v, image=image,
                                    taken_at=float(v)))
        store.commit("app", v)
    assert any(store.peek("app", 0, v).is_delta
               for v in range(2, len(images) + 1)) or depth == 1 \
        or all(len(img) < 1 for img in images)
    for v, image in enumerate(images, start=1):
        out = _read(cluster, store, "app", 0, v)
        got = out["record"]
        assert got.image == image, v            # byte-identical reconstruction
        assert not got.is_delta                 # reader sees a full record


def test_chain_squashes_at_configured_depth():
    cluster, store = _build(nodes=5, k=2, delta_depth=2)
    for v in range(1, 7):
        _write(cluster, store, _rec("app", 0, v, image=bytes([v]) * 4096,
                                    taken_at=float(v)))
    kinds = [store.peek("app", 0, v).is_delta for v in range(1, 7)]
    # base, delta, delta, base (chain hit depth 2), delta, delta
    assert kinds == [False, True, True, False, True, True]


def test_rewritten_version_starts_a_fresh_base_not_a_delta_loop():
    """Regression: a restarted rank re-dumping the version it wrote last
    got ``delta_of == version`` — a self-loop that hung every
    ``record_available`` chain walk (standard campaign, stop-and-sync,
    ``delta_depth=3``)."""
    cluster, store = _build(nodes=5, k=2, delta_depth=3)
    for v, fill in ((1, 1), (2, 2), (2, 9)):    # v2 dumped twice
        _write(cluster, store, _rec("app", 0, v, image=bytes([fill]) * 4096,
                                    taken_at=float(fill)))
    assert not store.peek("app", 0, 2).is_delta
    assert store.record_available("app", 0, 2)
    assert _read(cluster, store, "app", 0, 2)["record"].image \
        == bytes([9]) * 4096


def test_gc_keeps_bases_needed_by_live_delta_chains():
    cluster, store = _build(nodes=5, k=2, delta_depth=8)
    for v in range(1, 5):                       # v1 base; v2..v4 deltas
        _write(cluster, store, _rec("app", 0, v, image=bytes([v]) * 4096,
                                    taken_at=float(v)))
        store.commit("app", v)
    assert store.peek("app", 0, 4).is_delta
    store.gc_committed("app", keep=1)
    # v4's whole chain must survive GC even though only v4 is retained
    for v in range(1, 5):
        assert store.has("app", 0, v), v
    out = _read(cluster, store, "app", 0, 4)
    assert out["record"].image == bytes([4]) * 4096


# ---------------------------------------------------------------------------
# write-back promotion
# ---------------------------------------------------------------------------

def test_write_back_defers_slow_tiers_then_flushes():
    cluster, store = _build(nodes=6, k=2, promotion=WRITE_BACK)
    rec = _rec("app", 0, 1)
    proc = cluster.engine.process(store.write(cluster.nodes["n0"], rec))
    cluster.engine.run(until=proc)
    by_tier = store.available_by_tier(rec)
    assert len(by_tier[TIER_MEMORY]) == 2       # inline: fastest tier only
    assert by_tier.get(TIER_DISK, []) == []
    assert by_tier.get(TIER_FABRIC, []) == []
    cluster.engine.run()                        # background flusher drains
    by_tier = store.available_by_tier(rec)
    assert by_tier[TIER_DISK] == ["n0"]
    assert len(by_tier[TIER_FABRIC]) == 1


# ---------------------------------------------------------------------------
# holder liveness (regression: a DOWN holder used to be handed out)
# ---------------------------------------------------------------------------

def test_available_holders_skip_down_holders():
    cluster, store = _build(nodes=5, k=3, tiers=(TIER_DISK, TIER_FABRIC))
    _write(cluster, store, _rec("app", 0, 1))
    rec = store.peek("app", 0, 1)
    assert store.available_by_tier(rec)[TIER_DISK] == ["n0"]
    cluster.crash_node("n0")
    # never hand out a DOWN node: the home tier (disk) was n0 only
    assert TIER_DISK not in store.available_by_tier(rec)
    fallback = store.available_holders(rec)
    assert fallback and "n0" not in fallback    # fabric copies still served


def test_available_holders_empty_when_every_holder_is_down():
    cluster = Cluster.build(spec=ClusterSpec(nodes=3, seed=0))
    store = CheckpointStore(cluster.engine, cluster)
    rec = _rec("app", 0, 1)
    store.write_tier(rec, TIER_MEMORY, holder_node="n1")
    assert store.available_holders(rec) == ["n1"]
    cluster.nodes["n1"].crash()
    assert store.available_holders(rec) == []
    assert not store.record_available("app", 0, 1)


# ---------------------------------------------------------------------------
# the three configurations of the one store + config plumbing
# ---------------------------------------------------------------------------

def test_three_configurations_file_copies_where_documented():
    """Stable disk has no holder; a replication factor files the k-1
    replicas beside the primary under ``disk``; explicit tiers file them
    under ``fabric``."""
    held = {}
    for label, kwargs in (("stable", {}), ("replicated", {"k": 3}),
                          ("tiered", {"k": 2,
                                      "tiers": (TIER_DISK, TIER_FABRIC)})):
        cluster = Cluster.build(spec=ClusterSpec(nodes=4, seed=0))
        store = CheckpointStore(cluster.engine, cluster, **kwargs)
        _write(cluster, store, _rec("app", 0, 1))
        cluster.crash_node("n0")                # the writer
        held[label] = (dict(store.peek("app", 0, 1).holders),
                       store.record_available("app", 0, 1),
                       store.mirror_fanout())
    assert held["stable"] == ({}, True, 2)
    assert held["replicated"] == ({TIER_DISK: ["n0", "n1", "n2"]}, True, 3)
    assert held["tiered"] == ({TIER_DISK: ["n0"], TIER_FABRIC: ["n1"]},
                              True, 2)


def test_normalize_tiers_orders_and_validates():
    assert normalize_tiers(("fabric", "memory")) == ("memory", "fabric")
    with pytest.raises(ValueError):
        normalize_tiers(())
    with pytest.raises(ValueError):
        normalize_tiers(("memory", "memory"))
    with pytest.raises(ValueError):
        normalize_tiers(("tape",))


def test_cluster_spec_rejects_bad_tier_configs():
    with pytest.raises(ValueError):
        ClusterSpec(store_tiers=("tape",))
    with pytest.raises(ValueError):
        ClusterSpec(store_tiers=("disk", "disk"))
    with pytest.raises(ValueError):
        ClusterSpec(delta_depth=2)              # deltas need store_tiers
    with pytest.raises(ValueError):
        ClusterSpec(tier_policy="write-back")   # ditto for write-back
    spec = ClusterSpec(store_tiers=["memory", "disk"], delta_depth=2,
                       tier_policy="write-back")
    assert spec.store_tiers == ("memory", "disk")


# ---------------------------------------------------------------------------
# CLI: store subcommands
# ---------------------------------------------------------------------------

def test_cli_store_tiers_subcommand(capsys):
    from repro.cli import main
    rc = main(["store", "--nodes", "5", "--k", "2", "--seed", "3",
               "--tiers", "memory,disk,fabric", "--delta-depth", "3",
               "tiers"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "tier map" in out and "memory+disk+fabric" in out
    assert "memory=" in out and "disk=" in out and "fabric=" in out
    assert "placement policy" not in out        # subcommand = that section


def test_cli_store_subcommands_filter_by_rank_and_version(capsys):
    from repro.cli import main
    rc = main(["store", "--nodes", "5", "--k", "2", "--seed", "3",
               "replica-map", "--rank", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rank=0" in out and "rank=1" not in out
    rc = main(["store", "--nodes", "5", "--k", "2", "--seed", "3",
               "placement"])
    assert rc == 0
    assert "placement policy=ring k=2" in capsys.readouterr().out
    rc = main(["store", "--nodes", "5", "--k", "2", "--seed", "3",
               "repair"])
    assert rc == 0
    assert "repair:" in capsys.readouterr().out


def test_cli_store_legacy_what_flag_removed(capsys):
    # Not even parsed any more: argparse rejects it like any unknown flag.
    from repro.cli import main
    with pytest.raises(SystemExit) as exc:
        main(["store", "--nodes", "4", "--k", "2", "--seed", "3",
              "--what", "placement"])
    assert exc.value.code == 2
    assert "--what" in capsys.readouterr().err


def test_cli_store_default_sections_unchanged(capsys):
    from repro.cli import main
    rc = main(["store", "--nodes", "4", "--k", "2", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    for fragment in ("placement policy=ring k=2", "replica map",
                     "holders=", "repair:"):
        assert fragment in out
    assert "tier map" not in out                # legacy build: no tiers


def test_starfish_builds_tiered_store_from_spec():
    from repro.core import StarfishCluster
    sf = StarfishCluster.build(spec=ClusterSpec(
        nodes=4, seed=1, store_tiers=("memory", "disk", "fabric"),
        replication_factor=2, delta_depth=3))
    assert sf.store.tiers == ("memory", "disk", "fabric")
    assert sf.store.delta_depth == 3
    assert sf.store.repair is not None          # k=2 keeps repair on
