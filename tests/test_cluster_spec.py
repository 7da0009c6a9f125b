"""ClusterSpec: the single construction surface of Engine/Cluster/Starfish."""

from dataclasses import fields

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core import CheckpointConfig, StarfishCluster
from repro.gcs import GcsConfig
from repro.sim.engine import Engine


def test_spec_defaults_and_validation():
    spec = ClusterSpec()
    assert spec.nodes == 4 and spec.seed == 0 and spec.loss_prob == 0.0
    with pytest.raises(ValueError):
        ClusterSpec(nodes=0)
    with pytest.raises(ValueError):
        ClusterSpec(loss_prob=1.0)
    with pytest.raises(ValueError):
        ClusterSpec(loss_prob=-0.1)


def test_config_fields_are_pinned():
    """Every settable field of the three config objects, by name: a new
    knob is a visible diff here (DESIGN §26 — one value in use is a
    constant, not a field)."""
    assert [f.name for f in fields(ClusterSpec)] == [
        "nodes", "seed", "archs", "loss_prob", "trace", "telemetry",
        "gcs_config", "users", "replication_factor", "store_tiers",
        "delta_depth", "tier_policy", "perturb_seed", "delivery_jitter"]
    assert [f.name for f in fields(GcsConfig)] == [
        "heartbeat_period", "suspect_timeout", "flush_timeout",
        "announce_period", "gossip"]
    assert [f.name for f in fields(CheckpointConfig)] == [
        "protocol", "level", "interval", "replicas"]


def test_spec_is_frozen_and_with_copies():
    spec = ClusterSpec(nodes=2)
    with pytest.raises(Exception):
        spec.nodes = 3
    other = spec.with_(nodes=8, seed=5)
    assert (other.nodes, other.seed) == (8, 5)
    assert (spec.nodes, spec.seed) == (2, 0)


def test_spec_fields_are_keyword_only():
    with pytest.raises(TypeError):
        ClusterSpec(8)


def test_mixing_spec_and_legacy_kwargs_is_an_error():
    with pytest.raises(TypeError, match="not both"):
        Cluster.build(nodes=3, spec=ClusterSpec())
    with pytest.raises(TypeError, match="not both"):
        StarfishCluster.build(seed=1, spec=ClusterSpec())


def test_engine_from_spec():
    eng = Engine.from_spec(ClusterSpec(seed=9, telemetry=False))
    assert eng.rng.master_seed == 9
    eng2 = Engine.from_spec(ClusterSpec(seed=9))
    # Same seed, same named streams.
    assert (eng.rng.stream("x").integers(1000)
            == eng2.rng.stream("x").integers(1000))


def test_cluster_build_from_spec():
    cluster = Cluster.build(spec=ClusterSpec(nodes=3, seed=2))
    assert sorted(cluster.nodes) == ["n0", "n1", "n2"]
    assert cluster.engine.rng.master_seed == 2
    assert cluster.spec.nodes == 3


def test_cluster_build_legacy_kwargs_still_work():
    cluster = Cluster.build(nodes=2, seed=7)
    assert sorted(cluster.nodes) == ["n0", "n1"]
    assert cluster.spec == ClusterSpec(nodes=2, seed=7)
    # A field the hand-listed keyword signatures used to reject.
    sf = StarfishCluster.build(nodes=3, replication_factor=2)
    assert sf.cluster.spec == ClusterSpec(nodes=3, replication_factor=2)
    assert sf.store.k == 2
    with pytest.raises(TypeError):
        Cluster.build(no_such_field=1)


def test_starfish_build_from_spec_carries_gcs_config_and_settle():
    cfg = GcsConfig(heartbeat_period=0.07)
    sf = StarfishCluster.build(spec=ClusterSpec(nodes=2, gcs_config=cfg))
    assert sf.gcs_config.heartbeat_period == 0.07
    assert len(sf.live_daemons()) == 2
    assert sf.any_daemon().gm.view is not None  # build settles


def test_spec_loss_prob_routes_through_injector():
    cluster = Cluster.build(spec=ClusterSpec(nodes=2, loss_prob=0.25))
    assert cluster.ethernet.loss_prob == 0.25
    assert cluster.myrinet.loss_prob == 0.25
    # The ambient loss is logged as a fault action on the one injector.
    assert [(n, d["prob"]) for _t, n, d in cluster.faults.log] == \
        [("frame-loss", 0.25)]
