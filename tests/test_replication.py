"""Active rank replication: failover plan, oracle, tap, e2e, property.

Covers the pieces the replication protocol adds on top of the protocol
layer: the ``FAILOVER`` restart plan (promote, never respawn), the
:class:`ReplicaOracle` invariants (failover-exactly-once, no-orphan-send),
submit-time replica placement (never co-located), full failover through
the Starfish stack with ``ranks_restarted == 0``, and the Hypothesis
replica-consistency property: under schedule perturbation and delivery
jitter every copy of a rank observes the same inbound message sequence,
each send delivered exactly once.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ComputeSleep
from repro.apps.jacobi import Jacobi1D
from repro.ckpt.protocols.replication import ReplicationProtocol
from repro.ckpt.restart import RestartInputs, RestartMode, plan_restart
from repro.cluster.spec import ClusterSpec
from repro.core.appspec import AppSpec, CheckpointConfig
from repro.core.policies import FaultPolicy
from repro.core.starfish import StarfishCluster
from repro.errors import DaemonError, OracleViolation, PlacementError


# ---------------------------------------------------------------------------
# the oracle: one deliberate violation per rule
# ---------------------------------------------------------------------------

def test_replica_oracle_rejects_orphan_sends():
    proto = ReplicationProtocol()
    oracle = proto.replica_oracle
    oracle.bind(1, primary=False)
    oracle.delivered(0, ssn=1, expected=1)
    # ssn 3 with only 1 consumed: a send skipped the total order.
    with pytest.raises(OracleViolation) as exc:
        oracle.delivered(0, ssn=3, expected=2)
    assert "no-orphan-send" in str(exc.value)


def test_replica_oracle_rejects_double_promotion():
    proto = ReplicationProtocol()
    oracle = proto.replica_oracle
    oracle.bind(2, primary=False)
    oracle.promoted()                         # backup -> primary: fine
    with pytest.raises(OracleViolation) as exc:
        oracle.promoted()                     # a primary cannot fail over
    assert "failover-exactly-once" in str(exc.value)


def test_replica_oracle_rejects_promoting_a_primary():
    proto = ReplicationProtocol()
    oracle = proto.replica_oracle
    oracle.bind(0, primary=True)
    with pytest.raises(OracleViolation):
        oracle.promoted()


# ---------------------------------------------------------------------------
# the failover plan: promote, prune, k-exhausted fallback
# ---------------------------------------------------------------------------

def _failover(alive, placement, replicas, lost):
    return plan_restart(RestartInputs(
        mode=RestartMode.FAILOVER, lost=tuple(lost), alive=frozenset(alive),
        placement=placement, replicas=replicas,
        load={n: 0 for n in alive}))


def test_failover_planner_promotes_first_live_copy():
    plan = _failover(["n0", "n2", "n3"], {0: "n0", 1: "n1"},
                     {0: ("n2",), 1: ("n2", "n3")}, lost=[1])
    assert RestartMode.FAILOVER.solo
    assert plan.mode is RestartMode.FAILOVER
    assert plan.promote == {1: "n2"}
    assert sorted(plan.promote) == [1]
    # The promoted node leaves rank 1's backup set; rank 0's is untouched.
    assert plan.replicas == {0: ("n2",), 1: ("n3",)}


def test_failover_planner_restarts_from_initial_when_k_exhausted():
    plan = _failover(["n0"], {0: "n0", 1: "n1"}, {1: ("n2",)},  # n2 dead
                     lost=[1])
    assert not plan.promote
    assert plan.mode is RestartMode.COORDINATED
    assert plan.line == {0: None, 1: None}
    assert plan.world_version == 1               # a rollback: a new world


# ---------------------------------------------------------------------------
# submit-time placement and spec validation
# ---------------------------------------------------------------------------

def test_checkpoint_config_rejects_replicas_without_replication():
    with pytest.raises(DaemonError):
        CheckpointConfig(protocol="stop-and-sync", replicas=2)
    with pytest.raises(DaemonError):
        CheckpointConfig(protocol="replication", replicas=0)


def _replicated_spec(nprocs=3, replicas=2, **params):
    params = {"steps": 8, "step_time": 0.25, "state_bytes": 1024, **params}
    return AppSpec(program=ComputeSleep, nprocs=nprocs, params=params,
                   ft_policy=FaultPolicy.RESTART,
                   checkpoint=CheckpointConfig(protocol="replication",
                                               replicas=replicas))


def test_submit_places_copies_on_distinct_nodes():
    sf = StarfishCluster.build(nodes=5, seed=7)
    handle = sf.submit(_replicated_spec())
    sf.engine.run(until=sf.engine.now + 0.5)
    record = handle._record()
    assert len(record.replicas) == 3
    for rank, backups in record.replicas.items():
        assert record.placement[rank] not in backups
        assert len(set(backups)) == len(backups) == 1
    # Backup hosts are lightweight-group members (they need the casts).
    daemon = sf.any_daemon()
    member_nodes = {ep.node for ep in daemon.lwg.members(handle.app_id)}
    for backups in record.replicas.values():
        assert set(backups) <= member_nodes


def test_submit_rejects_more_copies_than_nodes():
    sf = StarfishCluster.build(nodes=2, seed=7)
    with pytest.raises(PlacementError):
        sf.submit(_replicated_spec(nprocs=2, replicas=3))


# ---------------------------------------------------------------------------
# end to end: crash a primary's node, watch the backup take over
# ---------------------------------------------------------------------------

def _failover_run(crash=True, nprocs=3):
    sf = StarfishCluster.build(nodes=5, seed=7)
    handle = sf.submit(_replicated_spec(nprocs=nprocs, steps=12))
    sf.engine.run(until=sf.engine.now + 0.5)
    record = handle._record()
    if crash:
        sf.engine.run(until=sf.engine.now + 0.7)
        sf.crash_node(record.placement[1])
    results = sf.run_to_completion(handle, timeout=120.0)
    restarted = sf.engine.metrics.group_by("daemon.ranks_restarted", "app")
    return sf, handle, results, restarted.get(handle.app_id, 0)


def test_failover_end_to_end_restarts_zero_ranks():
    _sf, _h, golden, _ = _failover_run(crash=False)
    sf, handle, results, ranks_restarted = _failover_run()
    record = handle._record()
    # THE point of active replication: the crash cost zero respawns and
    # zero rollback — a surviving copy was promoted in place.
    assert ranks_restarted == 0
    assert handle.restarts == 1
    assert results == golden
    # Rank 1 now runs where its backup was, and that backup slot is gone.
    assert 1 not in record.replicas
    promotions = sf.engine.metrics.group_by("repl.promotions", "app")
    assert promotions.get(handle.app_id, 0) == 1


def test_failover_keeps_world_version_and_survivor_placement():
    sf, handle, _results, _ = _failover_run()
    record = handle._record()
    assert record.world_version == 0      # no rollback wave, no new world
    assert sorted(record.placement) == [0, 1, 2]


def test_migrate_refused_for_replicated_apps():
    from repro.errors import PlacementError
    sf = StarfishCluster.build(nodes=5, seed=7)
    handle = sf.submit(_replicated_spec(steps=12))
    sf.engine.run(until=sf.engine.now + 0.5)
    before = dict(handle._record().placement)
    with pytest.raises(PlacementError, match="active replication"):
        sf.migrate(handle, rank=0, target_node="n4")
    sf.engine.run(until=sf.engine.now + 1.0)
    assert handle._record().placement == before
    sf.run_to_completion(handle, timeout=120.0)


# ---------------------------------------------------------------------------
# replica consistency under perturbation + jitter (Hypothesis)
# ---------------------------------------------------------------------------

def _collect_replica_logs(sf, app_id):
    """{rank: {copy_index: inbound_log}} over every live copy's module."""
    logs = {}
    for daemon in sf.live_daemons():
        handles = [h for (aid, _r), h in daemon.handles.items()
                   if aid == app_id]
        handles += [h for h in daemon._lingering.get(app_id, ())]
        for h in handles:
            if h.protocol is None:
                continue
            copy = h.protocol.copy_index()
            logs.setdefault(h.rank, {})[copy] = list(h.protocol.inbound_log)
    return logs


@settings(max_examples=5, deadline=None)
@given(pseed=st.integers(min_value=1, max_value=10**9))
def test_replicas_observe_identical_inbound_sequences(pseed):
    spec = ClusterSpec(nodes=5, seed=7, perturb_seed=pseed,
                       delivery_jitter=0.0005)
    sf = StarfishCluster.build(spec=spec)
    app = AppSpec(program=Jacobi1D, nprocs=3,
                  params={"n": 96, "iterations": 30, "iters_per_step": 10,
                          "compute_ns_per_cell": 30000},
                  ft_policy=FaultPolicy.RESTART,
                  checkpoint=CheckpointConfig(protocol="replication",
                                              replicas=2))
    handle = sf.submit(app)
    sf.engine.run(until=sf.engine.now + 0.5)
    # Hold references now: rank-done pops handles into lingering later.
    collected = {}

    def snapshot():
        for rank, by_copy in _collect_replica_logs(sf,
                                                   handle.app_id).items():
            merged = collected.setdefault(rank, {})
            merged.update(by_copy)

    for _ in range(40):
        if handle.finished:
            break
        snapshot()
        sf.engine.run(until=sf.engine.now + 0.5)
    snapshot()
    assert handle.status.value == "done"
    for rank, by_copy in collected.items():
        assert len(by_copy) == 2, f"rank {rank}: missing a copy's log"
        for log in by_copy.values():
            # Exactly-once: no (sender, ssn) pair is ever delivered twice.
            pairs = [(src, ssn) for (src, ssn, _tag, _data) in log]
            assert len(pairs) == len(set(pairs))
        # Replica consistency: both copies saw the identical sequence.
        # The backup is killed the instant the app completes, so its log
        # may be a prefix of the primary's — but never diverge.
        ordered = sorted(by_copy.values(), key=len)
        short, long = ordered[0], ordered[-1]
        assert short, f"rank {rank}: a copy delivered nothing"
        assert long[:len(short)] == short
