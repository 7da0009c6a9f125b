"""End-to-end fault tolerance: the paper's §3 behaviours."""

import pytest

from repro.apps import BagOfTasks, ComputeSleep, Jacobi1D, MonteCarloPi
from repro.cluster import TABLE2_MACHINES, arch_by_name
from repro.core import AppSpec, CheckpointConfig, FaultPolicy, StarfishCluster
from repro.daemon import AppStatus
from repro.errors import DaemonError


def node_of_rank(handle, rank):
    return handle._record().placement[rank]


# ---------------------------------------------------------------------------
# KILL (the non-fault-tolerant baseline)
# ---------------------------------------------------------------------------

def test_kill_policy_fails_app_on_node_crash():
    sf = StarfishCluster.build(nodes=3)
    handle = sf.submit(AppSpec(program=ComputeSleep, nprocs=3,
                               params={"steps": 100, "step_time": 0.05},
                               ft_policy=FaultPolicy.KILL))
    sf.engine.run(until=sf.engine.now + 1.0)
    sf.crash_node(node_of_rank(handle, 2))
    sf.engine.run(until=sf.engine.now + 3.0)
    assert handle.status is AppStatus.FAILED


def test_unaffected_app_survives_other_nodes_crash():
    # High availability: an app with no process on the failed node runs on
    # transparently (paper §3.1.3).
    sf = StarfishCluster.build(nodes=4)
    handle = sf.submit(AppSpec(program=ComputeSleep, nprocs=2,
                               params={"steps": 10, "step_time": 0.05},
                               ft_policy=FaultPolicy.KILL,
                               placement={0: "n0", 1: "n1"}))
    sf.engine.run(until=sf.engine.now + 0.3)
    sf.crash_node("n3")
    results = sf.run_to_completion(handle)
    assert results == {0: 10, 1: 10}


# ---------------------------------------------------------------------------
# VIEW_NOTIFY (trivially parallel repartitioning)
# ---------------------------------------------------------------------------

def test_view_notify_montecarlo_survives_crash():
    sf = StarfishCluster.build(nodes=4)
    handle = sf.submit(AppSpec(
        program=MonteCarloPi, nprocs=4,
        params={"shots": 200_000, "chunk": 1000,
                "compute_ns_per_shot": 60_000},
        ft_policy=FaultPolicy.VIEW_NOTIFY))
    sf.engine.run(until=sf.engine.now + 1.0)
    victim = node_of_rank(handle, 3)
    sf.crash_node(victim)
    results = sf.run_to_completion(handle, timeout=300)
    # The dead rank never reports; survivors agree on pi.
    assert 3 not in results
    for rank, pi in results.items():
        assert pi == pytest.approx(3.14159, abs=0.05), rank
    assert handle.restarts == 0                     # no rollback happened
    assert handle._record().status is AppStatus.DONE


def test_view_notify_two_crashes():
    sf = StarfishCluster.build(nodes=5)
    handle = sf.submit(AppSpec(
        program=MonteCarloPi, nprocs=5,
        params={"shots": 300_000, "chunk": 1000,
                "compute_ns_per_shot": 60_000},
        ft_policy=FaultPolicy.VIEW_NOTIFY))
    sf.engine.run(until=sf.engine.now + 1.0)
    sf.crash_node(node_of_rank(handle, 4))
    sf.engine.run(until=sf.engine.now + 2.0)
    sf.crash_node(node_of_rank(handle, 3))
    results = sf.run_to_completion(handle, timeout=300)
    assert set(results) == {0, 1, 2}
    assert results[0] == pytest.approx(3.14159, abs=0.05)


def test_view_notify_bag_of_tasks_requeues_lost_work():
    sf = StarfishCluster.build(nodes=4)
    handle = sf.submit(AppSpec(
        program=BagOfTasks, nprocs=4,
        params={"tasks": 30, "task_time": 0.05},
        ft_policy=FaultPolicy.VIEW_NOTIFY))
    sf.engine.run(until=sf.engine.now + 0.8)   # mid-flight
    # Crash a worker (never the master on rank 0).
    sf.crash_node(node_of_rank(handle, 2))
    results = sf.run_to_completion(handle, timeout=300)
    assert results[0] == list(range(30))       # every task exactly once


# ---------------------------------------------------------------------------
# RESTART from checkpoints
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", ["stop-and-sync", "chandy-lamport"])
def test_restart_jacobi_from_coordinated_checkpoint(protocol):
    sf = StarfishCluster.build(nodes=4)
    handle = sf.submit(AppSpec(
        program=Jacobi1D, nprocs=4,
        params={"n": 256, "iterations": 400, "iters_per_step": 10,
                "compute_ns_per_cell": 200_000},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol=protocol, level="vm",
                                    interval=1.5)))
    # Let it checkpoint at least once, then kill a node.
    sf.engine.run(until=sf.engine.now + 4.0)
    assert sf.store.latest_committed(handle.app_id) is not None
    victim = node_of_rank(handle, 1)
    sf.crash_node(victim)
    results = sf.run_to_completion(handle, timeout=600)
    iters, residual, total = results[0]
    assert iters == 400
    assert handle.restarts == 1
    # The dead node was replaced.
    assert node_of_rank(handle, 1) != victim


def test_restart_without_checkpoint_starts_from_scratch():
    sf = StarfishCluster.build(nodes=3)
    handle = sf.submit(AppSpec(
        program=ComputeSleep, nprocs=3,
        params={"steps": 20, "step_time": 0.05},
        ft_policy=FaultPolicy.RESTART))
    sf.engine.run(until=sf.engine.now + 0.6)
    sf.crash_node(node_of_rank(handle, 1))
    results = sf.run_to_completion(handle, timeout=300)
    assert results == {0: 20, 1: 20, 2: 20}
    assert handle.restarts == 1


def test_restart_uncoordinated_recovery_line():
    sf = StarfishCluster.build(nodes=3)
    handle = sf.submit(AppSpec(
        program=ComputeSleep, nprocs=3,
        params={"steps": 40, "step_time": 0.05},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="uncoordinated", level="vm",
                                    interval=0.5)))
    sf.engine.run(until=sf.engine.now + 1.6)
    sf.crash_node(node_of_rank(handle, 2))
    results = sf.run_to_completion(handle, timeout=600)
    assert results == {0: 40, 1: 40, 2: 40}
    assert handle.restarts == 1
    # Checkpoints were taken independently (several versions per rank).
    assert len(sf.store.versions_of(handle.app_id, 0)) >= 1


def test_restart_preserves_checkpointed_progress():
    # The app must NOT redo work before the recovery line: with steps of
    # 0.2s and a checkpoint every 1s, a crash at t~3 resumes near step 10+,
    # so completion happens well before a from-scratch rerun would allow.
    sf = StarfishCluster.build(nodes=2)
    handle = sf.submit(AppSpec(
        program=ComputeSleep, nprocs=2,
        params={"steps": 20, "step_time": 0.2},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="stop-and-sync", level="vm",
                                    interval=1.0)))
    sf.engine.run(until=sf.engine.now + 3.1)
    victim = node_of_rank(handle, 1)
    t_crash = sf.engine.now
    sf.crash_node(victim)
    sf.run_to_completion(handle, timeout=300)
    elapsed_after_crash = sf.engine.now - t_crash
    # From scratch it would need >= 20*0.2 = 4.0s after the crash.
    assert elapsed_after_crash < 3.5


# ---------------------------------------------------------------------------
# Heterogeneous restart (paper §4 + Table 2)
# ---------------------------------------------------------------------------

def test_heterogeneous_restart_across_endianness():
    # Rank 0 on a little-endian Linux/x86 node checkpoints at VM level and
    # is restarted on a big-endian Sun after its node dies.
    linux = arch_by_name("Intel P-II 350 MHz, i686")
    sun = arch_by_name("Sun Ultra Enterprise 3000")
    sf = StarfishCluster.build(nodes=3, archs=[linux, linux, sun])
    handle = sf.submit(AppSpec(
        program=ComputeSleep, nprocs=2,
        params={"steps": 30, "step_time": 0.05, "state_bytes": 100_000},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="stop-and-sync", level="vm",
                                    interval=0.5),
        placement={0: "n0", 1: "n1"}))
    sf.engine.run(until=sf.engine.now + 1.2)
    assert sf.store.latest_committed(handle.app_id) is not None
    sf.crash_node("n1")
    results = sf.run_to_completion(handle, timeout=300)
    assert results == {0: 30, 1: 30}
    # Rank 1 ended up on the big-endian node.
    assert node_of_rank(handle, 1) == "n2"


def test_native_checkpoint_restart_prefers_same_representation():
    # With native-level checkpoints the replacement node must have the same
    # representation; n2 (big-endian) is unusable, n3 (same repr) is used.
    linux = arch_by_name("Intel P-II 350 MHz, i686")
    sun = arch_by_name("Sun Ultra Enterprise 3000")
    winnt = arch_by_name("Intel P-II, 350 MHz")
    sf = StarfishCluster.build(nodes=4, archs=[linux, linux, sun, winnt])
    handle = sf.submit(AppSpec(
        program=ComputeSleep, nprocs=2,
        params={"steps": 30, "step_time": 0.05},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="stop-and-sync",
                                    level="native", interval=0.5),
        placement={0: "n0", 1: "n1"}))
    sf.engine.run(until=sf.engine.now + 1.2)
    sf.crash_node("n1")
    results = sf.run_to_completion(handle, timeout=300)
    assert results == {0: 30, 1: 30}
    assert node_of_rank(handle, 1) == "n3"   # same repr as the Linux nodes


def test_wave_completes_with_lingering_rank_on_reincarnated_node():
    # Regression: rank 2 is twice displaced by crashes, finishes on a
    # RECOVERED node, and later checkpoint waves still need its (finished,
    # lingering) module to participate.  This used to wedge two ways: the
    # recovered daemon accepted reliable-stream frames addressed to its
    # dead predecessor (shadowing fresh sequence numbers), and lwg-ord
    # messages racing the join op were dropped instead of parked — either
    # way the wave waited forever on the lingering rank's ss-counts.
    from repro.cluster import ClusterSpec
    from repro.faults import CrashNode, FaultPlan, RecoverNode

    sf = StarfishCluster.build(spec=ClusterSpec(nodes=5, seed=3,
                                                replication_factor=2))
    handle = sf.submit(AppSpec(
        program=ComputeSleep, nprocs=3,
        params={"steps": 24, "step_time": 0.25, "state_bytes": 8192},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="stop-and-sync",
                                    level="vm", interval=0.8)))
    FaultPlan() \
        .at(1.2, CrashNode(node="n2")) \
        .at(2.8, RecoverNode(node="n2")) \
        .at(4.4, CrashNode(node="n3")) \
        .at(6.0, RecoverNode(node="n3")) \
        .apply_to(sf)
    results = sf.run_to_completion(handle, timeout=120.0)
    assert results == {0: 24, 1: 24, 2: 24}


def test_view_notify_rank_lost_after_the_survivors_finished():
    # Completion used to be checked only when a rank reported: a rank lost
    # inside its last step's tail, after which every survivor reports, left
    # the app ``running`` with done_ranks == the whole shrunk placement.
    sf = StarfishCluster.build(nodes=4)
    handle = sf.submit(AppSpec(
        program=ComputeSleep, nprocs=3,
        params={"steps": 5, "step_time": 0.1},
        ft_policy=FaultPolicy.VIEW_NOTIFY))
    steps = lambda rank: sf.engine.metrics.value(
        "app.steps", app=handle.app_id, rank=str(rank))
    while steps(2) < 4:
        sf.engine.run(until=sf.engine.now + 0.01)
    # Inside the last step: the survivors report within 0.1 s, the view
    # that drops the dead rank arrives after the suspicion timeout.
    sf.engine.run(until=sf.engine.now + 0.05)
    assert not handle.finished and steps(0) == steps(1) == 4
    sf.crash_node(node_of_rank(handle, 2))
    assert sf.run_to_completion(handle, timeout=30) == {0: 5, 1: 5}
    assert handle._record().status is AppStatus.DONE
    assert sorted(handle._record().placement) == [0, 1]


@pytest.mark.parametrize("victim", [0, 1, 2])
def test_view_notify_crash_during_mpi_init(victim):
    # A rank's host crashing before every rank has left MPI_Init: the
    # survivors used to poll the old world for the dead rank's address
    # forever (the shrunk world sat in the pending view), and the app
    # ended ``running``.  Every instant from the submit being applied to
    # well past MPI_Init, 2 ms apart.
    for ms in range(0, 41, 2):
        sf = StarfishCluster.build(nodes=4)
        handle = sf.submit(AppSpec(
            program=ComputeSleep, nprocs=3,
            params={"steps": 5, "step_time": 0.05},
            ft_policy=FaultPolicy.VIEW_NOTIFY))
        sf.engine.run(until=sf.engine.now + ms / 1000)
        while not all(d.registry.maybe(handle.app_id)
                      for d in sf.live_daemons()):
            sf.engine.step()
        sf.crash_node(node_of_rank(handle, victim))
        survivors = {rank: 5 for rank in range(3) if rank != victim}
        assert sf.run_to_completion(handle, timeout=30) == survivors, ms
