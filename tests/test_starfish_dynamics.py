"""Dynamic behaviour: MPI-2 spawning, node addition/recovery, migration."""

import pytest

from repro.apps import BagOfTasks, ComputeSleep, MonteCarloPi
from repro.core import AppSpec, CheckpointConfig, FaultPolicy, StarfishCluster
from repro.daemon import AppStatus


def test_mpi2_spawn_grows_bag_of_tasks():
    sf = StarfishCluster.build(nodes=4)
    handle = sf.submit(AppSpec(
        program=BagOfTasks, nprocs=2,          # master + one worker
        params={"tasks": 16, "task_time": 0.05,
                "grow_after": 4, "grow_by": 2},
        ft_policy=FaultPolicy.VIEW_NOTIFY))
    results = sf.run_to_completion(handle, timeout=300)
    record = handle._record()
    # The world grew to 4 processes.
    assert len(record.placement) == 4
    assert record.world_version >= 1
    assert results[0] == list(range(16))
    # The spawned workers actually computed tasks.
    late_workers = [r for r in results if r >= 2]
    assert late_workers
    assert sum(results[r] for r in results if r != 0) == 16


def test_added_node_becomes_schedulable():
    sf = StarfishCluster.build(nodes=2)
    sf.add_node("n9")
    sf.settle()
    # All daemons (incl. the new one) share the 3-member view.
    for daemon in sf.live_daemons():
        assert len(daemon.gm.view.members) == 3
    handle = sf.submit(AppSpec(program=ComputeSleep, nprocs=3,
                               params={"steps": 3, "step_time": 0.01}))
    sf.run_to_completion(handle)
    assert "n9" in handle._record().placement.values()


def test_addnode_via_management_command():
    sf = StarfishCluster.build(nodes=2)
    client = sf.client()

    def session():
        c = yield from client.connect()
        yield from c.login("admin", "adminpw", mgmt=True)
        yield from c.must("ADDNODE n7")
        return True

    proc = sf.engine.process(session())
    sf.engine.run(until=sf.engine.now + 5.0)
    assert proc.triggered and proc.ok
    sf.settle()
    assert "n7" in sf.cluster.nodes
    assert any(d.node.node_id == "n7" for d in sf.live_daemons())


def test_crashed_node_recovers_and_hosts_new_work():
    sf = StarfishCluster.build(nodes=3)
    sf.crash_node("n2")
    sf.engine.run(until=sf.engine.now + 3.0)
    # Group shrank to 2.
    assert len(sf.any_daemon().gm.view.members) == 2
    sf.recover_node("n2")
    sf.settle()
    assert len(sf.any_daemon().gm.view.members) == 3
    handle = sf.submit(AppSpec(program=ComputeSleep, nprocs=3,
                               params={"steps": 3, "step_time": 0.01}))
    results = sf.run_to_completion(handle)
    assert len(results) == 3
    assert "n2" in handle._record().placement.values()


def test_restart_migrates_rank_to_recovered_state_elsewhere():
    # Checkpoint/restart doubles as migration (paper §3.2.1): the rank's
    # state, written on n1's disk, continues on another machine.
    sf = StarfishCluster.build(nodes=3)
    handle = sf.submit(AppSpec(
        program=ComputeSleep, nprocs=2,
        params={"steps": 40, "step_time": 0.05, "state_bytes": 500_000},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="stop-and-sync", level="vm",
                                    interval=0.5),
        placement={0: "n0", 1: "n1"}))
    sf.engine.run(until=sf.engine.now + 1.4)
    assert sf.store.latest_committed(handle.app_id) is not None
    sf.crash_node("n1")
    results = sf.run_to_completion(handle, timeout=300)
    assert results == {0: 40, 1: 40}
    assert handle._record().placement[1] == "n2"


def test_crash_during_restart_triggers_second_restart():
    sf = StarfishCluster.build(nodes=4)
    handle = sf.submit(AppSpec(
        program=ComputeSleep, nprocs=2,
        params={"steps": 60, "step_time": 0.05},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="stop-and-sync", level="vm",
                                    interval=0.6),
        placement={0: "n0", 1: "n1"}))
    sf.engine.run(until=sf.engine.now + 1.5)
    sf.crash_node("n1")
    sf.engine.run(until=sf.engine.now + 0.3)   # mid-recovery
    # Kill the replacement candidate as well.
    placement = handle._record().placement
    second_victim = placement[1]
    if sf.cluster.nodes[second_victim].is_up and second_victim != "n0":
        sf.crash_node(second_victim)
    results = sf.run_to_completion(handle, timeout=600)
    assert results == {0: 60, 1: 60}
    assert handle.restarts >= 1


def test_disabled_node_excluded_from_restart_placement():
    sf = StarfishCluster.build(nodes=4)
    client = sf.client()

    def session():
        c = yield from client.connect()
        yield from c.login("admin", "adminpw", mgmt=True)
        yield from c.must("DISABLE n3")
        return True

    sf.engine.process(session())
    sf.engine.run(until=sf.engine.now + 2.0)
    handle = sf.submit(AppSpec(
        program=ComputeSleep, nprocs=2,
        params={"steps": 40, "step_time": 0.05},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="stop-and-sync", level="vm",
                                    interval=0.5),
        placement={0: "n0", 1: "n1"}))
    sf.engine.run(until=sf.engine.now + 1.4)
    sf.crash_node("n1")
    sf.run_to_completion(handle, timeout=300)
    assert handle._record().placement[1] == "n2"   # n3 was disabled


def test_montecarlo_uses_joiner_after_spawn():
    # An explicitly dynamic MPI-2 program: rank 0 asks for more processes
    # mid-run and the allreduce ring simply widens.
    from repro.core.program import StarfishProgram
    from repro.mpi import SUM

    class GrowingPi(MonteCarloPi):
        def step(self, ctx):
            if (ctx.rank == 0 and not self.state.get("grew")
                    and self.state["done"] >= 20_000):
                self.state["grew"] = True
                yield from ctx.spawn(2)
                return
            yield from MonteCarloPi.step(self, ctx)

    sf = StarfishCluster.build(nodes=4)
    handle = sf.submit(AppSpec(
        program=GrowingPi, nprocs=2,
        params={"shots": 100_000, "chunk": 1000},
        ft_policy=FaultPolicy.VIEW_NOTIFY))
    results = sf.run_to_completion(handle, timeout=600)
    assert len(handle._record().placement) == 4
    for pi in results.values():
        assert pi == pytest.approx(3.14159, abs=0.05)
