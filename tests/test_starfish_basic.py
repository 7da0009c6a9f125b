"""End-to-end Starfish: boot, submit, run, client protocol."""

import pytest

from repro.apps import (BagOfTasks, ComputeSleep, Jacobi1D, MonteCarloPi,
                        PingPong)
from repro.calibration import RTT_1BYTE_BIP, RTT_1BYTE_TCP
from repro.core import AppSpec, CheckpointConfig, FaultPolicy, StarfishCluster


def test_daemons_converge_on_boot():
    sf = StarfishCluster.build(nodes=4)
    views = {tuple(d.gm.view.members) for d in sf.live_daemons()}
    assert len(views) == 1
    assert len(views.pop()) == 4


def test_run_computesleep():
    sf = StarfishCluster.build(nodes=4)
    results = sf.run(AppSpec(program=ComputeSleep, nprocs=4,
                             params={"steps": 5, "step_time": 0.01}))
    assert results == {0: 5, 1: 5, 2: 5, 3: 5}


def test_run_montecarlo_pi():
    sf = StarfishCluster.build(nodes=4)
    results = sf.run(AppSpec(program=MonteCarloPi, nprocs=4,
                             params={"shots": 40_000, "chunk": 2000}))
    for rank, pi in results.items():
        assert pi == pytest.approx(3.14159, abs=0.1), rank


def test_run_jacobi():
    sf = StarfishCluster.build(nodes=4)
    results = sf.run(AppSpec(program=Jacobi1D, nprocs=4,
                             params={"n": 256, "iterations": 40,
                                     "iters_per_step": 10}))
    iters, residual, total = results[0]
    assert iters == 40
    assert residual < 1.0
    assert 0 < total < 256


def test_run_bag_of_tasks():
    sf = StarfishCluster.build(nodes=4)
    results = sf.run(AppSpec(program=BagOfTasks, nprocs=4,
                             params={"tasks": 12, "task_time": 0.01}))
    assert results[0] == list(range(12))
    # Workers did all the tasks between them.
    assert sum(results[r] for r in (1, 2, 3)) == 12


def test_pingpong_matches_paper_rtt():
    sf = StarfishCluster.build(nodes=2)
    results = sf.run(AppSpec(program=PingPong, nprocs=2,
                             params={"sizes": [1], "reps": 10}))
    rtt = results[0][1]
    assert rtt == pytest.approx(RTT_1BYTE_BIP, rel=0.02)


def test_pingpong_over_tcp():
    sf = StarfishCluster.build(nodes=2)
    results = sf.run(AppSpec(program=PingPong, nprocs=2,
                             params={"sizes": [1], "reps": 10},
                             transport="tcp-ethernet"))
    rtt = results[0][1]
    assert rtt == pytest.approx(RTT_1BYTE_TCP, rel=0.02)


def test_single_rank_app():
    sf = StarfishCluster.build(nodes=2)
    results = sf.run(AppSpec(program=ComputeSleep, nprocs=1,
                             params={"steps": 3}))
    assert results == {0: 3}


def test_more_ranks_than_nodes():
    sf = StarfishCluster.build(nodes=2)
    results = sf.run(AppSpec(program=MonteCarloPi, nprocs=4,
                             params={"shots": 8000}))
    assert len(results) == 4


def test_two_apps_share_cluster():
    sf = StarfishCluster.build(nodes=4)
    h1 = sf.submit(AppSpec(program=ComputeSleep, nprocs=2,
                           params={"steps": 4}))
    h2 = sf.submit(AppSpec(program=MonteCarloPi, nprocs=2,
                           params={"shots": 5000}))
    r1 = sf.run_to_completion(h1)
    r2 = sf.run_to_completion(h2)
    assert r1 == {0: 4, 1: 4}
    assert r2[0] == pytest.approx(3.14, abs=0.2)


def test_program_exception_marks_app_failed():
    from repro.core.program import StarfishProgram
    from repro.errors import DaemonError

    class Buggy(StarfishProgram):
        def setup(self, ctx):
            self.state["i"] = 0

        def step(self, ctx):
            self.state["i"] += 1
            if self.state["i"] >= 2 and ctx.rank == 1:
                raise ValueError("boom")
            yield from ctx.sleep(0.001)

        def is_done(self, ctx):
            return self.state["i"] >= 5

    sf = StarfishCluster.build(nodes=2)
    handle = sf.submit(AppSpec(program=Buggy, nprocs=2))
    with pytest.raises(DaemonError, match="failed"):
        sf.run_to_completion(handle, timeout=30)


def test_explicit_placement():
    sf = StarfishCluster.build(nodes=3)
    handle = sf.submit(AppSpec(program=ComputeSleep, nprocs=2,
                               params={"steps": 2},
                               placement={0: "n2", 1: "n2"}))
    sf.run_to_completion(handle)
    rec = handle._record()
    assert rec.placement == {0: "n2", 1: "n2"}


def test_user_initiated_checkpoint_downcall():
    from repro.core.program import StarfishProgram

    class SelfCkpt(StarfishProgram):
        def setup(self, ctx):
            self.state.update(i=0, versions=[])

        def step(self, ctx):
            yield from ctx.sleep(0.005)
            self.state["i"] += 1
            if self.state["i"] == 2 and ctx.rank == 0:
                v = yield from ctx.checkpoint()
                self.state["versions"].append(v)

        def is_done(self, ctx):
            return self.state["i"] >= 4

        def finalize(self, ctx):
            return self.state["versions"]

    sf = StarfishCluster.build(nodes=2)
    results = sf.run(AppSpec(
        program=SelfCkpt, nprocs=2,
        checkpoint=CheckpointConfig(protocol="stop-and-sync")))
    assert results[0] == [1]
    assert sf.store.latest_committed("app1") == 1 or \
        sf.store.committed_versions(list(sf.store._committed)[0]) == [1]
