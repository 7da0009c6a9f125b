"""The application library, checked against independent references."""

import numpy as np
import pytest

from repro.apps import Jacobi1D, MonteCarloPi, PingPong
from repro.core import AppSpec, StarfishCluster
from repro.errors import DaemonError, MpiError


def test_montecarlo_batches_are_replay_deterministic():
    # The RNG stream is keyed by (rank, progress): replaying an aborted or
    # restored step must resample the identical batch.
    rng1 = np.random.default_rng((3 + 1) * 1_000_003 + 5000)
    rng2 = np.random.default_rng((3 + 1) * 1_000_003 + 5000)
    assert np.array_equal(rng1.random((100, 2)), rng2.random((100, 2)))


def test_montecarlo_converges_with_more_samples():
    sf = StarfishCluster.build(nodes=2)
    rough = sf.run(AppSpec(program=MonteCarloPi, nprocs=2,
                           params={"shots": 2_000, "chunk": 500}))[0]
    sf2 = StarfishCluster.build(nodes=2)
    fine = sf2.run(AppSpec(program=MonteCarloPi, nprocs=2,
                           params={"shots": 200_000, "chunk": 5000}))[0]
    assert abs(fine - np.pi) <= abs(rough - np.pi) + 0.02


def test_jacobi_matches_serial_reference():
    # 1-D Jacobi with u(0)=1, u(n+1)=0 — compare the parallel run against
    # a direct serial sweep of the same recurrence.
    n, iters = 64, 50
    u = np.zeros(n + 2)
    u[0] = 1.0
    for _ in range(iters):
        u[1:-1] = 0.5 * (u[:-2] + u[2:])
    reference_sum = float(np.sum(u[1:-1]))

    sf = StarfishCluster.build(nodes=4)
    results = sf.run(AppSpec(program=Jacobi1D, nprocs=4,
                             params={"n": n, "iterations": iters,
                                     "iters_per_step": 5,
                                     "compute_ns_per_cell": 10}))
    done_iters, _residual, total = results[0]
    assert done_iters == iters
    assert total == pytest.approx(reference_sum, rel=1e-9)


def test_jacobi_rejects_indivisible_domain():
    sf = StarfishCluster.build(nodes=3)
    handle = sf.submit(AppSpec(program=Jacobi1D, nprocs=3,
                               params={"n": 100, "iterations": 10}))
    with pytest.raises(DaemonError, match="failed"):
        sf.run_to_completion(handle, timeout=30)


def test_pingpong_rtt_monotone_in_size():
    sf = StarfishCluster.build(nodes=2)
    sizes = [1, 512, 8192]
    results = sf.run(AppSpec(program=PingPong, nprocs=2,
                             params={"sizes": sizes, "reps": 5}))
    rtts = results[0]
    assert rtts[1] < rtts[512] < rtts[8192]


def test_pingpong_extra_ranks_idle():
    # PingPong only uses ranks 0 and 1; extra ranks must still terminate.
    sf = StarfishCluster.build(nodes=3)
    results = sf.run(AppSpec(program=PingPong, nprocs=3,
                             params={"sizes": [1], "reps": 3}))
    assert set(results) == {0, 1, 2}
    assert results[2] is None


def test_shorttask_runs_to_completion():
    from repro.apps import ShortTask
    sf = StarfishCluster.build(nodes=2)
    results = sf.run(AppSpec(program=ShortTask, nprocs=2,
                             params={"steps": 4, "step_time": 0.01}))
    assert results == {0: 4, 1: 4}


def test_traffic_generator_is_seed_deterministic():
    from repro.apps import TrafficGenerator
    from repro.cluster import ClusterSpec
    from repro.fleet import FleetController

    def run():
        sf = StarfishCluster.build(spec=ClusterSpec(nodes=4, seed=11))
        gen = TrafficGenerator(FleetController(sf, auto_drain=False),
                               jobs=12, rate=8.0, seed=5)
        finished = gen.drain(timeout=120.0)
        trace = [(j.job_id, j.spec.nprocs, round(j.submit_time, 9),
                  j.state) for j in gen.submitted]
        return finished, trace, sf.engine.events_processed

    a = run()
    assert a[0] == 12
    assert all(state == "done" for *_rest, state in a[1])
    assert a == run()               # same seed, same everything


def test_traffic_generator_validates_parameters():
    from repro.apps import TrafficGenerator
    from repro.fleet import FleetController
    sf = StarfishCluster.build(nodes=2)
    controller = FleetController(sf)
    with pytest.raises(ValueError):
        TrafficGenerator(controller, jobs=0)
    with pytest.raises(ValueError):
        TrafficGenerator(controller, rate=0.0)
