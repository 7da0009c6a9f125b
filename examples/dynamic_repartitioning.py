#!/usr/bin/env python
"""Dynamic applications: view-change repartitioning and MPI-2 spawning.

Two of the paper's dynamicity stories in one script:

1. A trivially parallel Monte-Carlo run under the VIEW_NOTIFY policy
   absorbs TWO node crashes with no rollback: the survivors get a
   view-change upcall, agree on the most advanced state, and keep going.
2. A master/worker bag-of-tasks grows itself mid-run with the MPI-2
   dynamic process management downcall (``ctx.spawn``) and re-queues the
   tasks of a worker that dies.

Run:  python examples/dynamic_repartitioning.py
"""

from repro import AppSpec, StarfishCluster
from repro.core import FaultPolicy
from repro.apps import BagOfTasks, MonteCarloPi


def monte_carlo_survives_crashes():
    print("=" * 64)
    print("1. Monte-Carlo under VIEW_NOTIFY: crashes, no rollback")
    print("=" * 64)
    sf = StarfishCluster.build(nodes=5)
    handle = sf.submit(AppSpec(
        program=MonteCarloPi, nprocs=5,
        params={"shots": 400_000, "chunk": 1000,
                "compute_ns_per_shot": 40_000},
        ft_policy=FaultPolicy.VIEW_NOTIFY))
    sf.engine.run(until=sf.engine.now + 1.0)
    for rank in (4, 3):
        victim = handle._record().placement[rank]
        print(f"t={sf.engine.now:.2f}: crashing {victim} (rank {rank})")
        sf.crash_node(victim)
        sf.engine.run(until=sf.engine.now + 1.5)
    results = sf.run_to_completion(handle, timeout=600)
    record = handle._record()
    print(f"t={sf.engine.now:.2f}: finished with "
          f"{len(record.placement)} surviving ranks, restarts="
          f"{record.restarts}")
    print(f"  pi ~ {results[min(results)]:.5f}  (survivors only: "
          f"{sorted(results)})")


def bag_of_tasks_grows_and_heals():
    print()
    print("=" * 64)
    print("2. Bag-of-tasks: MPI-2 spawn growth + worker-death re-queueing")
    print("=" * 64)
    sf = StarfishCluster.build(nodes=6)
    handle = sf.submit(AppSpec(
        program=BagOfTasks, nprocs=2,          # master + 1 worker
        params={"tasks": 40, "task_time": 0.15,
                "grow_after": 6, "grow_by": 3},
        ft_policy=FaultPolicy.VIEW_NOTIFY))
    sf.engine.run(until=sf.engine.now + 2.0)
    record = handle._record()
    print(f"t={sf.engine.now:.2f}: world grew to "
          f"{len(record.placement)} processes: {record.placement}")
    # Kill one of the spawned workers mid-run.
    worker_rank = max(record.placement)
    victim = record.placement[worker_rank]
    print(f"t={sf.engine.now:.2f}: crashing {victim} "
          f"(worker rank {worker_rank})")
    sf.crash_node(victim)
    results = sf.run_to_completion(handle, timeout=600)
    done = results[0]
    print(f"t={sf.engine.now:.2f}: master collected {len(done)} tasks, "
          f"all exactly once: {done == sorted(set(done))}")
    workers = {r: n for r, n in results.items() if r != 0}
    print(f"  tasks per worker: {workers}")


if __name__ == "__main__":
    monte_carlo_survives_crashes()
    bag_of_tasks_grows_and_heals()
