#!/usr/bin/env python
"""Fault tolerance by checkpoint/restart (paper §3.2.2, RESTART policy).

A tightly-coupled Jacobi stencil runs with periodic coordinated
checkpointing (the paper's stop-and-sync protocol, VM level).  Mid-run, a
node hosting one of the ranks is crashed.  Starfish:

1. detects the failure through the daemons' group membership,
2. computes the recovery line (the last committed checkpoint version),
3. re-places the dead rank on a surviving node, and
4. rolls every process back to the recovery line and resumes.

Run:  python examples/fault_tolerant_jacobi.py
"""

from repro import AppSpec, StarfishCluster
from repro.core import CheckpointConfig, FaultPolicy
from repro.apps import Jacobi1D


def main():
    sf = StarfishCluster.build(nodes=4)
    print("Submitting Jacobi1D with stop-and-sync checkpoints every 1.5s...")
    handle = sf.submit(AppSpec(
        program=Jacobi1D, nprocs=4,
        params={"n": 512, "iterations": 400, "iters_per_step": 10,
                "compute_ns_per_cell": 100_000},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="stop-and-sync", level="vm",
                                    interval=1.5)))

    sf.engine.run(until=sf.engine.now + 4.0)
    committed = sf.store.latest_committed(handle.app_id)
    print(f"t={sf.engine.now:.2f}: recovery line = version {committed} "
          f"({sf.engine.metrics.value('ckpt.store.writes'):.0f} checkpoint "
          f"files on stable storage)")

    victim = handle._record().placement[1]
    print(f"t={sf.engine.now:.2f}: CRASHING node {victim} (hosts rank 1)")
    sf.crash_node(victim)

    results = sf.run_to_completion(handle, timeout=600)
    record = handle._record()
    iters, residual, checksum = results[0]
    print(f"t={sf.engine.now:.2f}: application finished")
    print(f"  iterations completed : {iters}")
    print(f"  final residual       : {residual:.3e}")
    print(f"  restarts             : {record.restarts}")
    print(f"  rank 1 now runs on   : {record.placement[1]} "
          f"(was {victim})")
    print(f"  checkpoints read back: "
          f"{sf.engine.metrics.value('ckpt.store.reads'):.0f}")


if __name__ == "__main__":
    main()
