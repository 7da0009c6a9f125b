#!/usr/bin/env python
"""Run coordinated and uncoordinated C/R protocols side by side.

The paper presents this as a distinguishing capability of the Starfish
architecture: "we can run the same application with two different C/R
protocols, and compare them".  This example runs the same Jacobi stencil
under stop-and-sync, Chandy-Lamport, and uncoordinated checkpointing —
simultaneously, as three applications sharing one cluster — then compares
what each protocol cost and how each recovers from the same crash.

Run:  python examples/compare_checkpoint_protocols.py
"""

from repro import AppSpec, StarfishCluster
from repro.core import CheckpointConfig, FaultPolicy
from repro.apps import Jacobi1D

PROTOCOLS = ("stop-and-sync", "chandy-lamport", "uncoordinated")
PARAMS = {"n": 256, "iterations": 500, "iters_per_step": 10,
          "compute_ns_per_cell": 100_000}


def main():
    sf = StarfishCluster.build(nodes=6)
    handles = {}
    for proto in PROTOCOLS:
        handles[proto] = sf.submit(AppSpec(
            program=Jacobi1D, nprocs=2, params=PARAMS,
            ft_policy=FaultPolicy.RESTART,
            checkpoint=CheckpointConfig(protocol=proto, level="vm",
                                        interval=1.0)),
            app_id=proto)
    sf.engine.run(until=sf.engine.now + 0.5)   # let submissions replicate
    print(f"Three copies of the same application, one per protocol, "
          f"sharing {len(sf.cluster.nodes)} nodes:")
    for proto, handle in handles.items():
        print(f"  {proto:>15}: ranks on {handle._record().placement}")

    sf.engine.run(until=sf.engine.now + 3.2)
    print(f"\nt={sf.engine.now:.1f}: checkpoints so far:")
    for proto in PROTOCOLS:
        versions = sf.store.versions_of(proto, 0)
        line = sf.store.latest_committed(proto)
        print(f"  {proto:>15}: rank-0 versions {versions} "
              f"(committed recovery line: {line})")

    # One crash affecting all three (they share nodes).
    victim = handles["stop-and-sync"]._record().placement[1]
    print(f"\nt={sf.engine.now:.1f}: crashing {victim}")
    sf.crash_node(victim)

    print("\nRecovery and completion:")
    for proto in PROTOCOLS:
        results = sf.run_to_completion(handles[proto], timeout=1200)
        record = handles[proto]._record()
        iters, residual, _ = results[0]
        print(f"  {proto:>15}: finished {iters} iterations, "
              f"restarts={record.restarts}, "
              f"final placement {record.placement}")
    metrics = sf.engine.metrics
    print(f"\nstable storage: "
          f"{metrics.value('ckpt.store.writes'):.0f} checkpoint files, "
          f"{metrics.value('ckpt.store.bytes_written') / 1e6:.1f} MB written, "
          f"{metrics.value('ckpt.store.reads'):.0f} restored")


if __name__ == "__main__":
    main()
