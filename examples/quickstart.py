#!/usr/bin/env python
"""Quickstart: run an MPI application on a Starfish cluster.

Builds a 4-node simulated cluster of workstations, boots a Starfish daemon
on every node (they form the Starfish process group), submits a 4-process
Monte-Carlo computation, and collects its result.

Run:  python examples/quickstart.py
"""

from repro import AppSpec, StarfishCluster
from repro.apps import MonteCarloPi


def main():
    print("Booting a 4-node Starfish cluster...")
    sf = StarfishCluster.build(nodes=4)
    view = sf.any_daemon().gm.view
    print(f"  Starfish group converged: {len(view)} daemons, "
          f"coordinator {view.coordinator}")

    print("Submitting MonteCarloPi (4 processes, 200k samples)...")
    spec = AppSpec(program=MonteCarloPi, nprocs=4,
                   params={"shots": 200_000, "chunk": 2000})
    handle = sf.submit(spec)
    results = sf.run_to_completion(handle)

    record = handle._record()
    print(f"  placement: {record.placement}")
    print(f"  finished at simulated t={sf.engine.now:.3f}s")
    for rank in sorted(results):
        print(f"  rank {rank}: pi ~ {results[rank]:.5f}")

    frames = sf.engine.metrics.group_by("net.frames_sent", "fabric")
    print("\nTraffic split (the paper's architecture in one line):")
    print(f"  Myrinet fast path: {frames['bip-myrinet']:g} data frames")
    print(f"  Ethernet (daemons/Ensemble): {frames['tcp-ethernet']:g} "
          "control frames")


if __name__ == "__main__":
    main()
