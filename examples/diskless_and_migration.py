#!/usr/bin/env python
"""Beyond the 1999 prototype: diskless checkpointing + live migration.

The paper closes (§7) by calling for "newer and faster C/R protocols, in
particular ones that utilize fast networks".  This example runs that
protocol: checkpoint images are double-mirrored into buddy nodes' memory
over BIP/Myrinet (~30 MB/s) instead of the ~6.5 MB/s IDE disk, then uses
the same machinery for administrator-driven process migration, and ends
with a cluster metrics report.

Run:  python examples/diskless_and_migration.py
"""

from repro import AppSpec, ClusterMetrics, StarfishCluster
from repro.core import CheckpointConfig, FaultPolicy
from repro.apps import ComputeSleep


def main():
    sf = StarfishCluster.build(nodes=4)
    print("Submitting a job with DISKLESS checkpoints every 0.5s "
          "(8 MB of state per rank)...")
    handle = sf.submit(AppSpec(
        program=ComputeSleep, nprocs=3,
        params={"steps": 100, "step_time": 0.05, "state_bytes": 8_000_000},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="diskless", level="native",
                                    interval=0.5),
        placement={0: "n0", 1: "n1", 2: "n2"}))
    sf.engine.run(until=sf.engine.now + 1.4)

    version = sf.store.latest_committed(handle.app_id)
    rec = sf.store.peek(handle.app_id, 0, version)
    disk = sum(n.disk.bytes_written for n in sf.cluster.nodes.values())
    print(f"t={sf.engine.now:.2f}: line v{version} committed; rank 0's "
          f"{rec.nbytes / 1e6:.1f} MB image mirrored on {rec.all_holders()} "
          f"(disk bytes written: {disk})")

    print(f"t={sf.engine.now:.2f}: operator migrates rank 1 to the idle "
          "node n3...")
    sf.migrate(handle, rank=1, target_node="n3")
    sf.engine.run(until=sf.engine.now + 1.0)
    print(f"t={sf.engine.now:.2f}: placement now "
          f"{handle._record().placement}")

    print(f"t={sf.engine.now:.2f}: and n2 dies mid-run...")
    sf.crash_node("n2")
    results = sf.run_to_completion(handle, timeout=600)
    print(f"t={sf.engine.now:.2f}: finished — results {results}, "
          f"restarts={handle.restarts}")

    print("\n" + ClusterMetrics(sf).format_report())


if __name__ == "__main__":
    main()
