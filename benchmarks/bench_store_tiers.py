"""Multi-level checkpoint store — tier-hit recovery speed + delta savings.

Two questions from ISSUE 7, answered in simulated seconds/bytes:

* **Shrink-to-fit recovery**: with the full L1/L2/L3 hierarchy, a
  restart serves its reads from partner MEMORY (ReStore's near-instant
  single-failure recovery); with only the L3 fabric configured the same
  crash pays a remote-disk read plus the wire.  ``restore_read_s`` is
  the crashed rank's post-crash restore read — the part of a
  single-rank restart the surviving tier decides; ``recovery_s`` is the
  end-to-end crash -> world restarted time (failure-detection
  dominated, reported for context, not compared).
* **Delta capture**: the jacobi stencil under stop-and-sync dumps VM
  images every interval; with ``delta_depth=4`` the store writes only
  changed blocks between full bases.  ``ckpt_bytes`` (the store's
  bytes-written counter) must drop vs full dumps.

Results go to ``benchmarks/BENCH_tiers.json``; fast mode
(``REPRO_BENCH_FAST=1``) shrinks the sweep and writes
``BENCH_tiers_fast.json`` so CI never clobbers the committed baseline.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.cluster import ClusterSpec
from repro.core import AppSpec, CheckpointConfig, FaultPolicy, StarfishCluster

from bench_helpers import (FAST, checkpoint_once, fast_or, print_table,
                           quiet_gcs, start_checkpointed_app)

SEED = 29
HERE = Path(__file__).parent
OUT_PATH = HERE / "BENCH_tiers.json"

NODES = 8
NPROCS = 4
STATE_BYTES = fast_or(64 * 1024, 1024 * 1024)
JACOBI_ITERS = fast_or(60, 150)

#: Tier configurations under test: the full hierarchy (restores hit L1
#: partner memory) vs fabric-only (restores pay a remote disk + wire).
RECOVERY_CONFIGS = (
    ("l1-memory", ("memory", "disk", "fabric")),
    ("l3-fabric", ("fabric",)),
)
DELTA_DEPTHS = (0, 4)


def _read_cost(sf, reader_node, app_id: str, rank: int,
               version: int) -> float:
    """Simulated cost of one restore read issued from ``reader_node``."""
    store = sf.store
    t0 = sf.engine.now

    def _go():
        yield from store.read(reader_node, app_id, rank, version)

    proc = sf.engine.process(_go(), name="bench-tier-read")
    sf.engine.run(until=proc)
    return sf.engine.now - t0


def run_recovery_cell(label: str, tiers) -> dict:
    t_wall = time.perf_counter()
    spec = ClusterSpec(nodes=NODES, seed=SEED, store_tiers=tiers,
                       replication_factor=2, gcs_config=quiet_gcs(2.0))
    sf = StarfishCluster.build(spec=spec)
    app_id = start_checkpointed_app(sf, nprocs=NPROCS,
                                    state_bytes=STATE_BYTES,
                                    protocol="stop-and-sync", level="vm")
    store = sf.store
    wave_s = checkpoint_once(sf, app_id)
    committed = store.latest_committed(app_id)
    assert committed is not None

    # Crash rank 0's host; the line must survive on the other tiers.
    victim = sf.books[app_id][0][0]
    record = sf.any_daemon().registry.get(app_id)
    restarts_before = record.restarts
    t_crash = sf.engine.now
    sf.cluster.crash_node(victim)
    survived = (store.latest_restorable(app_id, range(NPROCS)) == committed)

    # The crashed rank's restore read, issued from a surviving node — the
    # tier-dependent leg of the single-rank restart: an L1 partner-memory
    # hit vs the L3 remote-disk + wire path.
    reader = next(n for n in sf.cluster.nodes.values()
                  if n.node_id != victim and n.is_up)
    restore_read_s = _read_cost(sf, reader, app_id, 0, committed)

    deadline = t_crash + 120.0
    recovery_s = None
    while sf.engine.now < deadline:
        sf.engine.run(until=sf.engine.now + 0.25)
        rec = sf.any_daemon().registry.get(app_id)
        if rec.restarts > restarts_before and \
                len(rec.done_ranks) < rec.nprocs:
            recovery_s = sf.engine.now - t_crash
            break
    assert recovery_s is not None, f"no restart within 120s ({label})"

    return {"config": label, "tiers": "+".join(tiers),
            "wave_s": round(wave_s, 6),
            "restore_read_s": round(restore_read_s, 6),
            "recovery_s": round(recovery_s, 6), "survived": survived,
            "events": sf.engine.events_processed,
            "wall_s": round(time.perf_counter() - t_wall, 3)}


def run_delta_cell(delta_depth: int) -> dict:
    from repro.apps import Jacobi1D
    t_wall = time.perf_counter()
    spec = ClusterSpec(nodes=NODES, seed=SEED,
                       store_tiers=("memory", "disk", "fabric"),
                       replication_factor=2, delta_depth=delta_depth,
                       gcs_config=quiet_gcs(2.0))
    sf = StarfishCluster.build(spec=spec)
    handle = sf.submit(AppSpec(
        program=Jacobi1D, nprocs=3,
        params={"n": 120, "iterations": JACOBI_ITERS, "iters_per_step": 10,
                "compute_ns_per_cell": 500_000},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="stop-and-sync", level="vm",
                                    interval=0.25)))
    sf.run_to_completion(handle)
    metrics = sf.engine.metrics
    return {"config": f"delta-depth-{delta_depth}",
            "delta_depth": delta_depth,
            "ckpt_writes": int(metrics.value("ckpt.store.writes")),
            "ckpt_bytes": int(metrics.value("ckpt.store.bytes_written")),
            "wall_s": round(time.perf_counter() - t_wall, 3)}


def sweep() -> dict:
    return {"recovery": [run_recovery_cell(label, tiers)
                         for label, tiers in RECOVERY_CONFIGS],
            "delta": [run_delta_cell(d) for d in DELTA_DEPTHS]}


def build_report(cells: dict) -> dict:
    return {"bench": "store_tiers", "fast": FAST, "seed": SEED,
            "nodes": NODES, "nprocs": NPROCS, "state_bytes": STATE_BYTES,
            "jacobi_iterations": JACOBI_ITERS, **cells}


def out_path(fast: bool = FAST) -> Path:
    return HERE / "BENCH_tiers_fast.json" if fast else OUT_PATH


def run_and_write(fast: bool = FAST) -> dict:
    report = build_report(sweep())
    out_path(fast).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def print_report(report: dict) -> None:
    print_table(
        "Tiered store: restore path by fastest surviving tier",
        ["config", "tiers", "wave sim-s", "restore-read sim-s",
         "recovery sim-s", "line survived", "wall s"],
        [[c["config"], c["tiers"], f"{c['wave_s']:.4f}",
          f"{c['restore_read_s']:.4f}", f"{c['recovery_s']:.3f}",
          c["survived"], f"{c['wall_s']:.2f}"]
         for c in report["recovery"]])
    print_table(
        "Delta checkpoints: jacobi bytes written, full vs incremental",
        ["config", "writes", "ckpt bytes", "wall s"],
        [[c["config"], c["ckpt_writes"], c["ckpt_bytes"],
          f"{c['wall_s']:.2f}"] for c in report["delta"]])


def test_store_tiers(benchmark):
    report = benchmark.pedantic(run_and_write, rounds=1, iterations=1)
    print_report(report)
    l1, l3 = report["recovery"]
    assert l1["survived"] and l3["survived"]
    # The hierarchy's point: the crashed rank's restore read is served
    # from a surviving L1 partner's memory, beating the L3 remote-disk
    # path.  (End-to-end recovery_s is failure-detection dominated and
    # identical across configs by design, so it is not compared.)
    assert l1["restore_read_s"] < l3["restore_read_s"], (l1, l3)
    full, delta = report["delta"]
    assert delta["ckpt_bytes"] < full["ckpt_bytes"], (full, delta)


if __name__ == "__main__":
    print_report(run_and_write())
    print(f"\nwrote {out_path()}")
