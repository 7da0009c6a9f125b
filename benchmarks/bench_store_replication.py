"""Replicated checkpoint store — fan-out cost vs survivability payoff.

The ``repro.store`` fabric writes every checkpoint to its primary's disk
and ships k-1 replica copies to placement-chosen peers.  This bench
sweeps the replication factor (k = 1, 2, 3) against cluster size
(8 -> 128 nodes) and measures, in *simulated* seconds:

* ``wave_s``     — one full stop-and-sync checkpoint wave, request to
  commit, with the replica fan-out on the critical path;
* ``recovery_s`` — crash of the rank-0 host (a replica holder) to the
  restarted world, under the restart FT policy;
* ``survived``   — whether the pre-crash committed line was still
  restorable while the holder was down: the entire point of k >= 2, and
  demonstrably False for k = 1 (the only copy died with its node).

Results go to ``benchmarks/BENCH_store.json``; fast mode
(``REPRO_BENCH_FAST=1``) shrinks the sweep and lands in
``BENCH_store_fast.json`` so CI smoke runs never clobber the committed
full-sweep baseline.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.cluster import ClusterSpec
from repro.core import StarfishCluster

from bench_helpers import (FAST, checkpoint_once, fast_or, print_table,
                           quiet_gcs, start_checkpointed_app)

SEED = 23
HERE = Path(__file__).parent
OUT_PATH = HERE / "BENCH_store.json"

KS = fast_or((1, 2), (1, 2, 3))
NODES = fast_or((8,), (8, 32, 128))
STATE_BYTES = fast_or(64 * 1024, 1024 * 1024)
NPROCS = 4


def run_cell(nodes: int, k: int) -> dict:
    t_wall = time.perf_counter()
    spec = ClusterSpec(nodes=nodes, seed=SEED, replication_factor=k,
                       gcs_config=quiet_gcs(2.0))
    sf = StarfishCluster.build(spec=spec)
    app_id = start_checkpointed_app(sf, nprocs=NPROCS,
                                    state_bytes=STATE_BYTES,
                                    protocol="stop-and-sync", level="vm")
    store = sf.store
    wave_s = checkpoint_once(sf, app_id)
    committed = store.latest_committed(app_id)
    assert committed is not None

    # Crash the rank-0 host: primary holder of rank 0's copies.
    victim = store.peek(app_id, 0, committed).all_holders()[0]
    record = sf.any_daemon().registry.get(app_id)
    restarts_before = record.restarts
    t_crash = sf.engine.now
    sf.cluster.crash_node(victim)
    survived = (store.latest_restorable(app_id, range(NPROCS)) == committed)

    # Recovery: failure detection -> rollback cast -> respawned world.
    deadline = t_crash + 120.0
    recovery_s = None
    while sf.engine.now < deadline:
        sf.engine.run(until=sf.engine.now + 0.25)
        rec = sf.any_daemon().registry.get(app_id)
        if rec.restarts > restarts_before and \
                len(rec.done_ranks) < rec.nprocs:
            recovery_s = sf.engine.now - t_crash
            break
    assert recovery_s is not None, f"no restart within 120s (k={k})"

    return {"nodes": nodes, "k": k, "wave_s": round(wave_s, 6),
            "recovery_s": round(recovery_s, 6), "survived": survived,
            "deficit_after_crash": store.replica_deficit(),
            "events": sf.engine.events_processed,
            "wall_s": round(time.perf_counter() - t_wall, 3)}


def sweep() -> list:
    return [run_cell(nodes, k) for nodes in NODES for k in KS]


def build_report(cells: list) -> dict:
    return {"bench": "store_replication", "fast": FAST, "seed": SEED,
            "nprocs": NPROCS, "state_bytes": STATE_BYTES, "configs": cells}


def out_path(fast: bool = FAST) -> Path:
    return HERE / "BENCH_store_fast.json" if fast else OUT_PATH


def run_and_write(fast: bool = FAST) -> dict:
    report = build_report(sweep())
    out_path(fast).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def print_report(report: dict) -> None:
    print_table(
        "Replicated checkpoint store: k copies vs wave cost and recovery",
        ["nodes", "k", "wave sim-s", "recovery sim-s", "line survived",
         "deficit", "wall s"],
        [[c["nodes"], c["k"], f"{c['wave_s']:.4f}",
          f"{c['recovery_s']:.3f}", c["survived"],
          c["deficit_after_crash"], f"{c['wall_s']:.2f}"]
         for c in report["configs"]])


def test_store_replication(benchmark):
    report = benchmark.pedantic(run_and_write, rounds=1, iterations=1)
    print_report(report)
    for c in report["configs"]:
        assert c["wave_s"] > 0 and c["recovery_s"] > 0
        # The survivability contract: with k >= 2 a single holder crash
        # never loses the committed line; with k = 1 it always does.
        assert c["survived"] == (c["k"] >= 2), c


if __name__ == "__main__":
    print_report(run_and_write())
    print(f"\nwrote {out_path()}")
