"""Ablation — the C/R protocols side by side (the paper's unique feature).

"Starfish can run multiple C/R protocols side by side, which enables
comparing various C/R protocols on the same platform."  This bench does
exactly that: the same Jacobi application under stop-and-sync,
Chandy–Lamport, and uncoordinated checkpointing, measuring

* how long a checkpoint wave takes end-to-end,
* how long the application is actually *blocked* (the non-blocking
  argument for Chandy–Lamport),
* total bytes written to stable storage,
* application completion time (net overhead).
"""

import pytest

from repro.apps import Jacobi1D
from repro.core import AppSpec, CheckpointConfig, FaultPolicy, StarfishCluster

from bench_helpers import fast_or, print_table, quiet_gcs

PARAMS = {"n": 512, "iterations": fast_or(100, 300), "iters_per_step": 10,
          "compute_ns_per_cell": 200_000}
INTERVAL = 1.0


def run_one(protocol):
    sf = StarfishCluster.build(nodes=4, gcs_config=quiet_gcs())
    checkpoint = (CheckpointConfig(protocol=protocol, level="vm",
                                   interval=INTERVAL)
                  if protocol else CheckpointConfig())
    t0 = sf.engine.now
    handle = sf.submit(AppSpec(program=Jacobi1D, nprocs=4, params=PARAMS,
                               ft_policy=FaultPolicy.RESTART if protocol
                               else FaultPolicy.KILL,
                               checkpoint=checkpoint))

    # Grab the rank-0 process handle (it survives the whole run here) so
    # we can read its accumulated frozen time at the end.
    sf.engine.run(until=sf.engine.now + 0.5)
    rank0 = None
    for daemon in sf.live_daemons():
        rank0 = daemon.handles.get((handle.app_id, 0)) or rank0
    sf.run_to_completion(handle, timeout=3000)
    elapsed = sf.engine.now - t0
    ckpts = len(sf.store.versions_of(handle.app_id, 0))
    blocked = rank0.paused_accum if rank0 is not None else 0.0
    return {"elapsed": elapsed, "ckpts": ckpts,
            "bytes": int(sf.engine.metrics.value("ckpt.store.bytes_written")),
            "blocked": blocked}


def run_all():
    return {name: run_one(name)
            for name in (None, "stop-and-sync", "chandy-lamport",
                         "uncoordinated", "diskless")}


def test_ablation_protocols_side_by_side(benchmark):
    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    base = out[None]["elapsed"]
    rows = []
    for name in (None, "stop-and-sync", "chandy-lamport",
                 "uncoordinated", "diskless"):
        r = out[name]
        rows.append([name or "(no C/R baseline)", f"{r['elapsed']:.2f}",
                     r["ckpts"], f"{r['bytes'] / 1e6:.1f}",
                     f"{r['blocked'] * 1e3:.0f}",
                     f"{100 * (r['elapsed'] - base) / base:+.2f}%"])
    print_table(
        "C/R protocols side by side (Jacobi, 4 ranks, ckpt every "
        f"{INTERVAL:.0f}s)",
        ["protocol", "completion s", "ckpts/rank", "MB written",
         "blocked ms", "overhead"], rows)

    ss, cl, uc = (out["stop-and-sync"], out["chandy-lamport"],
                  out["uncoordinated"])
    # All protocols actually checkpointed.
    assert ss["ckpts"] >= 2 and cl["ckpts"] >= 2 and uc["ckpts"] >= 2
    # Chandy–Lamport blocks the application far less than stop-and-sync.
    assert cl["blocked"] < ss["blocked"]
    # Uncoordinated has no global synchronization at all.
    assert uc["blocked"] <= ss["blocked"]
    # Overheads are small either way (VM-level files are tiny here).
    for r in (ss, cl, uc):
        assert (r["elapsed"] - base) / base < 0.15
    benchmark.extra_info.update(
        {k or "baseline": v["elapsed"] for k, v in out.items()})
