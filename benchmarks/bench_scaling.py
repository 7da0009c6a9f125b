"""Wall-clock scaling sweep — simulator events/second vs cluster size.

The paper's argument is that fault tolerance must not tax the critical
data path; the reproduction's "hardware" is the discrete-event engine, so
its throughput (processed events per wall-clock second) is what caps the
cluster sizes and message densities we can study.  This bench sweeps
cluster size and message density for three workload shapes:

* ``pingpong``  — the Figure 5 round-trip app, high message density on a
  small cluster (per-message hot-path cost);
* ``jacobi``    — bulk-synchronous halo exchange with ``nprocs == nodes``
  and a small per-rank block, the event-dense scaling configuration
  (8 -> 256 nodes in full mode, plus 512/1024-node *sparse* rows: quiet
  heartbeats and one collective wave, or the quadratic control-path
  multicast dominates the sweep);
* ``traffic``   — the :class:`~repro.apps.TrafficGenerator` control-path
  churn workload (many short-lived client jobs through the fleet
  scheduler);
* ``chaos``     — the ``crash-recover`` fault campaign (full stack:
  GCS + daemons + C/R + fault injection + golden-run comparison).

Results go to ``benchmarks/BENCH_scaling.json``.  If a committed
pre-change baseline (``BENCH_scaling_baseline.json``) exists, per-config
speedups are computed against it; the acceptance gates are >= 1.5x
events/sec on the 128-node event-dense Jacobi configuration (the PR-3
hot-path overhaul) and >= 1.3x on the 256-node one.  Speedup assertions
only run when ``REPRO_BENCH_ASSERT_SPEEDUP=1`` (the ratio is only
meaningful on the machine that recorded the baseline).

Every configuration runs ``REPRO_BENCH_REPEATS`` times (default 2 full /
1 fast) and reports the best events/sec — single-shot numbers swing
+-20% with machine load, which is larger than the effects measured here.

Fast mode (``REPRO_BENCH_FAST=1``) shrinks the sweep to seconds for CI
smoke coverage.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.apps import Jacobi1D, PingPong, TrafficGenerator
from repro.cluster import ClusterSpec
from repro.core import AppSpec, StarfishCluster
from repro.faults import CampaignRunner
from repro.faults.campaigns import get_campaign
from repro.fleet import FleetController

from bench_helpers import FAST, print_table, quiet_gcs

SEED = 11
HERE = Path(__file__).parent
OUT_PATH = HERE / "BENCH_scaling.json"
BASELINE_PATH = HERE / "BENCH_scaling_baseline.json"

#: Acceptance gates: required events/sec speedup vs the pre-overhaul
#: baseline, per configuration.  ``jacobi/128/dense`` is the PR-3
#: hot-path-overhaul gate; ``jacobi/256/dense`` is the PR-10 gate (the
#: default data path at the largest dense configuration).
TARGETS = {
    "jacobi/128/dense": 1.5,
    "jacobi/256/dense": 1.3,
}

#: Best-of-N repeats per configuration (machine noise is +-20%).
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "1" if FAST else "2"))


def _spec(nodes: int, heartbeat: float = 2.0) -> ClusterSpec:
    # Quiet heartbeats keep the sweep focused on the data path; the chaos
    # configs use the campaign default (control-path-dense) instead.
    return ClusterSpec(nodes=nodes, seed=SEED,
                       gcs_config=quiet_gcs(heartbeat))


def _measure(label: str, nodes: int, density: str, fn):
    """Run one config ``REPEATS`` times; keep the fastest run's
    events/sec (the event count itself is deterministic)."""
    best = None
    for _ in range(max(1, REPEATS)):
        t0 = time.perf_counter()
        engine, sim_end = fn()
        wall = time.perf_counter() - t0
        if best is None or wall < best[0]:
            best = (wall, engine.events_processed, sim_end)
    wall, events, sim_end = best
    return {
        "config": f"{label}/{nodes}/{density}",
        "workload": label,
        "nodes": nodes,
        "density": density,
        "wall_s": round(wall, 4),
        "events": events,
        "events_per_sec": round(events / wall, 1),
        "sim_s": round(sim_end, 6),
    }


def run_pingpong(nodes: int, reps: int, sizes) -> tuple:
    sf = StarfishCluster.build(spec=_spec(nodes))
    sf.run(AppSpec(program=PingPong, nprocs=2,
                   params={"sizes": list(sizes), "reps": reps}),
           timeout=4000)
    return sf.engine, sf.engine.now


def run_jacobi(nodes: int, iterations: int, cells_per_rank: int,
               heartbeat: float = 2.0, iters_per_step: int = 10) -> tuple:
    sf = StarfishCluster.build(spec=_spec(nodes, heartbeat))
    sf.run(AppSpec(program=Jacobi1D, nprocs=nodes,
                   params={"n": cells_per_rank * nodes,
                           "iterations": iterations,
                           "iters_per_step": iters_per_step}),
           timeout=4000)
    return sf.engine, sf.engine.now


def run_traffic(nodes: int, jobs: int) -> tuple:
    """Control-path churn: short-lived client jobs through the fleet
    scheduler (see :mod:`repro.apps.traffic`)."""
    sf = StarfishCluster.build(spec=_spec(nodes))
    controller = FleetController(sf, auto_drain=False)
    gen = TrafficGenerator(controller, jobs=jobs, rate=10.0,
                           nprocs=(1, 4), seed=SEED)
    gen.drain(timeout=600.0)
    controller.close()
    return sf.engine, sf.engine.now


def run_chaos(nodes: int) -> tuple:
    # The standard campaign cluster (default GCS config: control-path
    # event density grows quadratically with the group size).
    campaign = get_campaign("crash-recover")
    runner = CampaignRunner(campaign, seed=SEED, protocol="stop-and-sync",
                            policy="restart", nodes=nodes,
                            compare_golden=False)
    report = runner.run()
    # The runner owns its engine; reconstruct the numbers from the report.
    class _EngineView:
        events_processed = report.data["engine"]["events_processed"]
    return _EngineView, report.data["engine"]["final_time"]


def sweep(fast: bool = FAST):
    if fast:
        pingpong_cfgs = [(8, 30, (1, 1024))]
        jacobi_cfgs = [(8, "dense", 20, 64)]
        bignode_cfgs = []
        traffic_cfgs = [(8, 20)]
        chaos_nodes = [8]
    else:
        pingpong_cfgs = [(8, 300, (1, 1024, 65536))]
        jacobi_cfgs = [(8, "sparse", 40, 256), (32, "sparse", 40, 256),
                       (8, "dense", 60, 64), (32, "dense", 60, 64),
                       (128, "dense", 60, 64), (256, "dense", 60, 64)]
        # 512/1024-node rows: quiet heartbeats (30s) and a single
        # collective wave — the n^2 full-group multicast during the
        # serialized collectives otherwise explodes the event count
        # (tens of millions at 1024 nodes) and drowns the data path.
        bignode_cfgs = [512, 1024]
        traffic_cfgs = [(32, 200)]
        chaos_nodes = [8, 32]

    rows = []
    for nodes, reps, sizes in pingpong_cfgs:
        rows.append(_measure("pingpong", nodes, f"reps{reps}",
                             lambda n=nodes, r=reps, s=sizes:
                             run_pingpong(n, r, s)))
    for nodes, density, iters, cells in jacobi_cfgs:
        rows.append(_measure("jacobi", nodes, density,
                             lambda n=nodes, i=iters, c=cells:
                             run_jacobi(n, i, c)))
    for nodes in bignode_cfgs:
        rows.append(_measure(
            "jacobi", nodes, "sparse",
            lambda n=nodes:
            run_jacobi(n, iterations=8, cells_per_rank=16,
                       heartbeat=30.0, iters_per_step=8)))
    for nodes, jobs in traffic_cfgs:
        rows.append(_measure("traffic", nodes, f"jobs{jobs}",
                             lambda n=nodes, j=jobs: run_traffic(n, j)))
    for nodes in chaos_nodes:
        rows.append(_measure("chaos", nodes, "standard",
                             lambda n=nodes: run_chaos(n)))
    return rows


def _load_baseline():
    if BASELINE_PATH.exists():
        return json.loads(BASELINE_PATH.read_text())
    return None


def build_report(rows, fast: bool):
    report = {"fast": bool(fast), "seed": SEED, "configs": rows}
    baseline = _load_baseline()
    if baseline is not None:
        base_by_key = {c["config"]: c for c in baseline.get("configs", [])}
        speedups = {}
        for row in rows:
            base = base_by_key.get(row["config"])
            if base is None or not base.get("wall_s"):
                continue
            speedups[row["config"]] = {
                "events_per_sec": round(row["events_per_sec"]
                                        / base["events_per_sec"], 3),
                "wall": round(base["wall_s"] / row["wall_s"], 3),
                "events_ratio": round(row["events"] / base["events"], 3),
            }
        report["baseline_file"] = BASELINE_PATH.name
        report["speedup_vs_baseline"] = speedups
        report["targets"] = [
            {
                "config": key,
                "required_events_per_sec_speedup": required,
                "achieved_events_per_sec_speedup":
                    speedups[key]["events_per_sec"],
                "achieved_wall_speedup": speedups[key]["wall"],
            }
            for key, required in TARGETS.items() if key in speedups
        ]
    return report


def print_report(report):
    speedups = report.get("speedup_vs_baseline", {})
    print_table(
        "Engine scaling sweep (wall-clock events/sec)",
        ["config", "events", "wall s", "events/s", "sim s",
         "ev/s vs base", "wall vs base"],
        [[c["config"], c["events"], f"{c['wall_s']:.2f}",
          f"{c['events_per_sec']:,.0f}", f"{c['sim_s']:.2f}",
          (f"{speedups[c['config']]['events_per_sec']:.2f}x"
           if c["config"] in speedups else "-"),
          (f"{speedups[c['config']]['wall']:.2f}x"
           if c["config"] in speedups else "-")]
         for c in report["configs"]])
    for t in report.get("targets", ()):
        print(f"\nacceptance gate {t['config']}: "
              f"{t['achieved_events_per_sec_speedup']:.2f}x events/sec "
              f"(wall {t['achieved_wall_speedup']:.2f}x, "
              f"required {t['required_events_per_sec_speedup']}x)")


def out_path(fast: bool = FAST) -> Path:
    # Fast-mode smoke runs must not clobber the committed full-sweep
    # numbers; they land in a sibling file instead.
    return HERE / "BENCH_scaling_fast.json" if fast else OUT_PATH


def run_and_write(fast: bool = FAST):
    report = build_report(sweep(fast=fast), fast=fast)
    out_path(fast).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def test_scaling(benchmark):
    report = benchmark.pedantic(run_and_write, rounds=1, iterations=1)
    print_report(report)
    assert all(c["events"] > 0 for c in report["configs"])
    if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") == "1":
        for t in report.get("targets", ()):
            assert (t["achieved_events_per_sec_speedup"]
                    >= t["required_events_per_sec_speedup"]), t


if __name__ == "__main__":
    print_report(run_and_write())
    print(f"\nwrote {out_path()}")
