#!/usr/bin/env python3
"""Measure this commit and write the numbers to a file.

    python3 benchmarks/perf/record_baseline.py benchmarks/perf/baseline.json

Run protocol: every run is a fresh ``run.py`` child, children strictly one
at a time, rounds interleaved ``w1..w5, w1..w5, ...`` so that machine
drift spreads over all workloads.  Seed 11 gets ``REPEATS`` end-to-end
rounds (median, min, max and n per host metric; with n = 5 no tail
percentile is reported, fewer than ten samples lie beyond any) and one
traced run; the held-out seed 23 is recorded once.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from bootstrap import PERF_DIR, use_checkout_sources

REPEATS = 5
SEEDS = {11: REPEATS, 23: 1}


def child(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(PERF_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", str(trace)],
        check=True, stdout=subprocess.PIPE, text=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: operations failed")
    return result


def main(argv) -> int:
    use_checkout_sources()
    from metrics import EXACT
    from workloads import WORKLOADS
    baseline = {}
    for seed, repeats in SEEDS.items():
        rounds = [{name: child(name, seed, 0) for name in WORKLOADS}
                  for _ in range(repeats)]
        per_seed = baseline[f"seed_{seed}"] = {}
        for name in WORKLOADS:
            host = {}
            for metric in rounds[0][name]["metrics"]:
                values = [r[name]["metrics"][metric]["value"]
                          for r in rounds]
                host[metric] = {"median": statistics.median(values),
                                "min": min(values), "max": max(values),
                                "n": len(values)}
            traced = child(name, seed, 1)["metrics"]
            per_seed[name] = {
                "end_to_end": host,
                "exact": {m: traced[m]["value"] for m in EXACT},
                "host_per_layer": {m: v["value"] for m, v in traced.items()
                                   if m not in EXACT},
            }
            print(f"seed {seed} {name}: "
                  f"wall_s {host['wall_s']['median']:.3f}", flush=True)
    with open(argv[1], "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
