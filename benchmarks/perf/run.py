#!/usr/bin/env python3
"""The repository's benchmark: five workloads, measured from outside.

    python3 benchmarks/perf/run.py                      # every workload
    python3 benchmarks/perf/run.py --workload ckpt_waves --seed 11 \\
        --seconds 15 --trace 0                          # one end-to-end run
    python3 benchmarks/perf/run.py --workload ckpt_waves --trace 1   # by layer

With ``--workload`` the last line of standard output is one JSON object,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without it
every workload is run both ways, one child process at a time, and every
metric is printed by name with its unit.  Nothing is written unless
``--out FILE`` asks for the spans and tables.  See README.md here.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from bootstrap import PERF_DIR, ROOT, use_checkout_sources

#: Fresh interpreters timed for ``setup_s`` in one run (median reported).
SETUP_PROBES = 5


def run_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return int(json.load(fh)["run_seconds"])


def measure_setup(name: str, seed: int, smoke: bool) -> float:
    """Median seconds from starting an interpreter to the workload's
    first cluster sharing one view (see setup_probe.py)."""
    took = []
    for _ in range(1 if smoke else SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable,
                        os.path.join(PERF_DIR, "setup_probe.py"),
                        name, str(seed), "1" if smoke else "0"], check=True)
        took.append(time.perf_counter() - t0)
    return statistics.median(took)


def timed(workload, seed: int, smoke: bool, probe, profile=None):
    """One run of the workload: ``(outcome, wall seconds, cpu seconds)``."""
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if profile is not None:
        profile.enable()
    try:
        outcome = workload.run(seed, smoke, probe)
    finally:
        if profile is not None:
            profile.disable()
    return (outcome, time.perf_counter() - wall0,
            time.process_time() - cpu0)


def end_to_end(workload, seed: int, seconds: float, smoke: bool):
    """Closed loop on the host: run the workload again and again for
    ``seconds``, tracing off; medians over the runs."""
    from probe import Probe
    setup_s = measure_setup(workload.name, seed, smoke)
    probe = Probe(workload.name, enabled=False)
    walls, cpus, outcomes = [], [], []
    begin = time.perf_counter()
    while True:
        outcome, wall, cpu = timed(workload, seed, smoke, probe)
        walls.append(wall)
        cpus.append(cpu)
        outcomes.append(outcome)
        # Stop once the next run would end further from `seconds` than
        # this one did.
        if smoke or (time.perf_counter() - begin
                     + statistics.median(walls) / 2) >= seconds:
            break
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    return values, outcomes, {"runs": len(walls), "wall_s_samples": walls}


def per_layer(workload, seed: int, smoke: bool):
    """One run with the probe on (counts, spans, simulated results), one
    more under cProfile (self time and calls by layer), then the
    single-layer host timings."""
    import layers
    import micro
    from metrics import PER_LAYER
    from probe import Probe
    from workloads import PINGPONG_SIZES, pingpong_reps

    probe = Probe(workload.name, enabled=True)
    outcome, wall, cpu = timed(workload, seed, smoke, probe)
    profile = cProfile.Profile()
    traced, traced_wall, _ = timed(
        workload, seed, smoke, Probe(workload.name, enabled=False), profile)
    self_s, calls, profiled_s = layers.bucket(profile)

    values = {name: 0.0 for name, _unit, _better in PER_LAYER}
    values.update(outcome.sim)
    for layer in layers.LAYERS:
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        values[f"{layer}.calls"] = calls.get(layer, 0)
    values[f"{layers.OTHER}.self_s"] = self_s.get(layers.OTHER, 0.0)
    values["trace.overhead_x"] = traced_wall / wall
    values.update(probe.counts)
    values["sim.us_per_event"] = 1e6 * cpu / probe.counts["sim.events"]
    for label in ("legacy", "replicated", "tiered"):
        values[f"ckpt.wave_host_ms.{label}"] = probe.span_ms(f"wave/{label}")
        values[f"store.read_host_ms.{label}"] = probe.span_ms(f"read/{label}")
    values["mpi.roundtrip_host_us"] = (
        1e3 * probe.span_ms("pingpong")
        / (pingpong_reps(smoke) * len(PINGPONG_SIZES)))
    values.update(micro.run_all(seed))
    unknown = set(values) - {name for name, _u, _b in PER_LAYER}
    if unknown:
        raise RuntimeError(f"metrics missing from metrics.py: {unknown}")
    detail = {"spans": probe.spans, "profiled_s": profiled_s,
              "self_s": dict(self_s), "calls": dict(calls),
              "untraced_wall_s": wall, "traced_wall_s": traced_wall}
    return values, [outcome, traced], detail


def run_one(args) -> int:
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    if args.trace:
        values, outcomes, detail = per_layer(workload, args.seed, args.smoke)
        units = {name: unit for name, unit, _better in PER_LAYER}
    else:
        values, outcomes, detail = end_to_end(workload, args.seed,
                                              args.seconds, args.smoke)
        units = {name: unit for name, unit, _better, _bound in END_TO_END}
    failures = [line for outcome in outcomes for line in outcome.failures]
    for line in failures:
        print(f"FAILED {workload.name}: {line}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "smoke": args.smoke, "trace": args.trace,
                       **result, **detail}, fh, indent=1)
    for name, unit in units.items():
        print(f"{workload.name:<16} {name:<40} {values[name]:>18.9g} {unit}")
    print(json.dumps(result))
    return 0


def run_every(args) -> int:
    """Every workload, end to end and then by layer, each run in its own
    process, strictly one at a time."""
    from workloads import WORKLOADS
    report, ok = {}, True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            done = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                                  text=True)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            report.setdefault(name, {})[
                "per_layer" if trace else "end_to_end"] = result
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "smoke": args.smoke, "workloads": report}, fh,
                      indent=1)
    print("all workloads correct" if ok else "SOME OPERATIONS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    use_checkout_sources()
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload in this process "
                             "(default: every workload, in children)")
    parser.add_argument("--seed", type=int, default=11,
                        help="inputs are made from it (default 11; 23 is "
                             "the held-out seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long an end-to-end run measures "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="0: end-to-end metrics, tracing off; "
                             "1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload to under 2 s and run "
                             "it once; numbers are not comparable")
    parser.add_argument("--out", metavar="FILE",
                        help="also write results, spans and the by-layer "
                             "table to FILE as JSON")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()
    return run_one(args) if args.workload else run_every(args)


if __name__ == "__main__":
    sys.exit(main())
