"""Checks of the benchmark itself; not part of tier-1.

    python -m pytest benchmarks/perf

Every run here is ``--smoke`` (each workload shrunk to under 2 s), in its
own process, so what is checked is the schema, exactness and the contract,
never a speed.
"""

from __future__ import annotations

import functools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from bootstrap import PERF_DIR, ROOT, use_checkout_sources

use_checkout_sources()

from metrics import END_TO_END, EXACT, PER_LAYER, manifest_entries  # noqa: E402
from workloads import WORKLOADS                                     # noqa: E402

RUN = os.path.join(PERF_DIR, "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def smoke(workload: str, seed: int, trace: int, *extra: str):
    """(printed lines, result object) of one smoke run."""
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--smoke", *extra],
        check=True, capture_output=True, text=True, timeout=180)
    lines = done.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


#: Runs shared between tests (each is a few seconds).
cached_smoke = functools.lru_cache(maxsize=None)(smoke)


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_manifest_repeats_the_metric_lists():
    doc = manifest()
    end_to_end, per_layer = manifest_entries()
    assert doc["end_to_end"] == end_to_end
    assert doc["per_layer"] == per_layer
    assert doc["workloads"] == [{"name": w.name, "why": w.why}
                                for w in WORKLOADS.values()]
    assert doc["paths"] == [os.path.relpath(PERF_DIR, ROOT)]
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}


def test_names_units_and_limits():
    doc = manifest()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names
    for entry in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher"), entry
    for entry in doc["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25, entry
    setup = [e for e in doc["end_to_end"] if e["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(e["bound"] for e in doc["end_to_end"])}]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    assert 2 <= len(doc["workloads"]) <= 8
    assert len(doc["end_to_end"]) <= 16 and len(doc["per_layer"]) <= 128


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_run_prints_every_metric(workload):
    lines, result = cached_smoke(workload, 11, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {name: unit for name, unit, _b, _bound in END_TO_END}
    # End-to-end metrics are never 0, and are printed by name with a unit.
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit, _b, _bound in END_TO_END:
        assert any(line.split()[1] == name and line.split()[-1] == unit
                   for line in lines), name


@pytest.mark.parametrize("seed", (11, 23))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_is_complete_exact_and_covered(workload, seed):
    lines, first = cached_smoke(workload, seed, 1)
    _, second = smoke(workload, seed, 1)
    for result in (first, second):
        assert result["correct"] is True and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == {name: unit for name, unit, _better in PER_LAYER}
    for name, unit, _better in PER_LAYER:
        assert any(line.split()[1] == name and line.split()[-1] == unit
                   for line in lines), name
    # Simulated results, counts and calls repeat exactly for one seed.
    differ = {name: (first["metrics"][name]["value"],
                     second["metrics"][name]["value"])
              for name in EXACT
              if first["metrics"][name] != second["metrics"][name]}
    assert not differ
    # The named layers hold at least 95 % of the profiled time.
    self_s = {name: m["value"] for name, m in first["metrics"].items()
              if name.endswith(".self_s")}
    assert self_s["other.self_s"] <= 0.05 * sum(self_s.values())


def test_out_file_holds_spans_and_the_layer_table(tmp_path):
    out = tmp_path / "trace.json"
    smoke("ckpt_waves", 11, 1, "--out", str(out))
    doc = json.loads(out.read_text())
    assert {"name", "layer", "start", "end", "workload"} \
        == set(doc["spans"][0])
    assert {s["workload"] for s in doc["spans"]} == {"ckpt_waves"}
    assert any(s["name"] == "wave/tiered" and s["layer"] == "ckpt"
               for s in doc["spans"])
    assert doc["self_s"] and doc["calls"]


def test_same_seed_same_inputs_other_seed_other_inputs():
    _, a = cached_smoke("fleet_traffic32", 11, 1)
    _, b = cached_smoke("fleet_traffic32", 23, 1)
    assert a["metrics"]["sim.events"] != b["metrics"]["sim.events"]


def test_no_result_without_the_program(tmp_path):
    """In a directory that holds only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: exit non-zero, print no
    result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    rel = os.path.relpath(PERF_DIR, ROOT)
    shutil.copytree(PERF_DIR, tmp_path / rel,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, os.path.join(rel, "run.py"), "--workload",
         "p2p_pingpong", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "{" not in done.stdout
