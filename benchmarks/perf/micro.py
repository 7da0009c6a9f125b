"""Host time around single public calls into one layer.

Each function below times one layer with no stack above it and returns
per-layer metric values.  They take no workload: the numbers say how fast
the layer itself is on this machine, and the interaction table in the
README says which workload's ``wall_s`` each should move.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

import numpy as np

from repro.apps.traffic import ShortTask
from repro.cluster import DEFAULT_ARCH, ClusterSpec
from repro.core import AppSpec, StarfishCluster
from repro.fleet import ControlAPI, FleetController
from repro.hetero import decode, encode
from repro.obs import MetricsRegistry, to_prometheus
from repro.sim import Engine
from repro.store.delta import BLOCK, delta_apply, delta_encode

MB = 1024 * 1024
REPEATS = 5


def _median_seconds(fn: Callable[[], object], repeats: int = REPEATS):
    """Median host seconds of ``fn()`` and its last return value."""
    took, value = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        took.append(time.perf_counter() - t0)
    return statistics.median(took), value


def _hold_model(scheduler: str, processes: int, sim_seconds: float,
                seed: int) -> float:
    """Events per host second of a bare engine in which ``processes``
    processes each re-arm one timeout for ever (the classic hold model:
    the event list stays ``processes`` deep)."""
    delays = np.random.default_rng(seed).exponential(
        1.0, size=4096).tolist()

    def holder(eng: Engine, k: int):
        while True:
            k = (k + 7) % 4096
            yield eng.timeout(delays[k])

    def once() -> float:
        eng = Engine(seed=seed, scheduler=scheduler)
        for i in range(processes):
            eng.process(holder(eng, i))
        eng.run(until=1.0)                     # list filled, caches warm
        before = eng.events_processed
        t0 = time.perf_counter()
        eng.run(until=1.0 + sim_seconds)
        return (eng.events_processed - before) / (time.perf_counter() - t0)

    return statistics.median(once() for _ in range(3))


def sim_kernel(seed: int) -> Dict[str, float]:
    return {
        # 64 processes, ~200 k events: the dispatch loop on a shallow list.
        "sim.kernel_events_per_s": _hold_model("heap", 64, 3000.0, seed),
        # 10 k pending timeouts, ~200 k events: the two event lists at the
        # depth a 256-node cluster keeps.
        "sim.sched.heap_ops_per_s": _hold_model("heap", 10_000, 20.0, seed),
        "sim.sched.calendar_ops_per_s":
            _hold_model("calendar", 10_000, 20.0, seed),
    }


def image_codecs(seed: int) -> Dict[str, float]:
    """hetero encode/decode and the delta codec on a 4 MB image of which
    1/8 of the 4 KB blocks changed."""
    rng = np.random.default_rng(seed)
    buf = rng.integers(0, 256, size=4 * MB, dtype=np.uint8)
    state = {"done": 7, "buf": buf}
    encode_s, blob = _median_seconds(lambda: encode(state, DEFAULT_ARCH))
    decode_s, back = _median_seconds(lambda: decode(blob, DEFAULT_ARCH))
    if not np.array_equal(back.value["buf"], buf):
        raise RuntimeError("hetero decode(encode(state)) != state")

    base = buf.tobytes()
    dirty = rng.choice(len(base) // BLOCK, size=len(base) // BLOCK // 8,
                       replace=False)
    changed = buf.copy()
    changed[dirty * BLOCK] += np.uint8(1)
    new = changed.tobytes()
    delta_s, delta = _median_seconds(lambda: delta_encode(base, new))
    apply_s, rebuilt = _median_seconds(lambda: delta_apply(base, delta))
    if rebuilt != new or delta.nbytes != len(dirty) * BLOCK:
        raise RuntimeError("delta_apply(delta_encode(base, new)) != new")
    size_mb = len(base) / MB
    return {"hetero.encode_mb_per_s": size_mb / encode_s,
            "hetero.decode_mb_per_s": size_mb / decode_s,
            "store.delta.encode_mb_per_s": size_mb / delta_s,
            "store.delta.apply_mb_per_s": size_mb / apply_s}


def fleet_and_obs(seed: int) -> Dict[str, float]:
    """Control-plane entry points and the telemetry primitives."""
    sf = StarfishCluster.build(spec=ClusterSpec(nodes=8, seed=seed))
    controller = FleetController(sf, auto_drain=False)
    api = ControlAPI(controller)
    spec = AppSpec(program=ShortTask, nprocs=2, tenant="micro")
    calls = 500
    t0 = time.perf_counter()
    jobs = [controller.submit(spec) for _ in range(calls)]
    submit_s = time.perf_counter() - t0
    request = {"op": "status", "job_id": jobs[0].job_id}
    t0 = time.perf_counter()
    for _ in range(calls):
        reply = api.handle(request)
    api_s = time.perf_counter() - t0
    if not reply["ok"]:
        raise RuntimeError(f"ControlAPI status failed: {reply}")
    controller.close()

    export_s, text = _median_seconds(lambda: to_prometheus(sf.engine.metrics))
    if "gcs_views" not in text:
        raise RuntimeError("Prometheus export lost the gcs.views series")

    counter = MetricsRegistry().counter("bench.micro")
    incs = 200_000
    t0 = time.perf_counter()
    for _ in range(incs):
        counter.inc()
    inc_s = time.perf_counter() - t0
    return {"fleet.submit_us": 1e6 * submit_s / calls,
            "fleet.api_us": 1e6 * api_s / calls,
            "obs.export_ms": 1e3 * export_s,
            "obs.counter_inc_ns": 1e9 * inc_s / incs}


def run_all(seed: int) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for part in (sim_kernel, image_codecs, fleet_and_obs):
        out.update(part(seed))
    return out
