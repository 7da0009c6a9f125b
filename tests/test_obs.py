"""The observability substrate: instruments, registry, event log, exporters."""

import ast
import json
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.obs import (DEFAULT_LATENCY_BUCKETS, Counter, EventLog, Gauge,
                       Histogram, MetricsRegistry, NULL_REGISTRY,
                       chrome_trace, flatten, get_registry, to_prometheus,
                       to_text)
from repro.sim import Engine
from repro.sim.trace import Tracer


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------

def test_counter_is_monotonic():
    c = Counter("x")
    c.inc()
    c.inc(3)
    assert c.value == 4
    with pytest.raises(ValueError):
        c.inc(-1)
    c.reset()
    assert c.value == 0


def test_gauge_moves_both_ways():
    g = Gauge("depth")
    g.set(5)
    g.set(2)
    assert g.value == 2
    g.reset()
    assert g.value == 0.0


def test_histogram_buckets_and_stats():
    h = Histogram("lat", buckets=(0.001, 0.01, 0.1))
    for v in (0.0005, 0.002, 0.02, 0.5):
        h.observe(v)
    assert h.count == 4
    assert h.sum == pytest.approx(0.5225)
    # Cumulative le-style counts, overflow bucket included.
    assert h.bucket_counts() == {0.001: 1, 0.01: 2, 0.1: 3,
                                 float("inf"): 4}
    h.reset()
    assert h.count == 0 and h.sum == 0.0
    assert h.bucket_counts()[float("inf")] == 0


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ValueError):
        Histogram("bad", buckets=(0.1, 0.01))


def test_default_latency_buckets_are_ascending():
    assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
    assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-6)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_get_or_create_identity_ignores_label_order():
    reg = MetricsRegistry()
    a = reg.counter("net.frames", fabric="myr", kind="data")
    b = reg.counter("net.frames", kind="data", fabric="myr")
    assert a is b
    a.inc(7)
    assert reg.value("net.frames", fabric="myr", kind="data") == 7


def test_kind_conflict_rejected():
    reg = MetricsRegistry()
    reg.counter("x.y")
    with pytest.raises(TypeError):
        reg.gauge("x.y")


def test_sum_and_group_by_aggregate_series():
    reg = MetricsRegistry()
    reg.counter("f", fabric="eth", kind="data").inc(3)
    reg.counter("f", fabric="eth", kind="control").inc(2)
    reg.counter("f", fabric="myr", kind="data").inc(10)
    assert reg.sum("f") == 15
    assert reg.sum("f", fabric="eth") == 5
    assert reg.group_by("f", "kind", fabric="eth") == {"data": 3,
                                                       "control": 2}
    assert reg.group_by("f", "fabric") == {"eth": 5, "myr": 10}


def test_disabled_registry_hands_out_noops():
    reg = MetricsRegistry(enabled=False)
    c = reg.counter("a")
    c.inc(5)
    assert c.value == 0
    reg.histogram("h").observe(1.0)
    reg.gauge("g").set(9)
    assert reg.instruments() == []
    assert flatten(reg) == {}


def test_gauge_fn_sampled_at_collect_time():
    reg = MetricsRegistry()
    box = {"v": 1}
    reg.gauge_fn("live.depth", lambda: box["v"])
    assert flatten(reg)["live.depth"] == 1
    box["v"] = 42
    assert flatten(reg)["live.depth"] == 42


def test_registry_reset_keeps_series():
    reg = MetricsRegistry()
    c = reg.counter("n", k="v")
    c.inc(9)
    reg.events.emit(0.5, "boom")
    reg.reset()
    assert c.value == 0
    assert len(reg.events) == 0
    assert reg.get("n", k="v") is c


def test_get_registry_falls_back_to_null():
    assert get_registry(object()) is NULL_REGISTRY
    eng = Engine()
    assert get_registry(eng) is eng.metrics


# ---------------------------------------------------------------------------
# event log
# ---------------------------------------------------------------------------

def test_event_log_is_bounded_ring():
    log = EventLog(capacity=3)
    for i in range(5):
        log.emit(float(i), "tick", i=i)
    assert log.emitted == 5
    assert log.dropped == 2
    assert [e.field_dict["i"] for e in log.records()] == [2, 3, 4]
    assert log.records("tick") and not log.records("other")
    log.clear()
    assert len(log) == 0 and log.emitted == 0


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

def test_flatten_and_text_formats():
    reg = MetricsRegistry()
    reg.counter("net.frames_sent", fabric="myr", kind="data").inc(5)
    reg.histogram("lat", buckets=(0.01,)).observe(0.002)
    flat = flatten(reg)
    assert flat["net.frames_sent{fabric=myr,kind=data}"] == 5
    assert flat["lat_count"] == 1
    assert flat["lat_bucket{le=0.01}"] == 1
    assert flat["lat_bucket{le=+Inf}"] == 1
    text = to_text(reg)
    assert "net.frames_sent{fabric=myr,kind=data}" in text


def test_prometheus_exposition_format():
    reg = MetricsRegistry()
    reg.counter("net.frames_sent", help="frames", fabric="myr").inc(2)
    reg.histogram("mpi.p2p.latency_seconds", buckets=(0.001,),
                  op="send").observe(0.1)
    out = to_prometheus(reg)
    assert "# TYPE net_frames_sent counter" in out
    assert 'net_frames_sent{fabric="myr"} 2' in out
    assert "# TYPE mpi_p2p_latency_seconds histogram" in out
    assert 'mpi_p2p_latency_seconds_bucket{op="send",le="+Inf"} 1' in out
    assert 'mpi_p2p_latency_seconds_count{op="send"} 1' in out


def test_chrome_trace_schema():
    tr = Tracer()
    tr.record(0.003, Engine().timeout(0, name="tick"))
    log = EventLog()
    log.emit(0.0025, "gcs.view", epoch=1)
    doc = chrome_trace(tr, event_log=log)
    json.dumps(doc)                              # must be serializable
    events = doc["traceEvents"]
    instants = [e for e in events if e["ph"] == "i"]
    assert [(e["name"], e["cat"]) for e in instants] == \
        [("gcs.view", "obs"), ("tick", "Timeout")]
    assert instants[0]["ts"] == pytest.approx(2500.0)   # us
    assert instants[0]["args"] == {"epoch": 1}
    assert instants[1]["ts"] == pytest.approx(3000.0)
    meta = [e for e in events if e["ph"] == "M"]
    assert {m["args"]["name"] for m in meta} == {"engine", "events"}
    # ts-sorted (metadata events carry no ts and sort first).
    stamped = [e["ts"] for e in events if "ts" in e]
    assert stamped == sorted(stamped)


# ---------------------------------------------------------------------------
# engine integration
# ---------------------------------------------------------------------------

def test_engine_step_on_empty_queue_is_descriptive():
    eng = Engine()
    with pytest.raises(SimulationError, match="event queue is empty"):
        eng.step()


def test_engine_gauges_track_progress():
    eng = Engine()

    def proc():
        yield eng.timeout(1)
        yield eng.timeout(1)

    eng.run(eng.process(proc()))
    flat = flatten(eng.metrics)
    assert flat["sim.events_processed"] == eng.events_processed > 0
    assert flat["sim.queue_depth"] == 0


def test_engine_telemetry_off():
    eng = Engine(telemetry=False)
    assert not eng.metrics.enabled

    def proc():
        yield eng.timeout(1)

    eng.run(eng.process(proc()))
    assert flatten(eng.metrics) == {}


# ---------------------------------------------------------------------------
# telemetry census (DESIGN §32): every series src/ creates has a reader
# ---------------------------------------------------------------------------

_ROOT = Path(__file__).resolve().parents[1]
_CREATE_CALLS = {"counter", "gauge", "gauge_fn", "histogram", "_from_ready",
                 "_count"}

#: Series read without their name, and the reader that keeps each one.
_READ_WITHOUT_NAME = {
    "store.repair.kicks": "RepairService.status",
    "store.repair.jobs": "RepairService.status",
    "store.repair.bytes": "RepairService.status",
    # Tenant-labelled fleet series: the per-tenant ControlAPI metrics op.
    "fleet.jobs_rejected": "ControlAPI._op_metrics",
    "fleet.queue_depth": "ControlAPI._op_metrics",
    "fleet.ranks_running": "ControlAPI._op_metrics",
}


def _call_name(call):
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def _literal_arg(call, index):
    arg = call.args[index] if len(call.args) > index else None
    return arg.value if isinstance(arg, ast.Constant) \
        and isinstance(arg.value, str) else None


def _created_series():
    """{series name: files creating it}, from the literal names in src/:
    instrument calls, a ``_mk = lambda what: ...("gcs." + what)`` name
    table, and the daemon's ``_APP_COUNTERS``."""
    out = {}
    for path in sorted((_ROOT / "src").rglob("*.py")):
        rel = path.relative_to(_ROOT).as_posix()
        tree = ast.parse(path.read_text())
        tables = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) \
                    and isinstance(node.targets[0], ast.Name):
                target, value = node.targets[0].id, node.value
                if target == "_APP_COUNTERS":
                    for key in value.keys:
                        out.setdefault(key.value, set()).add(rel)
                elif isinstance(value, ast.Lambda) \
                        and isinstance(value.body, ast.Call) \
                        and _call_name(value.body) in _CREATE_CALLS \
                        and value.body.args \
                        and isinstance(value.body.args[0], ast.BinOp):
                    tables[target] = value.body.args[0].left.value
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name, prefix = _call_name(node), ""
            if name in tables:
                prefix = tables[name]
            elif name not in _CREATE_CALLS:
                continue
            # _from_ready(engine, name, ...); every other call takes the
            # name first.
            literal = _literal_arg(node, 1 if name == "_from_ready" else 0)
            if literal is not None:
                out.setdefault(prefix + literal, set()).add(rel)
    return out


def test_every_series_src_creates_has_a_reader():
    created = _created_series()
    assert set(_READ_WITHOUT_NAME) <= set(created)
    # The name tables were parsed too: the GCS "gcs." + what table, the
    # daemon's _APP_COUNTERS and the VNI's _from_ready series.
    assert sum(name.startswith("gcs.") for name in created) >= 6
    assert sum(name.startswith("daemon.ranks_") for name in created) == 2
    assert sum(name.startswith("vni.") for name in created) == 2
    sources = {path.relative_to(_ROOT).as_posix(): path.read_text()
               for top in ("src", "tests", "benchmarks")
               for path in (_ROOT / top).rglob("*.py")}
    unread = sorted(
        name for name, writers in created.items()
        if name not in _READ_WITHOUT_NAME
        and not any(f'"{name}"' in text or f"'{name}'" in text
                    for path, text in sources.items() if path not in writers))
    assert unread == [], f"series no reader uses: {unread}"
