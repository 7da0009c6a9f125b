"""The observability substrate: instruments, registry, event log, exporters."""

import json

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
    g.inc(2)
    g.dec()
    assert g.value == 6
    g.reset()
    assert g.value == 0.0


def test_histogram_buckets_and_stats():
    h = Histogram("lat", buckets=(0.001, 0.01, 0.1))
    for v in (0.0005, 0.002, 0.02, 0.5):
        h.observe(v)
    assert h.count == 4
    assert h.sum == pytest.approx(0.5225)
    assert h.mean == pytest.approx(0.5225 / 4)
    assert h.min == 0.0005 and h.max == 0.5
    # Cumulative le-style counts, overflow bucket included.
    assert h.bucket_counts() == {0.001: 1, 0.01: 2, 0.1: 3,
                                 float("inf"): 4}
    assert h.quantile(0.5) == 0.01
    h.reset()
    assert h.count == 0 and h.min is None
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
