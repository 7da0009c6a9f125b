"""Metrics snapshots and the tracing facility."""

import pytest

from repro.apps import ComputeSleep
from repro.core import AppSpec, CheckpointConfig, FaultPolicy, StarfishCluster
from repro.core.metrics import ClusterMetrics
from repro.sim import Engine
from repro.sim.trace import Tracer


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def test_engine_records_events_when_tracing():
    eng = Engine(trace=True)

    def proc():
        yield eng.timeout(1, name="tick")
        yield eng.timeout(2, name="tock")

    eng.run(eng.process(proc()))
    names = [r.name for r in eng.tracer.events if r.name]
    assert "tick" in names and "tock" in names
    kinds = {r.kind for r in eng.tracer.events}
    assert "Timeout" in kinds and "Process" in kinds


def test_engine_no_tracer_by_default():
    assert Engine().tracer is None


def test_tracer_ring_buffer_caps_memory():
    tr = Tracer(max_events=10)
    eng = Engine()
    for i in range(25):
        tr.record(float(i), eng.timeout(0, name=f"e{i}"))
    assert len(tr.events) == 10
    assert tr.events_dropped == 15
    assert tr.events[0].name == "e15"        # oldest rotated out
    assert tr.events[-1].name == "e24"


def test_tracer_rejects_bad_capacity():
    with pytest.raises(ValueError):
        Tracer(max_events=0)


def test_engine_traced_run_counts_drops():
    eng = Engine(trace=True)
    eng.tracer = Tracer(max_events=5)

    def proc():
        for _ in range(20):
            yield eng.timeout(0.1)

    eng.run(eng.process(proc()))
    assert len(eng.tracer.events) == 5
    assert eng.tracer.events_dropped > 0
    assert eng.metrics.collect()["sim.trace.events_dropped"] == \
        eng.tracer.events_dropped


# ---------------------------------------------------------------------------
# ClusterMetrics
# ---------------------------------------------------------------------------

def test_snapshot_reflects_running_app():
    sf = StarfishCluster.build(nodes=3)
    handle = sf.submit(AppSpec(
        program=ComputeSleep, nprocs=2,
        params={"steps": 200, "step_time": 0.02},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="stop-and-sync", level="vm",
                                    interval=0.5)))
    sf.engine.run(until=sf.engine.now + 1.5)
    snap = ClusterMetrics(sf).snapshot()
    assert snap.nodes_up == 3 and snap.daemons == 3
    assert snap.group_epoch is not None
    app = snap.apps[0]
    assert app.app_id == handle.app_id
    assert app.status == "running"
    assert app.ckpt_protocol == "stop-and-sync"
    assert app.committed_line is not None
    assert all(n > 0 for n in app.steps_completed.values())
    assert snap.store_writes >= 2
    eth = next(f for f in snap.fabrics if f.name == "tcp-ethernet")
    assert eth.by_kind.get("control", 0) > 0
    assert eth.by_kind.get("checkpoint/restart", 0) > 0


def test_snapshot_counts_crash_effects():
    sf = StarfishCluster.build(nodes=3)
    sf.crash_node("n2")
    sf.engine.run(until=sf.engine.now + 2.0)
    snap = ClusterMetrics(sf).snapshot()
    assert snap.nodes_up == 2
    assert snap.daemons == 2


def test_registry_latency_histograms_fill_under_collectives():
    from repro.apps import MonteCarloPi
    sf = StarfishCluster.build(nodes=2)
    sf.run(AppSpec(program=MonteCarloPi, nprocs=2,
                   params={"shots": 2000}))
    reg = sf.engine.metrics
    series = reg.series("mpi.collective.latency_seconds")
    assert series, "no collective latency recorded"
    assert sum(inst.count for _l, inst in series) > 0
    assert all(inst.sum >= 0 for _l, inst in series)
    p2p = reg.series("mpi.p2p.latency_seconds", op="send")
    assert p2p and p2p[0][1].count > 0
    # Fast path carried the data frames.
    assert reg.sum("net.frames_sent", fabric="bip-myrinet", kind="data") > 0


def test_format_report_mentions_everything():
    sf = StarfishCluster.build(nodes=2)
    handle = sf.submit(AppSpec(program=ComputeSleep, nprocs=2,
                               params={"steps": 3, "step_time": 0.01}))
    sf.run_to_completion(handle)
    report = ClusterMetrics(sf).format_report()
    assert "2/2 nodes up" in report
    assert handle.app_id in report
    assert "tcp-ethernet" in report and "bip-myrinet" in report
    assert "done" in report
