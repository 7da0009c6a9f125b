"""Unit tests of the application-process runtime's scheduler mechanics."""

import pytest

from repro.core import AppSpec, CheckpointConfig, FaultPolicy, StarfishCluster
from repro.core.program import StarfishProgram


class Stepper(StarfishProgram):
    """Counts steps; optionally records upcalls."""

    def setup(self, ctx):
        self.state.update(i=0, coords=[], views=0)

    def step(self, ctx):
        yield from ctx.sleep(float(ctx.params.get("step_time", 0.01)))
        self.state["i"] += 1

    def is_done(self, ctx):
        return self.state["i"] >= int(ctx.params.get("steps", 5))

    def finalize(self, ctx):
        return self.state["i"]

    def on_view_change(self, ctx, info):
        self.state["views"] += 1

    def on_coordination(self, ctx, source, payload):
        self.state["coords"].append((source, payload))


def launch(sf, **kw):
    spec = AppSpec(program=kw.pop("program", Stepper),
                   nprocs=kw.pop("nprocs", 2),
                   params=kw.pop("params", {"steps": 50,
                                            "step_time": 0.02}),
                   **kw)
    handle = sf.submit(spec)
    sf.engine.run(until=sf.engine.now + 0.5)
    procs = {}
    for daemon in sf.live_daemons():
        for (aid, rank), h in daemon.handles.items():
            if aid == handle.app_id:
                procs[rank] = h
    return handle, procs


def test_steps_completed_advances():
    sf = StarfishCluster.build(nodes=2)
    handle, procs = launch(sf)
    before = procs[0].steps_completed
    sf.engine.run(until=sf.engine.now + 0.5)
    assert procs[0].steps_completed > before


def test_pause_with_future_target_waits_for_boundary():
    sf = StarfishCluster.build(nodes=2)
    handle, procs = launch(sf)
    rt = procs[0]
    target = rt.steps_completed + 3
    ev = rt.request_pause(target)
    assert ev is not None               # not eligible yet
    sf.engine.run(until=sf.engine.now + 0.2)
    assert ev.triggered                 # acked at the target boundary
    assert rt.steps_completed == target
    frozen_at = rt.steps_completed
    sf.engine.run(until=sf.engine.now + 0.5)
    assert rt.steps_completed == frozen_at   # actually frozen
    rt.resume()
    sf.engine.run(until=sf.engine.now + 0.2)
    assert rt.steps_completed > frozen_at


def test_pause_accumulates_frozen_time():
    sf = StarfishCluster.build(nodes=2)
    handle, procs = launch(sf)
    rt = procs[0]
    ev = rt.request_pause(rt.steps_completed + 1)
    sf.engine.run(until=sf.engine.now + 0.1)
    assert ev.triggered
    sf.engine.run(until=sf.engine.now + 0.4)
    rt.resume()
    sf.engine.run(until=sf.engine.now + 0.05)
    assert rt.paused_accum > 0.35


def test_two_pausers_resume_only_when_both_release():
    sf = StarfishCluster.build(nodes=2)
    handle, procs = launch(sf)
    rt = procs[0]
    rt.request_pause(rt.steps_completed + 1)
    rt.request_pause(None)
    sf.engine.run(until=sf.engine.now + 0.1)
    frozen = rt.steps_completed
    rt.resume()
    sf.engine.run(until=sf.engine.now + 0.3)
    assert rt.steps_completed == frozen       # still held by the second
    rt.resume()
    sf.engine.run(until=sf.engine.now + 0.3)
    assert rt.steps_completed > frozen


def test_suspend_resume_roundtrip():
    sf = StarfishCluster.build(nodes=2)
    handle, procs = launch(sf)
    procs[0].suspend()
    procs[1].suspend()
    sf.engine.run(until=sf.engine.now + 0.2)
    frozen = (procs[0].steps_completed, procs[1].steps_completed)
    sf.engine.run(until=sf.engine.now + 1.0)
    assert (procs[0].steps_completed, procs[1].steps_completed) == frozen
    procs[0].resume()
    procs[1].resume()
    results = sf.run_to_completion(handle)
    assert results == {0: 50, 1: 50}


def test_coordination_upcall_delivery():
    sf = StarfishCluster.build(nodes=2)
    handle, procs = launch(sf)
    procs[1].ctx.coordinate({"hello": 1})
    sf.engine.run(until=sf.engine.now + 0.5)
    # Both ranks (including the sender) receive the cast, tagged with the
    # sender's world rank.
    for rank in (0, 1):
        coords = procs[rank].program.state["coords"]
        assert (1, {"hello": 1}) in coords


def test_kill_is_idempotent_and_final():
    sf = StarfishCluster.build(nodes=2)
    handle, procs = launch(sf)
    procs[0].kill("test")
    procs[0].kill("again")
    assert procs[0].done.value == ("killed", "test")


def test_aborted_steps_counted_on_view_change():
    sf = StarfishCluster.build(nodes=3)
    # Long steps: the view change is (almost) guaranteed to land mid-step.
    handle, procs = launch(sf, nprocs=3,
                           params={"steps": 30, "step_time": 0.8},
                           ft_policy=FaultPolicy.VIEW_NOTIFY)
    victim = handle._record().placement[2]
    sf.crash_node(victim)
    sf.engine.run(until=sf.engine.now + 4.0)
    # Survivors saw the view (program upcall ran) and aborted a step.
    assert procs[0].program.state["views"] >= 1
    rank0 = dict(app=handle.app_id, rank=0)
    assert sf.engine.metrics.value("app.views", **rank0) >= 1
    assert sf.engine.metrics.value("app.aborted_steps", **rank0) >= 1
    sf.run_to_completion(handle, timeout=120)


def test_periodic_ticker_only_on_lowest_rank():
    sf = StarfishCluster.build(nodes=2)
    handle, procs = launch(
        sf, params={"steps": 100, "step_time": 0.02},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="stop-and-sync", level="vm",
                                    interval=0.4))
    assert len(procs[0]._tickers) == 1
    assert len(procs[1]._tickers) == 0
    sf.engine.run(until=sf.engine.now + 1.5)
    assert sf.store.latest_committed(handle.app_id) is not None


def test_restart_flag_visible_to_program():
    class Observer(Stepper):
        def finalize(self, ctx):
            return (self.state["i"], ctx.restarted)

    sf = StarfishCluster.build(nodes=2)
    handle, procs = launch(
        sf, program=Observer, params={"steps": 60, "step_time": 0.05},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="stop-and-sync", level="vm",
                                    interval=0.5))
    sf.engine.run(until=sf.engine.now + 1.2)
    sf.crash_node(handle._record().placement[1])
    results = sf.run_to_completion(handle, timeout=300)
    assert results[0] == (60, True)
    assert results[1] == (60, True)
