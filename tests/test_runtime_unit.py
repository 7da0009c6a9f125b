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


# -- step abort: a world change that lands mid-step ----------------------------

class Waiter(StarfishProgram):
    """Six steps; what rank 0's step waits on is picked by
    ``params['wait']``.  In the 3-rank world the highest rank is late, so a
    receive from it, or a coordinated checkpoint that needs it at a step
    boundary, blocks."""

    def setup(self, ctx):
        self.state.update(i=0, worlds=[])

    def step(self, ctx):
        kind, mpi = ctx.params["wait"], ctx.mpi
        self.state["worlds"].append(mpi.size)
        if kind == "timeout" or (mpi.size == 3 and mpi.rank == 2):
            yield from ctx.sleep(0.8)
        if kind == "recv":
            yield from mpi.allreduce(1)
        elif kind == "checkpoint" and mpi.rank == 0:
            yield from ctx.checkpoint()
        yield from ctx.sleep(0.05)
        self.state["i"] += 1

    def is_done(self, ctx):
        return self.state["i"] >= 6

    def finalize(self, ctx):
        return self.state["i"]


@pytest.mark.parametrize("wait,awaited", [("timeout", "Timeout"),
                                          ("recv", "req:recv"),
                                          ("checkpoint", "ckpt-commit")])
def test_world_change_mid_step_reexecutes_it_on_the_new_world(wait, awaited):
    def run(crash):
        sf = StarfishCluster.build(nodes=3)
        extra = {}
        if wait == "checkpoint":
            extra["checkpoint"] = CheckpointConfig(protocol="stop-and-sync",
                                                   level="vm")
        handle, procs = launch(sf, program=Waiter, nprocs=3,
                               params={"wait": wait},
                               ft_policy=FaultPolicy.VIEW_NOTIFY, **extra)
        if crash:
            assert awaited in repr(procs[0]._awaited)   # parked mid-step
            assert procs[0].steps_completed == 0
            sf.crash_node(handle._record().placement[2])
        return sf, handle, procs, sf.run_to_completion(handle, timeout=120)

    _, _, _, free = run(crash=False)
    sf, handle, procs, results = run(crash=True)
    assert results == {rank: free[rank] for rank in (0, 1)} == {0: 6, 1: 6}
    assert sf.engine.metrics.value("app.aborted_steps", app=handle.app_id,
                                   rank=0) == 1
    # The aborted step ran on the old world, its redo on the new one.
    assert procs[0].program.state["worlds"] == [3] + [2] * 6


class Scripted(StarfishProgram):
    """Rank 0's steps are driven by the test: ``script(program, ctx)`` is
    the step body, ``hook`` whatever the test wants called from inside the
    simulation.  Rank 1 only idles."""

    script = hook = None

    def setup(self, ctx):
        self.state.update(i=0, log=[])

    def step(self, ctx):
        if ctx.rank == 0:
            yield from type(self).script(self, ctx)
        else:
            yield from ctx.sleep(0.05)
        self.state["i"] += 1

    def is_done(self, ctx):
        return self.state["i"] >= int(ctx.params.get("steps", 3))

    def finalize(self, ctx):
        return self.state["i"]


def scripted(script, **params):
    """Boot a 2-rank ``Scripted`` app; returns ``(sf, rank 0's runtime,
    shrink)`` where ``shrink()`` tells rank 0 that rank 1 is gone."""
    Scripted.script, Scripted.hook = staticmethod(script), None
    sf = StarfishCluster.build(nodes=2)
    _, procs = launch(sf, program=Scripted, params=params)
    rt = procs[0]

    def shrink():
        rt.deliver_membership((0,), rt.world_version + 1,
                              {0: rt.node.node_id})

    return sf, rt, shrink


def arm_hook(ctx, delay):
    """Call ``Scripted.hook`` (if set) ``delay`` from now, from a timeout
    older than any the step creates after this call."""
    ctx._rt.engine.timeout(delay).callbacks.append(
        lambda _ev: Scripted.hook and Scripted.hook())


def aborted(sf, rt):
    return sf.engine.metrics.value("app.aborted_steps",
                                   app=rt.record.app_id, rank=0)


def test_abort_is_delivered_through_the_queue_not_inside_the_caller():
    def script(prog, ctx):
        yield from ctx.sleep(10.0)

    sf, rt, shrink = scripted(script)
    shrink()
    assert rt._awaited is not None and aborted(sf, rt) == 0
    sf.engine.run(until=sf.engine.now)          # this instant only
    assert aborted(sf, rt) == 1
    assert rt.world.group == (0,)       # redo runs on the new world


def test_step_event_processed_first_is_consumed_and_the_next_wait_aborts():
    def script(prog, ctx):
        # Two timeouts for the same instant: the older one calls the hook —
        # the disturbance — before the awaited one is processed.
        arm_hook(ctx, 1.0)
        yield from ctx.sleep(1.0)
        prog.state["log"].append(("first wait over", ctx.now))
        yield from ctx.sleep(5.0)
        prog.state["log"].append(("second wait over", ctx.now))

    sf, rt, shrink = scripted(script)           # 0.5 s into the first wait
    at = []

    def disturb():
        Scripted.hook = None
        shrink()
        at.append(sf.engine.now)

    Scripted.hook = disturb
    sf.engine.run(until=sf.engine.now + 1.0)
    # The awaited timeout of that instant was consumed (the step went on),
    # the wait after it was aborted in the same instant, not 5 s later.
    assert rt.program.state["log"] == [("first wait over", at[0])]
    assert aborted(sf, rt) == 1 and rt.steps_completed == 0
    assert rt.world.group == (0,)


def test_step_that_catches_the_abort_and_waits_again_is_aborted_again():
    from repro.core.runtime import _StepAborted

    def script(prog, ctx):
        try:
            yield from ctx.sleep(10.0)
        except _StepAborted:
            prog.state["log"].append(("caught", ctx.now))
            yield from ctx.sleep(10.0)
            prog.state["log"].append(("slept on", ctx.now))

    sf, rt, shrink = scripted(script)
    now = sf.engine.now
    shrink()
    sf.engine.run(until=now)
    assert rt.program.state["log"] == [("caught", now)]
    assert aborted(sf, rt) == 1


@pytest.mark.parametrize("kill_first", [True, False])
def test_kill_wins_over_a_disturbance_of_the_same_instant(kill_first):
    def script(prog, ctx):
        yield from ctx.sleep(10.0)

    sf, rt, shrink = scripted(script)
    for act in ((lambda: rt.kill("test"), shrink) if kill_first
                else (shrink, lambda: rt.kill("test"))):
        act()
    sf.engine.run(until=sf.engine.now + 1.0)
    assert rt.done.value == ("killed", "test")
    assert rt._proc.ok                          # no stray exception
    assert aborted(sf, rt) == 0
    assert sf.engine.metrics.value("app.views", app=rt.record.app_id,
                                   rank=0) == 0


def test_disturbance_never_reaches_a_later_step_or_the_safe_point():
    def script(prog, ctx):
        arm_hook(ctx, 0.3)
        yield from ctx.sleep(0.3)               # the step's only wait

    sf, rt, shrink = scripted(script, steps=8)
    Scripted.hook = lambda: (setattr(Scripted, "hook", None), shrink())
    assert sf.engine.run(rt.done) == ("ok", 8)
    # The awaited event was consumed and ended the step: nothing to abort,
    # the view is applied at the safe point and no later step is hit.
    assert aborted(sf, rt) == 0
    assert sf.engine.metrics.value("app.views", app=rt.record.app_id,
                                   rank=0) == 1


def test_abandoned_event_that_fails_later_does_not_crash_the_engine():
    events = []

    def script(prog, ctx):
        if not events:
            events.append(ctx._rt.engine.event())
            yield events[0]
        yield from ctx.sleep(0.01)

    sf, rt, shrink = scripted(script)
    assert rt._awaited is events[0]
    shrink()
    sf.engine.run(until=sf.engine.now)
    assert aborted(sf, rt) == 1
    events[0].fail(RuntimeError("nobody waits for this any more"))
    sf.engine.run(until=sf.engine.now + 1.0)    # would raise if undefused
    assert rt.done.value == ("ok", 3)


def test_abandoned_succeeded_get_gives_its_item_back():
    from repro.sim import Channel
    box = []

    def script(prog, ctx):
        if not box:
            box.append(Channel(ctx._rt.engine))
        prog.state["log"].append((yield box[0].get()))

    sf, rt, shrink = scripted(script, steps=1)
    shrink()                    # the abort is queued ahead of the get event
    box[0].put("cargo")         # ... which this succeeds in the same instant
    sf.engine.run(until=sf.engine.now)
    assert aborted(sf, rt) == 1
    # Salvaged into the channel, and the redo's get() received it.
    assert rt.program.state["log"] == ["cargo"]
    assert rt.done.value == ("ok", 1)


# -- MPI_Init: the world-up wait ------------------------------------------------

class CountingBook(dict):
    """An address book that counts its membership checks."""

    checks = 0

    def __contains__(self, rank):
        self.checks += 1
        return dict.__contains__(self, rank)


def rescanning_wait(self):
    """The wait as it was: every 2 ms poll rescans the world from rank 0."""
    book = self.endpoint.addressbook
    placement = self.record.placement
    while any(r not in book
              or (r in placement and book[r][0] != placement[r])
              for r in (self._pending_view.new_world
                        if self._pending_view is not None
                        else self.world.group)):
        yield self.engine.timeout(0.002)


def world_up_waits(monkeypatch, wait, ranks):
    """Boot a ``ranks``-rank Jacobi on as many nodes with ``wait`` as
    ``AppProcess._wait_world_up``: per rank, the instants it polled at and
    the membership checks its wait made."""
    from repro.apps import Jacobi1D
    from repro.core.runtime import AppProcess

    book = CountingBook()
    polls = {r: [] for r in range(ranks)}
    checks = dict.fromkeys(range(ranks), 0)

    def counted(self):
        it = wait(self)
        before = book.checks
        try:
            event = next(it)
            while True:
                checks[self.rank] += book.checks - before
                polls[self.rank].append(self.engine.now)
                value = yield event
                before = book.checks
                event = it.send(value)
        except StopIteration:
            checks[self.rank] += book.checks - before

    monkeypatch.setattr(AppProcess, "_wait_world_up", counted)
    sf = StarfishCluster.build(nodes=ranks)
    sf.books["app"] = book
    handle = sf.submit(AppSpec(program=Jacobi1D, nprocs=ranks,
                               params={"n": 8 * ranks, "iterations": 4}),
                       app_id="app")
    sf.run_to_completion(handle)
    return polls, checks


def test_world_up_wait_resumes_its_scan_at_the_blocking_rank(monkeypatch):
    from repro.core.runtime import AppProcess

    ranks = 32
    polls, checks = world_up_waits(monkeypatch, AppProcess._wait_world_up,
                                   ranks)
    ref_polls, ref_checks = world_up_waits(monkeypatch, rescanning_wait,
                                           ranks)
    # any() does not depend on the order of its scan: every rank polls at
    # the same instants as with the full rescan.
    assert polls == ref_polls and sum(map(len, polls.values())) > ranks
    # O(ranks + polls) checks per rank — one pass up to the blocker, one
    # check per poll while it blocks, the rest of the world once and the
    # wrap-around once — where the full rescan paid O(ranks × polls).
    assert all(checks[r] <= 2 * ranks + len(polls[r]) for r in checks)
    assert any(ref_checks[r] > 2 * ranks + len(ref_polls[r])
               for r in ref_checks)
