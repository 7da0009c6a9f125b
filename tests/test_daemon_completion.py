"""An application's completion is application-scoped (DESIGN §21).

``app-submit`` opens the lightweight group, a finished primary is reported
point-to-point to the *app authority* (the lowest member of that group), and
the authority's one ``app-done`` cast closes it.  The four rules that keep
this safe under faults each have a test here:

* R1 — a hosting daemon keeps its finished ranks until ``app-done`` or a
  rollback voids them;
* R2 — it re-sends the whole set when the authority changes and after an
  ``app-restart`` that leaves any of it valid;
* R3 — reports and ``app-done`` carry the incarnation (``record.restarts``):
  stale ones are ignored, early ones wait;
* R4 — completion is re-checked on a report, on becoming authority and when
  a ``view-notify`` shrink removes ranks.
"""

from collections import Counter

import pytest

from repro.apps import ComputeSleep
from repro.core import AppSpec, CheckpointConfig, FaultPolicy, StarfishCluster
from repro.daemon import AppStatus
from repro.gcs.messages import CastReq, Ordered, P2p, Rel
from repro.lwg import LwgP2p
from repro.net.nic import Nic


class Staggered(ComputeSleep):
    """ComputeSleep whose rank ``r`` takes ``pace[r]`` seconds a step."""

    def setup(self, ctx):
        super().setup(ctx)
        self.state["pace"] = ctx.params["pace"][ctx.rank]

    def step(self, ctx):
        yield from ctx.sleep(self.state["pace"])
        self.state["done"] += 1


STEPS = 10
#: n0 (the GCS coordinator) and n4 host nothing: the authority is n1's daemon.
PLACEMENT = {0: "n1", 1: "n2", 2: "n3"}


def submit(sf, pace, policy=FaultPolicy.VIEW_NOTIFY, checkpoint=None,
           placement=PLACEMENT):
    spec = AppSpec(program=Staggered, nprocs=len(pace),
                   params={"steps": STEPS, "pace": list(pace)},
                   ft_policy=policy, placement=dict(placement),
                   **({"checkpoint": checkpoint} if checkpoint else {}))
    return sf.submit(spec)


def run_until(sf, cond, limit=60.0, tick=0.005):
    deadline = sf.engine.now + limit
    while not cond():
        assert sf.engine.now < deadline, "condition never held"
        sf.engine.run(until=sf.engine.now + tick)


def known(sf, node, handle):
    """What ``node``'s daemon knows to be done, as a set of ranks."""
    record = sf.daemons[node].registry.maybe(handle.app_id)
    return set(record.done_ranks) if record is not None else set()


def authority_of(sf, handle):
    return min(sf.any_daemon().lwg.members(handle.app_id)).node


@pytest.fixture
def posted(monkeypatch):
    """Frames posted by the GCS, by message type (``Rel`` unwrapped; casts
    and point-to-point keyed by their op)."""
    counts = Counter()
    real = Nic.post

    def post(self, dst, port, payload, size, kind="data"):
        msg = payload.inner if isinstance(payload, Rel) else payload
        key = type(msg).__name__
        if isinstance(msg, (Ordered, CastReq, P2p)):
            op = msg.payload[0]
            key += ":" + (msg.payload[2][0] if op == "lwg-p2p" else op)
        counts[key] += 1
        real(self, dst, port, payload, size, kind)

    monkeypatch.setattr(Nic, "post", post)
    return counts


# -- (a) the authority crashes holding k of n reports --------------------------

def test_new_authority_completes_after_a_view_notify_shrink():
    # R1 + R2 + R4.  Ranks 1 and 2 have reported to n1 and only n1 knows
    # both; n1 dies with rank 0 still running.  Nothing will ever report
    # again: the app ends only if n3 re-sends to the new authority n2, and
    # n2 re-checks when it becomes one.
    sf = StarfishCluster.build(nodes=5)
    handle = submit(sf, pace=(0.5, 0.02, 0.03))
    run_until(sf, lambda: known(sf, "n1", handle) == {1, 2})
    assert known(sf, "n2", handle) == {1} and known(sf, "n3", handle) == {2}
    assert known(sf, "n4", handle) == set()
    sf.crash_node("n1")
    assert sf.run_to_completion(handle, timeout=30) == {1: STEPS, 2: STEPS}
    for daemon in sf.live_daemons():
        assert daemon.lwg.members(handle.app_id) == ()
        assert known(sf, daemon.node.node_id, handle) == {1, 2}


def test_new_authority_collects_the_late_ranks_too():
    # Same crash, but rank 3 (on n4) is still running when n1 dies: the new
    # authority needs the re-sent early reports *and* the late one.
    sf = StarfishCluster.build(nodes=5)
    handle = submit(sf, pace=(0.5, 0.02, 0.03, 0.3),
                    placement={0: "n1", 1: "n2", 2: "n3", 3: "n4"})
    run_until(sf, lambda: known(sf, "n1", handle) == {1, 2})
    sf.crash_node("n1")
    assert sf.run_to_completion(handle, timeout=30) \
        == {1: STEPS, 2: STEPS, 3: STEPS}


def test_solo_replay_keeps_the_survivors_results():
    # restart + sender-logging: only the crashed rank replays; ranks 1 and 2
    # finished long ago and never run again, so their results reach the new
    # authority only by R2 (re-send after the log-replay ``app-restart``).
    sf = StarfishCluster.build(nodes=5)
    handle = submit(sf, pace=(0.25, 0.02, 0.03), policy=FaultPolicy.RESTART,
                    checkpoint=CheckpointConfig(protocol="sender-logging",
                                                level="vm", interval=0.4))
    run_until(sf, lambda: known(sf, "n1", handle) == {1, 2})
    sf.engine.run(until=sf.engine.now + 0.5)     # past rank 0's checkpoint
    sf.crash_node("n1")
    assert sf.run_to_completion(handle, timeout=60) \
        == {0: STEPS, 1: STEPS, 2: STEPS}
    reg = sf.engine.metrics
    assert reg.sum("daemon.ranks_restarted", app=handle.app_id) == 1
    assert handle.restarts == 1
    # The survivors did not step again.
    assert reg.value("app.steps", app=handle.app_id, rank="1") == STEPS
    assert reg.value("app.steps", app=handle.app_id, rank="2") == STEPS


# -- (b) a report in flight to an authority that dies --------------------------

def test_report_sent_as_the_authority_dies_is_sent_again():
    # R2.  Rank 2 finishes on n3 and its report is posted to n1 in the same
    # instant n1 dies; n2 (rank 1 still running) becomes the authority and
    # has never heard of rank 2.
    sf = StarfishCluster.build(nodes=5)
    handle = submit(sf, pace=(0.5, 0.2, 0.02))
    n3 = sf.daemons["n3"]
    while handle.app_id not in n3._lingering:
        sf.engine.step()
    assert known(sf, "n1", handle) == set()          # posted, not delivered
    sf.crash_node("n1")
    assert sf.run_to_completion(handle, timeout=30) == {1: STEPS, 2: STEPS}
    assert known(sf, "n3", handle) == {1, 2}


def test_report_that_overtakes_the_receivers_pump_waits_for_it():
    # A direct send is not ordered against the main group's total order: a
    # daemon that a restart makes the authority can be sent a report before
    # it has applied the cast that starts its pump.  Dropping it would hang
    # the app (nobody re-sends without a cause), so it waits in the mailbox.
    sf = StarfishCluster.build(nodes=5)
    handle = submit(sf, pace=(0.5, 0.2, 0.02))
    n3, n4 = sf.daemons["n3"], sf.daemons["n4"]
    run_until(sf, lambda: known(sf, "n3", handle) == {2})
    assert handle.app_id not in n4._lwg_pumps
    n3.lwg.send(handle.app_id, n4.endpoint, ("rank-done", 0, {2: STEPS}),
                kind="control")
    sf.engine.run(until=sf.engine.now + 0.05)
    assert known(sf, "n4", handle) == set()
    n4._ensure_lwg_pump(handle.app_id)      # what applying a restart does
    sf.engine.run(until=sf.engine.now + 0.05)
    assert known(sf, "n4", handle) == {2}


# -- (c) incarnations ----------------------------------------------------------

def rolled_back_app(sf):
    """A stop-and-sync app after one crash: incarnation 1, all running."""
    handle = submit(sf, pace=(0.1, 0.1, 0.1), policy=FaultPolicy.RESTART,
                    checkpoint=CheckpointConfig(protocol="stop-and-sync",
                                                level="vm", interval=0.2))
    sf.engine.run(until=sf.engine.now + 0.5)
    sf.crash_node("n3")
    run_until(sf, lambda: all(
        d.registry.get(handle.app_id).restarts == 1
        and d.registry.get(handle.app_id).status is AppStatus.RUNNING
        for d in sf.live_daemons()))
    return handle


def test_report_from_a_rolled_back_execution_is_ignored():
    # R3.  (Driven through the main-group ``app-rank-done`` op this was a
    # hole on the parent: a report ordered after the ``app-restart`` that
    # voided it re-marked the rank done and parked the *new* handle.)
    sf = StarfishCluster.build(nodes=5)
    handle = rolled_back_app(sf)
    authority = sf.daemons[authority_of(sf, handle)]
    record = authority.registry.get(handle.app_id)
    host = sf.daemons[record.placement[1]]
    run_until(sf, lambda: (handle.app_id, 1) in host.handles)
    fresh = host.handles[(handle.app_id, 1)]
    stale = ("rank-done", 0, {1: "stale"})
    # Both ways in: straight into the handler, and over the wire.
    authority._on_report(LwgP2p(handle.app_id, host.endpoint, stale))
    host.lwg.send(handle.app_id, authority.endpoint, stale, kind="control")
    sf.engine.run(until=sf.engine.now + 0.05)
    assert 1 not in record.done_ranks and "stale" not in record.results.values()
    assert host.handles[(handle.app_id, 1)] is fresh
    assert sf.run_to_completion(handle, timeout=60) \
        == {0: STEPS, 1: STEPS, 2: STEPS}


def test_report_from_a_later_incarnation_waits_for_it():
    # R3, the other direction: a reporter that applied ``app-restart`` before
    # the authority did must not lose its report to the rollback's reset.
    sf = StarfishCluster.build(nodes=5)
    handle = submit(sf, pace=(0.1, 0.1, 0.1), policy=FaultPolicy.RESTART,
                    checkpoint=CheckpointConfig(protocol="stop-and-sync",
                                                level="vm", interval=0.2))
    sf.engine.run(until=sf.engine.now + 0.5)
    authority = sf.daemons["n1"]
    record = authority.registry.get(handle.app_id)
    early = LwgP2p(handle.app_id, sf.daemons["n2"].endpoint,
                   ("rank-done", 1, {1: STEPS}))
    authority._on_report(early)
    assert record.done_ranks == []
    assert authority._early_reports[handle.app_id] == [early]
    sf.crash_node("n3")
    run_until(sf, lambda: record.restarts == 1)
    assert record.done_ranks == [1]
    assert handle.app_id not in authority._early_reports
    assert sf.run_to_completion(handle, timeout=60) \
        == {0: STEPS, 1: STEPS, 2: STEPS}


# -- (d) app-done applies once, and only to its own incarnation -----------------

def test_second_app_done_is_ignored():
    sf = StarfishCluster.build(nodes=5)
    handle = submit(sf, pace=(0.02, 0.02, 0.02))
    results = sf.run_to_completion(handle)
    # The old authority's copy, arriving after the new authority's.
    sf.daemons["n2"].gm.cast(("app-done", handle.app_id, 0, {0: "late"}))
    sf.engine.run(until=sf.engine.now + 0.5)
    for daemon in sf.live_daemons():
        record = daemon.registry.get(handle.app_id)
        assert record.status is AppStatus.DONE and record.results == results
        done_lines = [m for _t, m in daemon.log
                      if m == f"app {handle.app_id} done"]
        assert len(done_lines) == 1


def test_authority_casts_app_done_once_per_incarnation():
    # Re-sent reports (R2) can land between the cast and its delivery.
    sf = StarfishCluster.build(nodes=5)
    handle = submit(sf, pace=(0.02, 0.02, 0.02))
    authority, reg = sf.daemons["n1"], sf.engine.metrics
    while handle.app_id not in authority._done_cast:
        sf.engine.step()
    casts = reg.sum("gcs.casts")
    assert authority.registry.get(handle.app_id).status is AppStatus.RUNNING
    authority._on_report(LwgP2p(handle.app_id, sf.daemons["n2"].endpoint,
                                ("rank-done", 0, {1: STEPS})))
    assert reg.sum("gcs.casts") == casts
    sf.run_to_completion(handle)
    assert handle.app_id not in authority._done_cast


def test_app_done_ordered_after_the_restart_is_ignored():
    # R3 at every daemon: the authority cast ``app-done`` for incarnation 0,
    # but the ``app-restart`` that rolled that execution back was ordered
    # first.
    sf = StarfishCluster.build(nodes=5)
    handle = rolled_back_app(sf)
    sf.daemons["n0"].gm.cast(("app-done", handle.app_id, 0,
                              {0: "void", 1: "void", 2: "void"}))
    sf.engine.run(until=sf.engine.now + 0.05)
    for daemon in sf.live_daemons():
        record = daemon.registry.get(handle.app_id)
        assert record.status is AppStatus.RUNNING and not record.done_ranks
        assert daemon.lwg.members(handle.app_id)      # group still open
    assert sum(len(list(d._local(handle.app_id)))
               for d in sf.live_daemons()) == 3
    assert sf.run_to_completion(handle, timeout=60) \
        == {0: STEPS, 1: STEPS, 2: STEPS}


# -- (e) replication: a promoted copy that had already finished -----------------

def test_promoted_finished_copy_reports_like_a_watcher(monkeypatch):
    # Rank 0's two copies finish early; rank 1 runs on.  The primary's node —
    # also the authority, the only daemon that heard the report — dies, and
    # the backup is promoted holding a result its watcher never reported.
    sf = StarfishCluster.build(nodes=5)
    handle = submit(sf, pace=(0.02, 0.2), policy=FaultPolicy.RESTART,
                    checkpoint=CheckpointConfig(protocol="replication",
                                                replicas=2),
                    placement={0: "n1", 1: "n3"})
    run_until(sf, lambda: handle.app_id in sf.any_daemon().registry)
    record = sf.any_daemon().registry.get(handle.app_id)
    backup, = record.replicas[0]
    assert authority_of(sf, handle) == "n1" and backup != "n1"
    host = sf.daemons[backup]
    run_until(sf, lambda: known(sf, "n1", handle) == {0}
              and (handle.app_id, 0) in host.handles
              and host.handles[(handle.app_id, 0)].done.triggered)
    assert known(sf, backup, handle) == set()     # a backup reports nothing
    reported, casts = [], []
    real_done, real_cast = type(host).rank_done, type(host.gm).cast

    def rank_done(self, app_id, rank, result):
        reported.append((self.node.node_id, rank))
        real_done(self, app_id, rank, result)

    def cast(self, payload, **kw):
        casts.append(payload[0])
        real_cast(self, payload, **kw)

    monkeypatch.setattr(type(host), "rank_done", rank_done)
    monkeypatch.setattr(type(host.gm), "cast", cast)
    sf.crash_node("n1")
    assert sf.run_to_completion(handle, timeout=60) == {0: STEPS, 1: STEPS}
    assert (backup, 0) in reported
    assert "app-rank-done" not in casts and casts.count("app-done") == 1
    reg = sf.engine.metrics
    assert reg.sum("daemon.ranks_restarted", app=handle.app_id) == 0
    assert reg.sum("repl.promotions") == 1


# -- (f) what a client of a non-hosting daemon sees ------------------------------

def test_client_of_a_non_hosting_daemon_sees_running_then_done():
    sf = StarfishCluster.build(nodes=5)
    handle = submit(sf, pace=(0.05, 0.02, 0.03))
    seen = []

    def script():
        c = yield from sf.client(from_node="n4", to_node="n4").connect()
        yield from c.login("admin", "adminpw", mgmt=True)
        yield sf.engine.timeout(0.4)        # ranks 1 and 2 have finished
        seen.append((yield from c.command(f"STATUS {handle.app_id}")))
        seen.append((yield from c.command(f"RESULT {handle.app_id}")))
        yield sf.engine.timeout(1.0)
        seen.append((yield from c.command(f"STATUS {handle.app_id}")))
        seen.append((yield from c.command(f"RESULT {handle.app_id}")))

    proc = sf.engine.process(script())
    sf.engine.run(until=sf.engine.now + 0.45)
    # Mid-run: exact at the authority, own ranks at a host, empty elsewhere.
    assert known(sf, "n1", handle) == {1, 2}
    assert known(sf, "n2", handle) == {1} and known(sf, "n4", handle) == set()
    assert handle.status is AppStatus.RUNNING
    assert sf.run_to_completion(handle) == {0: STEPS, 1: STEPS, 2: STEPS}
    assert handle.results() == {0: STEPS, 1: STEPS, 2: STEPS}
    sf.engine.run(until=proc)
    running, not_yet, done, result = seen
    assert running.startswith("OK running done=0/3")
    assert not_yet.startswith("ERR") and "not finished" in not_yet
    assert done.startswith("OK done done=3/3")
    assert result == f"OK {[STEPS] * 3!r}"


# -- (g) the lifecycle budget ----------------------------------------------------

def test_a_job_is_two_main_group_casts(posted):
    sf = StarfishCluster.build(nodes=8)
    reg = sf.engine.metrics
    casts = reg.sum("gcs.casts")
    posted.clear()
    handle = sf.submit(AppSpec(program=ComputeSleep, nprocs=2,
                               params={"steps": 3, "step_time": 0.05},
                               placement={0: "n2", 1: "n5"}), via_node="n4")
    sf.run_to_completion(handle)
    assert reg.sum("gcs.casts") - casts == 2
    ops = {k: v for k, v in posted.items()
           if k.startswith(("Ordered", "CastReq", "P2p"))}
    # Each cast: one request to the sequencer, seven ordered copies; one
    # report from n5 to the authority n2.  No lwg-op, no app-rank-done.
    assert ops == {"CastReq:app-submit": 1, "Ordered:app-submit": 7,
                   "P2p:rank-done": 1,
                   "CastReq:app-done": 1, "Ordered:app-done": 7}


@pytest.mark.parametrize("nodes", [8, 16])
def test_full_span_completion_traffic_is_linear(posted, nodes):
    sf = StarfishCluster.build(nodes=nodes)
    posted.clear()
    handle = sf.submit(AppSpec(program=ComputeSleep, nprocs=nodes,
                               params={"steps": 3, "step_time": 0.05}))
    sf.run_to_completion(handle)
    completion = {k: v for k, v in posted.items()
                  if k.endswith((":rank-done", ":app-done"))}
    # n - 1 reports in, n - 1 ordered copies out (the authority is the
    # sequencer's own daemon): 2n, where casting each report cost n^2.
    assert completion == {"P2p:rank-done": nodes - 1,
                          "Ordered:app-done": nodes - 1}
    assert sum(completion.values()) <= 3 * nodes
    assert not any("lwg-op" in k or "app-rank-done" in k for k in posted)
