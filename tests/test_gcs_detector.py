"""The failure detector is a star (DESIGN §22).

A member heartbeats and times its coordinator only; the coordinator
heartbeats and times the whole view; a member whose coordinator goes silent
switches to *watch-all* — every other member's clock starts at that instant,
it heartbeats the whole view — until it hears from its coordinator again,
which the next view guarantees.  These tests pin the steady-state frame
count, the detection latency of each fault shape against the all-to-all
detector's figures (measured on the parent commit with this file's
``_latency``), and the five rules the record names.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FrameLossWindow
from repro.gcs import GcsConfig
from repro.gcs.messages import Hb, ViewMsg

from tests.gcs_helpers import Harness

CFG = GcsConfig()
PERIOD, SUSPECT, FLUSH = (CFG.heartbeat_period, CFG.suspect_timeout,
                          CFG.flush_timeout)


def _boot(n: int, seed: int = 0) -> Harness:
    """An ``n``-member group in its full view, a second past the last view
    change and off every member's tick instant."""
    h = Harness(nodes=n, seed=seed)
    h.boot_all()
    while not all(gm.view is not None and len(gm.view) == n
                  for gm in h.members.values()):
        h.run(until=h.engine.now + 0.5)
        assert h.engine.now < 30, "boot did not converge"
    h.run(until=h.engine.now + 1.0125)
    return h


def _ranked(h: Harness):
    """Node ids in rank order: the coordinator, its successor, …"""
    return [m.node for m in h.members["n0"].view.members]


def _count_heartbeats(h: Harness) -> Counter:
    """``Hb`` frames posted to a NIC from now on, by sending node."""
    posted = Counter()
    for nid, gm in h.members.items():
        def post(dst, port, payload, size, kind, _post=gm.nic.post, _nid=nid):
            if isinstance(payload, Hb):
                posted[_nid] += 1
            return _post(dst, port, payload, size, kind)
        gm.nic.post = post
    return posted


def _views_since(h: Harness, t0: float, nodes):
    return [ev for ev in h.engine.metrics.events.records("gcs.view")
            if ev.time > t0 and ev.field_dict["node"] in nodes]


def _latency(h: Harness, crash=(), partition=None, settle: float = 3.0):
    """Inject the fault now; returns ``{lowest node of a side: seconds until
    the last survivor of that side holds the side's view}``."""
    t0 = h.engine.now
    for nid in crash:
        h.cluster.crash_node(nid)
    if partition is not None:
        h.cluster.ethernet.set_partition(*partition)
    h.run(until=t0 + settle)
    sides = partition or ([nid for nid in _ranked(h) if nid not in crash],)
    out = {}
    for side in sides:
        side = sorted(side)
        for nid in side:
            assert h.member_ids(nid) == side, (nid, h.member_ids(nid))
        out[side[0]] = max(ev.time for ev in _views_since(h, t0, side)) - t0
    return out


# -- steady state ---------------------------------------------------------


@pytest.mark.parametrize("n", [8, 32])
def test_steady_state_is_two_n_minus_one_heartbeats_per_period(n):
    # Rule 1, members heartbeat (and watch) the coordinator only: n - 1
    # frames in, n - 1 out, nothing between members — and an idle group
    # posts nothing else.
    h = _boot(n)
    reg = h.engine.metrics
    frames, beats = reg.sum("net.frames_sent"), reg.sum("gcs.heartbeats")
    posted = _count_heartbeats(h)
    h.run(until=h.engine.now + 10 * PERIOD)
    coordinator = _ranked(h)[0]
    assert posted == {nid: 10 * (n - 1) if nid == coordinator else 10
                      for nid in h.members}          # parent: 10 (n - 1) each
    assert reg.sum("gcs.heartbeats") - beats == 10 * 2 * (n - 1)
    assert reg.sum("net.frames_sent") - frames == 10 * 2 * (n - 1)
    assert not any(gm._watch_all for gm in h.members.values())


@pytest.mark.parametrize("n", [8, 32])
def test_watch_all_ends_at_the_next_view(n):
    # Rule 4: the survivors of a coordinator crash all went to watch-all;
    # the view that replaces the coordinator makes them members of a star
    # again.
    h = _boot(n)
    order = _ranked(h)
    h.cluster.crash_node(order[0])
    h.run(until=h.engine.now + SUSPECT + 2 * PERIOD)
    assert all(h.members[nid].view.coordinator.node == order[1]
               for nid in order[1:])
    h.run(until=h.engine.now + 1.0)
    assert not any(gm._watch_all for gm in h.members.values())
    posted = _count_heartbeats(h)
    h.run(until=h.engine.now + 10 * PERIOD)
    assert sum(posted.values()) == 10 * 2 * (n - 2)
    assert posted[order[1]] == 10 * (n - 2)


def test_a_member_in_watch_all_heartbeats_the_whole_view():
    # Between the switch and the new view a member is a centre.  Silence
    # everybody but the last-ranked member, so that no view can form, and
    # count what it posts.
    h = _boot(8)
    order = _ranked(h)
    for nid in order[:-1]:
        h.members[nid].paused = True
    h.run(until=h.engine.now + SUSPECT + 2 * PERIOD)
    assert h.members[order[-1]]._watch_all
    posted = _count_heartbeats(h)
    h.run(until=h.engine.now + PERIOD)
    assert posted == {order[-1]: 7}


# -- detection latency ----------------------------------------------------

#: Fault -> every survivor holds the new view, all-to-all detector (parent
#: commit, default GcsConfig, fault 1.0125 s after the last view), seconds.
PARENT = {8: 0.2407, 32: 0.2530}


def _single_faults(order):
    half = len(order) // 2
    return {
        "member": dict(crash=[order[-1]]),
        "coordinator": dict(crash=[order[0]]),
        "two-members": dict(crash=[order[-1], order[-3]]),
        "partition": dict(partition=(order[:half], order[half:])),
    }


@pytest.mark.parametrize("n", [8, 32])
@pytest.mark.parametrize("fault", ["member", "coordinator", "two-members",
                                   "partition"])
def test_single_fault_latency_within_one_period_of_all_to_all(n, fault):
    # Rule 2, the coordinator watches everybody: a member crash costs no
    # extra hop.  Rules 1 and 3: a coordinator crash is seen by its
    # successor, which presumes the rest alive and flushes at once.
    h = _boot(n)
    order = _ranked(h)
    took = _latency(h, **_single_faults(order)[fault])
    # The side of a partition that keeps the coordinator is a single fault;
    # the other side is the double-fault row below.
    side = order[1] if fault == "coordinator" else order[0]
    assert abs(took[side] - PARENT[n]) <= PERIOD, took


@pytest.mark.parametrize("n", [8, 32])
def test_coordinator_plus_successor_costs_one_more_timeout(n):
    h = _boot(n)
    order = _ranked(h)
    (took,) = _latency(h, crash=order[:2]).values()
    assert PARENT[n] + SUSPECT - PERIOD <= took <= PARENT[n] + SUSPECT + PERIOD


@pytest.mark.parametrize("n", [8, 32])
def test_partition_side_without_the_coordinator_costs_one_more_timeout(n):
    h = _boot(n)
    order = _ranked(h)
    half = n // 2
    took = _latency(h, partition=(order[:half], order[half:]))
    orphan = took[min(order[half:])]
    assert PARENT[n] + SUSPECT - PERIOD <= orphan <= PARENT[n] + SUSPECT + PERIOD


@pytest.mark.parametrize("n", [8, 32])
def test_three_dead_candidates_converge(n):
    # Coordinator, successor and third-ranked die together.  Every clock
    # started at the switch, so both dead candidates go stale in the same
    # tick: one more timeout in all, never a hang.
    h = _boot(n)
    order = _ranked(h)
    (took,) = _latency(h, crash=order[:3]).values()
    assert took <= PARENT[n] + SUSPECT + PERIOD
    assert h.members[order[3]].is_coordinator


@pytest.mark.parametrize("n", [8, 32])
def test_coordinator_plus_a_member_costs_a_flush_retry(n):
    # The successor presumes everybody but the coordinator alive at the
    # switch, so a second, lower-ranked casualty is dropped by the flush
    # timeout rather than left out of the first flush.
    h = _boot(n)
    order = _ranked(h)
    (took,) = _latency(h, crash=[order[0], order[-1]]).values()
    assert took <= PARENT[n] + FLUSH + 2 * PERIOD


def test_coordinator_crash_installs_exactly_one_view_per_survivor():
    # Rule 3, watch-all starts every clock at the switch: nobody has timed
    # the other members in this view, so their last-heard stamps are as old
    # as the view.  Read as silence, every survivor elects itself and the
    # group falls apart into singletons that gossip has to merge back.
    h = _boot(8)
    order = _ranked(h)
    t0 = h.engine.now
    _latency(h, crash=order[:1])
    assert len(_views_since(h, t0, order[1:])) == 7
    flushes = sum(h.engine.metrics.value("gcs.flushes", node=nid)
                  for nid in order[2:])
    assert flushes == 0          # only the successor started one


# -- the paths around the detector ----------------------------------------


def test_partition_heals_and_merges_to_one_coordinator():
    h = _boot(8)
    order = _ranked(h)
    _latency(h, partition=(order[:4], order[4:]))
    h.cluster.ethernet.clear_partition()
    h.run(until=h.engine.now + 6.0)
    for nid in order:
        assert h.member_ids(nid) == sorted(order), nid
    assert [nid for nid in order if h.members[nid].is_coordinator] \
        == order[:1]
    assert not any(gm._watch_all for gm in h.members.values())


def test_paused_coordinator_is_replaced_and_merged_back():
    # What the DaemonPause fault does to a member: deaf and mute, then back.
    h = _boot(8)
    order = _ranked(h)
    h.members[order[0]].paused = True
    h.run(until=h.engine.now + 1.0)
    for nid in order[1:]:
        assert h.member_ids(nid) == sorted(order[1:]), nid
    assert h.members[order[1]].is_coordinator
    h.members[order[0]].paused = False
    h.run(until=h.engine.now + 6.0)
    for nid in order:
        assert h.member_ids(nid) == sorted(order), nid
    assert [nid for nid in order if h.members[nid].is_coordinator] \
        == order[:1]


def test_member_that_missed_a_view_resyncs_from_the_coordinators_heartbeat():
    # Only the coordinator's heartbeats reach a member now; they carry the
    # epoch, and that is enough for the resync backstop in _on_hb.
    h = _boot(8)
    order = _ranked(h)
    deaf = h.members[order[4]]
    install = deaf._handlers[ViewMsg]
    deaf._handlers[ViewMsg] = lambda msg: None      # acked, never applied
    h.cluster.crash_node(order[-1])
    h.run(until=h.engine.now + 1.0)
    assert h.member_ids(order[4]) == sorted(order)  # still the old view
    assert h.member_ids(order[0]) == sorted(order[:-1])
    deaf._handlers[ViewMsg] = install
    h.run(until=h.engine.now + 3 * FLUSH + SUSPECT + 2 * PERIOD)
    assert h.member_ids(order[4]) == sorted(order[:-1])
    assert deaf.view.epoch == h.members[order[0]].view.epoch


def test_hearing_the_coordinator_again_ends_watch_all():
    # Rule 5.  A member whose coordinator's heartbeats were lost for a
    # timeout, and which is not the successor, has nothing to do but watch;
    # when the coordinator is heard again it is a plain member again.  (Left
    # in watch-all it would post n - 1 heartbeats a period until the next
    # view, and elect itself alone on the next false alarm.)
    h = _boot(8)
    order = _ranked(h)
    last = h.members[order[-1]]
    t0, on_hb = h.engine.now, last._handlers[Hb]

    def lost(msg):
        del last.last_heard[msg.sender]         # as if it never arrived
    last._handlers[Hb] = lost
    del last.last_heard[last.view.coordinator]
    h.run(until=t0 + 2 * PERIOD)
    assert last._watch_all
    last._handlers[Hb] = on_hb
    h.run(until=t0 + 4 * PERIOD)
    assert not last._watch_all
    posted = _count_heartbeats(h)
    h.run(until=t0 + 14 * PERIOD)
    assert posted[order[-1]] == 10
    assert not _views_since(h, t0, order)


#: The all-to-all detector under the same 40 windows (parent commit):
#: runs that installed any view, and views installed in all.  Seed by seed
#: the two are not comparable (fewer frames draw fewer loss samples, so the
#: random streams part at once); over 60 seeds the parent reads 41 / 484
#: and the star 33 / 400.
PARENT_LOSSY = (25, 311)


def test_frame_loss_installs_no_more_views_than_all_to_all():
    # In both detectors the only suspicions that act are the coordinator's
    # of a member and the successor's of the coordinator; the star only
    # stops timing the pairs whose suspicion never did anything.
    installed = []
    for seed in range(40):
        h = _boot(8, seed=seed)
        views = h.engine.metrics.sum("gcs.views")
        h.cluster.faults.fire(FrameLossWindow(prob=0.2, duration=5.0))
        h.run(until=h.engine.now + 7.0)
        installed.append(h.engine.metrics.sum("gcs.views") - views)
    assert sum(1 for views in installed if views) <= PARENT_LOSSY[0]
    assert sum(installed) <= PARENT_LOSSY[1]


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(dead=st.sets(st.integers(0, 7), min_size=1, max_size=7))
def test_any_crash_subset_leaves_the_survivors_in_one_view(dead):
    h = _boot(8)
    order = _ranked(h)
    crash = [order[i] for i in sorted(dead)]
    prefix = next(i for i in range(8) if i not in dead)   # dead candidates
    (took,) = _latency(h, crash=crash).values()
    # One timeout to miss the coordinator and one for each dead candidate
    # behind it (at most: their clocks all start at the switch), then a
    # flush that may have to drop a casualty it presumed alive.
    assert took <= (prefix + 1) * SUSPECT + FLUSH + 3 * PERIOD, sorted(dead)
    survivors = [nid for nid in order if nid not in crash]
    assert [nid for nid in survivors if h.members[nid].is_coordinator] \
        == survivors[:1]
