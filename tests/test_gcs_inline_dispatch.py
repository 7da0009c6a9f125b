"""Run-to-completion control path: what must not change when an idle
member / daemon / LWG pump handles a message inside the event that
delivered it (``repro.sim.channel.Mailbox``) instead of through a queue, a
get event and a process switch.  The mailbox's own ordering rules are
unit-tested against plain queues in ``tests/test_sim_channel.py``; these
tests pin them where they are simulated behaviour — the group protocol,
the NIC FIFO and the daemon — plus the event budget of a booted cluster.
"""

from __future__ import annotations

import pytest

from repro.apps import ComputeSleep
from repro.core import AppSpec, StarfishCluster
from repro.errors import Interrupt
from repro.gcs import P2pEvent, ViewEvent
from repro.gcs.config import SEQUENCER_BASE, SEQUENCER_PER_MEMBER
from repro.gcs.messages import CastReq, Flush, FlushOk, P2p, Rel, ViewMsg
from repro.net.message import Frame

from tests.gcs_helpers import Harness


class ServedHarness(Harness):
    """A :class:`Harness` whose upcalls are *served* (the daemon's side of
    the mailbox) and whose protocol handlers are traced: ``trace[node]``
    is a list of ``(time, "Kind")`` handler entries plus ``(time, "up:Kind")``
    upcalls, and any handler entered while another is on the stack of the
    same node fails the test (``Rel`` envelopes are transparent)."""

    def __init__(self, nodes: int = 3, **kw):
        self.trace = {}
        self.depth = {}
        self.on_upcall = {}
        super().__init__(nodes=nodes, **kw)
        for nid, gm in self.members.items():
            self.trace[nid] = []
            self.depth[nid] = 0
            for kind, handler in list(gm._handlers.items()):
                if kind is not Rel:     # the envelope dispatches its inner
                    gm._handlers[kind] = self._traced(nid, kind.__name__,
                                                      handler)

    def _traced(self, nid, name, handler):
        def traced(msg):
            assert self.depth[nid] == 0, f"{name} nested on {nid}"
            self.depth[nid] += 1
            self.trace[nid].append((self.engine.now, name))
            try:
                return handler(msg)
            finally:
                self.depth[nid] -= 1
        return traced

    def _recorder(self, node_id, gm):
        def upcall(ev):
            assert self.depth[node_id] == 0, (
                f"{type(ev).__name__} upcall nested in a handler")
            self.trace[node_id].append((self.engine.now,
                                        "up:" + type(ev).__name__))
            self.log[node_id].append(ev)
            hook = self.on_upcall.get(node_id)
            if hook is not None:
                hook(ev)
        try:
            yield from gm.events.serve(upcall)
        except Interrupt:
            return

    def kinds(self, nid, since=0.0):
        return [kind for t, kind in self.trace[nid] if t >= since]


def booted(nodes=3, until=2.0):
    h = ServedHarness(nodes=nodes)
    h.boot_all()
    h.run(until=until)
    assert all(h.member_ids(nid) == sorted(h.members) for nid in h.members)
    return h


# -- (a) a busy coordinator queues arrivals behind its sequencer round -------

def test_arrivals_during_a_sequencer_round_wait_for_it_in_order():
    h = booted()
    coord, other = h.members["n0"], h.members["n1"]
    assert coord.is_coordinator
    round_s = SEQUENCER_BASE + 3 * SEQUENCER_PER_MEMBER
    started = []
    real = coord._handlers[CastReq]

    def on_cast_req(msg):
        # The round starts now: three messages arrive while it runs.
        started.append(h.engine.now)
        for i, frac in enumerate((0.25, 0.5, 0.75)):
            p2p = P2p(group=coord.group, sender=other.endpoint,
                      payload=("mid-round", i), size=64)
            h.engine.timeout(frac * round_s).callbacks.append(
                lambda _e, p2p=p2p: coord._inbox.deliver(p2p))
        return real(msg)

    coord._handlers[CastReq] = on_cast_req
    other.cast("x")
    h.run(until=3.0)
    (t0,) = started
    # Handled when the round ended, not when they arrived; in arrival
    # order; and before the coordinator's own Ordered, queued behind them.
    assert [ev.payload for ev in h.log["n0"] if isinstance(ev, P2pEvent)] \
        == [("mid-round", i) for i in range(3)]
    assert [t for t, kind in h.trace["n0"] if kind == "up:P2pEvent"] \
        == [pytest.approx(t0 + round_s, abs=1e-12)] * 3
    after = h.kinds("n0", since=t0)
    assert after.index("Ordered") > max(
        i for i, k in enumerate(after) if k == "up:P2pEvent")
    assert h.casts("n0") == h.casts("n1") == h.casts("n2") == ["x"]


# -- (b) self-posts run after the handler that made them ---------------------

def test_self_posted_messages_are_handled_after_the_handler_returns():
    # Founding, joins and a cast make the coordinator post Flush, FlushOk,
    # ViewMsg and Ordered to itself from inside handlers; ServedHarness
    # fails on any nested entry, and the order is the queue's.
    h = booted()
    assert h.kinds("n0")[:2] == ["ViewMsg", "up:ViewEvent"]   # founding
    kinds = h.kinds("n0")
    for inner in (Flush, FlushOk, ViewMsg):
        assert inner.__name__ in kinds
    # A join round on the coordinator: Join -> (self) Flush -> (self)
    # FlushOk ... -> (self) ViewMsg -> upcall, strictly one after another.
    first_join = kinds.index("Join")
    flush = kinds.index("Flush", first_join)
    flush_ok = kinds.index("FlushOk", flush)
    view = kinds.index("ViewMsg", flush_ok)
    assert kinds[view + 1] == "up:ViewEvent"
    t = h.engine.now
    h.members["n0"].cast("mine")
    h.run(until=t + 1.0)
    kinds = h.kinds("n0", since=t)
    assert kinds.index("CastReq") < kinds.index("Ordered") \
        < kinds.index("up:CastEvent")


# -- (c) upcalls come after the handler's own frames are on the NIC ----------

def test_p2p_upcall_sees_the_rel_ack_already_on_the_nic_fifo():
    # Point-to-point sends are still acknowledged envelope by envelope
    # (casts are not since DESIGN §23: a cast's handler posts nothing).
    h = booted()
    member, peer = h.members["n1"], h.members["n2"]
    seen = []

    def hook(ev):
        if isinstance(ev, P2pEvent) and ev.payload == "ping":
            seen.append([type(m).__name__ for m in member.nic.queued()])
            member.send(peer.endpoint, "pong")  # leaves behind the ack
            seen.append([type(m).__name__ for m in member.nic.queued()])

    h.on_upcall["n1"] = hook
    peer.send(member.endpoint, "ping")
    h.run(until=3.0)
    assert seen == [["RelAck"], ["RelAck", "Rel"]]
    assert [ev.payload for ev in h.log["n2"] if isinstance(ev, P2pEvent)] \
        == ["pong"]


def test_view_upcall_comes_after_pending_casts_were_re_sent():
    # _on_view emits the ViewEvent and then calls _recast_pending(): the
    # daemon must see the view only after those CastReqs are on the FIFO.
    h = ServedHarness(nodes=2)
    n1 = h.members["n1"]
    seen = []

    def hook(ev):
        if isinstance(ev, ViewEvent) and len(ev.view) == 2:
            seen.append([type(m.inner).__name__ for m in n1.nic.queued()
                         if hasattr(m, "inner")])

    h.on_upcall["n1"] = hook
    h.boot_all()
    n1.cast("early")            # no view yet: pending until the view installs
    h.run(until=2.0)
    assert seen == [["CastReq"]]
    assert h.casts("n0") == h.casts("n1") == ["early"]


# -- (d) paused / stopped / left / crashed members run no handler ------------

def _inject(h, nid):
    """Deliver straight into a member's inbox, as a late frame's sink call
    and a self-send would."""
    gm = h.members[nid]
    late = P2p(group=gm.group, sender=h.members["n0"].endpoint,
               payload="late", size=64)
    gm._on_frame(Frame(src="n0", dst=nid, port=gm._port, payload=late,
                       size=64))
    gm._inbox.deliver(late)


@pytest.mark.parametrize("how", ["stop", "leave", "crash"])
def test_no_handler_runs_after_stop_leave_or_crash(how):
    h = booted()
    gm = h.members["n2"]
    if how == "crash":
        h.cluster.node("n2").crash()
    else:
        getattr(gm, how)()
    mark = len(h.trace["n2"])
    _inject(h, "n2")            # same instant: the interrupt is in flight
    h.run(until=h.engine.now + 0.5)
    _inject(h, "n2")
    h.run(until=h.engine.now + 3.0)
    assert h.trace["n2"][mark:] == []
    # The survivors agree on a view without it.
    assert h.member_ids("n0") == h.member_ids("n1") == ["n0", "n1"]


def test_paused_member_handles_no_frame():
    h = booted()
    gm = h.members["n2"]
    gm.paused = True
    mark = len(h.trace["n2"])
    h.members["n0"].cast("while-paused")
    h.run(until=h.engine.now + 0.2)
    assert h.trace["n2"][mark:] == []
    assert h.casts("n2") == [] and h.casts("n1") == ["while-paused"]


# -- (e) a daemon handler that raises kills the daemon, not the batch --------

def test_daemon_handler_exception_is_contained_by_its_main():
    sf = StarfishCluster.build(nodes=3)
    victim = sf.daemons["n1"]
    real = victim._apply_op

    def apply_op(payload, source):
        if payload[0] == "cfg-set" and payload[1] == "boom":
            raise RuntimeError("handler bug")
        return real(payload, source)

    victim._apply_op = apply_op
    main = victim._procs[0]
    sf.daemons["n0"].gm.cast(("cfg-set", "boom", "1"))
    sf.daemons["n0"].gm.cast(("cfg-set", "after", "2"))
    delivered = sf.engine.metrics.value("gcs.delivered", node="n1")
    sf.engine.run(until=sf.engine.now + 1.0)        # must not raise
    # Exactly what ``except Exception: return`` in _main always did: this
    # daemon stops consuming upcalls; its member and everyone else go on.
    assert not main.is_alive
    assert "boom" not in victim.config and "after" not in victim.config
    assert sf.engine.metrics.value("gcs.delivered",
                                   node="n1") == delivered + 2
    assert [type(ev).__name__ for ev in victim.gm.events.drain()] \
        == ["CastEvent"]
    for nid in ("n0", "n2"):
        assert sf.daemons[nid].config["after"] == "2"


# -- (f) consumers that read the queues themselves are untouched -------------

def test_served_and_unserved_members_deliver_the_same_sequence():
    served = booted()
    plain = Harness(nodes=3)
    plain.boot_all()
    plain.run(until=2.0)
    for h in (served, plain):
        for i in range(6):
            h.members[f"n{i % 3}"].cast(i)
        h.run(until=3.0)
    for nid in served.members:
        assert served.casts(nid) == plain.casts(nid) == served.casts("n0")
        assert [(v.view.epoch, len(v.view)) for v in served.views(nid)] \
            == [(v.view.epoch, len(v.view)) for v in plain.views(nid)]
    assert served.engine.metrics.sum("net.frames_sent") \
        == plain.engine.metrics.sum("net.frames_sent")
    assert served.engine.now == plain.engine.now


# -- the daemon-level event budget --------------------------------------------

def test_daemon_event_budget_per_frame():
    # The booted-cluster twin of test_gcs_basic::test_event_budget_per_frame:
    # an idle daemon and an idle LWG pump handle an upcall inside the
    # frame's arrival event, so above the NIC only ops that wait
    # (spawning, the local TCP hop) and what queues behind them cost
    # events.  The run is deterministic, so both totals are pinned exactly:
    # a get:gcs-ev or LWG get put back per frame fails here rather than
    # showing up as benchmark drift.  (992 -> 902 with the same 240 frames
    # when a program step began to await its own events: the nine ranks'
    # steps no longer pay a race event per awaited event.)  240 -> 168
    # frames and 902 -> 633 events when an application became two main-group
    # casts (DESIGN §21).  Three jobs of 2 + 4 + 3 ranks on four nodes, 108
    # heartbeats and 12 data frames either way; before: 6 lwg-op and 3
    # app-submit casts x 3 ordered copies = 27, 9 app-rank-done casts x 3 + 6
    # requests to the sequencer = 33, 60 RelAcks; after: 3 app-submit + 3
    # app-done casts x 3 = 18, 6 point-to-point reports (a job's rank on its
    # authority needs none), 24 RelAcks.  168 -> 108 frames and 633 -> 543
    # events when the failure detector became a star (DESIGN §22): what is
    # not lifecycle traffic in this window is ten heartbeat rounds (the "108
    # heartbeats and 12 data frames" above were 120 heartbeats), 10 x 4 x 3 =
    # 120 before and 10 x 2 x 3 = 60 after; the 48 lifecycle frames (18 + 6 +
    # 24) did not move.  The 90 events are the 60 serialization timeouts and
    # 30 batched wire / driver_recv wakeups of the heartbeats that are gone.
    # 108 -> 90 frames and 543 -> 489 events when casts stopped being
    # acknowledged copy by copy (DESIGN §23): of the 24 RelAcks, the 18 of
    # ordered copies go (the 6 reports keep theirs), each with its
    # serialization timeout, wire and driver_recv wakeups (3 x 18).  489 ->
    # 444 events, frames unchanged, when the object bus went (DESIGN §24):
    # five events per rank (its dispatcher's start, two gets of the queued
    # configuration events, the stop's interrupt and its exit) x 9 ranks.
    # 444 -> 364 events, frames unchanged, when a frame's arrival became
    # one event (DESIGN §12): the window's 80 driver_recv wakeups
    # (Nic._enqueue_batch) are gone.
    sf = StarfishCluster.build(nodes=4)
    reg = sf.engine.metrics
    events, frames = sf.engine.events_processed, reg.sum("net.frames_sent")
    handles = [sf.submit(AppSpec(program=ComputeSleep, nprocs=n,
                                 params={"steps": 3, "step_time": 0.05}))
               for n in (2, 4, 3)]
    for handle in handles:
        sf.run_to_completion(handle)
    assert reg.sum("net.frames_sent") - frames == 90        # parent: 108
    assert sf.engine.events_processed - events == 364       # parent: 444
