"""The send pipeline: a send is posted, not performed.

``Vni.submit`` queues the completion on the NIC's transmit FIFO, ready when
the software above the driver is done with it — the FIFO orders entries by
ready instant, then submit order, so that stage costs no event — and the
completion fires inside the event in which the frame leaves
(``Nic._tx_done``).  A blocking send is ``submit`` plus one wait; an
``isend`` with no C/R tap is ``submit`` plus a callback, no process, and a
tapped one runs the send's body on event callbacks, no process either; a
blocking ``recv`` resumes once, on its request's own event ``app_recv`` after
the match.
"""

import pytest

from repro.calibration import BIP_LAYERS
from repro.check.perturb import SchedulePerturbation
from repro.cluster import Cluster
from repro.core.runtime import _StepAborted
from repro.errors import Interrupt
from repro.mpi import PROC_NULL
from repro.mpi.request import waitall, waitany
from repro.mpi.status import Status
from repro.net import BIP_MYRINET, Frame
from repro.sim.events import Timeout
from repro.vni import Vni

from tests.mpi_helpers import make_world

L = BIP_LAYERS
US = 1e-6


def tx_time(size):
    return L.driver_send + size / BIP_MYRINET.bandwidth


def wire_log(cluster):
    """``(src, payload, transmit time)`` of every frame handed to the wire."""
    log = []

    def tap(frame):
        log.append((frame.src, frame.payload, frame.sent_at))

    cluster.myrinet.delivery_tap = tap
    return log


def vnis(cluster):
    return [Vni(cluster.engine, cluster.node(f"n{i}"), port=f"app:{i}",
                sink=[].append)
            for i in range(len(cluster.nodes))]


def sent(cluster, vni):
    return cluster.engine.metrics.value("vni.sent", port=vni.port,
                                        path="fast")


# -- (a) one wait, the instants of two -----------------------------------------

def two_wait_send(vni, dst_node, dst_port, payload, size, pre_delay=0.0):
    """``Vni.send`` as it was while a send was performed by its caller: wait
    out the software stack, then wait in ``Nic.send`` for the frame to go."""
    yield Timeout(vni.engine, pre_delay + L.vni_send)
    yield from vni.nic.send(Frame(src=vni.node.node_id, dst=dst_node,
                                  port=dst_port, payload=payload, size=size,
                                  kind="data"))


def test_blocking_sends_return_when_the_two_wait_sender_returned():
    # n0 sends to n1 with Vni.send, n2 to n3 with the reference, in one
    # engine; on each sending node two processes contend for the NIC FIFO.
    cluster = Cluster.build(nodes=4)
    eng = cluster.engine
    a, _b, c, _d = vnis(cluster)
    log = wire_log(cluster)
    returns = {"n0": [], "n2": []}

    def sender(send, vni, dst, tag, k, size_of, pre_delay):
        for i in range(k):
            yield from send(vni, f"n{dst}", f"app:{dst}", (tag, i),
                            size_of(i), pre_delay=pre_delay)
            returns[vni.node.node_id].append((tag, i, eng.now))

    for send, vni, dst in ((Vni.send, a, 1), (two_wait_send, c, 3)):
        eng.process(sender(send, vni, dst, "x", 6,
                           lambda i: 64 + 4000 * i, 7 * US))
        eng.process(sender(send, vni, dst, "y", 8, lambda i: 3000, 0.0))
    eng.run()
    assert len(returns["n0"]) == 14
    assert returns["n0"] == returns["n2"]           # bit for bit
    left = {src: [(p, t) for s, p, t in log if s == src]
            for src in ("n0", "n2")}
    assert left["n0"] == left["n2"] and len(left["n0"]) == 14
    # A sender returns at the instant its own frame left...
    assert sorted(returns["n0"]) == sorted(
        (tag, i, t) for (tag, i), t in left["n0"])
    # ...and the FIFO really queued: some frame left later than it would
    # have alone.
    assert any(t - t_prev == tx_time(3000) for (_p, t_prev), ((tag, _i), t)
               in zip(left["n0"], left["n0"][1:]) if tag == "y")


# -- (b) isend: a request, no process -------------------------------------------

def test_isend_completes_at_the_departure_instant_without_a_process():
    cluster, apis = make_world(2)
    eng = cluster.engine
    log = wire_log(cluster)
    node = cluster.node("n0")
    completed = []

    def prog(mpi):
        reqs = [mpi.isend(i, dest=1, tag=i, size=size)
                for i, size in enumerate((20_000, 64, 1000))]
        assert not node.live_processes[1:]          # just this one
        for req in reqs:
            assert not req.done and req.test() == (False, None)
            req.event.callbacks.append(
                lambda _ev: completed.append(eng.now))
        first = yield from waitany(eng, reqs)
        assert first == (0, None) and eng.now == completed[0]
        assert [r.done for r in reqs] == [True, False, False]
        out = yield from waitall(eng, reqs)
        assert out == [None] * 3 and eng.now == completed[2]
        for req in reqs:
            assert req.test() == (True, None)
            with pytest.raises(StopIteration):      # nothing to wait for
                next(req.wait())
        return eng.events_processed

    proc = node.spawn(prog(apis[0]), name="rank0")
    eng.run(until=1.0)
    assert proc.ok
    assert completed == [t for _src, _p, t in log] and len(log) == 3
    # All three were staged by one software timeout's worth of time and
    # left back to back.
    t0 = L.mpi_send + L.vni_send
    assert completed[0] == t0 + tx_time(20_000 + 48)
    assert sent(cluster, apis[0].endpoint.vni) == 3


# -- (c) node crash in each phase ------------------------------------------------

def test_crash_with_sends_in_software_queued_and_serializing():
    cluster, apis = make_world(2)
    eng = cluster.engine
    log = wire_log(cluster)
    ep = apis[0].endpoint
    reqs = {}

    def prog(mpi):
        # "a" serializes from 9 us to ~1 ms with "b" queued behind it; "c"
        # is posted at 500 us and in software until 509 us.
        reqs["a"] = mpi.isend("a", dest=1, tag=0, size=30_000)
        reqs["b"] = mpi.isend("b", dest=1, tag=1, size=64)
        yield eng.timeout(500 * US)
        reqs["c"] = mpi.isend("c", dest=1, tag=2, size=64)
        try:
            yield from waitall(eng, list(reqs.values()))
        except Interrupt:
            return "killed"

    rank = cluster.node("n0").spawn(prog(apis[0]), name="rank0")
    eng.run(until=505 * US)
    # "a" serializing and "b" queued are in the driver; "c" is not yet.
    assert [p[4] for p in ep.vni.nic.queued()] == ["a", "b"]
    assert sent(cluster, ep.vni) == 2
    assert not any(r.done for r in reqs.values())
    counters = dict(ep.sent_count)
    cluster.node("n0").crash()
    eng.run(until=1.0)                  # no unhandled failure surfaces
    assert log == [] and sent(cluster, ep.vni) == 2
    assert all(r.done and r.event.ok for r in reqs.values())
    assert dict(ep.sent_count) == counters
    assert rank.value == "killed" and eng.pending == 0


# -- (d) the sender gives up, in each phase --------------------------------------

def disturb(proc, how):
    if how == "interrupt":
        proc.interrupt("stop")
    else:
        proc.abandon_wait(_StepAborted())


@pytest.mark.parametrize("how", ["interrupt", "abort"])
@pytest.mark.parametrize("victim,at,leaves,counted", [
    # "c" is in software from 500 to 504 us: it never reaches the driver.
    ("c", 502 * US, "ab", 2),
    # "b" is queued behind "a": withdrawn, "c" moves up.
    ("b", 300 * US, "ac", 3),
    # "a" is on the link: in the hardware, it leaves on time regardless.
    ("a", 300 * US, "abc", 3),
])
def test_withdrawn_send(how, victim, at, leaves, counted):
    cluster = Cluster.build(nodes=2)
    eng = cluster.engine
    a, _b = vnis(cluster)
    log = wire_log(cluster)
    outcome = {}

    def sender(tag, start, size):
        yield eng.timeout(start)
        try:
            yield from a.send("n1", "app:1", tag, size)
            outcome[tag] = ("sent", eng.now)
        except (Interrupt, _StepAborted) as exc:
            outcome[tag] = (type(exc).__name__, eng.now)

    procs = {tag: eng.process(sender(tag, start, size))
             for tag, start, size in (("a", 0.0, 30_000), ("b", 0.0, 1000),
                                      ("c", 500 * US, 64))}
    eng.timeout(at).callbacks.append(
        lambda _ev: disturb(procs[victim], how))
    eng.run()
    assert [p for _src, p, _t in log] == list(leaves)
    assert sent(cluster, a) == counted and not a.nic.queued()
    assert outcome.pop(victim) == (
        "Interrupt" if how == "interrupt" else "_StepAborted", at)
    departures = {p: t for _src, p, t in log}
    assert outcome == {tag: ("sent", departures[tag]) for tag in outcome}
    # Back to back behind "a", whoever was withdrawn.
    t = L.vni_send + tx_time(30_000)
    assert departures["a"] == t
    for tag in leaves[1:]:
        t = t + tx_time(1000 if tag == "b" else 64)
        assert departures[tag] == t


# -- (e) departure and kill in the same instant ----------------------------------

def kill_in_the_departure_instant(pseed):
    """A rank sending three frames is killed in the very instant frame 0
    leaves; returns what happened in that instant, in order."""
    cluster = Cluster.build(nodes=2)
    eng = cluster.engine
    eng.set_perturbation(SchedulePerturbation(pseed))
    a, _b = vnis(cluster)
    log = wire_log(cluster)
    seen = []

    def rank():
        try:
            for i in range(3):
                yield from a.send("n1", "app:1", i, 1000)
                seen.append(f"returned {i}")
        except Interrupt as hit:
            seen.append(f"killed by {hit.cause} at {eng.now!r}")

    proc = eng.process(rank())
    # The same two delays the first send is charged, added in the same
    # order: the kill is issued when frame 0 leaves, before or after
    # ``Nic._tx_done`` as the tie shuffle decides.
    Timeout(eng, L.vni_send).callbacks.append(
        lambda _ev: Timeout(eng, tx_time(1000)).callbacks.append(
            lambda _ev: (seen.append("kill"), proc.interrupt("kill"))))
    eng.run()
    (_src, payload, t), = log                   # frame 0, and nothing else
    assert payload == 0 and sent(cluster, a) == 1 and proc.ok
    assert seen.pop() == f"killed by kill at {t!r}"
    return tuple(seen)


def test_kill_in_the_departure_instant_wins_under_any_tie_order():
    # Seeds 1-10: the shuffle draws one number per tie group, and since the
    # send stage rode the NIC FIFO (DESIGN §30) no staged event ties with the
    # kill chain's first timeout, so seeds 1-5 alone draw only two orders.
    orders = {kill_in_the_departure_instant(pseed) for pseed in range(1, 11)}
    # Issued second, the kill finds the sender returned inside ``_tx_done``
    # and ends it in its next wait — where send 1, still in software, is
    # withdrawn.  Issued first, the completion takes the queue behind the
    # interrupt, as its event always did; those two tie, and the kill finds
    # the sender still parked on frame 0 or, shuffled, one wait later.
    assert orders == {("returned 0", "kill"), ("kill",),
                      ("kill", "returned 0")}


# -- (f) blocking recv: one resumption, app_recv after the match -----------------

def recv_hist(cluster):
    return cluster.engine.metrics.get("mpi.p2p.latency_seconds", op="recv")


def test_recv_resumes_app_recv_after_the_match():
    cluster, apis = make_world(2)
    eng = cluster.engine
    ep = apis[0].endpoint
    filed = []
    ingest = ep._ingest

    def on_ingest(payload):
        filed.append(eng.now)
        ingest(payload)

    ep._ingest = on_ingest
    posted, resumed = [], []

    def receiver(mpi):
        # Posted first: the message is matched when the dispatcher files it.
        posted.append(eng.now)
        data, status = yield from mpi.recv(source=1, tag=0, with_status=True)
        resumed.append(eng.now)
        assert data == "early" and (status.source, status.tag) == (1, 0)
        # From the unexpected queue: matched by the post itself.
        yield eng.timeout(1e-3)
        assert [m.data for m in ep.matching.unexpected] == ["late"]
        posted.append(eng.now)
        assert (yield from mpi.recv(source=1, tag=1)) == "late"
        resumed.append(eng.now)
        # PROC_NULL completes at once, and still costs the application layer.
        posted.append(eng.now)
        assert (yield from mpi.recv(source=PROC_NULL, with_status=True)) == \
            (None, Status(PROC_NULL, -1, 0))        # ANY_TAG, as posted
        resumed.append(eng.now)

    def sender(mpi):
        yield from mpi.send("early", dest=0, tag=0)
        yield from mpi.send("late", dest=0, tag=1)

    procs = [cluster.node("n0").spawn(receiver(apis[0])),
             cluster.node("n1").spawn(sender(apis[1]))]
    before = eng.events_processed
    eng.run(until=1.0)
    assert all(p.ok for p in procs)
    assert len(filed) == 2
    assert resumed == [filed[0] + L.app_recv, posted[1] + L.app_recv,
                       posted[2] + L.app_recv]
    # The wait is observed at match time, as a difference of two clock
    # readings — the parent's sum to the bit, no app_recv subtracted back.
    hist = recv_hist(cluster)
    assert hist.count == 3
    assert hist.sum == 0.0 + (filed[0] - posted[0]) + 0.0 + 0.0
    # Two messages at three events each: Nic._tx_done (in which the fabric
    # hands the frame to the receiving VNI with its arrival instant), the
    # filing (Vni._filed) and the receive request's own event (four while
    # the arrival was an event of its own, Fabric._deliver_batch, before
    # docs/records/34-three-events-per-message.md; six before the send
    # stage rode the NIC FIFO and polling and dispatch became one filing
    # event, DESIGN §30; seven before a frame's arrival became one event,
    # §29), the receiver's 1 ms timeout, the PROC_NULL request, two process
    # starts and two terminations.
    assert eng.events_processed - before == 2 * 3 + 1 + 1 + 2 + 2


def test_recv_without_the_polling_thread_still_reports_status():
    cluster, apis = make_world(2, polling=False)
    eng = cluster.engine

    def receiver(mpi):
        out = yield from mpi.recv(source=1, tag=5, with_status=True)
        return out, eng.now

    def sender(mpi):
        yield from mpi.send(b"x" * 10, dest=0, tag=5)

    rx = cluster.node("n0").spawn(receiver(apis[0]))
    cluster.node("n1").spawn(sender(apis[1]))
    eng.run(until=1.0)
    (data, status), _t = rx.value
    assert data == b"x" * 10 and (status.source, status.tag) == (1, 5)
    assert recv_hist(cluster).count == 1


# -- (g) the FIFO by ready instant -----------------------------------------------

def test_a_later_entry_with_an_earlier_ready_instant_overtakes_a_head_not_started():
    # n0 -> n1 with Vni.send, n2 -> n3 with the two-wait reference (which
    # enters the NIC FIFO at each frame's ready instant), in one engine.
    cluster = Cluster.build(nodes=4)
    eng = cluster.engine
    a, _b, c, _d = vnis(cluster)
    log = wire_log(cluster)
    plan = [  # (tag, submitted at, pre_delay, size)
        ("x", 0.0, 50 * US, 64),        # the head, in software until 54 us,
        ("y", 0.0, 0.0, 64),            # overtaken by y, ready at 4 us
        ("big", 100 * US, 0.0, 30_000),  # serializing from 104 us to ~1.1 ms
        ("z", 100 * US, 20 * US, 64),   # in software until 124 us,
        ("w", 110 * US, 0.0, 64),       # ready at 114 us: passes z, not big
    ]
    seen = {}

    def sender(send, vni, dst, tag, at, pre_delay, size):
        yield eng.timeout(at)
        yield from send(vni, f"n{dst}", f"app:{dst}", tag, size,
                        pre_delay=pre_delay)

    def look(_ev):
        seen[eng.now] = ([p for p in a.nic.queued()], sent(cluster, a))

    for send, vni, dst in ((Vni.send, a, 1), (two_wait_send, c, 3)):
        for tag, at, pre_delay, size in plan:
            eng.process(sender(send, vni, dst, tag, at, pre_delay, size))
    for at in (110 * US, 120 * US):
        eng.timeout(at).callbacks.append(look)
    eng.run()
    left = {src: [(p, t) for s, p, t in log if s == src]
            for src in ("n0", "n2")}
    assert left["n0"] == left["n2"]                 # bit for bit
    assert [p for p, _t in left["n0"]] == ["y", "x", "big", "w", "z"]
    assert left["n0"][0][1] == L.vni_send + tx_time(64)
    assert left["n0"][1][1] == (50 * US + L.vni_send) + tx_time(64)
    # In the driver: what has reached its ready instant, the started head
    # first; counted from that instant on.
    assert seen == {110 * US: (["big"], 3), 120 * US: (["big", "w"], 4)}
    assert sent(cluster, a) == 5


def test_withdrawing_a_head_not_started_lets_the_next_start_at_its_own_ready():
    cluster = Cluster.build(nodes=2)
    eng = cluster.engine
    a, _b = vnis(cluster)
    log = wire_log(cluster)
    outcome = {}

    def sender(tag, pre_delay):
        try:
            yield from a.send("n1", "app:1", tag, 64, pre_delay=pre_delay)
            outcome[tag] = "sent"
        except Interrupt:
            outcome[tag] = "withdrawn"

    # x is the head, in software until 20 us; y is ready at 30 us.
    procs = {tag: eng.process(sender(tag, pre_delay))
             for tag, pre_delay in (("x", 16 * US), ("y", 26 * US))}
    eng.timeout(10 * US).callbacks.append(
        lambda _ev: procs["x"].interrupt("stop"))
    eng.run()
    assert outcome == {"x": "withdrawn", "y": "sent"}
    assert [(p, t) for _src, p, t in log] == [
        ("y", (26 * US + L.vni_send) + tx_time(64))]
    assert sent(cluster, a) == 1 and not a.nic.queued()


# -- (h) a tapped isend: the send's body on event callbacks ----------------------

class WaitingTap:
    """A C/R tap whose pre-wire hook waits ``hold`` (a log write)."""

    def __init__(self, eng, hold):
        self.eng, self.hold, self.log = eng, hold, []

    def piggyback(self, dest):
        return ("pb", dest)

    def on_send(self, dest, comm_id, src_rank, tag, data, nbytes, pb):
        self.log.append(("on_send", data, pb, self.eng.now))
        try:
            yield self.eng.timeout(self.hold)
            self.log.append(("logged", data, self.eng.now))
        finally:
            self.log.append(("hook over", data, self.eng.now))

    def route_send(self, dest, comm_id, src_rank, tag, data, nbytes, pb,
                   pre_delay):
        self.log.append(("route", data, self.eng.now))

    def on_deliver(self, src, inbound, pb):
        return False

    def on_control(self, msg, src):
        pass


def test_tapped_isend_runs_the_hooks_without_a_process():
    cluster, apis = make_world(2)
    eng = cluster.engine
    log = wire_log(cluster)
    ep = apis[0].endpoint
    tap = ep.tap = WaitingTap(eng, 10 * US)
    node = cluster.node("n0")
    out = {}

    def prog(mpi):
        req = mpi.isend("m", dest=1, tag=0, size=64)
        # Sampled at entry, as an untapped isend: the counter and the
        # piggyback; the hook has started.
        out["entry"] = (dict(ep.sent_count), list(tap.log))
        assert not node.live_processes[1:]          # just this one
        yield from req.wait()
        out["done"] = eng.now

    proc = node.spawn(prog(apis[0]), name="rank0")
    eng.run(until=1.0)
    assert proc.ok
    assert out["entry"] == ({1: 1}, [("on_send", "m", ("pb", 1), 0.0)])
    assert tap.log[1:] == [("logged", "m", 10 * US),
                           ("hook over", "m", 10 * US),
                           ("route", "m", 10 * US)]
    (_src, payload, t), = log
    assert payload[4] == "m"
    assert t == out["done"] == (10 * US + (0.0 + L.mpi_send + L.vni_send)) \
        + tx_time(64 + 48)


def test_tapped_isend_whose_node_dies_inside_the_hook_fails_defused():
    cluster, apis = make_world(2)
    eng = cluster.engine
    log = wire_log(cluster)
    ep = apis[0].endpoint
    tap = ep.tap = WaitingTap(eng, 1e-3)
    reqs = []

    def prog(mpi):
        reqs.append(mpi.isend("m", dest=1, tag=0, size=64))
        try:
            yield eng.timeout(1.0)
        except Interrupt:
            return "killed"

    rank = cluster.node("n0").spawn(prog(apis[0]), name="rank0")
    eng.timeout(500 * US).callbacks.append(
        lambda _ev: cluster.node("n0").crash())
    eng.run(until=1.0)                  # no unhandled failure surfaces
    (req,) = reqs
    assert rank.value == "killed" and req.done and not req.event.ok
    # As a killed process: Interrupt at the hook's wait, its finally ran,
    # nothing after it — no route, no frame, nothing counted.
    assert [entry[0] for entry in tap.log] == ["on_send", "hook over"]
    assert log == [] and sent(cluster, ep.vni) == 0
