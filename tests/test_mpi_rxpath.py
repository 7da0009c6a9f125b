"""The receive pipeline: polling thread and MPI dispatcher as one filing
event per message.

A data frame handed up by the NIC (``driver_recv``) is moved by the VNI's
polling stage (``vni_recv``) and then by the endpoint's dispatcher stage
(``mpi_recv``) before ``_ingest`` files it; each stage starts a message at
the later of its arrival and the previous message's completion.  Both
instants are fixed when the frame arrives, so the VNI arms one event, at the
filing instant (``Vni._filed``).  No process, no queue get.
"""

from collections import Counter

import pytest

from repro.apps import PingPong
from repro.calibration import BIP_LAYERS, BLOCKING_RECV_SYSCALL
from repro.cluster import Cluster
from repro.core import (AppSpec, CheckpointConfig, StarfishCluster,
                        StarfishProgram)
from repro.gcs import GcsConfig
from repro.mpi import MpiEndpoint
from repro.sim import Channel, Engine, Process
from repro.sim.events import Timeout
from repro.vni import Vni

from tests.mpi_helpers import make_world, run_ranks

L = BIP_LAYERS


def spy(cluster, ep):
    """``(arrivals, filed)``: the instants at which frames for ``ep`` left
    ``driver_recv`` and at which ``_ingest`` filed them, with the data.  A
    frame reaches the VNI with its arrival instant (``Vni._arrive``, handed
    over at transmit), so the arrival is read there."""
    vni = ep.vni
    arrivals, filed = [], []
    arrive, ingest = vni._arrive, ep._ingest

    def on_arrive(frame, arrival):
        arrivals.append((arrival, frame.payload[4]))
        arrive(frame, arrival)

    def on_ingest(payload):
        filed.append((cluster.engine.now, payload[4]))
        ingest(payload)

    vni._arrive = on_arrive
    ep._ingest = on_ingest
    return arrivals, filed


def tee_arrivals(vni, feed, payload_of):
    """Also hand every frame ``vni`` receives to ``feed``, at its arrival
    instant."""
    eng = vni.engine
    arrive = vni._arrive

    def tee(frame, arrival):
        Timeout.at(eng, arrival).callbacks.append(
            lambda _e: feed(payload_of(frame)))
        arrive(frame, arrival)

    vni._arrive = tee


def burst(apis, k=6):
    """Ranks 1.. each fire ``k`` back-to-back isends at rank 0."""
    def prog(mpi, rank):
        if rank:
            for req in [mpi.isend((rank, i), dest=0, tag=i, size=8 + 40 * i)
                        for i in range(k)]:
                yield from req.wait()
    return prog


# -- (a) idle endpoint ---------------------------------------------------------

def test_idle_endpoint_files_after_vni_recv_plus_mpi_recv():
    cluster, apis = make_world(2)
    arrivals, filed = spy(cluster, apis[0].endpoint)

    def prog(mpi, rank):
        if rank:
            yield from mpi.send("x", dest=0, tag=3)

    run_ranks(cluster, apis, prog)
    (t_arrived, _), (t_filed, data) = arrivals[0], filed[0]
    assert data == "x"
    assert t_filed - t_arrived == pytest.approx(L.vni_recv + L.mpi_recv,
                                                abs=1e-12)
    assert [m.data for m in apis[0].endpoint.matching.unexpected] == ["x"]


# -- (b) a burst: the stage rule, against the process pipeline ----------------

def reference_pipeline(eng, filed, poll_cost=L.vni_recv,
                       file_cost=L.mpi_recv):
    """What the filing event replaced: the polling-thread process and the
    dispatcher process, each a get then its layer's timeout."""
    rx, rq = Channel(eng), Channel(eng)

    def poll():
        while True:
            item = yield rx.get()
            yield Timeout(eng, poll_cost)
            rq.put(item)

    def dispatch():
        while True:
            item = yield rq.get()
            yield Timeout(eng, file_cost)
            filed.append((eng.now, item))

    eng.process(poll())
    eng.process(dispatch())
    return rx.put


def test_burst_is_filed_when_the_process_pipeline_filed_it():
    cluster, apis = make_world(4)
    ep = apis[0].endpoint
    arrivals, filed = spy(cluster, ep)
    # Tee every arriving frame into the reference, in the same engine: both
    # pipelines see the same arrival instants, bit for bit.
    expected = []
    tee_arrivals(ep.vni, reference_pipeline(cluster.engine, expected),
                 lambda frame: frame.payload[4])
    run_ranks(cluster, apis, burst(apis))
    assert len(filed) == 18
    assert filed == expected                    # same instants, same order
    assert [m.data for m in ep.matching.unexpected] == \
        [data for _t, data in expected]
    # The burst really queued: some message started a stage at its
    # predecessor's completion, not at its own arrival.
    gaps = [f - a for (a, _), (f, _) in zip(arrivals, filed)]
    assert max(gaps) > 2 * (L.vni_recv + L.mpi_recv)
    # Per-sender FIFO survives the interleaving.
    for rank in (1, 2, 3):
        assert [d[1] for _t, d in filed if d[0] == rank] == list(range(6))


def test_burst_closer_than_vni_recv_is_filed_at_the_two_stage_instants():
    # Three senders post at once, each a different size: the frames arrive
    # closer together than vni_recv.  A sink stage cheaper than the polling
    # thread (1 us) lets the polling stage's queueing show in the filing
    # instants (behind mpi_recv = 5 us > vni_recv it would hide).
    cluster = Cluster.build(nodes=4)
    eng = cluster.engine
    cost = 1e-6
    arrivals, filed, expected = [], [], []
    rx = Vni(eng, cluster.node("n0"), port="app:0", sink_cost=cost,
             sink=lambda frame: filed.append((eng.now, frame.payload)))
    tee_arrivals(rx, reference_pipeline(eng, expected, file_cost=cost),
                 lambda frame: frame.payload)
    arrive = rx._arrive

    def on_arrive(frame, arrival):
        arrivals.append(arrival)
        arrive(frame, arrival)

    rx._arrive = on_arrive
    for i in (1, 2, 3):
        tx = Vni(eng, cluster.node(f"n{i}"), port=f"app:{i}", sink=[].append)
        for k in range(4):
            tx.submit("n0", "app:0", (i, k), 64 + 40 * i)
    eng.run()
    assert len(filed) == 12
    assert filed == expected                    # same instants, same order
    assert min(b - a for a, b in zip(arrivals, arrivals[1:])) < L.vni_recv
    polled = done = 0.0
    instants = []
    for arrived in arrivals:
        polled = max(arrived, polled) + L.vni_recv
        done = max(polled, done) + cost
        instants.append(done)
    assert [t for t, _payload in filed] == instants


# -- (c) node crash mid-pipeline ----------------------------------------------

def two_in_flight(act):
    """Two frames arrive back to back; ``act(cluster, ep)`` runs at an
    instant when the first is mid-dispatch and the second mid-poll."""
    cluster, apis = make_world(2)
    ep = apis[0].endpoint
    arrivals, filed = spy(cluster, ep)
    arrive = ep.vni._arrive

    def fire(_ev):
        assert ep.vni.in_flight() == (1, 1)
        act(cluster, ep)

    def on_arrive(frame, arrival):
        if not arrivals:
            # First arrival at a: polled at a+4us, filed at a+9us; the second
            # frame (~5.6 us behind) is polled from a+5.6 to a+9.6 us.
            Timeout.at(cluster.engine, arrival + (L.vni_recv + 3e-6)
                       ).callbacks.append(fire)
        arrive(frame, arrival)

    ep.vni._arrive = on_arrive

    def prog(mpi, rank):
        if rank:
            for req in [mpi.isend(i, dest=0, tag=i, size=8) for i in (0, 1)]:
                yield from req.wait()

    sender = cluster.node("n1").spawn(prog(apis[1], 1))
    cluster.engine.run(until=1.0)
    assert sender.ok
    return cluster, ep, arrivals, filed


def test_crash_mid_poll_and_mid_dispatch_files_neither():
    cluster, ep, arrivals, filed = two_in_flight(
        lambda cluster, ep: cluster.node("n0").crash())
    assert len(arrivals) == 2 and filed == []
    assert ep.matching.unexpected == [] and not ep.recv_count
    assert ep.vni.closed and ep.vni.in_flight() == (0, 0)
    # The first frame was polled before the crash; nothing after it.
    assert cluster.engine.metrics.value("vni.received", port=ep.port,
                                        path="fast") == 1


def test_only_the_ranks_registering_endpoint_restarts_its_vni_series():
    # Rank 0 has received one message.  A backup copy of it (another node,
    # the rank's port, no address) leaves the series alone; a restarted
    # rank 0 takes the address and its series starts again at zero.
    cluster, apis = make_world(3)
    apis.pop()                                  # n2 stays free

    def prog(mpi, rank):
        if rank:
            yield from mpi.send("x", dest=0, tag=1)
        else:
            yield from mpi.recv(source=1, tag=1)

    run_ranks(cluster, apis, prog)
    metrics, book = cluster.engine.metrics, apis[0].endpoint.addressbook

    def copy_on_n2(register):
        MpiEndpoint(cluster.engine, cluster.node("n2"), app_id="test",
                    world_rank=0, addressbook=book, register=register)
        return (metrics.value("vni.received", port="mpi:test:0",
                              path="fast"), book[0][0])

    assert copy_on_n2(register=False) == (1, "n0")
    assert copy_on_n2(register=True) == (0, "n2")


# -- (d) close() mid-stage -----------------------------------------------------

def test_close_mid_stage_files_nothing_and_is_idempotent():
    def act(cluster, ep):
        ep.close()
        ep.close()

    cluster, ep, arrivals, filed = two_in_flight(act)
    assert len(arrivals) == 2 and filed == []
    assert ep.matching.unexpected == [] and not ep.recv_count
    assert ep.vni.closed and ep.vni.in_flight() == (0, 0)
    ep.close()
    assert not any(p.name.startswith(("poll:", "mpi-disp:"))
                   for p in cluster.node("n0").live_processes)


# -- (e) the blocking ablation ------------------------------------------------

def test_blocking_mode_differs_by_exactly_the_syscall():
    def one_way(polling):
        cluster, apis = make_world(2, polling=polling)

        def prog(mpi, rank):
            if rank:
                yield from mpi.send(b"x", dest=0, tag=0, size=512)
                return None
            yield from mpi.recv(source=1, tag=0)
            return cluster.engine.now

        return run_ranks(cluster, apis, prog)[0]

    assert one_way(False) - one_way(True) == pytest.approx(
        BLOCKING_RECV_SYSCALL, rel=1e-9)


# -- (f) the event budget per message ------------------------------------------

def pingpong_events(reps):
    quiet = GcsConfig(heartbeat_period=2.0, suspect_timeout=16.0,
                      announce_period=32.0)
    sf = StarfishCluster.build(nodes=2, gcs_config=quiet)
    before = sf.engine.events_processed
    rtts = sf.run(AppSpec(program=PingPong, nprocs=2,
                          params={"sizes": [64], "reps": reps}))
    assert rtts[0][64] > 0
    assert not any(p.name.startswith(("poll:", "mpi-disp:"))
                   for node in sf.cluster.nodes.values()
                   for p in node.live_processes)
    return sf.engine.events_processed - before


def test_event_budget_per_message():
    # One MPI message costs three dispatched events, named by owner —
    # sender: Nic._tx_done (the serialization timeout, armed at max(ready,
    # previous departure) + driver_send + size/bw, which resumes the sender
    # inside it, and in which the fabric hands the frame to the receiving
    # VNI with its arrival instant); receiver: Vni._filed (the filing
    # instant, max(polled, previous filed) + mpi_recv, polled = max(arrival,
    # previous polled) + vni_recv), and the request's own event app_recv
    # after the match — so a round trip costs 6.  The run is deterministic,
    # so the totals are pinned exactly: a process or a get put back on the
    # data path adds one event per message and fails here rather than
    # showing up as benchmark drift.  14 -> 12 when a frame's arrival
    # became one event (DESIGN §12): the driver_recv event
    # (Nic._enqueue_batch) of each message is gone, 2 per round trip.
    # 12 -> 8 when the send stage rode the NIC FIFO and polling plus
    # dispatch became one filing event (DESIGN §30): Vni._staged and
    # Vni._polled of each message are gone, 2 * 2 per round trip.  8 -> 6
    # when a frame bound for a polling VNI stopped having an arrival event
    # (docs/records/34-three-events-per-message.md): Fabric._deliver_batch
    # of each message is gone, 2 per round trip.
    small, large = pingpong_events(50), pingpong_events(250)
    assert large - small == 6 * 200             # parent: 8 * 200
    # Submit, spawn, MPI_Init wait, completion and teardown of the app do not
    # depend on the number of round trips.  79 -> 51 when an application
    # became two main-group casts (DESIGN §21; five before: lwg-op create,
    # app-submit, two app-rank-done, lwg-op destroy): on two nodes that is 12
    # control frames -> 6 (app-submit, one rank-done report, app-done, three
    # RelAcks) at three NIC events each = 18, plus 3 sequencer timeouts, 6
    # gcs-main gets and 1 daemon get that queued behind the removed casts.
    # 51 -> 45 when casts stopped being acknowledged copy by copy (DESIGN
    # §23): the RelAcks of the app-submit and app-done copies, two frames
    # at three NIC events each.  45 -> 35 when the object bus went (DESIGN
    # §24): each rank's bus dispatcher cost five events — its start, two
    # gets of the queued configuration events, the stop's interrupt and its
    # exit — and was never on the data path, so the 14 does not move.
    # 14 * 50 + 35 -> 12 * 50 + 31 when arrival became one event: the run
    # of 50 round trips dispatched 104 driver_recv events, 2 * 50 of the
    # messages and 4 of the control frames.  12 * 50 + 31 -> 8 * 50 + 31
    # with the two folds: no control frame carries a VNI send stage or a
    # polling stage, so only the messages' events went; 8 * 50 + 31 ->
    # 6 * 50 + 31 likewise (control frames go to GCS sinks, which keep
    # their arrival event).
    assert small == 6 * 50 + 31                 # parent: 8 * 50 + 31


class Exchange(StarfishProgram):
    """Ranks 0 and 1 swap a value with ``sendrecv``, ten times a step."""

    def setup(self, ctx):
        self.state["steps"] = 0

    def step(self, ctx):
        peer = 1 - ctx.rank
        for i in range(10):
            got = yield from ctx.mpi.sendrecv((ctx.rank, i), dest=peer,
                                              source=peer)
            assert got == (peer, i)
        self.state["steps"] += 1

    def is_done(self, ctx):
        return self.state["steps"] >= ctx.params["steps"]

    def finalize(self, ctx):
        return self.state["steps"]


def owner(event):
    """Who pays for a dispatched event: the process its first callback
    resumes (``name <- EventType``), or that callback's qualified name."""
    if not event.callbacks:
        return "(nocb) <- " + (event.name.split(":")[0]
                               if isinstance(event, Process)
                               else type(event).__name__)
    target = getattr(event.callbacks[0], "__self__", None)
    if isinstance(target, Process):
        return f"{target.name.split(':')[0]} <- {type(event).__name__}"
    return event.callbacks[0].__qualname__


def exchange_owners(monkeypatch, steps, **app):
    """Dispatched events of one ``Exchange`` run, counted by owner."""
    counts = Counter()

    def run_counting(self, limit):
        while (entry := self._next(limit)) is not None:
            counts[owner(entry[3])] += 1
            self._dispatch(entry)

    quiet = GcsConfig(heartbeat_period=2.0, suspect_timeout=16.0,
                      announce_period=32.0)
    sf = StarfishCluster.build(nodes=2, gcs_config=quiet)
    monkeypatch.setattr(Engine, "_run_heap", run_counting)
    assert sf.run(AppSpec(program=Exchange, nprocs=2,
                          params={"steps": steps}, **app)) == {0: steps,
                                                               1: steps}
    monkeypatch.undo()
    return counts


def test_event_budget_per_isend(monkeypatch):
    # An isend with no C/R tap installed is posted, not performed: it pays
    # the NIC's serialization timeout (Nic._tx_done), in which the request
    # completes — one event and no process (its software stage rides the
    # NIC FIFO as a ready instant, DESIGN §30; Vni._staged was a second
    # event; before DESIGN §12's send-side fold, a process and six).
    small = exchange_owners(monkeypatch, 2)
    large = exchange_owners(monkeypatch, 12)
    extra = large - small
    isends = 2 * 10 * 10                        # both ranks, ten more steps
    assert extra["Nic._tx_done"] == isends and not extra["Vni._staged"]
    assert not [who for who in large if "isend" in who]
    # The message's other two events: its filing (Vni._filed: the polling
    # thread's and the dispatcher's stages, Vni._polled and
    # MpiEndpoint._dispatched before DESIGN §30, reached from the arrival
    # instant the fabric hands over at transmit — Fabric._deliver_batch
    # was the arrival's own event before the fold of
    # docs/records/34-three-events-per-message.md, Nic._enqueue_batch
    # another before DESIGN §12's) and the blocking receive's request
    # event, which is the only one that resumes the rank.  Nothing else
    # grows with the number of messages but the steps' own bookkeeping.
    per_message = ("Nic._tx_done", "Vni._filed", "app <- Event")
    assert [extra[who] for who in per_message] == [isends] * 3
    assert not (extra["Fabric._deliver_batch"] or extra["Fabric._judge"]
                or extra["Nic._enqueue_batch"] or extra["Vni._polled"]
                or extra["MpiEndpoint._dispatched"])
    assert sum(extra.values()) == 3 * isends    # parent: 4 * isends
    # Under a message-logging protocol the tap may wait (the log precedes
    # the wire): each isend runs the send's body on the callbacks of the
    # events it waits for — the disk head's get and the log write's timeout
    # — and spawns no process (parent: a process per isend, three more
    # events: its start, its end and the request's own event).
    tapped = exchange_owners(
        monkeypatch, 2, checkpoint=CheckpointConfig(
            protocol="sender-logging", level="vm", interval=10.0))
    assert not [who for who in tapped if "isend" in who]
    assert tapped["MpiEndpoint._drive.<locals>.resume"] == 2 * 2 * 10 * 2
