"""Unit tests for fabrics, NICs, and the transport timing model."""

import pytest

from repro.calibration import (BIP_LAYERS, RTT_1BYTE_BIP, RTT_1BYTE_TCP,
                               TCP_LAYERS)
from repro.cluster import Cluster, ClusterSpec
from repro.faults import CrashNode
from repro.errors import NodeDown, Unreachable
from repro.net import BIP_MYRINET, Frame, Nic, TCP_ETHERNET
from repro.net.message import MIN_WIRE_SIZE
from repro.vni import Vni


def make_pair():
    cluster = Cluster.build(nodes=2)
    return cluster, cluster.node("n0"), cluster.node("n1")


def test_transport_one_way_matches_paper_anchors():
    # Fig. 5: 1-byte RTT of 86 us (BIP) and 552 us (TCP) at the app level
    # (including the MPI data header's wire time).
    from repro.calibration import (BIP_BANDWIDTH, TCP_BANDWIDTH,
                                   one_way_time)
    assert 2 * one_way_time(BIP_LAYERS, BIP_BANDWIDTH, 1) == \
        pytest.approx(RTT_1BYTE_BIP, rel=1e-3)
    assert 2 * one_way_time(TCP_LAYERS, TCP_BANDWIDTH, 1) == \
        pytest.approx(RTT_1BYTE_TCP, rel=1e-3)


def test_transport_latency_grows_linearly():
    for spec in (TCP_ETHERNET, BIP_MYRINET):
        t0, t1, t2 = (spec.one_way(s) for s in (0, 10_000, 20_000))
        assert t1 - t0 == pytest.approx(t2 - t1)
        assert t1 > t0


def test_frame_min_size_enforced():
    f = Frame(src="a", dst="b", port="p", payload=None, size=1)
    assert f.size == MIN_WIRE_SIZE


def test_frame_delivery_between_nodes():
    cluster, n0, n1 = make_pair()
    eng = cluster.engine
    rx = n1.nic("tcp-ethernet").open_port("svc")

    def sender():
        frame = Frame(src="n0", dst="n1", port="svc", payload="hi", size=100)
        yield from n0.nic("tcp-ethernet").send(frame)

    def receiver():
        frame = yield rx.get()
        return frame.payload, eng.now

    eng.process(sender())
    p = eng.process(receiver())
    payload, when = eng.run(p)
    assert payload == "hi"
    # driver_send + wire + size/bw + driver_recv
    spec = TCP_ETHERNET
    expected = (spec.layers.driver_send + spec.wire_time(100)
                + spec.layers.driver_recv)
    assert when == pytest.approx(expected)


def test_myrinet_faster_than_ethernet():
    cluster, n0, n1 = make_pair()
    eng = cluster.engine
    times = {}

    def roundtrip(fabric_name):
        rx1 = n1.nic(fabric_name).open_port("ping")
        rx0 = n0.nic(fabric_name).open_port("pong")

        def ponger():
            frame = yield rx1.get()
            reply = Frame(src="n1", dst="n0", port="pong",
                          payload=frame.payload, size=frame.size)
            yield from n1.nic(fabric_name).send(reply)

        def pinger():
            start = eng.now
            f = Frame(src="n0", dst="n1", port="ping", payload=b"x", size=64)
            yield from n0.nic(fabric_name).send(f)
            yield rx0.get()
            times[fabric_name] = eng.now - start

        eng.process(ponger())
        return eng.process(pinger())

    p1 = roundtrip("tcp-ethernet")
    eng.run(p1)
    p2 = roundtrip("bip-myrinet")
    eng.run(p2)
    assert times["bip-myrinet"] < times["tcp-ethernet"] / 3


def test_send_from_detached_node_raises():
    cluster, n0, _n1 = make_pair()
    n0.crash()
    frame = Frame(src="n0", dst="n1", port="p", payload=None, size=32)
    with pytest.raises(Unreachable):
        cluster.ethernet.transmit(frame)


def test_nic_send_after_crash_raises_nodedown():
    cluster, n0, _n1 = make_pair()
    eng = cluster.engine
    nic = n0.nic("tcp-ethernet")
    n0.crash()

    def sender():
        frame = Frame(src="n0", dst="n1", port="p", payload=None, size=32)
        with pytest.raises(NodeDown):
            yield from nic.send(frame)
        return True

    assert eng.run(eng.process(sender()))


def test_frames_to_crashed_node_are_dropped():
    cluster, n0, n1 = make_pair()
    eng = cluster.engine
    n1.crash()
    f = Frame(src="n0", dst="n1", port="p", payload=None, size=32)
    cluster.ethernet.transmit(f)
    eng.run()
    assert eng.metrics.sum("net.frames_dropped", fabric="tcp-ethernet") == 1


def test_crash_mid_flight_drops_frame():
    cluster, n0, n1 = make_pair()
    eng = cluster.engine
    rx = n1.nic("tcp-ethernet").open_port("p")

    def sender():
        f = Frame(src="n0", dst="n1", port="p", payload="late", size=32)
        yield from n0.nic("tcp-ethernet").send(f)

    eng.process(sender())
    # Crash n1 while the frame is in flight (wire time >> 10 us).
    cluster.faults.at(0.00005, CrashNode(node="n1"))
    eng.run()
    assert eng.metrics.sum("net.frames_dropped", fabric="tcp-ethernet") >= 1
    assert len(rx.peek_all()) == 0


def test_partition_blocks_cross_group_traffic():
    cluster = Cluster.build(nodes=4)
    eng = cluster.engine
    cluster.ethernet.set_partition(["n0", "n1"], ["n2", "n3"])
    rx_n1 = cluster.node("n1").nic("tcp-ethernet").open_port("p")
    rx_n2 = cluster.node("n2").nic("tcp-ethernet").open_port("p")

    for dst in ("n1", "n2"):
        cluster.ethernet.transmit(
            Frame(src="n0", dst=dst, port="p", payload=dst, size=32))
    eng.run()
    assert [f.payload for f in rx_n1.peek_all()] == ["n1"]
    assert rx_n2.peek_all() == []

    cluster.ethernet.clear_partition()
    cluster.ethernet.transmit(
        Frame(src="n0", dst="n2", port="p", payload="again", size=32))
    eng.run()
    assert [f.payload for f in rx_n2.peek_all()] == ["again"]


def test_loss_probability_drops_frames_deterministically():
    def run_once():
        cluster = Cluster.build(spec=ClusterSpec(nodes=2, seed=5, loss_prob=0.5))
        rx = cluster.node("n1").nic("tcp-ethernet").open_port("p")
        for i in range(100):
            cluster.ethernet.transmit(
                Frame(src="n0", dst="n1", port="p", payload=i, size=32))
        cluster.engine.run()
        return len(rx.peek_all()), cluster.engine.metrics.sum(
            "net.frames_dropped", fabric="tcp-ethernet")

    got1, got2 = run_once(), run_once()
    assert got1 == got2                      # deterministic
    delivered, dropped = got1
    assert delivered + dropped == 100
    assert 20 < delivered < 80               # actually lossy


def test_nic_tx_serializes_concurrent_senders():
    cluster, n0, n1 = make_pair()
    eng = cluster.engine
    rx = n1.nic("bip-myrinet").open_port("p")
    arrivals = []

    def sender(i):
        f = Frame(src="n0", dst="n1", port="p", payload=i, size=30_000_000)
        yield from n0.nic("bip-myrinet").send(f)

    def receiver():
        for _ in range(2):
            f = yield rx.get()
            arrivals.append((f.payload, eng.now))

    eng.process(sender(0))
    eng.process(sender(1))
    eng.run(eng.process(receiver()))
    # 30 MB at 30 MB/s ~ 1s wire each; serialized tx => ~1s apart..
    assert arrivals[1][1] - arrivals[0][1] > 0.5


def test_frame_to_unopened_port_is_dropped_and_counted():
    cluster, n0, n1 = make_pair()
    eng = cluster.engine
    somebody = n1.nic("tcp-ethernet").open_port("somebody")
    cluster.ethernet.transmit(
        Frame(src="n0", dst="n1", port="nobody", payload="x", size=32))
    eng.run()
    assert eng.metrics.value("net.nic.rx_dropped",
                             fabric="tcp-ethernet") == 1
    assert len(somebody) == 0           # handed to no other port either


# -- arrival is one event: wire + driver_recv (DESIGN §12) ------------------

def _arrival_window(cluster, size=32):
    """(instant the frame leaves n0's NIC, instant it reaches n1's port)
    for a frame posted on the Ethernet at t = 0."""
    layers = cluster.ethernet.spec.layers
    left = 0.0 + (layers.driver_send + size / cluster.ethernet.spec.bandwidth)
    return left, (left + layers.wire) + layers.driver_recv


def test_a_frame_reaches_its_sink_one_event_after_it_leaves_the_nic():
    cluster, n0, n1 = make_pair()
    eng = cluster.engine
    nic0 = n0.nic("tcp-ethernet")
    seen = {}
    tx_done = nic0._tx_done

    def watched_tx_done(event):
        seen["left"] = eng.now
        tx_done(event)

    nic0._tx_done = watched_tx_done
    n1.nic("tcp-ethernet").open_port(
        "p", sink=lambda f: seen.setdefault("sink", eng.now))
    nic0.post("n1", "p", "x", 32)
    while "left" not in seen:
        eng.step()
    assert "sink" not in seen
    eng.step()                                  # the one arrival event
    left, arrives = _arrival_window(cluster)
    assert seen["left"] == left
    # driver_send + size/bw + wire + driver_recv after the post, summed in
    # the order the charges are made.
    assert seen["sink"] == arrives
    assert eng.pending == 0


def _post_and_act_in_window(act):
    """Post n0 -> n1 at t = 0 and run ``act(cluster)`` halfway through the
    driver_recv window; returns (payloads delivered, frames dropped)."""
    cluster, n0, n1 = make_pair()
    eng = cluster.engine
    got = []
    n1.nic("tcp-ethernet").open_port("p", sink=lambda f: got.append(
        f.payload))
    n0.nic("tcp-ethernet").post("n1", "p", "x", 32)
    left, arrives = _arrival_window(cluster)
    wire_end = left + cluster.ethernet.spec.layers.wire
    assert left < wire_end < arrives
    eng.timeout((wire_end + arrives) / 2).callbacks.append(
        lambda _e: act(cluster))
    eng.run()
    return got, eng.metrics.sum("net.frames_dropped", fabric="tcp-ethernet")


def test_a_nic_shut_down_inside_driver_recv_drops_the_frame_once():
    got, dropped = _post_and_act_in_window(
        lambda c: c.node("n1").nic("tcp-ethernet").shutdown())
    assert got == [] and dropped == 1


def test_a_partition_set_inside_driver_recv_drops_the_frame_once():
    got, dropped = _post_and_act_in_window(
        lambda c: c.ethernet.set_partition(["n0"], ["n1"]))
    assert got == [] and dropped == 1


def test_a_partition_healed_inside_driver_recv_delivers_the_frame():
    # Partitioned while on the wire, healed before driver_recv ends: the
    # frame is judged once, at the end of the window.
    cluster, n0, n1 = make_pair()
    eng = cluster.engine
    got = []
    n1.nic("tcp-ethernet").open_port("p", sink=lambda f: got.append(
        f.payload))
    n0.nic("tcp-ethernet").post("n1", "p", "x", 32)
    left, arrives = _arrival_window(cluster)
    wire_end = left + cluster.ethernet.spec.layers.wire
    eng.timeout((left + wire_end) / 2).callbacks.append(
        lambda _e: cluster.ethernet.set_partition(["n0"], ["n1"]))
    eng.timeout((wire_end + arrives) / 2).callbacks.append(
        lambda _e: cluster.ethernet.clear_partition())
    eng.run()
    assert got == ["x"]
    assert eng.metrics.sum("net.frames_dropped", fabric="tcp-ethernet") == 0


def test_the_delivery_tap_sees_each_frame_once():
    cluster = Cluster.build(nodes=4)
    eng = cluster.engine
    tapped, got = [], []
    cluster.ethernet.delivery_tap = lambda f: tapped.append(f.payload)
    for nid in ("n1", "n2", "n3"):
        cluster.node(nid).nic("tcp-ethernet").open_port(
            "p", sink=lambda f: got.append(f.payload))
    # One same-instant batch from three senders, then a lone frame.
    for k, (src, dst) in enumerate((("n0", "n1"), ("n1", "n2"),
                                    ("n2", "n3"))):
        cluster.ethernet.transmit(Frame(src=src, dst=dst, port="p",
                                        payload=k, size=32))
    eng.run()
    cluster.ethernet.transmit(Frame(src="n3", dst="n1", port="p",
                                    payload=3, size=32))
    eng.run()
    assert tapped == got == [0, 1, 2, 3]


def test_same_instant_arrivals_are_still_shuffled_under_perturbation():
    # Under a repro.check perturbation every frame is its own arrival
    # event, so two frames from different senders that land at one
    # instant can come in either order.
    orders = set()
    for seed in range(1, 13):
        cluster = Cluster.build(spec=ClusterSpec(nodes=3, perturb_seed=seed))
        got = []
        cluster.node("n2").nic("tcp-ethernet").open_port(
            "p", sink=lambda f: got.append(f.src))
        for src in ("n0", "n1"):
            cluster.ethernet.transmit(Frame(src=src, dst="n2", port="p",
                                            payload=None, size=32))
        cluster.engine.run()
        assert sorted(got) == ["n0", "n1"]
        orders.add(tuple(got))
    assert orders == {("n0", "n1"), ("n1", "n0")}


# -- the same edges on a polling VNI port (Myrinet) ---------------------------
#
# A frame bound for a polling VNI is judged at its arrival instant exactly
# as a frame bound for a queue port or a GCS sink: each case below acts
# inside (transmit, arrival], inside (arrival, polled] or inside (polled,
# filed] of one frame and checks the drops, the counters and the filing
# instants.

MYRI = BIP_MYRINET.layers


def vni_link(nodes=2):
    """A polling VNI on n1 (the MPI dispatcher's stage cost behind it) that
    records ``(instant, payload)`` as it files, one sending VNI on every
    other node, and the ``(instant, payload)`` of every frame handed to the
    Myrinet's wire."""
    cluster = Cluster.build(nodes=nodes)
    eng = cluster.engine
    filed, sent = [], []
    rx = Vni(eng, cluster.node("n1"), port="rx", sink_cost=MYRI.mpi_recv,
             sink=lambda frame: filed.append((eng.now, frame.payload)))
    txs = {nid: Vni(eng, cluster.node(nid), port=f"tx:{nid}", sink=[].append)
           for nid in sorted(cluster.nodes) if nid != "n1"}
    transmit = cluster.myrinet.transmit

    def watched(frame):
        sent.append((eng.now, frame.payload))
        transmit(frame)

    cluster.myrinet.transmit = watched
    return cluster, rx, txs, filed, sent


def arrives(left):
    return (left + MYRI.wire) + MYRI.driver_recv


def stage_instants(arrivals):
    """Filing instants of frames arriving at ``arrivals`` at an idle VNI."""
    polled = done = 0.0
    out = []
    for arrived in arrivals:
        polled = max(arrived, polled) + MYRI.vni_recv
        done = max(polled, done) + MYRI.mpi_recv
        out.append(done)
    return out


def link_counts(cluster):
    m = cluster.engine.metrics
    return (m.sum("net.frames_dropped", fabric="bip-myrinet"),
            m.value("net.nic.rx_dropped", fabric="bip-myrinet"),
            m.value("vni.received", port="rx", path="fast"))


def one_frame_with(act, window, size=64, before=None):
    """n0 submits one frame to n1's VNI at t = 0; ``act(cluster, rx)`` runs
    in the middle of ``window`` of that frame (``before(cluster)``, if
    given, halfway between the frame's departure and then).  Returns
    ``(cluster, filed, (left, arrival, polled, filed instant))``."""
    cluster, rx, txs, filed, sent = vni_link()
    eng = cluster.engine
    txs["n0"].submit("n1", "rx", "x", size)
    left = 0.0 + (0.0 + MYRI.vni_send) + (MYRI.driver_send
                                          + size / BIP_MYRINET.bandwidth)
    arrival = arrives(left)
    polled = arrival + MYRI.vni_recv
    lo, hi = {"in flight": (left, arrival), "polling": (arrival, polled),
              "dispatch": (polled, polled + MYRI.mpi_recv)}[window]
    mid = (lo + hi) / 2
    if before is not None:
        eng.timeout((left + mid) / 2).callbacks.append(
            lambda _e: before(cluster))
    eng.timeout(mid).callbacks.append(lambda _e: act(cluster, rx))
    eng.run()
    assert [t for t, _ in sent] == [left]
    return cluster, filed, (left, arrival, polled, polled + MYRI.mpi_recv)


WINDOWS = ("in flight", "polling", "dispatch")


@pytest.mark.parametrize("window", WINDOWS)
def test_vni_receiver_crash(window):
    cluster, filed, _at = one_frame_with(
        lambda c, rx: c.node("n1").crash(), window)
    assert filed == []
    # Lost on the wire before it arrived; from its polled instant on it was
    # received, but nothing is filed after the crash.
    assert link_counts(cluster) == {"in flight": (1, 0, 0),
                                    "polling": (0, 0, 0),
                                    "dispatch": (0, 0, 1)}[window]


@pytest.mark.parametrize("window", WINDOWS)
def test_vni_sender_crash(window):
    cluster, filed, (_l, _a, _p, done) = one_frame_with(
        lambda c, rx: c.node("n0").crash(), window)
    if window == "in flight":
        assert filed == [] and link_counts(cluster) == (1, 0, 0)
    else:
        assert filed == [(done, "x")] and link_counts(cluster) == (0, 0, 1)


@pytest.mark.parametrize("window", WINDOWS)
def test_vni_partition_set(window):
    cluster, filed, (_l, _a, _p, done) = one_frame_with(
        lambda c, rx: c.myrinet.set_partition(["n0"], ["n1"]), window)
    if window == "in flight":
        assert filed == [] and link_counts(cluster) == (1, 0, 0)
    else:
        assert filed == [(done, "x")] and link_counts(cluster) == (0, 0, 1)


@pytest.mark.parametrize("window", WINDOWS)
def test_vni_partition_healed(window):
    # Partitioned while on the wire, healed in ``window``: judged once, at
    # the arrival instant, under whatever holds then.
    def act(cluster, rx):
        cluster.myrinet.clear_partition()

    cluster, filed, (left, arrival, _p, done), = one_frame_with(
        act, window, before=lambda c: c.myrinet.set_partition(["n0"],
                                                              ["n1"]))
    if window == "in flight":
        assert filed == [(done, "x")] and link_counts(cluster) == (0, 0, 1)
    else:
        assert filed == [] and link_counts(cluster) == (1, 0, 0)


@pytest.mark.parametrize("window", WINDOWS)
def test_vni_port_closed(window):
    cluster, filed, _at = one_frame_with(lambda c, rx: rx.close(), window)
    assert filed == []
    # A closed port drops an arriving frame at the NIC; one already in the
    # VNI's hands is received from its polled instant, never filed.
    assert link_counts(cluster) == {"in flight": (0, 1, 0),
                                    "polling": (0, 0, 0),
                                    "dispatch": (0, 0, 1)}[window]


@pytest.mark.parametrize("window", WINDOWS)
def test_vni_nic_replaced(window):
    # A second NIC attached for n1 takes its place on the fabric: a frame
    # still on the wire arrives at the new NIC, which has no such port.
    cluster, filed, (_l, _a, _p, done) = one_frame_with(
        lambda c, rx: Nic(c.engine, "n1", c.myrinet), window)
    if window == "in flight":
        assert filed == [] and link_counts(cluster) == (0, 1, 0)
    else:
        assert filed == [(done, "x")] and link_counts(cluster) == (0, 0, 1)


@pytest.mark.parametrize("window", WINDOWS)
def test_vni_received_counts_from_the_polled_instant(window):
    seen = []
    cluster, filed, (_l, _a, _p, done) = one_frame_with(
        lambda c, rx: seen.append(link_counts(c)[2]), window)
    assert seen == [{"in flight": 0, "polling": 0, "dispatch": 1}[window]]
    assert filed == [(done, "x")] and link_counts(cluster) == (0, 0, 1)


@pytest.mark.parametrize("window", WINDOWS)
def test_vni_received_reset_by_a_second_vni_on_the_port(window):
    # A backup rank's VNI on another node reuses the port's series: the
    # reset forgets what was polled by then, and what is still ahead counts
    # after it.
    cluster, filed, (_l, _a, _p, done) = one_frame_with(
        lambda c, rx: Vni(c.engine, c.node("n0"), port="rx",
                          sink_cost=MYRI.mpi_recv, sink=[].append), window)
    assert filed == [(done, "x")]
    assert link_counts(cluster) == (0, 0, 0 if window == "dispatch" else 1)


@pytest.mark.parametrize("window", WINDOWS)
def test_vni_delivery_tap_installed(window):
    tapped = []

    def act(cluster, rx):
        cluster.myrinet.delivery_tap = lambda f: tapped.append(
            (cluster.engine.now, f.payload))

    cluster, filed, (_l, arrival, _p, done) = one_frame_with(act, window)
    # Installed while the frame was on the wire, the tap sees it once, at
    # its arrival instant; installed after, never.
    assert tapped == ([(arrival, "x")] if window == "in flight" else [])
    assert filed == [(done, "x")] and link_counts(cluster) == (0, 0, 1)


def test_vni_delivery_tap_sees_each_frame_once_and_may_take_it():
    cluster, rx, txs, filed, sent = vni_link(nodes=3)
    eng = cluster.engine
    tapped = []

    def tap(frame):
        tapped.append((eng.now, frame.payload))
        return frame.payload == "taken"

    cluster.myrinet.delivery_tap = tap
    txs["n0"].submit("n1", "rx", "kept", 64)
    txs["n2"].submit("n1", "rx", "taken", 64)
    txs["n0"].submit("n1", "rx", "after", 64)
    eng.run()
    # One same-instant pair (two senders), then n0's second frame.
    assert [p for _t, p in sent] == ["kept", "taken", "after"]
    at = [arrives(t) for t, _p in sent]
    assert tapped == list(zip(at, ["kept", "taken", "after"]))
    assert filed == list(zip(stage_instants([at[0], at[2]]),
                             ["kept", "after"]))
    assert link_counts(cluster) == (0, 0, 2)


def test_vni_burst_survivors_behind_a_frame_lost_in_flight():
    # n0's frame arrives first and n2's two frames queue behind it in the
    # polling stage.  n0 crashes while its frame is on the wire: the frame
    # is lost at its arrival instant and n2's frames are filed at the
    # instants they would have had without it.
    def run(crash):
        cluster, rx, txs, filed, sent = vni_link(nodes=3)
        eng = cluster.engine
        txs["n0"].submit("n1", "rx", "a0", 64)
        txs["n2"].submit("n1", "rx", "b0", 104)
        txs["n2"].submit("n1", "rx", "b1", 16)
        if crash:
            left = 0.0 + (0.0 + MYRI.vni_send) + (
                MYRI.driver_send + 64 / BIP_MYRINET.bandwidth)
            eng.timeout((left + arrives(left)) / 2).callbacks.append(
                lambda _e: cluster.node("n0").crash())
        eng.run()
        return cluster, filed, {p: arrives(t) for t, p in sent}

    cluster, filed, at = run(crash=False)
    assert at["a0"] < at["b0"] < at["a0"] + MYRI.vni_recv       # queued
    assert filed == list(zip(stage_instants([at["a0"], at["b0"], at["b1"]]),
                             ["a0", "b0", "b1"]))
    cluster, filed, at = run(crash=True)
    assert filed == list(zip(stage_instants([at["b0"], at["b1"]]),
                             ["b0", "b1"]))
    assert link_counts(cluster) == (1, 0, 2)


def test_vni_port_refolded_while_a_frame_is_in_flight():
    # n1's port closes while n0's frame is on the wire and a new VNI opens
    # it; n2's frame to the new VNI leaves before n0's arrives.  n0's frame
    # reaches the new VNI at its arrival instant, ahead of n2's.
    cluster, rx, txs, filed, sent = vni_link(nodes=3)
    eng = cluster.engine
    refiled = []
    txs["n0"].submit("n1", "rx", "a", 64)
    left = 0.0 + (0.0 + MYRI.vni_send) + (MYRI.driver_send
                                          + 64 / BIP_MYRINET.bandwidth)

    def reopen(_e):
        rx.close()
        Vni(eng, cluster.node("n1"), port="rx", sink_cost=MYRI.mpi_recv,
            sink=lambda frame: refiled.append((eng.now, frame.payload)))
        txs["n2"].submit("n1", "rx", "b", 16)

    eng.timeout(left + 1e-6).callbacks.append(reopen)
    eng.run()
    at = {p: arrives(t) for t, p in sent}
    assert sent[1][0] < at["a"] < at["b"]       # b left while a was in flight
    assert filed == []
    assert refiled == list(zip(stage_instants([at["a"], at["b"]]),
                               ["a", "b"]))
    assert link_counts(cluster) == (0, 0, 2)
