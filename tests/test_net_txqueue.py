"""The NIC's transmit FIFO (post / send) and sink ports."""

import pytest

from repro.cluster import Cluster
from repro.errors import Interrupt, NodeDown
from repro.faults import CrashNode
from repro.net import Frame, TCP_ETHERNET


def make_pair():
    cluster = Cluster.build(nodes=2)
    return (cluster, cluster.node("n0").nic("tcp-ethernet"),
            cluster.node("n1").nic("tcp-ethernet"))


def tx_time(size):
    return TCP_ETHERNET.layers.driver_send + size / TCP_ETHERNET.bandwidth


def wire_log(cluster):
    """``(payload, transmit time)`` of every frame handed to the wire."""
    log = []

    def tap(frame):
        log.append((frame.payload, frame.sent_at))

    cluster.ethernet.delivery_tap = tap
    return log


def frame(payload, size=100, port="p"):
    return Frame(src="n0", dst="n1", port=port, payload=payload, size=size)


def test_post_and_send_interleave_in_call_order():
    cluster, nic, _ = make_pair()
    eng = cluster.engine
    log = wire_log(cluster)
    left = []

    def blocking(tag):
        yield from nic.send(frame(tag))
        left.append((tag, eng.now))

    # All at t=0, alternating the two entry points.  A process starts one
    # event after it is created, so the posts are made from processes too.
    def posting(tag):
        nic.post("n1", "p", tag, 100)
        yield eng.timeout(0)

    for i in range(6):
        eng.process(blocking(i) if i % 2 else posting(i))
    eng.run(until=1.0)
    assert [p for p, _t in log] == list(range(6))
    # A send() caller resumes at the instant its own frame left.
    sent_at = dict(log)
    assert left == [(i, sent_at[i]) for i in (1, 3, 5)]


def test_k_posted_frames_leave_back_to_back():
    cluster, nic, _ = make_pair()
    log = wire_log(cluster)
    size, k, t0 = 1000, 5, 0.25
    cluster.engine.run(until=t0)
    for i in range(k):
        nic.post("n1", "p", i, size)
    cluster.engine.run(until=1.0)
    # Accumulated the way the engine does: each frame's timeout starts when
    # its predecessor's fired (bit-exact, not approx).
    expect, t = [], t0
    for i in range(k):
        t = t + tx_time(size)
        expect.append((i, t))
    assert log == expect
    assert log[-1][1] == pytest.approx(t0 + k * tx_time(size))


def test_posted_frame_is_built_with_frame_defaults():
    cluster, nic, peer = make_pair()
    rx = peer.open_port("p")
    nic.post("n1", "p", "tiny", 1, "control")
    cluster.engine.run(until=1.0)
    ok, got = rx.get_nowait()
    assert ok and (got.src, got.dst, got.kind) == ("n0", "n1", "control")
    assert got.size == 16       # MIN_WIRE_SIZE clamp applies to posts too


def test_shutdown_fails_waiting_senders_and_drops_posts():
    cluster, nic, _ = make_pair()
    eng = cluster.engine
    log = wire_log(cluster)
    outcome = {}

    def blocking(tag):
        try:
            yield from nic.send(frame(tag, size=10_000))
            outcome[tag] = "sent"
        except NodeDown:
            outcome[tag] = "down"

    # Plain engine processes: not hosted on the node, so the crash reaches
    # them only through the NIC.
    eng.process(blocking("head"))
    eng.process(blocking("queued"))
    eng.run(until=1e-6)
    nic.post("n1", "p", "posted", 100)
    cluster.faults.at(tx_time(10_000) / 2, CrashNode(node="n0"))
    eng.run(until=1.0)
    assert outcome == {"head": "down", "queued": "down"}
    assert log == []
    assert not nic.is_up
    nic.post("n1", "p", "late", 100)            # silently dropped
    with pytest.raises(NodeDown):
        next(nic.send(frame("late")))
    eng.run(until=2.0)
    assert log == []


def test_interrupted_sender_withdraws_its_queued_frame():
    cluster, nic, _ = make_pair()
    eng = cluster.engine
    log = wire_log(cluster)
    seen = []

    def blocking(tag):
        try:
            yield from nic.send(frame(tag, size=10_000))
        except Interrupt:
            seen.append(tag)

    procs = [eng.process(blocking(tag)) for tag in ("a", "b", "c")]
    eng.run(until=tx_time(10_000) / 2)      # "a" is on the link
    procs[1].interrupt("stop")
    eng.run(until=1.0)
    assert seen == ["b"]
    # "c" moved up: it leaves right behind "a", as if "b" never queued.
    assert [p for p, _t in log] == ["a", "c"]
    assert log[1][1] == pytest.approx(2 * tx_time(10_000))


def test_interrupted_sender_mid_serialization_frame_still_leaves():
    # Documented choice: a frame already serializing is in the hardware —
    # it leaves on time and the link stays busy until it has.
    cluster, nic, _ = make_pair()
    eng = cluster.engine
    log = wire_log(cluster)

    def blocking(tag):
        try:
            yield from nic.send(frame(tag, size=10_000))
        except Interrupt:
            pass

    head = eng.process(blocking("a"))
    eng.process(blocking("b"))
    eng.run(until=tx_time(10_000) / 2)
    head.interrupt("stop")
    eng.run(until=1.0)
    assert [p for p, _t in log] == ["a", "b"]
    assert log[0][1] == pytest.approx(tx_time(10_000))
    assert log[1][1] == pytest.approx(2 * tx_time(10_000))


def test_sink_and_channel_ports_coexist():
    cluster, nic, peer = make_pair()
    eng = cluster.engine
    sunk = []
    rx = peer.open_port("queue")
    assert peer.open_port("sink", sink=sunk.append) is None
    assert peer.open_port("queue") is rx
    nic.post("n1", "sink", "s1", 100)
    nic.post("n1", "queue", "q1", 100)
    eng.run(until=0.5)
    assert [f.payload for f in sunk] == ["s1"]
    assert [f.payload for f in rx.drain()] == ["q1"]

    reg = eng.metrics
    dropped = reg.value("net.nic.rx_dropped", fabric="tcp-ethernet")
    peer.close_port("sink")
    peer.close_port("queue")
    nic.post("n1", "sink", "s2", 100)
    nic.post("n1", "queue", "q2", 100)
    eng.run(until=1.0)
    assert [f.payload for f in sunk] == ["s1"]
    assert len(rx) == 0
    assert reg.value("net.nic.rx_dropped",
                     fabric="tcp-ethernet") == dropped + 2
