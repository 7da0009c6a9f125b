"""VNI unit tests: fast path timing, polling thread, both drivers."""

import gc
import weakref

import pytest

from repro.calibration import BLOCKING_RECV_SYSCALL
from repro.cluster import Cluster
from repro.errors import NodeDown
from repro.faults import CrashNode
from repro.net import BIP_MYRINET, TCP_ETHERNET
from repro.vni import Vni


def make_pair(transport="bip-myrinet", polling=True, nodes=2):
    """Two VNIs; a polling one hands each frame to a list-appending sink,
    ``vni.got``, as ``(instant, frame)``."""
    cluster = Cluster.build(nodes=nodes)
    pair = []
    for i in (0, 1):
        got = []
        vni = Vni(cluster.engine, cluster.node(f"n{i}"), port=f"app:{i}",
                  transport=transport, polling=polling,
                  sink=(lambda frame, got=got:
                        got.append((cluster.engine.now, frame)))
                  if polling else None)
        vni.got = got
        pair.append(vni)
    return cluster, pair[0], pair[1]


def one_way(cluster, a, b, size=64):
    eng = cluster.engine
    out = {}

    def sender():
        yield from a.send("n1", "app:1", b"payload", size)

    def receiver():
        msg = yield from b.recv()
        out["src"], out["payload"], out["t"] = msg.src_node, msg.payload, \
            eng.now

    eng.process(sender())
    if b.polling:
        eng.run()
        (out["t"], frame), = b.got
        out["src"], out["payload"] = frame.src, frame.payload
    else:
        eng.run(eng.process(receiver()))
    return out


def test_a_rebound_port_lets_the_old_vni_go():
    # A restarted rank on the same node opens the port again; nothing of
    # the old VNI (its sink holds the rank's endpoint) outlives its last
    # reference, the received series included.
    cluster, a, b = make_pair()
    ref = weakref.ref(b)
    Vni(cluster.engine, cluster.node("n1"), port="app:1", sink=[].append)
    del b
    gc.collect()
    assert ref() is None


def test_message_delivered_with_payload():
    cluster, a, b = make_pair()
    out = one_way(cluster, a, b)
    assert out["payload"] == b"payload"
    assert out["src"] == "n0"
    metrics = cluster.engine.metrics
    assert metrics.value("vni.sent", port="app:0", path="fast") == 1
    assert metrics.value("vni.received", port="app:1", path="fast") == 1


@pytest.mark.parametrize("transport,spec", [
    ("bip-myrinet", BIP_MYRINET), ("tcp-ethernet", TCP_ETHERNET)])
def test_one_way_time_is_model_minus_mpi_and_app_layers(transport, spec):
    # The VNI path covers vni_send + driver_send + wire(size) + driver_recv
    # + vni_recv; MPI and application layer costs are charged above the VNI.
    cluster, a, b = make_pair(transport=transport)
    size = 1000
    out = one_way(cluster, a, b, size=size)
    L = spec.layers
    expected = (L.vni_send + L.driver_send + size / spec.bandwidth
                + L.wire + L.driver_recv + L.vni_recv)
    assert out["t"] == pytest.approx(expected, rel=1e-9)


def test_polling_thread_quietly_queues_messages():
    cluster, a, b = make_pair()
    eng = cluster.engine

    def sender():
        for i in range(3):
            yield from a.send("n1", "app:1", i, 64)

    eng.process(sender())
    eng.run()
    # Nobody called recv, yet every message reached the sink.
    assert [frame.payload for _t, frame in b.got] == [0, 1, 2]


def test_blocking_mode_charges_syscall_per_receive():
    cluster_p, ap, bp = make_pair(polling=True)
    t_poll = one_way(cluster_p, ap, bp)["t"]
    cluster_b, ab, bb = make_pair(polling=False)
    t_block = one_way(cluster_b, ab, bb)["t"]
    assert t_block - t_poll == pytest.approx(BLOCKING_RECV_SYSCALL, rel=1e-9)


def test_messages_arrive_in_send_order():
    cluster, a, b = make_pair()
    eng = cluster.engine

    def sender():
        for i in range(10):
            yield from a.send("n1", "app:1", i, 64)

    eng.run(eng.process(sender()))
    eng.run()
    assert [frame.payload for _t, frame in b.got] == list(range(10))


def test_recv_fails_when_node_crashes():
    # Blocking mode: the receiver's own wait fails.  Polling mode: the VNI
    # closes and its sink is handed nothing more.
    cluster, a, b = make_pair(polling=False)
    eng = cluster.engine

    def receiver():
        with pytest.raises(NodeDown):
            yield from b.recv()
        return True

    p = eng.process(receiver())
    cluster.faults.at(0.01, CrashNode(node="n1"))
    assert eng.run(p)

    cluster, a, b = make_pair()
    cluster.faults.at(0.01, CrashNode(node="n1"))
    cluster.engine.run(until=0.02)
    assert b.closed and not b.got


def test_close_is_idempotent_and_stops_poller():
    cluster, a, b = make_pair()
    b.close()
    b.close()
    cluster.engine.run()
    assert b.closed
