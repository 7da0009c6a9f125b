"""Unit tests for reliable connections."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.errors import ConnectionClosed
from repro.net import Connection, Listener


def setup_listener(cluster, node="n1", port="svc"):
    nic = cluster.node(node).nic("tcp-ethernet")
    return Listener(cluster.engine, nic, port)


def connect(cluster, src="n0", dst="n1", port="svc"):
    nic = cluster.node(src).nic("tcp-ethernet")
    return Connection.connect(cluster.engine, nic, dst, port)


def test_connect_and_exchange():
    cluster = Cluster.build(nodes=2)
    eng = cluster.engine
    listener = setup_listener(cluster)

    def server():
        conn = yield listener.accept()
        msg = yield conn.recv()
        yield from conn.send(("echo", msg))

    def client():
        conn = yield from connect(cluster)
        yield from conn.send("hello", size=5)
        reply = yield conn.recv()
        return reply

    eng.process(server())
    assert eng.run(eng.process(client())) == ("echo", "hello")


def test_messages_arrive_in_order():
    cluster = Cluster.build(nodes=2)
    eng = cluster.engine
    listener = setup_listener(cluster)
    n = 20

    def server():
        conn = yield listener.accept()
        got = []
        for _ in range(n):
            got.append((yield conn.recv()))
        return got

    def client():
        conn = yield from connect(cluster)
        for i in range(n):
            yield from conn.send(i)

    p = eng.process(server())
    eng.process(client())
    assert eng.run(p) == list(range(n))


def test_reliable_under_heavy_loss():
    cluster = Cluster.build(spec=ClusterSpec(nodes=2, seed=3, loss_prob=0.3))
    eng = cluster.engine
    listener = setup_listener(cluster)
    n = 15

    def server():
        conn = yield listener.accept()
        got = []
        for _ in range(n):
            got.append((yield conn.recv()))
        return got

    def client():
        conn = yield from connect(cluster)
        for i in range(n):
            yield from conn.send(i)

    p = eng.process(server())
    eng.process(client())
    assert eng.run(p) == list(range(n))
    # loss actually happened
    assert eng.metrics.sum("net.frames_dropped", fabric="tcp-ethernet") > 0


def test_bidirectional_traffic():
    cluster = Cluster.build(nodes=2)
    eng = cluster.engine
    listener = setup_listener(cluster)

    def server():
        conn = yield listener.accept()
        for i in range(5):
            msg = yield conn.recv()
            yield from conn.send(msg * 2)

    def client():
        conn = yield from connect(cluster)
        out = []
        for i in range(5):
            yield from conn.send(i)
            out.append((yield conn.recv()))
        return out

    eng.process(server())
    assert eng.run(eng.process(client())) == [0, 2, 4, 6, 8]


def test_close_propagates_fin():
    cluster = Cluster.build(nodes=2)
    eng = cluster.engine
    listener = setup_listener(cluster)

    def server():
        conn = yield listener.accept()
        yield from conn.close()

    def client():
        conn = yield from connect(cluster)
        with pytest.raises(ConnectionClosed):
            yield conn.recv()
        return conn.closed

    eng.process(server())
    assert eng.run(eng.process(client()))


def test_peer_crash_closes_connection():
    cluster = Cluster.build(nodes=2)
    eng = cluster.engine
    listener = setup_listener(cluster)

    def server():
        conn = yield listener.accept()
        yield conn.recv()   # hangs forever; node will crash

    def client():
        conn = yield from connect(cluster)
        yield eng.timeout(0.01)
        # Crash OUR node: our rx port closes, conn tears down.
        cluster.crash_node("n0")
        with pytest.raises(ConnectionClosed):
            yield conn.recv()
        return True

    eng.process(server())
    assert eng.run(eng.process(client()))


def test_send_on_closed_connection_raises():
    cluster = Cluster.build(nodes=2)
    eng = cluster.engine
    listener = setup_listener(cluster)

    def client():
        conn = yield from connect(cluster)
        yield from conn.close()
        with pytest.raises(ConnectionClosed):
            yield from conn.send("too late")
        return True

    def server():
        yield listener.accept()

    eng.process(server())
    assert eng.run(eng.process(client()))


def test_two_clients_same_listener():
    cluster = Cluster.build(nodes=3)
    eng = cluster.engine
    listener = setup_listener(cluster, node="n2")

    def server():
        seen = []
        for _ in range(2):
            conn = yield listener.accept()
            msg = yield conn.recv()
            seen.append(msg)
        return sorted(seen)

    def client(src):
        conn = yield from Connection.connect(
            eng, cluster.node(src).nic("tcp-ethernet"), "n2", "svc")
        yield from conn.send(src)

    p = eng.process(server())
    eng.process(client("n0"))
    eng.process(client("n1"))
    assert eng.run(p) == ["n0", "n1"]


def test_connection_survives_transient_partition():
    cluster = Cluster.build(nodes=2)
    eng = cluster.engine
    listener = setup_listener(cluster)

    def server():
        conn = yield listener.accept()
        got = []
        for _ in range(3):
            got.append((yield conn.recv()))
        return got

    def client():
        conn = yield from connect(cluster)
        yield from conn.send(0)
        # Partition, send into the void, heal: ARQ must recover.
        cluster.ethernet.set_partition(["n0"], ["n1"])
        yield from conn.send(1)
        yield eng.timeout(0.05)
        cluster.ethernet.clear_partition()
        yield from conn.send(2)

    p = eng.process(server())
    eng.process(client())
    assert eng.run(p) == [0, 1, 2]


def test_connect_timeout_to_dead_port_raises_typed_error():
    from repro.errors import RequestTimeout
    cluster = Cluster.build(nodes=2)
    eng = cluster.engine

    def client():
        nic = cluster.node("n0").nic("tcp-ethernet")
        try:
            yield from Connection.connect(eng, nic, "n1", "nobody-listens",
                                          timeout=0.5)
        except RequestTimeout as exc:
            return ("timeout", eng.now, str(exc))
        return "connected"

    kind, t, msg = eng.run(eng.process(client()))
    assert kind == "timeout"
    assert t == pytest.approx(0.5, abs=0.05)
    assert "nobody-listens" in msg


def test_connect_without_timeout_still_retries_forever():
    # Legacy behaviour preserved: no deadline means keep retransmitting.
    cluster = Cluster.build(nodes=2)
    eng = cluster.engine
    listener = setup_listener(cluster)
    accepted = []

    def server():
        yield eng.timeout(0.2)       # listener exists, server is just slow
        conn = yield listener.accept()
        accepted.append(conn)

    def client():
        conn = yield from connect(cluster)
        return conn

    eng.process(server())
    assert eng.run(eng.process(client())) is not None


def test_abort_tears_down_without_fin():
    cluster = Cluster.build(nodes=2)
    eng = cluster.engine
    listener = setup_listener(cluster)

    def server():
        conn = yield listener.accept()
        yield conn.recv()

    def client():
        conn = yield from connect(cluster)
        conn.abort()
        assert conn.closed
        with pytest.raises(ConnectionClosed):
            yield from conn.send("x")
        return True

    eng.process(server())
    assert eng.run(eng.process(client())) is True
