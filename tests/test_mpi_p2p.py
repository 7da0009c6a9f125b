"""MPI point-to-point semantics."""

import numpy as np
import pytest

from repro.calibration import BIP_LAYERS
from repro.errors import InvalidRank, InvalidTag, MpiError
from repro.mpi import ANY_SOURCE, ANY_TAG, PROC_NULL
from repro.mpi.request import waitall, waitany
from repro.net import BIP_MYRINET

from tests.mpi_helpers import make_world, run_ranks


def test_send_recv_roundtrip():
    cluster, apis = make_world(2)

    def prog(mpi, rank):
        if rank == 0:
            yield from mpi.send({"a": 7, "b": 3.14}, dest=1, tag=11)
            return None
        data = yield from mpi.recv(source=0, tag=11)
        return data

    results = run_ranks(cluster, apis, prog)
    assert results[1] == {"a": 7, "b": 3.14}


def test_rank_and_size():
    cluster, apis = make_world(3)

    def prog(mpi, rank):
        assert mpi.rank == rank
        assert mpi.size == 3
        return rank
        yield  # pragma: no cover

    assert run_ranks(cluster, apis, prog) == [0, 1, 2]


def test_numpy_payloads():
    cluster, apis = make_world(2)
    data = np.arange(1000, dtype=np.float64)

    def prog(mpi, rank):
        if rank == 0:
            yield from mpi.send(data, dest=1, tag=7)
        else:
            got = yield from mpi.recv(source=0, tag=7)
            assert np.array_equal(got, data)
            return True

    assert run_ranks(cluster, apis, prog)[1]


def test_one_way_latency_matches_fig5_model():
    cluster, apis = make_world(2)
    size = 4096

    def prog(mpi, rank):
        if rank == 0:
            yield from mpi.send(b"x" * size, dest=1, tag=0, size=size)
            return None
        t0 = cluster.engine.now
        yield from mpi.recv(source=0, tag=0)
        return cluster.engine.now - t0

    elapsed = run_ranks(cluster, apis, prog)[1]
    # Full app-to-app model: all fixed layers + wire size term (+ header).
    from repro.mpi.constants import MSG_HEADER
    expected = BIP_LAYERS.one_way_fixed + (size + MSG_HEADER) / BIP_MYRINET.bandwidth
    assert elapsed == pytest.approx(expected, rel=1e-6)


def test_tag_matching_selects_correct_message():
    cluster, apis = make_world(2)

    def prog(mpi, rank):
        if rank == 0:
            yield from mpi.send("tagged-5", dest=1, tag=5)
            yield from mpi.send("tagged-9", dest=1, tag=9)
        else:
            nine = yield from mpi.recv(source=0, tag=9)
            five = yield from mpi.recv(source=0, tag=5)
            return nine, five

    assert run_ranks(cluster, apis, prog)[1] == ("tagged-9", "tagged-5")


def test_any_source_any_tag_wildcards():
    cluster, apis = make_world(3)

    def prog(mpi, rank):
        if rank in (0, 1):
            yield from mpi.send(f"from-{rank}", dest=2, tag=rank + 10)
        else:
            got = []
            for _ in range(2):
                data, st = yield from mpi.recv(source=ANY_SOURCE,
                                               tag=ANY_TAG, with_status=True)
                got.append((st.source, st.tag, data))
            return sorted(got)

    out = run_ranks(cluster, apis, prog)[2]
    assert out == [(0, 10, "from-0"), (1, 11, "from-1")]


def test_non_overtaking_same_source_same_tag():
    cluster, apis = make_world(2)
    n = 20

    def prog(mpi, rank):
        if rank == 0:
            for i in range(n):
                yield from mpi.send(i, dest=1, tag=3)
        else:
            got = []
            for _ in range(n):
                got.append((yield from mpi.recv(source=0, tag=3)))
            return got

    assert run_ranks(cluster, apis, prog)[1] == list(range(n))


def test_isend_irecv_waitall():
    cluster, apis = make_world(2)

    def prog(mpi, rank):
        if rank == 0:
            reqs = [mpi.isend(i, dest=1, tag=i) for i in range(5)]
            yield from waitall(cluster.engine, reqs)
        else:
            reqs = [mpi.irecv(source=0, tag=i) for i in range(5)]
            data = yield from waitall(cluster.engine, reqs)
            return data

    assert run_ranks(cluster, apis, prog)[1] == [0, 1, 2, 3, 4]


def test_irecv_posted_before_arrival():
    cluster, apis = make_world(2)

    def prog(mpi, rank):
        if rank == 1:
            req = mpi.irecv(source=0, tag=0)
            assert not req.done          # nothing sent yet
            data = yield from req.wait()
            return data
        yield cluster.engine.timeout(0.01)
        yield from mpi.send("late", dest=1)

    assert run_ranks(cluster, apis, prog)[1] == "late"


def test_request_test_polling():
    cluster, apis = make_world(2)

    def prog(mpi, rank):
        if rank == 0:
            yield from mpi.send("x", dest=1)
        else:
            req = mpi.irecv(source=0)
            done, _ = req.test()
            assert not done
            polls = 0
            while not req.test()[0]:
                polls += 1
                yield cluster.engine.timeout(1e-5)
            return polls

    assert run_ranks(cluster, apis, prog)[1] > 0


def test_waitany_returns_first():
    cluster, apis = make_world(3)

    def prog(mpi, rank):
        if rank == 0:
            yield cluster.engine.timeout(0.1)
            yield from mpi.send("slow", dest=2, tag=0)
        elif rank == 1:
            yield from mpi.send("fast", dest=2, tag=1)
        else:
            reqs = [mpi.irecv(source=0, tag=0), mpi.irecv(source=1, tag=1)]
            idx, data = yield from waitany(cluster.engine, reqs)
            return idx, data

    assert run_ranks(cluster, apis, prog)[2] == (1, "fast")


def test_sendrecv_exchange():
    cluster, apis = make_world(2)

    def prog(mpi, rank):
        other = 1 - rank
        got = yield from mpi.sendrecv(f"hello-{rank}", dest=other,
                                      source=other)
        return got

    assert run_ranks(cluster, apis, prog) == ["hello-1", "hello-0"]


def test_proc_null_send_recv_are_noops():
    cluster, apis = make_world(1)

    def prog(mpi, rank):
        yield from mpi.send("void", dest=PROC_NULL)
        data = yield from mpi.recv(source=PROC_NULL)
        return data

    assert run_ranks(cluster, apis, prog) == [None]


def test_probe_then_recv():
    cluster, apis = make_world(2)

    def prog(mpi, rank):
        if rank == 0:
            yield from mpi.send(b"12345", dest=1, tag=4)
        else:
            st = yield from mpi.probe(source=ANY_SOURCE, tag=ANY_TAG)
            data = yield from mpi.recv(source=st.source, tag=st.tag)
            return st.nbytes, data

    nbytes, data = run_ranks(cluster, apis, prog)[1]
    assert data == b"12345"
    assert nbytes == 5


def test_iprobe_nonblocking():
    cluster, apis = make_world(2)

    def prog(mpi, rank):
        if rank == 1:
            assert mpi.iprobe() is None
            yield from mpi.send("go", dest=0)
        else:
            yield from mpi.recv(source=1)
            assert mpi.iprobe() is None
            return True

    assert run_ranks(cluster, apis, prog)[0]


def test_invalid_rank_rejected():
    cluster, apis = make_world(2)

    def prog(mpi, rank):
        with pytest.raises(InvalidRank):
            yield from mpi.send("x", dest=5)
        return True

    assert all(run_ranks(cluster, apis, prog))


def test_negative_user_tag_rejected():
    cluster, apis = make_world(2)

    def prog(mpi, rank):
        with pytest.raises(InvalidTag):
            yield from mpi.send("x", dest=0, tag=-3)
        return True

    assert all(run_ranks(cluster, apis, prog))


def test_self_send_recv():
    cluster, apis = make_world(1)

    def prog(mpi, rank):
        req = mpi.irecv(source=0, tag=1)
        yield from mpi.send("to-myself", dest=0, tag=1)
        data = yield from req.wait()
        return data

    assert run_ranks(cluster, apis, prog) == ["to-myself"]


def test_channel_counters_track_data_messages():
    cluster, apis = make_world(2)

    def prog(mpi, rank):
        if rank == 0:
            for _ in range(3):
                yield from mpi.send("m", dest=1)
        else:
            for _ in range(3):
                yield from mpi.recv(source=0)

    run_ranks(cluster, apis, prog)
    assert apis[0].endpoint.sent_count == {1: 3}
    assert apis[1].endpoint.recv_count == {0: 3}


def test_blocking_mode_without_polling_thread():
    cluster, apis = make_world(2, polling=False)

    def prog(mpi, rank):
        if rank == 0:
            yield from mpi.send("no-poll", dest=1)
        else:
            data = yield from mpi.recv(source=0)
            return data

    assert run_ranks(cluster, apis, prog)[1] == "no-poll"


def test_tcp_transport_slower_than_bip():
    def elapsed(transport):
        cluster, apis = make_world(2, transport=transport)

        def prog(mpi, rank):
            if rank == 0:
                yield from mpi.send(b"x", dest=1)
            else:
                yield from mpi.recv(source=0)
                return cluster.engine.now

        return run_ranks(cluster, apis, prog)[1]

    assert elapsed("tcp-ethernet") > 3 * elapsed("bip-myrinet")
