"""MPI collective operations."""

import numpy as np
import pytest

from repro.errors import MpiError
from repro.mpi import (BAND, BOR, LAND, LOR, MAX, MAXLOC, MIN, MINLOC, PROD,
                       SUM, UNDEFINED)

from tests.mpi_helpers import make_world, run_ranks


@pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 5, 8])
def test_bcast_all_sizes(nprocs):
    cluster, apis = make_world(nprocs)

    def prog(mpi, rank):
        data = {"payload": list(range(10))} if rank == 0 else None
        out = yield from mpi.bcast(data, root=0)
        return out

    results = run_ranks(cluster, apis, prog)
    assert all(r == {"payload": list(range(10))} for r in results)


def test_bcast_nonzero_root():
    cluster, apis = make_world(4)

    def prog(mpi, rank):
        data = "from-2" if rank == 2 else None
        out = yield from mpi.bcast(data, root=2)
        return out

    assert run_ranks(cluster, apis, prog) == ["from-2"] * 4


@pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 7])
def test_reduce_sum(nprocs):
    cluster, apis = make_world(nprocs)

    def prog(mpi, rank):
        out = yield from mpi.reduce((rank + 1) ** 2, op=SUM, root=0)
        return out

    results = run_ranks(cluster, apis, prog)
    assert results[0] == sum((i + 1) ** 2 for i in range(nprocs))
    assert all(r is None for r in results[1:])


def test_reduce_ops_matrix():
    cluster, apis = make_world(4)
    cases = {"max": (MAX, 3), "min": (MIN, 0), "prod": (PROD, 0),
             "band": (BAND, 0), "bor": (BOR, 3),
             "land": (LAND, False), "lor": (LOR, True)}

    def prog(mpi, rank):
        out = {}
        for name, (op, _) in sorted(cases.items()):
            out[name] = yield from mpi.allreduce(rank, op=op)
        return out

    results = run_ranks(cluster, apis, prog)
    for name, (_op, expected) in cases.items():
        for r in results:
            assert r[name] == expected, name


def test_allreduce_numpy_arrays():
    cluster, apis = make_world(3)

    def prog(mpi, rank):
        vec = np.full(5, float(rank + 1))
        out = yield from mpi.allreduce(vec, op=SUM)
        return out

    for r in run_ranks(cluster, apis, prog):
        assert np.array_equal(r, np.full(5, 6.0))


def test_maxloc_minloc():
    cluster, apis = make_world(4)
    values = [3.0, 9.0, 9.0, 1.0]

    def prog(mpi, rank):
        mx = yield from mpi.allreduce((values[rank], rank), op=MAXLOC)
        mn = yield from mpi.allreduce((values[rank], rank), op=MINLOC)
        return mx, mn

    for mx, mn in run_ranks(cluster, apis, prog):
        assert mx == (9.0, 1)   # ties go to the lower rank
        assert mn == (1.0, 3)


def test_barrier_synchronizes():
    cluster, apis = make_world(4)
    eng = cluster.engine

    def prog(mpi, rank):
        yield eng.timeout(rank * 0.1)  # stagger arrivals
        yield from mpi.barrier()
        return eng.now

    exits = run_ranks(cluster, apis, prog)
    assert min(exits) >= 0.3   # nobody leaves before the last (0.3) arrives
    assert max(exits) - min(exits) < 0.05


def test_gather_orders_by_rank():
    cluster, apis = make_world(4)

    def prog(mpi, rank):
        out = yield from mpi.gather(f"r{rank}", root=2)
        return out

    results = run_ranks(cluster, apis, prog)
    assert results[2] == ["r0", "r1", "r2", "r3"]
    assert all(results[i] is None for i in (0, 1, 3))


def test_scatter_distributes():
    cluster, apis = make_world(3)

    def prog(mpi, rank):
        data = [10, 20, 30] if rank == 0 else None
        out = yield from mpi.scatter(data, root=0)
        return out

    assert run_ranks(cluster, apis, prog) == [10, 20, 30]


def test_scatter_wrong_length_rejected():
    cluster, apis = make_world(2)

    def prog(mpi, rank):
        if rank == 0:
            with pytest.raises(MpiError):
                yield from mpi.scatter([1, 2, 3], root=0)
        return True
        yield  # pragma: no cover

    run_ranks(cluster, apis, prog, until=1.0)


def test_allgather():
    cluster, apis = make_world(4)

    def prog(mpi, rank):
        out = yield from mpi.allgather(rank * rank)
        return out

    for r in run_ranks(cluster, apis, prog):
        assert r == [0, 1, 4, 9]


def test_alltoall_transpose():
    cluster, apis = make_world(3)

    def prog(mpi, rank):
        out = yield from mpi.alltoall([f"{rank}->{j}" for j in range(3)])
        return out

    results = run_ranks(cluster, apis, prog)
    for j, row in enumerate(results):
        assert row == [f"{i}->{j}" for i in range(3)]


def test_scan_inclusive_prefix():
    cluster, apis = make_world(5)

    def prog(mpi, rank):
        out = yield from mpi.scan(rank + 1, op=SUM)
        return out

    assert run_ranks(cluster, apis, prog) == [1, 3, 6, 10, 15]


def test_back_to_back_collectives_do_not_cross_talk():
    cluster, apis = make_world(3)

    def prog(mpi, rank):
        a = yield from mpi.allreduce(1, op=SUM)
        b = yield from mpi.allreduce(10, op=SUM)
        c = yield from mpi.bcast("x" if rank == 0 else None, root=0)
        return a, b, c

    for r in run_ranks(cluster, apis, prog):
        assert r == (3, 30, "x")


def test_collective_with_outstanding_wildcard_irecv():
    # A user wildcard receive must NOT swallow internal collective traffic.
    cluster, apis = make_world(2)

    def prog(mpi, rank):
        req = mpi.irecv()  # ANY_SOURCE, ANY_TAG
        total = yield from mpi.allreduce(rank + 1, op=SUM)
        other = 1 - rank
        yield from mpi.send("user-msg", dest=other, tag=7)
        data = yield from req.wait()
        return total, data

    for total, data in run_ranks(cluster, apis, prog):
        assert total == 3
        assert data == "user-msg"


def test_split_by_parity():
    cluster, apis = make_world(4)

    def prog(mpi, rank):
        sub = yield from mpi.split(color=rank % 2)
        total = yield from sub.allreduce(rank, op=SUM)
        return sub.size, sub.rank, total

    results = run_ranks(cluster, apis, prog)
    assert results[0] == (2, 0, 2)   # evens: 0+2
    assert results[2] == (2, 1, 2)
    assert results[1] == (2, 0, 4)   # odds: 1+3
    assert results[3] == (2, 1, 4)


def test_split_undefined_gets_none():
    cluster, apis = make_world(3)

    def prog(mpi, rank):
        sub = yield from mpi.split(color=UNDEFINED if rank == 1 else 0)
        return None if sub is None else sub.size

    assert run_ranks(cluster, apis, prog) == [2, None, 2]


def test_split_key_reorders_ranks():
    cluster, apis = make_world(3)

    def prog(mpi, rank):
        sub = yield from mpi.split(color=0, key=-rank)  # reverse order
        return sub.rank

    assert run_ranks(cluster, apis, prog) == [2, 1, 0]


def test_dup_isolates_traffic():
    cluster, apis = make_world(2)

    def prog(mpi, rank):
        dup = yield from mpi.dup()
        if rank == 0:
            yield from mpi.send("on-world", dest=1, tag=5)
            yield from dup.send("on-dup", dest=1, tag=5)
        else:
            got_dup = yield from dup.recv(source=0, tag=5)
            got_world = yield from mpi.recv(source=0, tag=5)
            return got_dup, got_world

    assert run_ranks(cluster, apis, prog)[1] == ("on-dup", "on-world")


def test_bcast_message_count_is_logarithmic():
    # Binomial tree: n-1 point-to-point messages but log2(n) rounds.
    cluster, apis = make_world(8)

    def prog(mpi, rank):
        data = b"x" * 1000 if rank == 0 else None
        t0 = cluster.engine.now
        yield from mpi.bcast(data, root=0)
        return cluster.engine.now - t0

    times = run_ranks(cluster, apis, prog)
    sent = cluster.engine.metrics.sum("vni.sent")
    assert sent == 7  # n-1 messages total
    # Depth: max time ~ 3 sequential hops, not 7.
    one_hop = times[4]  # rank 4 receives directly from 0 in round 1...
    assert max(times) < 7 * one_hop
