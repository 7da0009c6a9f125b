"""Helpers to run multi-rank MPI programs in tests without the full
Starfish runtime: one world communicator per rank on its own node."""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.cluster import Cluster
from repro.mpi import Communicator, MpiEndpoint


def make_world(nprocs: int, seed: int = 0, transport: str = "bip-myrinet",
               polling: bool = True, app_id: str = "test"):
    """Returns (cluster, [world Communicator per rank])."""
    cluster = Cluster.build(nodes=nprocs, seed=seed)
    book: Dict[int, tuple] = {}
    apis = []
    for rank in range(nprocs):
        ep = MpiEndpoint(cluster.engine, cluster.node(f"n{rank}"),
                         app_id=app_id, world_rank=rank, addressbook=book,
                         transport=transport, polling=polling)
        apis.append(Communicator(ep, f"world:{app_id}:v0",
                                 tuple(range(nprocs))))
    return cluster, apis


def run_ranks(cluster, apis, fn: Callable, until: float = 50.0) -> List:
    """Run generator ``fn(mpi, rank)`` on every rank; returns results."""
    procs = []
    for rank, mpi in enumerate(apis):
        node = cluster.node(mpi.endpoint.node.node_id)
        procs.append(node.spawn(fn(mpi, rank), name=f"rank{rank}"))
    cluster.engine.run(until=until)
    for p in procs:
        assert p.triggered, f"{p.name} did not finish (deadlock?)"
        if not p.ok:
            raise p.value
    return [p.value for p in procs]
