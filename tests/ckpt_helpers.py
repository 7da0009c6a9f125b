"""Test harness for the C/R protocols without the full Starfish stack.

Emulates the runtime side of :class:`~repro.ckpt.protocols.base.CrContext`:
C/R casts are relayed with lightweight-group semantics (total order, one
relay hop of latency) and "the application" is a generator per rank whose
safe points are cooperative (`harness.safe_point(rank)` inside app code).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.calibration import LOCAL_TCP_HOP
from repro.ckpt import make_checkpointer
from repro.ckpt.protocols import make_protocol
from repro.ckpt.protocols.base import CrContext
from repro.cluster import Cluster
from repro.mpi import Communicator, MpiEndpoint
from repro.sim.events import Event
from repro.store import CheckpointStore


class FakeContext(CrContext):
    def __init__(self, harness, rank):
        self.h = harness
        self.engine = harness.cluster.engine
        self.app_id = "testapp"
        self.rank = rank
        self.node = harness.cluster.node(f"n{rank}")
        self.arch = self.node.arch
        self.endpoint = harness.apis[rank].endpoint
        self.checkpointer = make_checkpointer(harness.level)
        self.store = harness.store
        self.paused = False
        self._pause_waiters: List[Event] = []

    def peers(self):
        return list(range(len(self.h.apis)))

    def cast(self, payload):
        self.h.relay(payload, self.rank)

    def pause(self, target_step=None):
        # The fake app polls `paused` at its safe points; consider the app
        # quiesced one safe-point delay later (target ignored: the fake
        # app has no step counter).
        self.paused = True
        yield self.engine.timeout(self.h.safe_point_delay)

    def resume(self):
        self.paused = False

    def snapshot_state(self):
        return dict(self.h.app_state[self.rank])


class CrHarness:
    """nranks MPI endpoints + one protocol module per rank."""

    def __init__(self, nranks=4, protocol="stop-and-sync", level="native",
                 seed=0, safe_point_delay=1e-4, **proto_kwargs):
        self.cluster = Cluster.build(nodes=nranks, seed=seed)
        self.engine = self.cluster.engine
        self.level = level
        self.store = CheckpointStore(self.engine)
        self.safe_point_delay = safe_point_delay
        book: Dict[int, tuple] = {}
        self.apis: List[Communicator] = []
        for rank in range(nranks):
            ep = MpiEndpoint(self.engine, self.cluster.node(f"n{rank}"),
                             app_id="testapp", world_rank=rank,
                             addressbook=book)
            self.apis.append(Communicator(ep, "world:testapp:v0",
                                          tuple(range(nranks))))
        self.app_state = {r: {"counter": 0, "rank": r}
                          for r in range(nranks)}
        self.ctxs = [FakeContext(self, r) for r in range(nranks)]
        self.protocols = []
        for r in range(nranks):
            proto = make_protocol(protocol, **proto_kwargs)
            proto.start(self.ctxs[r])
            self.protocols.append(proto)

    def relay(self, payload, source_rank):
        """Lightweight-group cast emulation: total order (relay through a
        sequencer), constant per-hop latency."""
        arrive = self.engine.timeout(2 * LOCAL_TCP_HOP + 0.0004)

        def deliver(_ev):
            for proto in self.protocols:
                proto.deliver(payload, source_rank)
        arrive.callbacks.append(deliver)

    def run(self, until):
        self.engine.run(until=until)

    def run_app(self, fn, until=60.0):
        """Run generator fn(mpi, rank, harness) per rank to completion."""
        procs = []
        for rank, mpi in enumerate(self.apis):
            procs.append(self.cluster.node(f"n{rank}").spawn(
                fn(mpi, rank, self), name=f"app{rank}"))
        self.engine.run(until=until)
        for p in procs:
            assert p.triggered, f"{p.name} deadlocked"
            if not p.ok:
                raise p.value
        return [p.value for p in procs]

    def safe_point(self, rank):
        """Generator: cooperative safe point inside fake app code."""
        while self.ctxs[rank].paused:
            yield self.engine.timeout(self.safe_point_delay)
