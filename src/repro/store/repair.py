"""Failure-driven re-replication of under-replicated checkpoints.

The :class:`RepairService` is the store's background daemon process: it
sleeps until a cluster membership change (crash / recover / add /
remove, delivered synchronously by the store's watcher via
:meth:`kick`), then scans the replica map and copies under-replicated
records from a surviving holder to a new one chosen by the same ring
placement rule as ordinary writes, until every record is back at
``min(k, up nodes)`` copies.

Repair traffic is **budgeted**: each copy is throttled to
:data:`REPAIR_BANDWIDTH` bytes/second (and can never beat the fabric), and
the destination's disk write goes through the ordinary per-node disk
model — so repair contends with application checkpoints for the same
heads and its cost shows up in sim time.  With budget *B*, fabric bandwidth *W*
and a backlog of *D* missing copies of *S*-byte records, the repair
window is ``D * (S / min(B, W) + S / disk_bw)`` plus per-copy latency —
the number DESIGN.md §13 derives and
the ``STORE-K`` row of ``benchmarks/paper.py`` measures.
"""

from __future__ import annotations

from repro.errors import Interrupt
from repro.obs.registry import get_registry
from repro.sim.channel import Channel
from repro.store.checkpoint import TIER_MEMORY
from repro.store.placement import ring_successors

#: Re-replication budget: ~4 MB/s, below Myrinet line rate so repair
#: never starves application traffic in the model.
REPAIR_BANDWIDTH = 4.0e6


class RepairService:
    """Re-replicates under-replicated records after membership changes."""

    def __init__(self, engine, cluster, store):
        self.engine = engine
        self.cluster = cluster
        self.store = store
        self._wake = Channel(engine, name="store-repair-wake")
        self._pending = False
        reg = get_registry(engine)
        self._m_kicks = reg.counter(
            "store.repair.kicks", help="membership changes observed")
        self._m_jobs_ok = reg.counter(
            "store.repair.jobs", outcome="ok",
            help="repair copies by outcome")
        self._m_jobs_failed = reg.counter(
            "store.repair.jobs", outcome="failed",
            help="repair copies by outcome")
        self._m_bytes = reg.counter(
            "store.repair.bytes", help="bytes re-replicated")
        self._proc = engine.process(self._run(), name="store-repair")

    # ------------------------------------------------------------------

    def kick(self, reason: str = "") -> None:
        """Wake the repair loop (idempotent while a scan is queued)."""
        self._m_kicks.inc()
        if not self._pending:
            self._pending = True
            self._wake.put(reason)

    def status(self) -> dict:
        """Snapshot for the ``repro store`` CLI."""
        return {
            "budget_bytes_per_sec": REPAIR_BANDWIDTH,
            "deficit_copies": self.store.replica_deficit(),
            "kicks": int(self._m_kicks.value),
            "repaired": int(self._m_jobs_ok.value),
            "failed": int(self._m_jobs_failed.value),
            "bytes": int(self._m_bytes.value),
        }

    # ------------------------------------------------------------------
    # the daemon loop
    # ------------------------------------------------------------------

    def _run(self):
        while True:
            yield self._wake.get()
            self._pending = False
            skip = set()          # keys that failed this drain cycle
            while True:
                job = self._next_job(skip)
                if job is None:
                    break
                ok = yield from self._repair_one(*job)
                if not ok:
                    skip.add(job[0])

    def _next_job(self, skip):
        """The first under-replicated record with a viable source+target.

        Deterministic scan order (the store's sorted-key walk) keeps
        same-seed campaign reports byte-identical.  Everything here goes
        through the store's public surface — iter_records / node_up /
        reachable / candidates / repair_tier / repair_sources."""
        store = self.store
        target_copies = store.replica_target()
        for key, rec in store.iter_records():
            if key in skip:
                continue
            tier = store.repair_tier(rec)
            live = store.repair_sources(rec, tier)
            if not live or len(live) >= target_copies:
                continue
            source = live[0]
            # Never re-target a node already holding a copy in ANY tier:
            # a crashed-but-recoverable holder would double-count.
            candidates = [c for c in store.candidates(source)
                          if c not in rec.all_holders()
                          and store.reachable(source, c)]
            picks = ring_successors(source, candidates, 1)
            if not picks:
                continue
            return (key, rec, source, picks[0], tier)
        return None

    def _repair_one(self, key, rec, source, target, tier):
        engine = self.engine
        fabric = self.cluster.myrinet
        rate = min(REPAIR_BANDWIDTH, fabric.spec.bandwidth)
        yield engine.timeout(fabric.spec.layers.one_way_fixed
                             + rec.nbytes / rate)
        store = self.store
        if not store.has(*key) or store.peek(*key) is not rec:
            self._m_jobs_failed.inc()       # GCed mid-copy
            return False
        tnode = self.cluster.nodes.get(target)
        if tnode is None or not tnode.is_up \
                or not store.node_up(source):
            self._m_jobs_failed.inc()
            return False
        if tier != TIER_MEMORY:
            try:
                yield from tnode.disk.write(rec.nbytes)
            except Interrupt:
                self._m_jobs_failed.inc()
                return False
        if not store.has(*key) or store.peek(*key) is not rec \
                or not store.node_up(target):
            self._m_jobs_failed.inc()
            return False
        rec.add_holder(tier, target)
        self._m_jobs_ok.inc()
        self._m_bytes.inc(rec.nbytes)
        return True

    def __repr__(self) -> str:
        return (f"<RepairService budget={REPAIR_BANDWIDTH:.3g}B/s "
                f"deficit={self.store.replica_deficit()}>")
