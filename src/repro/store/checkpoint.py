"""The checkpoint store: one tier walk, three configurations.

Each application process dumps through *its own node* and a restarting
process reads the image back.  :class:`CheckpointStore` models that as a
walk over storage **tiers**, fastest first:

* **memory** (L1) — ``k`` full copies in partner nodes' RAM, streamed
  over the fast fabric (ReStore-style: written at network speed, read at
  memory speed, lost with their holders).  The writer's own RAM never
  counts — it dies with the writer.
* **disk** (L2) — the writer's local disk, the paper's measured IDE path.
* **fabric** (L3) — ``k - 1`` replicas on remote disks, the writer's
  ring successors (:func:`~repro.store.placement.ring_successors`); with
  the local disk copy that makes ``k`` durable copies.

A write is "delta-capture, then land each configured tier's copies"; a
read is "pin the delta chain, fetch each link from the fastest tier that
holds a usable copy".  ``ClusterSpec`` selects one of three
configurations of the same walk:

=====================  =============  =====================  ============
``ClusterSpec``        tiers walked   disk copy held by      replicas in
=====================  =============  =====================  ============
(default)              ``disk``       nobody (stable)        —
``replication_factor``  ``disk``       the writer's node      ``disk``
``store_tiers=(...)``  as listed      the writer's node      ``fabric``
=====================  =============  =====================  ============

The default is the paper's idealized stable storage: the standard
assumption of rollback-recovery that a dumped image outlives its writer
and is read back at the reader's disk speed.  A replication factor makes
durability honest: every copy lives on a specific node, and a record is
restorable only while some holder is up **and reachable from the
reader**.

**Promotion**: ``write-through`` (default) makes the protocol's dump wait
for every configured tier — the commit certifies the full hierarchy.
``write-back`` returns after the fastest tier and a background flusher
pushes the rest later; faster waves, but a crash in the window leaves
only the fast-tier copies.

**Delta checkpoints** (``delta_depth > 0``): ``bytes`` images are diffed
against the rank's previous image (:mod:`repro.store.delta`); the stored
record carries only the changed blocks (``nbytes`` = delta payload,
``full_nbytes`` = logical size, ``delta_of`` = the link's base version).
Every ``delta_depth`` deltas the chain is cut with a fresh full base.
Restores replay base + deltas; GC never collects a base a retained delta
still needs.

Versioning: coordinated protocols store one record per (rank, version)
and *commit* a version once every rank's record is stored — the
committed version is the recovery line; the uncoordinated protocol
stores per-rank indices plus each record's dependency vector and
computes recovery lines on demand (:mod:`repro.ckpt.recovery_line`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.calibration import BIP_BANDWIDTH, US
from repro.cluster.node import NodeState
from repro.cluster.spec import (STORE_TIERS as TIER_ORDER,
                                TIER_POLICIES as PROMOTIONS, normalize_tiers)
from repro.errors import CheckpointError, Interrupt, NoCheckpoint
from repro.obs.registry import get_registry
from repro.sim.channel import Channel
from repro.store.delta import delta_encode, squash
from repro.store.placement import ring_successors

#: Storage tiers, fastest first.
TIER_MEMORY, TIER_DISK, TIER_FABRIC = TIER_ORDER
#: Promotion policies.
WRITE_THROUGH, WRITE_BACK = PROMOTIONS

#: Metadata floor charged for a delta that carries (almost) no payload.
MIN_DELTA_NBYTES = 512

#: A record key: (app_id, rank, version).
Key = Tuple[str, int, int]


def _key(record: "CheckpointRecord") -> Key:
    return (record.app_id, record.rank, record.version)


@dataclass
class CheckpointRecord:
    """One stored local checkpoint.

    Where the copies live is first-class: ``tier`` names the record's
    *home* tier (what kind of storage the writer targeted) and
    ``holders`` maps each tier to the node ids holding a copy there.
    Which of those holders are usable right now is the store's call
    (:meth:`CheckpointStore.available_holders`), not the record's.
    """

    app_id: str
    rank: int
    version: int                 # coordinated: global; uncoordinated: per-rank
    level: str                   # "native" | "vm"
    nbytes: int
    image: Any                   # checkpointer-specific stored form
    arch_name: str
    taken_at: float
    #: MPI runtime state (channel counters, unexpected queue image).
    mpi_state: dict = field(default_factory=dict)
    #: Uncoordinated: the rank's dependency log up to this checkpoint —
    #: ``(sender, sender_interval, my_interval)`` per received message.
    deps: List[Tuple[int, int, int]] = field(default_factory=list)
    #: Chandy–Lamport: in-channel messages recorded with this snapshot.
    channel_msgs: List[Tuple] = field(default_factory=list)
    #: Home tier: ``memory`` for diskless/L1-only records (fast to write
    #: and read, but a copy dies with its holder), ``disk`` otherwise.
    tier: str = TIER_DISK
    #: Per-tier holder map: tier name -> node ids holding a copy there.
    #: Empty for a stable disk copy (no replication factor).
    holders: Dict[str, List[str]] = field(default_factory=dict)
    #: Delta checkpointing: the version this incremental image applies on
    #: top of (``None`` = a full image).  The chain ends at a full base;
    #: restores replay base + deltas (:mod:`repro.store.delta`).
    delta_of: Optional[int] = None
    #: Logical full-image size for delta records (``nbytes`` is then the
    #: delta payload actually written).
    full_nbytes: Optional[int] = None

    def add_holder(self, tier: str, node_id: str) -> None:
        held = self.holders.setdefault(tier, [])
        if node_id not in held:
            held.append(node_id)

    def all_holders(self) -> List[str]:
        """Every holder across all tiers, fastest tier first, deduped."""
        out: List[str] = []
        for tier in TIER_ORDER:
            for h in self.holders.get(tier, ()):
                if h not in out:
                    out.append(h)
        return out

    @property
    def is_delta(self) -> bool:
        return self.delta_of is not None


class CheckpointStore:
    """Cluster-wide checkpoint storage (see the module docstring).

    ``k`` is the replication factor; ``None`` means stable storage (the
    disk copy has no holder and cannot be lost).  ``tiers=None`` walks
    the disk tier only, with the ``k - 1`` replicas filed beside the
    primary under ``disk``; an explicit tier tuple files them under
    ``fabric`` and defaults ``k`` to 2.
    """

    def __init__(self, engine, cluster=None, tiers=None,
                 k: Optional[int] = None,
                 delta_depth: int = 0, promotion: str = WRITE_THROUGH):
        if k is not None and int(k) < 1:
            raise CheckpointError(f"replication factor must be >= 1, got {k}")
        if promotion not in PROMOTIONS:
            raise CheckpointError(
                f"unknown promotion policy {promotion!r} "
                f"(known: {', '.join(PROMOTIONS)})")
        if int(delta_depth) < 0:
            raise CheckpointError(
                f"delta_depth must be >= 0, got {delta_depth}")
        self.engine = engine
        self.cluster = cluster
        self.tiers: Tuple[str, ...] = ((TIER_DISK,) if tiers is None
                                       else normalize_tiers(tiers))
        if tiers is not None and k is None:
            k = 2
        self.k = None if k is None else int(k)
        #: Copies each walked tier streams over the fabric.  L1 wants k
        #: FULL partner copies (the writer's RAM dies with the writer);
        #: the k - 1 disk replicas (the primary's own disk is the k-th)
        #: are filed beside the primary under ``disk`` when no tiers are
        #: listed, under ``fabric`` otherwise.
        self._fanout: Dict[str, int] = {} if self.k is None else {
            TIER_MEMORY: self.k,
            TIER_DISK if tiers is None else TIER_FABRIC: self.k - 1}
        self.promotion = promotion
        self.delta_depth = int(delta_depth)
        #: Home tier stamped on written records: the first durable tier,
        #: ``memory`` only when nothing durable is configured.
        self.home_tier = next((t for t in self.tiers if t != TIER_MEMORY),
                              TIER_MEMORY)
        self._records: Dict[Key, CheckpointRecord] = {}
        #: Committed coordinated versions per app (ascending).
        self._committed: Dict[str, List[int]] = {}
        #: Read-pin refcounts: a record being read cannot be GCed from
        #: under the reader (the GC defers; :meth:`_unpin` finishes it).
        self._pins: Dict[Key, int] = {}
        #: Last GC floor per app — versions below it are garbage the
        #: moment their read-pins drain.
        self._gc_floor: Dict[str, int] = {}
        #: Sender-based message logs: (app_id, sender, dest) -> ascending
        #: [(ssn, entry)] — the logging protocols' replay source.  The
        #: log is stable storage in every configuration: it survives the
        #: sender's crash.
        self._msg_logs: Dict[Tuple[str, int, int],
                             List[Tuple[int, Tuple]]] = {}
        #: (app_id, rank) -> (version, full image bytes) — the diff base
        #: for the NEXT dump (always the previous full content).
        self._base_cache: Dict[Tuple[str, int], Tuple[int, bytes]] = {}
        #: (app_id, rank) -> deltas since the last full base.
        self._chain_len: Dict[Tuple[str, int], int] = {}
        #: Write-back: (writer node id, record, pending tiers).
        self._backlog: deque = deque()
        #: Attached :class:`~repro.store.repair.RepairService` (``None``
        #: up to k=1, where there is nothing to re-replicate toward).
        self.repair = None
        #: Survivability breach log: committed lines that became
        #: non-restorable at a membership change (see _record_breaches).
        self.breaches: list = []
        self._init_metrics(get_registry(engine))
        self._flush_wake = None
        if self.promotion == WRITE_BACK:
            self._flush_wake = Channel(engine, name="store-tier-flush")
            engine.process(self._flush_loop(), name="store-tier-flush")

    def _init_metrics(self, reg) -> None:
        self._m_writes = reg.counter(
            "ckpt.store.writes", help="checkpoint records stored")
        self._m_reads = reg.counter(
            "ckpt.store.reads", help="checkpoint records loaded")
        self._m_bytes = reg.counter(
            "ckpt.store.bytes_written", help="checkpoint bytes stored")
        self._m_repl_ok = reg.counter(
            "store.replica.writes", help="replica copies registered")
        self._m_repl_failed = reg.counter(
            "store.replica.failed",
            help="replica transfers lost to crashes/partitions")
        self._m_remote_reads = reg.counter(
            "store.replica.remote_reads",
            help="restores served from a non-local holder")
        self._m_tier_writes = {
            t: reg.counter("store.tier.writes", tier=t,
                           help="tier copies written") for t in TIER_ORDER}
        self._m_tier_reads = {
            t: reg.counter("store.tier.reads", tier=t,
                           help="chain-link reads served per tier")
            for t in TIER_ORDER}
        self._m_delta_saved = reg.counter(
            "store.delta.bytes_saved",
            help="bytes NOT written thanks to delta capture")

    # ------------------------------------------------------------------
    # cluster probes (no cluster = every node up and reachable)
    # ------------------------------------------------------------------

    def node_up(self, node_id: str) -> bool:
        """Is the node alive (UP or transiently degraded, not DOWN)?

        Read straight off the node table, so a copy on a crashed node
        stops counting in the same sim instant as the crash — there is
        no window where it looks usable because a watcher has not run.
        """
        if self.cluster is None:
            return True
        node = self.cluster.nodes.get(node_id)
        return node is not None and node.state is not NodeState.DOWN

    def reachable(self, src: str, dst: str) -> bool:
        """Data-fabric reachability (honors open partitions)."""
        return (src == dst or self.cluster is None
                or self.cluster.myrinet._reachable(src, dst))

    def candidates(self, primary: str) -> List[str]:
        """UP nodes other than ``primary``, in deterministic order — the
        ring placement rule's input universe."""
        return sorted(n.node_id for n in self.cluster.nodes.values()
                      if n.state is NodeState.UP and n.node_id != primary)

    def mirror_fanout(self) -> int:
        """In-memory copies per diskless record: the replication factor,
        double mirroring (Plank-style diskless checkpointing's simple
        variant) when none is configured."""
        return 2 if self.k is None else self.k

    # ------------------------------------------------------------------
    # writing: delta capture, then each tier's copies
    # ------------------------------------------------------------------

    def write(self, node, record: CheckpointRecord,
              bandwidth: Optional[float] = None):
        """Process generator: dump ``record`` through the tier walk.

        Write-through completes only once every surviving copy of every
        tier is durable, so a protocol's commit point certifies the full
        replication factor (minus any holder that crashed or partitioned
        away mid-transfer, which is logged as a failed replica and
        repaired later); write-back returns after the fastest tier and
        leaves the rest to the flusher.
        """
        self._deltify(record)
        record.tier = self.home_tier
        if self.promotion == WRITE_BACK and len(self.tiers) > 1:
            inline, deferred = self.tiers[:1], self.tiers[1:]
        else:
            inline, deferred = self.tiers, ()
        for tier in inline:
            yield from self._write_into(node, record, tier, bandwidth)
        if deferred:
            self._backlog.append((node.node_id, record, deferred))
            self._flush_wake.put(True)

    def _enter(self, record: CheckpointRecord) -> None:
        """Put ``record`` in the repository (once per written record)."""
        if self._records.get(_key(record)) is not record:
            self._records[_key(record)] = record
            self._m_writes.inc()
            self._m_bytes.inc(record.nbytes)

    def _write_into(self, node, record: CheckpointRecord, tier: str,
                    bandwidth: Optional[float] = None):
        """Process generator: land one tier's copies of ``record``.

        The record enters the repository when its first copy exists: after
        the local disk write when disk is the first tier walked, before
        the fan-out otherwise (holders only ingest a registered record).
        """
        if tier == TIER_DISK:
            yield from node.disk.write(record.nbytes, bandwidth=bandwidth)
            if not self.node_up(node.node_id):
                return      # the writer died under a write-back flush
            # No replication factor = stable storage: the copy has no
            # holder, so no crash or partition can take it away.
            if self.k is not None:
                record.add_holder(TIER_DISK, node.node_id)
        self._enter(record)
        copies = self._fanout.get(tier)
        if copies:
            targets = ring_successors(node.node_id,
                                      self.candidates(node.node_id), copies)
            yield from self._replicate(node, record, tier, targets)
        self._m_tier_writes[tier].inc()

    def _replicate(self, node, record: CheckpointRecord, tier: str,
                   targets: List[str]):
        """Stream copies of ``record`` into ``tier`` on ``targets``.

        A crash between copies simply yields fewer holders; the repair
        service re-replicates later.
        """
        if not targets:
            return
        engine = self.engine
        fabric = self.cluster.myrinet
        in_flight = []
        for target in targets:
            # The sender serializes each copy back to back on its NIC;
            # wire latency + the remote disk write pipeline per target.
            yield engine.timeout(record.nbytes / fabric.spec.bandwidth)
            tnode = self.cluster.nodes.get(target)
            if tnode is None or not tnode.is_up \
                    or not self.reachable(node.node_id, target):
                self._m_repl_failed.inc()
                continue
            proc = tnode.spawn(
                self._ingest(record, target, fabric, tier),
                name=f"replica:{record.app_id}:{record.rank}"
                     f":{record.version}:{target}"
                     if engine.tracer is not None else None)
            in_flight.append(proc)
        for proc in in_flight:
            yield proc

    def _ingest(self, record: CheckpointRecord, target: str, fabric,
                tier: str):
        """Replica-holder side: wire latency, disk write (durable tiers
        only — a memory-tier copy lands in the holder's RAM), register."""
        try:
            yield self.engine.timeout(fabric.spec.layers.one_way_fixed)
            tnode = self.cluster.nodes.get(target)
            if tnode is None or not tnode.is_up:
                self._m_repl_failed.inc()
                return
            if tier != TIER_MEMORY:
                yield from tnode.disk.write(record.nbytes)
        except Interrupt:
            # The holder crashed mid-transfer: the copy is gone.
            self._m_repl_failed.inc()
            return
        if self._records.get(_key(record)) is not record \
                or not self.node_up(target):
            self._m_repl_failed.inc()
            return
        record.add_holder(tier, target)
        self._m_repl_ok.inc()

    def _flush_loop(self):
        """Write-back daemon: push deferred tiers in arrival order."""
        while True:
            yield self._flush_wake.get()
            while self._backlog:
                node_id, record, tiers = self._backlog.popleft()
                if self._records.get(_key(record)) is not record:
                    continue                         # GCed before flush
                node = self.cluster.nodes.get(node_id)
                for tier in tiers:
                    if node is None or not self.node_up(node_id):
                        break                        # writer died first
                    yield from self._write_into(node, record, tier)

    def write_tier(self, record: CheckpointRecord, tier: str,
                   holder_node: str) -> None:
        """Register a copy of ``record`` in ``tier`` held on
        ``holder_node`` (the diskless protocol's mirrors).

        A second copy of the same snapshot (same key and ``taken_at``)
        adds a holder — redundancy by mirroring.  No IO is charged here:
        the caller pays the transfer/disk costs appropriate to the tier;
        registration itself is free at this granularity.
        """
        existing = self._records.get(_key(record))
        if existing is not None and existing.taken_at == record.taken_at:
            existing.add_holder(tier, holder_node)
            return
        if tier == TIER_MEMORY:
            record.tier = TIER_MEMORY
        record.holders[tier] = [holder_node]
        self._enter(record)

    def commit(self, app_id: str, version: int) -> None:
        """Mark a coordinated version as a recovery line."""
        self._committed.setdefault(app_id, []).append(version)

    # ------------------------------------------------------------------
    # delta capture
    # ------------------------------------------------------------------

    def _deltify(self, record: CheckpointRecord) -> None:
        """Turn ``record`` into an incremental image when it can be one.

        Only ``bytes`` images (the VM checkpointers) are delta-able;
        native live-object dumps always go full.  The diff base is the
        rank's previous full content, cached writer-side — rebuilding it
        from the store would charge a read we never perform.
        """
        if self.delta_depth <= 0 \
                or not isinstance(record.image, (bytes, bytearray)):
            return
        rkey = (record.app_id, record.rank)
        full = bytes(record.image)
        prev = self._base_cache.get(rkey)
        chain = self._chain_len.get(rkey, 0)
        self._base_cache[rkey] = (record.version, full)
        # A restarted rank can rewrite a version it already dumped; a
        # delta must point strictly back or the chain would loop.
        if prev is None or prev[0] >= record.version \
                or not self.has(record.app_id, record.rank, prev[0]):
            self._chain_len[rkey] = 0
            return
        if chain >= self.delta_depth:
            # Chain squash: cut a fresh full base.
            self._chain_len[rkey] = 0
            return
        prev_version, prev_full = prev
        delta = delta_encode(prev_full, full)
        record.delta_of = prev_version
        record.full_nbytes = record.nbytes
        record.image = delta
        record.nbytes = max(delta.nbytes, MIN_DELTA_NBYTES)
        self._chain_len[rkey] = chain + 1
        self._m_delta_saved.inc(max(0, record.full_nbytes - record.nbytes))

    def _chain(self, app_id: str, rank: int, version: int):
        """The record chain newest-first down to its full base.

        Raises :class:`NoCheckpoint` when a link is gone entirely.
        """
        out = [self.peek(app_id, rank, version)]
        while out[-1].delta_of is not None:
            out.append(self.peek(app_id, rank, out[-1].delta_of))
        return out

    def _chain_needed(self, app_id: str, floor: int) -> set:
        """Keys below ``floor`` still needed as delta bases by records at
        or above it (or read-pinned)."""
        needed: set = set()
        for key, rec in self._records.items():
            if key[0] != app_id:
                continue
            if key[2] < floor and not self._pins.get(key):
                continue
            base = rec.delta_of
            while base is not None:
                bkey = (app_id, key[1], base)
                if bkey in needed:
                    break
                needed.add(bkey)
                r = self._records.get(bkey)
                base = r.delta_of if r is not None else None
        return needed

    # ------------------------------------------------------------------
    # availability
    # ------------------------------------------------------------------

    def _stable(self, record: CheckpointRecord) -> bool:
        """Does ``record`` have a stable disk copy — written with no
        replication factor, held by no node, immune to crash and
        partition, read at the reader's own disk speed?"""
        return self.k is None and record.tier == TIER_DISK

    def _holder_ok(self, node_id: str,
                   from_node: Optional[str] = None) -> bool:
        """Can ``from_node`` read a copy held on ``node_id``?  The holder
        must be up — and, under a replication factor, on the reader's
        side of any partition (idealized storage has no partition
        model: its memory mirrors count while their holder lives)."""
        return self.node_up(node_id) and (
            from_node is None or self.k is None
            or self.reachable(from_node, node_id))

    def available_holders(self, record: CheckpointRecord,
                          from_node: Optional[str] = None) -> List[str]:
        """Usable holders of ``record``, fastest tier first, deduped."""
        out: List[str] = []
        for held in self.available_by_tier(record, from_node).values():
            out += [h for h in held if h not in out]
        return out

    def available_by_tier(self, record: CheckpointRecord,
                          from_node: Optional[str] = None
                          ) -> Dict[str, List[str]]:
        """Per-tier usable holders — the tier-by-tier fallback order a
        shrink-to-fit restore walks (and the CLI dumps)."""
        out: Dict[str, List[str]] = {}
        for tier in TIER_ORDER:
            held = [h for h in record.holders.get(tier, ())
                    if self._holder_ok(h, from_node)]
            if held:
                out[tier] = held
        return out

    def record_available(self, app_id: str, rank: int, version: int,
                         from_node: Optional[str] = None) -> bool:
        """Is this record actually usable for a restore *right now*?

        Yes iff EVERY chain link down to its full base is stable or still
        has a copy in some tier on a holder that is up and reachable from
        ``from_node`` (the prospective reader).
        """
        rec = self._records.get((app_id, rank, version))
        while rec is not None:
            if not (self._stable(rec)
                    or self.available_holders(rec, from_node=from_node)):
                return False
            if rec.delta_of is None:
                return True
            rec = self._records.get((app_id, rank, rec.delta_of))
        return False

    # ------------------------------------------------------------------
    # reading: shrink-to-fit tier walk + chain replay
    # ------------------------------------------------------------------

    def read(self, node, app_id: str, rank: int, version: int,
             bandwidth: Optional[float] = None):
        """Process generator: load a record, fastest tier per link.

        Delta chains read every link (base first) and replay the deltas;
        the returned record is then a full-image VIEW of the stored head
        (callers see ``image``/``nbytes`` as if the dump had been full).
        All links are read-pinned for the duration, so GC cannot collect
        one mid-read.
        """
        chain = self._chain(app_id, rank, version)
        for rec in chain:
            self._pins[_key(rec)] = self._pins.get(_key(rec), 0) + 1
        try:
            for rec in reversed(chain):
                yield from self._fetch(node, rec, bandwidth)
            self._m_reads.inc()
            head = chain[0]
            if head.delta_of is None:
                return head
            deltas = [rec.image for rec in reversed(chain[:-1])]
            return replace(
                head, image=squash(chain[-1].image, deltas),
                nbytes=head.full_nbytes or head.nbytes,
                delta_of=None, full_nbytes=None,
                holders={t: list(h) for t, h in head.holders.items()})
        finally:
            for rec in chain:
                self._unpin(_key(rec))

    def _fetch(self, node, rec: CheckpointRecord,
               bandwidth: Optional[float] = None):
        """Process generator: pull ONE chain link from its fastest tier.

        A memory copy costs a fast-network fetch from its holder; a
        durable copy on the reader's own node (or a stable one) reads at
        local disk speed; otherwise the holder's disk is read remotely
        and the image crosses the fast network.
        """
        by_tier = self.available_by_tier(rec, from_node=node.node_id)
        if TIER_MEMORY in by_tier:
            yield self.engine.timeout(200 * US + rec.nbytes / BIP_BANDWIDTH)
            self._m_tier_reads[TIER_MEMORY].inc()
            return
        stable = self._stable(rec)
        for tier in (TIER_DISK, TIER_FABRIC):
            held = by_tier.get(tier, ())
            if not (held or stable):
                continue
            if stable or node.node_id in held:
                yield from node.disk.read(rec.nbytes, bandwidth=bandwidth)
            else:
                snode = self.cluster.nodes[held[0]]
                yield from snode.disk.read(rec.nbytes)
                yield self.engine.timeout(
                    self.cluster.myrinet.spec.one_way(rec.nbytes))
                self._m_remote_reads.inc()
            self._m_tier_reads[tier].inc()
            return
        raise NoCheckpoint(
            f"no tier holds a reachable copy of (app={rec.app_id}, "
            f"rank={rec.rank}, version={rec.version}); "
            f"holders={rec.holders}")

    def peek(self, app_id: str, rank: int, version: int) -> CheckpointRecord:
        """Metadata access without IO cost (no image restore)."""
        record = self._records.get((app_id, rank, version))
        if record is None:
            raise NoCheckpoint(f"no checkpoint (app={app_id}, rank={rank}, "
                               f"version={version})")
        return record

    def has(self, app_id: str, rank: int, version: int) -> bool:
        return (app_id, rank, version) in self._records

    # ------------------------------------------------------------------
    # read pins and GC: never collect a record mid-read, nor a base a
    # retained delta still needs
    # ------------------------------------------------------------------

    def _unpin(self, key: Key) -> None:
        count = self._pins.get(key, 0) - 1
        if count > 0:
            self._pins[key] = count
            return
        self._pins.pop(key, None)
        # Finish any GC this pin deferred.
        floor = self._gc_floor.get(key[0])
        if floor is not None and key[2] < floor \
                and key not in self._chain_needed(key[0], floor):
            self._records.pop(key, None)

    def gc_committed(self, app_id: str, keep: int = 1) -> int:
        """Garbage-collect checkpoints superseded by committed lines.

        Keeps the last ``keep`` committed versions (and anything newer,
        e.g. in-flight uncommitted records); drops everything older.
        Returns the number of records removed.  Only meaningful for
        coordinated protocols — uncoordinated recovery lines may reach
        arbitrarily far back, so their stores are never GCed here.
        """
        committed = self._committed.get(app_id)
        if not committed or keep < 1 or len(committed) <= keep:
            return 0
        floor = sorted(committed)[-keep]
        self._gc_floor[app_id] = max(floor, self._gc_floor.get(app_id, 0))
        # Read-pinned records are skipped: a concurrent restart may be
        # mid-read on an old version — collecting it would hand the
        # reader a NoCheckpoint for a record it already located.  The
        # pin's release sweeps them (same floor).
        needed = self._chain_needed(app_id, floor)
        victims = [k for k in self._records
                   if k[0] == app_id and k[2] < floor
                   and not self._pins.get(k) and k not in needed]
        for key in victims:
            del self._records[key]
        self._committed[app_id] = [v for v in committed if v >= floor]
        return len(victims)

    def drop_app(self, app_id: str) -> None:
        """Forget an application: its records, logs, committed lines, and
        the GC/delta bookkeeping a later app reusing the id must not
        inherit."""
        for table in (self._records, self._msg_logs, self._pins,
                      self._base_cache, self._chain_len):
            for key in [k for k in table if k[0] == app_id]:
                del table[key]
        self._committed.pop(app_id, None)
        self._gc_floor.pop(app_id, None)

    # ------------------------------------------------------------------
    # membership reactions (wired as a cluster watcher)
    # ------------------------------------------------------------------

    def on_membership(self, node_id: str, event: str) -> None:
        """Cluster watcher: keep availability honest, wake the repairer.

        Runs synchronously inside the crash/recover call.  A crash takes
        the node's RAM copies; a removal also takes its disk for good.
        """
        if event in ("crash", "remove"):
            self.drop_copies(node_id, durable=(event == "remove"))
            self._record_breaches()
        if self.repair is not None and event in ("crash", "remove",
                                                 "recover", "add"):
            self.repair.kick(reason=f"{event}:{node_id}")

    def drop_copies(self, node_id: str, durable: bool = False) -> int:
        """A node's copies are gone: the RAM copies it held on a crash,
        its disk copies too (``durable``) once it leaves for good.

        Strips the node from the holder lists and drops records whose
        LAST copy in any tier it was — on a crash only memory-home ones:
        a written-back record waiting for its flush, or a stable one,
        never lived in that RAM alone.  Returns the records lost outright.
        """
        lost = 0
        for key, rec in list(self._records.items()):
            hit = False
            for tier, held in rec.holders.items():
                if node_id in held and (durable or tier == TIER_MEMORY):
                    held.remove(node_id)
                    hit = True
            if hit and (durable or rec.tier == TIER_MEMORY) \
                    and not any(rec.holders.values()):
                del self._records[key]
                lost += 1
        return lost

    def _record_breaches(self) -> None:
        """Log every committed line that just became non-restorable.

        Invariant checkers can only observe the store after the cluster
        re-settles — by which point a restarted app has recommitted a
        fresh, fully-replicated line and the loss is invisible.  The
        breach log captures it at the instant of the membership change;
        each entry carries the down-set so a checker can apply its own
        ``k-1`` contract window.  Without a replication factor there is
        no contract to breach.
        """
        if self.k is None:
            return
        down = tuple(nid for nid, node in sorted(self.cluster.nodes.items())
                     if node.state is not NodeState.UP)
        for app_id in sorted(self._committed):
            committed = self.latest_committed(app_id)
            if committed is None:
                continue
            ranks = sorted({key[1] for key in self._records
                            if key[0] == app_id and key[2] == committed})
            restorable = self.latest_restorable(app_id, ranks)
            if restorable != committed:
                self.breaches.append({
                    "time": self.engine.now, "app_id": app_id,
                    "committed": committed, "restorable": restorable,
                    "down": down})

    # ------------------------------------------------------------------
    # repair bookkeeping
    # ------------------------------------------------------------------

    def repair_tier(self, record: CheckpointRecord) -> str:
        """Which tier re-replication tops up for this record: the most
        durable tier this store walks — or the record's home tier when
        the store does not walk that at all (a diskless protocol's
        memory mirrors on a store with no memory tier)."""
        return self.tiers[-1] if record.tier in self.tiers else record.tier

    def repair_sources(self, record: CheckpointRecord,
                       tier: str) -> List[str]:
        """Live holders credited against the replication target for
        ``tier`` — and usable as copy sources.  Every durable copy
        counts toward a durable target (the primary's local-disk copy is
        as good a source as a fabric replica)."""
        tiers = (tier,) if tier == TIER_MEMORY else (TIER_DISK, TIER_FABRIC)
        out: List[str] = []
        for t in tiers:
            for h in record.holders.get(t, ()):
                if h not in out and self.node_up(h):
                    out.append(h)
        return out

    def replica_target(self) -> int:
        """Copies each record should have: ``min(k, up nodes)`` — a
        2-node cluster with k=3 is honestly under-provisioned, not
        infinitely broken."""
        n_up = sum(1 for n in self.cluster.nodes.values()
                   if n.state is NodeState.UP)
        return min(self.k, max(1, n_up))

    def replica_deficit(self) -> int:
        """Total missing copies across all records (the repair backlog)."""
        target = self.replica_target()
        return sum(max(0, target - len(self.repair_sources(
            rec, self.repair_tier(rec)))) for rec in self._records.values())

    # ------------------------------------------------------------------
    # sender-based message logs (logging protocols)
    # ------------------------------------------------------------------

    def log_append(self, app_id: str, sender: int, dest: int, ssn: int,
                   entry: Tuple) -> bool:
        """Append one sent message to the (sender → dest) channel log.

        ``ssn`` is the sender's per-channel sequence number; the log is
        append-only and strictly ascending.  Re-appending an ssn the log
        already covers is a no-op returning ``False`` — a restarted
        sender re-executing from its checkpoint re-sends with identical
        ssns, and those duplicates must cost neither log space nor IO.
        """
        log = self._msg_logs.setdefault((app_id, sender, dest), [])
        if log and log[-1][0] >= ssn:
            return False
        log.append((ssn, entry))
        return True

    def log_end(self, app_id: str, sender: int, dest: int) -> int:
        """Highest logged ssn on the (sender → dest) channel (0 = none)."""
        log = self._msg_logs.get((app_id, sender, dest))
        return log[-1][0] if log else 0

    def log_tail(self, app_id: str, sender: int, dest: int,
                 after_ssn: int = 0) -> List[Tuple[int, Tuple]]:
        """Logged ``(ssn, entry)`` pairs with ``ssn > after_ssn``."""
        log = self._msg_logs.get((app_id, sender, dest), [])
        return [(ssn, entry) for ssn, entry in log if ssn > after_ssn]

    def log_senders(self, app_id: str, dest: int) -> List[int]:
        """All ranks with a non-empty log toward ``dest``, ascending."""
        return sorted(s for (a, s, d) in self._msg_logs
                      if a == app_id and d == dest)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def iter_records(self, app_id: Optional[str] = None):
        """Iterate ``(key, record)`` pairs in key order — the public
        repository walk (repair, CLI dumps, invariant checkers)."""
        for key in sorted(self._records):
            if app_id is None or key[0] == app_id:
                yield key, self._records[key]

    def committed_versions(self, app_id: str) -> List[int]:
        return list(self._committed.get(app_id, []))

    def latest_restorable(self, app_id: str, ranks,
                          from_node: Optional[str] = None) -> Optional[int]:
        """Most recent committed version with every rank's record usable.

        On stable storage this equals :meth:`latest_committed`; copies
        with holders can have been wiped by the crash itself, so recovery
        must fall back to an older intact line.  ``from_node`` names the
        prospective reader — only copies reachable from its partition
        count.
        """
        ranks = list(ranks)
        for version in sorted(self._committed.get(app_id, []),
                              reverse=True):
            if all(self.record_available(app_id, r, version,
                                         from_node=from_node)
                   for r in ranks):
                return version
        return None

    def latest_committed(self, app_id: str) -> Optional[int]:
        versions = self._committed.get(app_id)
        return versions[-1] if versions else None

    def versions_of(self, app_id: str, rank: int) -> List[int]:
        """All stored versions for one rank, ascending."""
        return sorted(v for (a, r, v) in self._records
                      if a == app_id and r == rank)

    def max_version(self, app_id: str) -> int:
        """Highest version stored by ANY rank (0 if none) — restarted
        coordinated protocols resume numbering above this."""
        versions = [v for (a, _r, v) in self._records if a == app_id]
        versions += self._committed.get(app_id, [])
        return max(versions, default=0)

    def __repr__(self) -> str:
        return (f"<CheckpointStore tiers={'+'.join(self.tiers)} k={self.k} "
                f"promotion={self.promotion} delta_depth={self.delta_depth} "
                f"{len(self._records)} records>")
