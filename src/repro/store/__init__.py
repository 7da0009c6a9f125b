"""Checkpoint storage: one store, its repair daemon, placement, deltas.

* :class:`~repro.store.checkpoint.CheckpointStore` — the one checkpoint
  store: a write lands each configured tier's copies (L1 partner memory /
  L2 local disk / L3 fabric replicas, write-through or write-back, with
  optional delta capture via :mod:`~repro.store.delta`), a read fetches
  each delta-chain link from the fastest tier holding a usable copy;
  :class:`~repro.store.checkpoint.CheckpointRecord` is what it stores;
* :class:`~repro.store.repair.RepairService` — failure-driven, budgeted
  re-replication;
* :mod:`~repro.store.placement` — the ring placement rule
  (:func:`ring_successors`) and the diskless protocol's
  :func:`rotating_mirrors` rule.

``ClusterSpec()`` configures it as the paper's idealized stable disk,
``ClusterSpec(replication_factor=2)`` as local disk + k-1 replicas with
honest node-local durability, ``ClusterSpec(store_tiers=("memory",
"disk", "fabric"))`` as the full hierarchy.
"""

from repro.store.checkpoint import (CheckpointRecord, CheckpointStore,
                                    MIN_DELTA_NBYTES, PROMOTIONS, TIER_DISK,
                                    TIER_FABRIC, TIER_MEMORY, TIER_ORDER,
                                    WRITE_BACK, WRITE_THROUGH,
                                    normalize_tiers)
from repro.store.delta import (BLOCK, Delta, delta_apply, delta_encode,
                               squash)
from repro.store.placement import ring_successors, rotating_mirrors
from repro.store.repair import REPAIR_BANDWIDTH, RepairService

__all__ = [
    "BLOCK",
    "CheckpointRecord",
    "CheckpointStore",
    "Delta",
    "MIN_DELTA_NBYTES",
    "PROMOTIONS",
    "REPAIR_BANDWIDTH",
    "RepairService",
    "TIER_DISK",
    "TIER_FABRIC",
    "TIER_MEMORY",
    "TIER_ORDER",
    "WRITE_BACK",
    "WRITE_THROUGH",
    "delta_apply",
    "delta_encode",
    "normalize_tiers",
    "ring_successors",
    "rotating_mirrors",
    "squash",
]
