"""The restart decision as one value (``docs/records/35-restart-plan.md``).

When ranks are lost or moved, the app's restart coordinator decides where
it resumes: :func:`plan_restart` maps plain values it reads once
(:class:`RestartInputs`) to the frozen :class:`RestartPlan` that
``app-restart`` carries and every daemon applies.  It reads no daemon,
store or view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import takewhile
from typing import FrozenSet, List, Mapping, NamedTuple, Optional, Tuple

from repro.ckpt.recovery_line import DependencyGraph, compute_recovery_line
from repro.cluster.arch import arch_by_name
from repro.errors import PlacementError


class RestartMode(Enum):
    """How an app recovers (each protocol names one): every rank back to
    the latest committed line, or to the dependency logs' recovery line;
    the lost ranks alone, replaying the sender logs; or a backup copy of
    each lost rank promoted in place."""

    COORDINATED = "coordinated"
    UNCOORDINATED = "uncoordinated"
    LOG_REPLAY = "log-replay"
    FAILOVER = "failover"

    @property
    def solo(self) -> bool:
        """The survivors keep running: a restart kills only what it
        respawns or moves, keeps the world version, and a respawned rank
        rejoins peers whose channel counters never reset."""
        return self in (RestartMode.LOG_REPLAY, RestartMode.FAILOVER)


class StoredVersion(NamedTuple):
    """One stored checkpoint of a rank: its version, whether it can be
    restored from the coordinator's node now, the name of the architecture
    that wrote it, and its dependency log ``((sender, send interval,
    receive interval), ...)`` (uncoordinated checkpoints)."""

    version: int
    usable: bool
    arch: str
    deps: Tuple[Tuple[int, int, int], ...] = ()


@dataclass(frozen=True)
class RestartInputs:
    """What the restart coordinator reads once."""

    mode: Optional[RestartMode]     # the protocol's (None: no protocol)
    lost: Tuple[int, ...]           # ranks whose node died, or moved
    alive: FrozenSet[str]           # the view's live nodes
    placement: Mapping[int, str]
    moves: Mapping = field(default_factory=dict)       # rank -> its node
    replicas: Mapping = field(default_factory=dict)    # rank -> backups
    level: str = "vm"
    world_version: int = 0
    stored: Mapping = field(default_factory=dict)  # rank -> StoredVersions
    committed: Tuple[int, ...] = ()
    load: Mapping = field(default_factory=dict)  # schedulable node -> ranks
    archs: Mapping = field(default_factory=dict)  # node -> Architecture


@dataclass(frozen=True)
class RestartPlan:
    """Where the application resumes; read-only at every daemon."""

    #: The protocol's mode, or ``COORDINATED`` from the initial state when
    #: a lost rank has no live copy left (or there is no protocol).
    mode: RestartMode
    #: Every rank that respawns -> its version (``None``: initial state).
    line: Mapping[int, Optional[int]]
    promote: Mapping[int, str]      # lost rank -> its promoted copy's node
    replicas: Mapping[int, Tuple[str, ...]]
    placement: Mapping[int, str]
    #: The nodes whose daemons host the app's lightweight group.
    hosting: FrozenSet[str]
    world_version: int


def plan_restart(inputs: RestartInputs) -> RestartPlan:
    """The restart decision.  Raises :class:`PlacementError` when a lost
    rank has nowhere to go."""
    mode, lost = inputs.mode, sorted(inputs.lost)
    promote = _promotions(inputs) if mode is RestartMode.FAILOVER else None
    if promote is not None:
        # No replacement nodes, no respawns: each copy takes over in place.
        line, replicas = {}, {}
        for rank, backups in inputs.replicas.items():
            keep = tuple(n for n in backups
                         if n in inputs.alive and n != promote.get(rank))
            if keep:
                replicas[rank] = keep
        placement = {**inputs.placement, **promote}
    else:
        if mode is RestartMode.UNCOORDINATED:
            line = _dependency_line(inputs)
        elif mode is RestartMode.LOG_REPLAY:
            line = {rank: max(_usable(inputs, rank), default=None)
                    for rank in lost}
        else:
            mode = RestartMode.COORDINATED
            line = dict.fromkeys(sorted(inputs.placement),
                                 _committed_line(inputs))
        promote, replicas = {}, dict(inputs.replicas)
        placement = dict(inputs.placement)
        for rank in lost:
            placement[rank] = inputs.moves.get(rank) or least_loaded(
                _candidates(inputs, rank, line.get(rank)), 1)[0]
    return RestartPlan(
        mode=mode, line=line, promote=promote, replicas=replicas,
        placement=placement,
        hosting=frozenset(placement.values()).union(*replicas.values()),
        # The world only changes when everyone rolls back: a promoted copy
        # or a solo-replayed rank rejoins the world the survivors are in.
        world_version=inputs.world_version + (0 if mode.solo else 1))


def _promotions(inputs: RestartInputs):
    """Lost rank -> its first live backup, or ``None`` if some lost rank
    has none left (k exhausted: start the app over)."""
    promote = {}
    for rank in sorted(inputs.lost):
        survivors = [n for n in inputs.replicas.get(rank, ())
                     if n in inputs.alive]
        if not survivors:
            return None
        promote[rank] = survivors[0]
    return promote


def _usable(inputs: RestartInputs, rank: int) -> List[int]:
    return [s.version for s in inputs.stored.get(rank, ()) if s.usable]


def _committed_line(inputs: RestartInputs) -> Optional[int]:
    """The latest committed version restorable for every rank: diskless
    copies held on a crashed node are gone, and under a replicated store
    versions whose replicas the coordinator cannot reach do not count."""
    usable = [set(_usable(inputs, rank)) for rank in inputs.placement]
    return next((v for v in sorted(inputs.committed, reverse=True)
                 if all(v in versions for versions in usable)), None)


def _dependency_line(inputs: RestartInputs):
    """Every rank restarts from the recovery line on the rollback-
    dependency graph (the survivors' volatile state is discarded).  Only a
    rank's usable *prefix* counts: the cut's indices are its versions, and
    a version that cannot be restored anchors nothing after it either."""
    ranks = sorted(inputs.placement)
    graph = DependencyGraph(ranks)
    for rank in ranks:
        prefix = list(takewhile(lambda s: s.usable,
                                inputs.stored.get(rank, ())))
        graph.ckpt_count[rank] = len(prefix)
        for dep in dict.fromkeys(prefix[-1].deps if prefix else ()):
            graph.record_message(dep[0], dep[1], rank, dep[2])
    cut = compute_recovery_line(graph, failed=ranks).cut
    return {rank: v if v >= 0 else None for rank, v in cut.items()}


def _candidates(inputs: RestartInputs, rank: int, version: Optional[int]):
    """``(load, node)`` of the schedulable nodes ``rank`` may restart on:
    a native-level image restores only on the data representation that
    wrote it (paper §4)."""
    archs = {s.version: s.arch for s in inputs.stored.get(rank, ())}
    need = arch_by_name(archs[version]) \
        if inputs.level == "native" and version in archs else None
    return [(load, node) for node, load in inputs.load.items()
            if need is None or (node in inputs.archs and
                                inputs.archs[node].same_representation(need))]


def least_loaded(candidates, count: int) -> List[str]:
    """``count`` node ids out of ``(ranks hosted, node id)`` pairs, least
    loaded first and round-robin past the end; ties go to the lower id."""
    ranked = sorted(candidates)
    if not ranked:
        raise PlacementError("no schedulable nodes")
    return [ranked[i % len(ranked)][1] for i in range(count)]


def restart_coordinator(members, placement: Mapping[int, str], alive):
    """The view member that plans an app's restart, or ``None``: the lowest
    member on a live node hosting one of its ranks, else the lowest of
    all.  Every daemon computes it before any plan exists."""
    hosts = {n for n in placement.values() if n in alive}
    return min([m for m in members if m.node in hosts] if hosts
               else members, default=None)
