"""The one cluster-construction surface: :class:`ClusterSpec`.

A :class:`ClusterSpec` is the single keyword-only description of a
simulated cluster that all three builders consume:

    spec = ClusterSpec(nodes=8, seed=42)
    sf = StarfishCluster.build(spec=spec)          # system
    cluster = Cluster.build(spec=spec)             # bare hardware
    engine = Engine.from_spec(spec)                # just the kernel

The two ``build`` methods also take the spec's fields as keywords
(``StarfishCluster.build(nodes=8, seed=42)``), which become one spec, so
there is exactly one place where defaults and validation live.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

if TYPE_CHECKING:  # avoid a cluster -> gcs import at runtime (layering)
    from repro.cluster.arch import Architecture


@dataclass(frozen=True, kw_only=True)
class ClusterSpec:
    """Everything needed to build a simulated cluster, in one place.

    The fields cover all three construction layers: the simulation kernel
    (``seed``, ``trace``, ``telemetry``), the hardware substrate
    (``nodes``, ``archs``, ``loss_prob``) and the Starfish system on top
    (``gcs_config``, ``users`` — ignored by the lower layers).
    """

    #: Number of workstations (named ``n0`` .. ``n{nodes-1}``).
    nodes: int = 4
    #: Master seed of the engine's named RNG streams.
    seed: int = 0
    #: Architecture cycle for heterogeneous clusters (``None`` = all
    #: :data:`~repro.cluster.arch.DEFAULT_ARCH`).
    archs: Optional[Tuple["Architecture", ...]] = None
    #: Ambient frame-loss probability on both fabrics (seeded stream
    #: ``net.loss``).  For a *windowed* loss fault, prefer
    #: :class:`repro.faults.FrameLossWindow`.
    loss_prob: float = 0.0
    #: Record a per-event trace (``repro.obs`` Chrome export).
    trace: bool = False
    #: Enable the metrics registry (``False`` swaps in no-op instruments).
    telemetry: bool = True
    #: Group-communication tunables (``None`` = ``GcsConfig()`` defaults).
    gcs_config: Optional[Any] = None
    #: Client accounts as ``{user: (password, is_mgmt)}`` (``None`` =
    #: :data:`repro.daemon.daemon.DEFAULT_USERS`).
    users: Optional[Dict[str, Tuple[str, bool]]] = None
    #: Checkpoint replication factor of :class:`repro.store.
    #: CheckpointStore`.  ``None`` (default) is the paper's idealized
    #: stable storage: a dumped image has no holder and cannot be lost.
    #: An int ``>= 1`` makes durability honest and node-local — k copies
    #: per record (the writer's disk + its k-1 ring successors), repaired
    #: after failures when ``k >= 2``.
    replication_factor: Optional[int] = None
    #: Storage tiers the checkpoint store walks.  ``None`` (default) is
    #: the single ``disk`` tier; a tuple drawn from :data:`STORE_TIERS`
    #: (e.g. ``("memory", "disk", "fabric")``, stored fastest-first)
    #: builds the L1/L2/L3 hierarchy.  The replica width of the
    #: memory/fabric levels is ``replication_factor`` (default 2 when
    #: unset).
    store_tiers: Optional[Tuple[str, ...]] = None
    #: Delta-checkpoint chain depth (needs ``store_tiers``): ``0`` dumps
    #: full images; ``n > 0`` stores up to ``n`` incremental images
    #: between full bases.
    delta_depth: int = 0
    #: Tier promotion policy (needs ``store_tiers``): ``write-through``
    #: waits for every tier inside the dump; ``write-back`` returns
    #: after the fastest tier and flushes the rest in the background.
    tier_policy: str = "write-through"
    #: Schedule-perturbation seed (``repro.check``).  ``None`` (default)
    #: keeps the untouched deterministic schedule; an int installs a
    #: :class:`repro.check.SchedulePerturbation` on the engine that
    #: shuffles same-instant event ordering.  Independent of ``seed``.
    perturb_seed: Optional[int] = None
    #: Per-frame delivery jitter bound in simulated seconds (requires
    #: ``perturb_seed``); ``0.0`` leaves wire times untouched.
    delivery_jitter: float = 0.0

    def __post_init__(self):
        if self.nodes < 1:
            raise ValueError(f"ClusterSpec.nodes must be >= 1, got {self.nodes}")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError(
                f"ClusterSpec.loss_prob must be in [0, 1), got {self.loss_prob}")
        if self.archs is not None and not isinstance(self.archs, tuple):
            object.__setattr__(self, "archs", tuple(self.archs))
        if self.replication_factor is not None \
                and self.replication_factor < 1:
            raise ValueError(
                "ClusterSpec.replication_factor must be None or >= 1, "
                f"got {self.replication_factor}")
        if self.delivery_jitter < 0:
            raise ValueError(
                "ClusterSpec.delivery_jitter must be >= 0, "
                f"got {self.delivery_jitter}")
        if self.delivery_jitter > 0 and self.perturb_seed is None:
            raise ValueError(
                "ClusterSpec.delivery_jitter needs a perturb_seed (the "
                "jitter draws come from the perturbation's seeded stream)")
        if self.store_tiers is not None:
            object.__setattr__(self, "store_tiers",
                               normalize_tiers(self.store_tiers))
        if self.delta_depth < 0:
            raise ValueError(
                f"ClusterSpec.delta_depth must be >= 0, got "
                f"{self.delta_depth}")
        if self.delta_depth > 0 and self.store_tiers is None:
            raise ValueError(
                "ClusterSpec.delta_depth needs store_tiers")
        if self.tier_policy not in TIER_POLICIES:
            raise ValueError(
                f"ClusterSpec.tier_policy must be one of {TIER_POLICIES}, "
                f"got {self.tier_policy!r}")
        if self.tier_policy != "write-through" and self.store_tiers is None:
            raise ValueError(
                "ClusterSpec.tier_policy needs store_tiers")

    def with_(self, **overrides) -> "ClusterSpec":
        """A copy with some fields replaced (specs are frozen)."""
        return replace(self, **overrides)

    @classmethod
    def coalesce(cls, spec: Optional["ClusterSpec"] = None,
                 **fields) -> "ClusterSpec":
        """``spec``, or ``ClusterSpec(**fields)``; passing both is
        ambiguous and a :class:`TypeError`."""
        if spec is None:
            return cls(**fields)
        if fields:
            raise TypeError("pass either spec= or field keywords, not both "
                            f"(got spec and {sorted(fields)})")
        return spec


#: Checkpoint storage tiers, fastest first: partner RAM, the writer's
#: local disk, remote disks over the fabric.  :mod:`repro.store` imports
#: this and :data:`TIER_POLICIES` (this module must not import the store
#: package, layering).
STORE_TIERS = ("memory", "disk", "fabric")

#: Valid ``tier_policy`` names.
TIER_POLICIES = ("write-through", "write-back")


def normalize_tiers(tiers) -> Tuple[str, ...]:
    """Validate a ``store_tiers`` selection and order it fastest-first."""
    tiers = tuple(tiers)
    if not tiers:
        raise ValueError("store_tiers must name at least one tier (or be "
                         "None for the single disk tier)")
    for t in tiers:
        if t not in STORE_TIERS:
            raise ValueError(f"unknown store tier {t!r} (known: "
                             f"{', '.join(STORE_TIERS)})")
    if len(set(tiers)) != len(tiers):
        raise ValueError(f"store_tiers has duplicates: {tiers}")
    return tuple(t for t in STORE_TIERS if t in tiers)
