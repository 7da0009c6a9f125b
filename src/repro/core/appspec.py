"""Application submission specs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Type

from repro.core.policies import FaultPolicy
from repro.errors import DaemonError

#: Largest world size a submission may ask for: four times the 1,024-rank
#: scaling run.  A bound, not an option — without it a mistyped size is
#: queued and placement builds one entry per rank.
MAX_NPROCS = 4096


@dataclass(frozen=True)
class CheckpointConfig:
    """How (and whether) an application is checkpointed.

    ``protocol``: ``None`` (no C/R) or any name in
    :data:`repro.ckpt.protocols.PROTOCOLS` — ``"stop-and-sync"``,
    ``"chandy-lamport"``, ``"uncoordinated"``, ``"diskless"``
    (fast-network buddy checkpointing — the paper's §7 future work),
    ``"sender-logging"`` / ``"causal-logging"`` (message logging with
    solo restart of the crashed rank).
    ``level``: ``"native"`` (homogeneous process dump) or ``"vm"``
    (portable, heterogeneous).
    ``interval``: periodic checkpointing period in simulated seconds, a
    finite number > 0 (``None`` = only on explicit request).
    ``replicas``: copies per rank under active replication
    (``"replication"`` only): 1 primary + ``replicas - 1`` backups on
    distinct nodes, with instant failover instead of rollback.
    """

    protocol: Optional[str] = None
    level: str = "vm"
    interval: Optional[float] = None
    replicas: int = 1

    def __post_init__(self):
        from repro.ckpt.protocols import PROTOCOLS
        if self.protocol is not None and self.protocol not in PROTOCOLS:
            raise DaemonError(f"unknown C/R protocol {self.protocol!r}")
        if self.level not in ("native", "vm"):
            raise DaemonError(f"unknown checkpoint level {self.level!r}")
        if self.interval is not None and not (
                math.isfinite(self.interval) and self.interval > 0):
            raise DaemonError("checkpoint interval must be a finite number "
                              f"> 0, got {self.interval!r}")
        if self.replicas < 1:
            raise DaemonError("replicas must be >= 1")
        if self.replicas > 1 and self.protocol != "replication":
            raise DaemonError(
                "replicas > 1 needs protocol='replication' (rank replica "
                f"groups), got protocol={self.protocol!r}")


@dataclass(frozen=True)
class AppSpec:
    """Everything a client supplies to run an application."""

    program: Type                       # a StarfishProgram subclass
    nprocs: int
    params: Dict[str, Any] = field(default_factory=dict)
    ft_policy: FaultPolicy = FaultPolicy.KILL
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    transport: str = "bip-myrinet"
    polling: bool = True
    owner: str = "local"
    #: Optional explicit placement {rank: node_id}; default is the
    #: daemons' least-loaded placement.
    placement: Optional[Dict[int, str]] = None
    #: Fleet-scheduler metadata (:mod:`repro.fleet`): the accounting
    #: tenant (``None`` = use ``owner``) and the admission priority
    #: (higher admits first; FIFO within a priority band).  Ignored by
    #: direct ``StarfishCluster.submit()`` calls.
    tenant: Optional[str] = None
    priority: int = 0

    def __post_init__(self):
        # The fleet scheduler sorts and groups jobs by these (the tenant is
        # ``tenant or owner``): a wrong type would surface in its loop, far
        # from the caller, so refuse it here (nothing is coerced).
        if not isinstance(self.owner, str):
            raise DaemonError(f"owner must be a str, got {self.owner!r}")
        if self.tenant is not None and not isinstance(self.tenant, str):
            raise DaemonError(
                f"tenant must be None or a str, got {self.tenant!r}")
        if isinstance(self.priority, bool) or \
                not isinstance(self.priority, int):
            raise DaemonError(
                f"priority must be an int, got {self.priority!r}")
        if not 1 <= self.nprocs <= MAX_NPROCS:
            raise DaemonError(
                f"nprocs must be in [1, {MAX_NPROCS}], got {self.nprocs}")
        if self.transport not in ("bip-myrinet", "tcp-ethernet"):
            raise DaemonError(f"unknown transport {self.transport!r}")
        try:    # accept the policy's name; the daemon reads ``.value``
            object.__setattr__(self, "ft_policy",
                               FaultPolicy.of(self.ft_policy))
        except ValueError:
            raise DaemonError(
                f"unknown fault policy {self.ft_policy!r}") from None
