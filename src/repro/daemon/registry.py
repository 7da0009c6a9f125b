"""Replicated application registry.

Every daemon holds a replica whose mutations are applied from
totally-ordered main-group casts, so any daemon can answer any client's
queries and any daemon can take over an application's recovery.  The
replicas agree in every field but two: while an application runs,
``done_ranks`` / ``results`` are application-scoped (DESIGN §21) — exact at
the app authority, a hosting daemon's own ranks there, empty elsewhere —
and become identical again when the authority's ``app-done`` is applied.
What the submit fixes for the application's life (:data:`SPEC_FIELDS`) is
not replicated at all: every daemon that applied the same cast holds the
same read-only ``spec`` by reference.  The containers a replica does change
(``placement``, ``results``, ``done_ranks``, ``replicas``) are replaced on
every change, never written in place, so a fresh replica starts out on the
cast's own and copies nothing.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import UnknownApplication


class AppStatus(enum.Enum):
    RUNNING = "running"
    SUSPENDED = "suspended"
    RESTARTING = "restarting"
    DONE = "done"
    FAILED = "failed"
    KILLED = "killed"


#: What a submit fixes for the application's life, read from a record's
#: ``spec``: ``owner``, ``program`` (a program class, opaque to the daemon),
#: ``params``, ``ft_policy`` ("kill" | "view-notify" | "restart"),
#: ``ckpt_protocol`` (None or a C/R protocol name), ``ckpt_level`` ("native"
#: | "vm"), ``ckpt_interval``, ``transport`` and ``polling``.
SPEC_FIELDS = ("owner", "program", "params", "ft_policy", "ckpt_protocol",
               "ckpt_level", "ckpt_interval", "transport", "polling")


def _spec_field(name: str) -> property:
    return property(lambda record: record.spec[name],
                    doc=f"``spec[{name!r}]``, fixed at submit")


@dataclass
class AppRecord:
    """One application as a daemon sees it."""

    app_id: str
    #: The mapping the record was made from (the ``app-submit`` blob, or a
    #: state transfer's), shared by reference with every daemon that
    #: applied it and never written: only its :data:`SPEC_FIELDS` are read.
    spec: Mapping[str, Any]
    nprocs: int
    placement: Dict[int, str]      # world rank -> node id
    status: AppStatus = AppStatus.RUNNING
    #: Results of finished ranks, as far as known here until ``DONE``.
    results: Dict[int, Any] = field(default_factory=dict)
    #: Ranks that have finished, as far as known here until ``DONE``.
    done_ranks: List[int] = field(default_factory=list)
    restarts: int = 0
    world_version: int = 0
    #: Active replication (protocol "replication"): backup copies per
    #: rank — ``{rank: (node_id, ...)}``, never including the rank's
    #: primary (that stays in ``placement``).  Empty for every other
    #: protocol, and then absent from the record blob so replication
    #: cannot perturb the determinism goldens.
    replicas: Dict[int, Tuple[str, ...]] = field(default_factory=dict)

    owner = _spec_field("owner")
    program = _spec_field("program")
    ft_policy = _spec_field("ft_policy")
    ckpt_protocol = _spec_field("ckpt_protocol")
    ckpt_level = _spec_field("ckpt_level")
    ckpt_interval = _spec_field("ckpt_interval")
    transport = _spec_field("transport")
    polling = _spec_field("polling")

    @property
    def params(self) -> Mapping[str, Any]:
        """The program's parameters, read-only: every daemon that applied
        the submit shares them."""
        return MappingProxyType(self.spec["params"])

    def hosted_on(self, node_id: str) -> bool:
        """Whether ``node_id`` hosts a rank or a backup copy — without
        :meth:`ranks_on`'s sort or :meth:`copies_on`'s scan."""
        if node_id in self.placement.values():
            return True
        for backups in self.replicas.values():
            if node_id in backups:
                return True
        return False

    def ranks_on(self, node_id: str) -> List[int]:
        return sorted(r for r, n in self.placement.items() if n == node_id)

    def copies_on(self, node_id: str) -> List[Tuple[int, int]]:
        """Backup copies hosted on ``node_id`` as ``(rank, copy_index)``
        pairs (copy_index >= 1; the primary is copy 0 via ``ranks_on``)."""
        out = []
        for rank in sorted(self.replicas):
            for i, nid in enumerate(self.replicas[rank]):
                if nid == node_id:
                    out.append((rank, i + 1))
        return out

    def nodes(self) -> List[str]:
        return sorted(set(self.placement.values()))

    @property
    def finished(self) -> bool:
        return self.status in (AppStatus.DONE, AppStatus.FAILED,
                               AppStatus.KILLED)


class Registry:
    """The per-daemon replica of all application records."""

    def __init__(self):
        self._apps: Dict[str, AppRecord] = {}
        #: Sorted ids :meth:`active` still has to look at: every id added,
        #: minus those it has already seen finished or removed.
        self._live: List[str] = []

    def add(self, record: AppRecord) -> None:
        self._apps[record.app_id] = record
        at = bisect_left(self._live, record.app_id)
        if self._live[at:at + 1] != [record.app_id]:
            self._live.insert(at, record.app_id)

    def get(self, app_id: str) -> AppRecord:
        rec = self._apps.get(app_id)
        if rec is None:
            raise UnknownApplication(f"unknown application {app_id!r}")
        return rec

    def maybe(self, app_id: str) -> Optional[AppRecord]:
        return self._apps.get(app_id)

    def remove(self, app_id: str) -> None:
        self._apps.pop(app_id, None)

    def all(self) -> List[AppRecord]:
        return [self._apps[k] for k in sorted(self._apps)]

    def active(self) -> List[AppRecord]:
        """Unfinished records in ``app_id`` order.  A finished status is
        final, so a record seen finished here is never looked at again: a
        daemon heartbeat costs the running applications, not every
        application ever submitted."""
        out = [r for r in map(self._apps.get, self._live)
               if r is not None and not r.finished]
        if len(out) < len(self._live):
            self._live = [r.app_id for r in out]
        return out

    def __contains__(self, app_id: str) -> bool:
        return app_id in self._apps

    def __len__(self) -> int:
        return len(self._apps)
