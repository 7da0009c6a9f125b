"""The fleet's per-node state, built from daemon heartbeats.

:class:`FleetView` is the controller's "fleet database" (the
``master_control`` exemplar's central table): one :class:`NodeInfo` row
per node, fed by the structured payloads of
:meth:`repro.daemon.StarfishDaemon.heartbeat` — liveness, hosted ranks,
replica copies, and checkpoint-store bytes.  The suspicion scorer
(:mod:`repro.fleet.suspicion`) annotates rows in place; the scheduler
reads :meth:`FleetView.eligible` and never sees cordoned, draining,
suspect, or down nodes.

Drain state machine (one row's ``health``)::

    ACTIVE --cordon--> CORDONED --drain--> DRAINING --empty--> DRAINED
      ^                                                          |
      +------------------------- uncordon -----------------------+

    any state --node crash--> DOWN --heartbeat after reboot--> ACTIVE
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

#: The controller's heartbeat-collection period (its tick), seconds.
TICK = 0.25


class NodeHealth(enum.Enum):
    """Administrative health of one node (the drain state machine)."""

    ACTIVE = "active"          # schedulable
    CORDONED = "cordoned"      # no new work; existing work stays
    DRAINING = "draining"      # no new work; ranks being migrated off
    DRAINED = "drained"        # cordoned and empty of primary ranks
    DOWN = "down"              # crashed (not an admin state)


@dataclass
class NodeInfo:
    """One row of the fleet database."""

    node_id: str
    health: NodeHealth = NodeHealth.ACTIVE
    #: Time of the last heartbeat payload observed (-1 = never).
    last_heartbeat: float = -1.0
    #: Consecutive collection periods without a heartbeat.
    missed: int = 0
    ranks: int = 0
    copies: int = 0
    apps: Tuple[str, ...] = ()
    store_bytes: int = 0
    epoch: int = -1
    #: Annotated by the SuspicionScorer.
    suspicion: float = 0.0
    suspect: bool = False
    #: True when the *controller* drained this node off a suspicion
    #: signal (such drains auto-uncordon once the signal clears;
    #: operator-requested drains never do).
    auto_drained: bool = False

    def snapshot(self) -> Dict[str, object]:
        """JSON-able row for the ControlAPI's ``nodes`` endpoint."""
        return {
            "node": self.node_id, "health": self.health.value,
            "last_heartbeat": self.last_heartbeat, "missed": self.missed,
            "ranks": self.ranks, "copies": self.copies,
            "apps": list(self.apps), "store_bytes": self.store_bytes,
            "epoch": self.epoch,
            "suspicion": round(self.suspicion, 6), "suspect": self.suspect,
        }


@dataclass
class FleetView:
    """Per-node liveness + load, refreshed once per collection tick.

    A node whose last payload is older than one :data:`TICK` is
    accumulating missed beats (a paused daemon produces exactly this
    signature — the node is up but its daemon stopped answering).
    """

    nodes: Dict[str, NodeInfo] = field(default_factory=dict)

    def row(self, node_id: str) -> NodeInfo:
        info = self.nodes.get(node_id)
        if info is None:
            info = self.nodes[node_id] = NodeInfo(node_id)
        return info

    def observe(self, payload: Dict[str, object], now: float) -> NodeInfo:
        """Fold one daemon heartbeat payload into the view."""
        info = self.row(str(payload["node"]))
        info.last_heartbeat = now
        info.missed = 0
        info.ranks = int(payload.get("ranks", 0))
        info.copies = int(payload.get("copies", 0))
        info.apps = tuple(payload.get("apps", ()))
        info.store_bytes = int(payload.get("store_bytes", 0))
        info.epoch = int(payload.get("epoch", -1))
        if info.health is NodeHealth.DOWN:
            # A rebooted node heartbeats again: back to schedulable.
            info.health = NodeHealth.ACTIVE
            info.auto_drained = False
        return info

    def refresh(self, now: float, down_nodes: Iterable[str]) -> None:
        """Mark crashed nodes and count missed beats for silent ones."""
        down = set(down_nodes)
        for info in self.nodes.values():
            if info.node_id in down:
                info.health = NodeHealth.DOWN
                info.ranks = info.copies = 0
                info.apps = ()
                continue
            if info.last_heartbeat < 0:
                continue
            info.missed = max(0, int((now - info.last_heartbeat)
                                     / TICK + 1e-9) - 1)

    # ------------------------------------------------------------------
    # scheduler-facing queries
    # ------------------------------------------------------------------

    def eligible(self) -> List[str]:
        """Sorted ids of nodes the scheduler may place new work on."""
        return sorted(nid for nid, info in self.nodes.items()
                      if info.health is NodeHealth.ACTIVE
                      and not info.suspect)

    def loads(self) -> Dict[str, int]:
        """Hosted primary ranks per node (all known nodes)."""
        return {nid: info.ranks for nid, info in sorted(self.nodes.items())}

    def snapshot(self) -> List[Dict[str, object]]:
        return [self.nodes[nid].snapshot() for nid in sorted(self.nodes)]
