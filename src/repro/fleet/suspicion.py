"""Failure suspicion from observability signals.

The scorer turns ``repro.obs`` signals into a per-node **SuspicionScore**
in ``[0, 1]``; the controller proactively drains nodes whose score
crosses the threshold *before* they crash (the agent-intelligence
fault-tolerance idea: pay a cheap planned migration instead of an
expensive recovery).

The formula (documented in DESIGN.md §18)::

    score(n) = min(1,  W_MISSED * missed_heartbeats(n)
                     + W_DISK   * [disk slowdown active on n]
                     + W_LOSS   * [frame-loss window active])

and a node is suspect at ``score >= THRESHOLD``.

Inputs come from two places, both already structured:

* ``missed_heartbeats`` — the :class:`~repro.fleet.view.FleetView` row
  (a paused or wedged daemon stops producing payloads);
* fault windows — ``fault.inject`` events in the registry's event log:
  ``disk-slowdown`` / ``disk-slowdown-end`` carry the affected nodes,
  ``frame-loss`` / ``frame-loss-end`` are fabric-global (so they weigh
  below the threshold on their own — a lossy network is not one sick
  node).
"""

from __future__ import annotations

from typing import Set

from repro.fleet.view import FleetView, NodeHealth

#: Weight of each consecutive missed heartbeat.
W_MISSED = 0.25
#: Weight of an active disk slowdown on the node.
W_DISK = 0.6
#: Weight of an active fabric-wide frame-loss window.
W_LOSS = 0.2
#: Score at or above which a node is suspect: one sick disk or two missed
#: beats is suspect, a loss window alone is not.
THRESHOLD = 0.5


def _node_set(fields) -> Set[str]:
    """The ``nodes`` CSV field as a set, dropping empties: a missing or
    empty field must mean *no* nodes, not the phantom node ``""`` that
    ``"".split(",")`` produces (it can never be removed by a well-formed
    ``-end`` event and quietly pollutes ``_slow_disks`` forever)."""
    return {n for n in str(fields.get("nodes", "")).split(",") if n}


class SuspicionScorer:
    """Incremental scorer over the engine's ``fault.inject`` events."""

    def __init__(self, registry):
        self._registry = registry
        #: Emission-seq cursor: events with ``seq < _seen`` were already
        #: folded in.  Must NOT be a position into ``records(...)`` —
        #: that list is rebuilt from a bounded ring, so once the log
        #: wraps, positions shift under the cursor and fresh
        #: ``fault.inject`` events get skipped or double-counted.
        self._seen = 0
        #: Nodes with an active disk slowdown.
        self._slow_disks: Set[str] = set()
        #: Open fabric-wide frame-loss windows.
        self._loss_depth = 0

    def _ingest(self) -> None:
        """Fold fault events emitted since the last call."""
        log = self._registry.events
        seen = self._seen
        for ev in log.records("fault.inject"):
            if ev.seq < seen:
                continue
            fields = ev.field_dict
            action = fields.get("action")
            if action == "disk-slowdown":
                self._slow_disks |= _node_set(fields)
            elif action == "disk-slowdown-end":
                self._slow_disks -= _node_set(fields)
            elif action == "frame-loss":
                self._loss_depth += 1
            elif action == "frame-loss-end":
                self._loss_depth = max(0, self._loss_depth - 1)
        # Anything emitted after this point gets a seq >= emitted.
        self._seen = log.emitted

    def update(self, view: FleetView) -> None:
        """Re-score every known node; annotates the view rows in place."""
        self._ingest()
        for info in view.nodes.values():
            if info.health is NodeHealth.DOWN:
                info.suspicion = 1.0
                info.suspect = True
                continue
            score = W_MISSED * info.missed
            if info.node_id in self._slow_disks:
                score += W_DISK
            if self._loss_depth:
                score += W_LOSS
            info.suspicion = min(1.0, score)
            info.suspect = info.suspicion >= THRESHOLD
