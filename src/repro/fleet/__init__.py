"""The fleet control plane: a multi-tenant orchestrator over Starfish.

Starfish (the paper) is a long-lived daemon fabric that dynamic MPI
programs join and leave; this package supplies the missing service
layer on top of :class:`~repro.core.starfish.StarfishCluster` —
modeled on the ``master_control`` exemplar (central control host +
per-node daemons + heartbeats + fleet database):

* :class:`~repro.fleet.scheduler.JobScheduler` — multi-tenant admission
  queue with per-tenant quotas and deterministic FIFO-within-priority
  ordering;
* :class:`~repro.fleet.view.FleetView` — the fleet database, built from
  structured daemon heartbeats (liveness, ranks, copies, store bytes);
* :class:`~repro.fleet.suspicion.SuspicionScorer` — failure suspicion
  from ``repro.obs`` signals; suspects are proactively drained *before*
  they crash;
* :class:`~repro.fleet.controller.FleetController` — the long-running
  control loop tying the above together (cordon → proactive-migrate →
  confirm-empty);
* :class:`~repro.fleet.api.ControlAPI` /
  :class:`~repro.fleet.http.FleetHTTPServer` — one JSON surface, served
  in-sim and over real HTTP (``repro fleet serve``);
* :class:`~repro.fleet.oracle.FleetOracle` — the invariant gate (no
  quota breach, no placement on forbidden nodes, typed terminal states).

See DESIGN.md §18 for the architecture diagram, the suspicion-score
formula, and the drain state machine.
"""

from repro.fleet.api import ControlAPI
from repro.fleet.campaign import (run_fleet_churn, sweep_fleet_churn,
                                  report_bytes)
from repro.fleet.controller import FleetController
from repro.fleet.http import FleetHTTPServer
from repro.fleet.oracle import FleetOracle
from repro.fleet.scheduler import (Admission, FleetJob, JobScheduler,
                                   JobState, REJECT_PLACEMENT,
                                   REJECT_QUOTA, REJECT_REASONS,
                                   REJECT_SHUTDOWN, TenantQuota)
from repro.fleet.suspicion import SuspicionScorer
from repro.fleet.view import FleetView, NodeHealth, NodeInfo

__all__ = [
    "ControlAPI", "FleetController", "FleetHTTPServer", "FleetOracle",
    "FleetView", "NodeHealth", "NodeInfo",
    "JobScheduler", "FleetJob", "JobState", "Admission", "TenantQuota",
    "REJECT_QUOTA", "REJECT_PLACEMENT", "REJECT_SHUTDOWN",
    "REJECT_REASONS",
    "SuspicionScorer",
    "run_fleet_churn", "sweep_fleet_churn", "report_bytes",
]
