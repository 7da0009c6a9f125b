"""Starfish core (system S13) — the paper's contribution, assembled.

* :class:`~repro.core.starfish.StarfishCluster` — boots a daemon on every
  node of a simulated cluster, joins them into the Starfish group, and
  offers submission, clients, and fault injection;
* :class:`~repro.core.program.StarfishProgram` — the application
  programming model (explicit state container + step-structured execution,
  the repo's substitution for process-image checkpointing — see DESIGN.md);
* :class:`~repro.core.runtime.AppProcess` — one application process:
  group handler, MPI module, VNI, C/R module and scheduler, wired by
  direct upcalls (Figure 1 of the paper);
* :class:`~repro.core.appspec.AppSpec` / ``CheckpointConfig`` — what a
  client submits;
* :mod:`repro.core.policies` — the fault-tolerance policies of §3.2.2.
"""

from repro.cluster.spec import ClusterSpec
from repro.core.appspec import AppSpec, CheckpointConfig
from repro.core.metrics import ClusterMetrics
from repro.core.policies import FaultPolicy
from repro.core.program import ProgramContext, StarfishProgram, ViewInfo
from repro.core.starfish import AppHandle, StarfishCluster

__all__ = [
    "AppHandle",
    "AppSpec",
    "CheckpointConfig",
    "ClusterMetrics",
    "ClusterSpec",
    "FaultPolicy",
    "ProgramContext",
    "StarfishCluster",
    "StarfishProgram",
    "ViewInfo",
]
