"""Named, ready-to-run fault campaigns (the ``repro chaos`` registry).

A :class:`Campaign` bundles a default cluster size, a workload factory
and a plan factory.  Plans are *campaign-relative*: time 0 is the moment
the runner applies the plan (right after the booted group settles).

The ``standard`` campaign is the acceptance gate exercised across every
C/R protocol x FT policy pair by the ``CAMPAIGN-MATRIX`` row of
``benchmarks/paper.py``:
a crash of an app-hosting node, recovery, a partition that isolates a
spare node (healing itself), and a frame-loss window on the Ethernet
control path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.cluster.spec import ClusterSpec
from repro.core.appspec import AppSpec, CheckpointConfig
from repro.core.policies import FaultPolicy
from repro.errors import CampaignError
from repro.faults.actions import (CrashNode, DaemonPause, FrameLossWindow,
                                  Partition, RecoverNode)
from repro.faults.invariants import ALL_CHECKERS, CheckpointSurvivability
from repro.faults.plan import FaultPlan


def _default_workload(protocol: Optional[str], policy, nodes: int) -> AppSpec:
    """A deterministic, crash-spanning workload: ComputeSleep stretches
    virtual time well past the last fault, and its per-rank results (the
    number of steps each rank executed) make golden-run comparison
    exact."""
    from repro.apps import ComputeSleep
    checkpoint = (CheckpointConfig(protocol=protocol, level="vm",
                                   interval=0.8,
                                   replicas=2 if protocol == "replication"
                                   else 1)
                  if protocol is not None else CheckpointConfig())
    return AppSpec(program=ComputeSleep, nprocs=3,
                   params={"steps": 30, "step_time": 0.25,
                           "state_bytes": 4096},
                   ft_policy=FaultPolicy.of(policy),
                   checkpoint=checkpoint)


@dataclass(frozen=True)
class Campaign:
    """A named fault schedule + workload combination."""

    name: str
    description: str
    plan: Callable[[str, int], FaultPlan]       # (app_id, nodes) -> plan
    workload: Callable[[Optional[str], Any, int], AppSpec] = _default_workload
    nodes: int = 5
    #: Optional base ClusterSpec (runner overrides nodes/seed).
    cluster_spec: Optional[Any] = None
    #: False for campaigns that are *supposed* to kill the system (the
    #: runner/bench then expects a typed StarfishError, not completion).
    expect_completion: bool = True
    #: Optional checker suite override (``None`` = ALL_CHECKERS).
    checkers: Optional[Tuple[Any, ...]] = None


def _jacobi_workload(protocol: Optional[str], policy, nodes: int) -> AppSpec:
    """A communication-heavy workload (nearest-neighbour halo exchange +
    one allreduce per step): under the message-logging protocols the
    crashed rank's replay actually has channel history to re-feed, and
    the converged residual makes golden-run comparison exact."""
    from repro.apps import Jacobi1D
    checkpoint = (CheckpointConfig(protocol=protocol, level="native",
                                   interval=0.8,
                                   replicas=2 if protocol == "replication"
                                   else 1)
                  if protocol is not None else CheckpointConfig())
    return AppSpec(program=Jacobi1D, nprocs=3,
                   params={"n": 120, "iterations": 150, "iters_per_step": 10,
                           "compute_ns_per_cell": 500_000},
                   ft_policy=FaultPolicy.of(policy),
                   checkpoint=checkpoint)


def _solo_crash_plan(app_id: str, nodes: int) -> FaultPlan:
    return (FaultPlan()
            .at(1.2, CrashNode(pick="app-host", app_id=app_id))
            .at(3.0, RecoverNode()))


def _standard_plan(app_id: str, nodes: int) -> FaultPlan:
    return (FaultPlan()
            .at(1.0, CrashNode(pick="app-host", app_id=app_id))
            .at(2.5, RecoverNode())
            .at(4.0, Partition(isolate="spare", app_id=app_id,
                               duration=1.0))
            .at(6.0, FrameLossWindow(prob=0.05, duration=1.0,
                                     fabric="tcp-ethernet")))


def _crash_recover_plan(app_id: str, nodes: int) -> FaultPlan:
    return (FaultPlan()
            .at(1.0, CrashNode(pick="app-host", app_id=app_id))
            .at(3.0, RecoverNode()))


def _partition_flap_plan(app_id: str, nodes: int) -> FaultPlan:
    return (FaultPlan()
            .at(1.0, Partition(isolate="spare", app_id=app_id, duration=0.8))
            .at(3.0, Partition(isolate="spare", app_id=app_id, duration=0.8)))


def _loss_soak_plan(app_id: str, nodes: int) -> FaultPlan:
    return (FaultPlan()
            .randomly(2, 0.5, 4.0,
                      FrameLossWindow(prob=0.08, duration=0.75,
                                      fabric="tcp-ethernet")))


def _pause_plan(app_id: str, nodes: int) -> FaultPlan:
    return (FaultPlan()
            .at(1.0, DaemonPause(duration=1.0, pick="spare",
                                 app_id=app_id)))


def _crash_burst_plan(app_id: str, nodes: int) -> FaultPlan:
    """Two spaced crash/recover pairs, each landing on an app host after
    at least one recovery line has committed (interval 0.8) — the
    k-replicated store must keep every committed line restorable
    throughout (at most k-1 = 1 node is ever down at once)."""
    return (FaultPlan()
            .at(1.2, CrashNode(pick="app-host", app_id=app_id))
            .at(2.8, RecoverNode())
            .at(4.4, CrashNode(pick="app-host", app_id=app_id))
            .at(6.0, RecoverNode()))


def _fleet_churn_plan(app_id: str, nodes: int) -> FaultPlan:
    """The fleet control plane's churn schedule (see
    :mod:`repro.fleet.campaign`, which layers tenants + a controller on
    the same timeline): degrade ``n3``'s disk, open a loss window, crash
    and recover ``n3``, then crash and recover the last node."""
    from repro.faults.actions import DiskSlowdown
    last = f"n{nodes - 1}"
    return (FaultPlan()
            .at(1.5, DiskSlowdown(node="n3", factor=6.0, duration=3.0))
            .at(4.5, FrameLossWindow(prob=0.05, duration=1.0,
                                     fabric="tcp-ethernet"))
            .at(6.0, CrashNode(node="n3", cause="fleet-churn"))
            .at(8.0, RecoverNode(node="n3"))
            .at(9.0, CrashNode(node=last, cause="fleet-churn"))
            .at(11.0, RecoverNode(node=last)))


def _blackout_plan(app_id: str, nodes: int) -> FaultPlan:
    plan = FaultPlan()
    for i in range(nodes):
        plan.at(1.0 + 0.1 * i, CrashNode(node=f"n{i}", cause="blackout"))
    return plan


CAMPAIGNS: Dict[str, Campaign] = {c.name: c for c in (
    Campaign(
        name="standard",
        description="crash an app host, recover it, isolate+heal a spare "
                    "node, then a 1s Ethernet loss window",
        plan=_standard_plan),
    Campaign(
        name="crash-recover",
        description="crash one app-hosting node, recover it 2s later",
        plan=_crash_recover_plan),
    Campaign(
        name="partition-flap",
        description="twice isolate a spare node for 0.8s (merge-on-heal)",
        plan=_partition_flap_plan),
    Campaign(
        name="loss-soak",
        description="two seeded-random 0.75s Ethernet loss windows",
        plan=_loss_soak_plan),
    Campaign(
        name="daemon-pause",
        description="freeze a spare node's daemon for 1s (suspect, "
                    "exclude, gossip re-merge)",
        plan=_pause_plan),
    Campaign(
        name="store-crash-burst",
        description="two spaced app-host crashes against a k=2 replicated "
                    "checkpoint store; CheckpointSurvivability(k) must stay "
                    "green (every committed line restorable)",
        plan=_crash_burst_plan,
        cluster_spec=ClusterSpec(replication_factor=2),
        checkers=ALL_CHECKERS + (CheckpointSurvivability(),)),
    Campaign(
        name="tier-failover",
        description="two spaced app-host crashes against the full "
                    "L1-memory/L2-disk/L3-fabric tiered store with delta "
                    "checkpoints; recovery shrinks to the fastest "
                    "surviving tier and CheckpointSurvivability(k) must "
                    "stay green",
        plan=_crash_burst_plan,
        cluster_spec=ClusterSpec(
            store_tiers=("memory", "disk", "fabric"),
            replication_factor=2, delta_depth=3),
        checkers=ALL_CHECKERS + (CheckpointSurvivability(),)),
    Campaign(
        name="solo-crash",
        description="crash one app-hosting node mid-exchange under a "
                    "message-passing workload, recover it later; built for "
                    "the logging protocols' single-rank restart (but runs "
                    "under any protocol)",
        plan=_solo_crash_plan,
        workload=_jacobi_workload),
    Campaign(
        name="replica-failover",
        description="crash a primary-hosting node under active rank "
                    "replication (k=2), recover it later; the rank fails "
                    "over to its surviving copy with zero ranks restarted "
                    "and no rollback wave (runs under any protocol; only "
                    "'replication' places copies)",
        plan=_solo_crash_plan),
    Campaign(
        name="fleet-churn",
        description="the fleet control plane's churn schedule: disk "
                    "slowdown on n3, an Ethernet loss window, crash + "
                    "recover n3, crash + recover the last node",
        plan=_fleet_churn_plan,
        nodes=8),
    Campaign(
        name="blackout",
        description="crash every node; the run must fail with a typed "
                    "MajorityLost, never hang",
        plan=_blackout_plan,
        expect_completion=False),
)}


def get_campaign(name: str) -> Campaign:
    try:
        return CAMPAIGNS[name]
    except KeyError:
        known = ", ".join(sorted(CAMPAIGNS))
        raise CampaignError(
            f"unknown campaign {name!r} (known: {known})") from None
