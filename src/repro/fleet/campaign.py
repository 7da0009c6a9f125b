"""The fleet churn scenario: multi-tenant load under node churn.

The end-to-end acceptance run of the fleet control plane (ISSUE 9):
three tenants submit 13 applications against per-tenant quotas on a
16-node cluster while a fault schedule degrades and crashes nodes.  The
headline behavior under test is **proactive migration**: the disk
slowdown on ``n3`` pushes its suspicion score over the threshold, the
controller drains it, and the victim application's rank moves off ``n3``
*before* the scheduled crash — verified by the victim finishing with
``daemon.ranks_restarted == 0`` (it pays ``daemon.ranks_migrated``
instead, which is the whole point).

Deterministic: same ``(nodes, seed, perturb_seed)`` produces a
byte-identical report.  ``sweep_fleet_churn`` re-runs the scenario
across perturbation seeds with the FleetOracle as the gate
(``repro fleet churn --seeds N``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.cluster import ClusterSpec
from repro.core.appspec import AppSpec, CheckpointConfig
from repro.core.policies import FaultPolicy
from repro.core.starfish import StarfishCluster
from repro.errors import CampaignError
from repro.faults.actions import (CrashNode, DiskSlowdown, FrameLossWindow,
                                  RecoverNode)
from repro.faults.plan import FaultPlan
from repro.fleet.controller import FleetController
from repro.fleet.oracle import FleetOracle
from repro.fleet.scheduler import JobState, TenantQuota
from repro.gcs import GcsConfig

TENANTS = ("acme", "globex", "initech")

#: Node degraded, drained, and finally crashed (the proactive-migration
#: victim's third rank starts here).
SUSPECT_NODE = "n3"
#: Campaign-relative fault schedule (see :func:`_churn_plan`).
CRASH_AT = 6.0


def _churn_plan(nodes: int) -> FaultPlan:
    """Degrade ``n3``, then crash it; later crash the last node too."""
    last = f"n{nodes - 1}"
    return (FaultPlan()
            .at(1.5, DiskSlowdown(node=SUSPECT_NODE, factor=6.0,
                                  duration=3.0))
            .at(4.5, FrameLossWindow(prob=0.05, duration=1.0,
                                     fabric="tcp-ethernet"))
            .at(CRASH_AT, CrashNode(node=SUSPECT_NODE, cause="fleet-churn"))
            .at(8.0, RecoverNode(node=SUSPECT_NODE))
            .at(9.0, CrashNode(node=last, cause="fleet-churn"))
            .at(11.0, RecoverNode(node=last)))


def _workloads(nodes: int) -> List[AppSpec]:
    """13 submissions: the pinned victim, 11 fillers, 1 oversized."""
    from repro.apps import ComputeSleep
    ckpt = CheckpointConfig(protocol="stop-and-sync", level="vm",
                            interval=0.5)
    specs = [AppSpec(
        program=ComputeSleep, nprocs=3,
        params={"steps": 12, "step_time": 0.25, "state_bytes": 2048},
        ft_policy=FaultPolicy.RESTART, checkpoint=ckpt,
        placement={0: "n1", 1: "n2", 2: SUSPECT_NODE},
        tenant="acme", priority=2)]
    filler_ckpt = CheckpointConfig(protocol="stop-and-sync", level="vm",
                                   interval=0.8)
    for i in range(11):
        # Durations 1.6s / 3.8s / 6.0s: with quota queuing, some jobs
        # are still running when the crashes land — those pay failure
        # restarts (the contrast to the proactively-migrated victim).
        specs.append(AppSpec(
            program=ComputeSleep, nprocs=2 + (i % 2),
            params={"steps": 8 + 11 * (i % 3), "step_time": 0.2,
                    "state_bytes": 1024},
            ft_policy=FaultPolicy.RESTART, checkpoint=filler_ckpt,
            tenant=TENANTS[i % len(TENANTS)],
            priority=1 if i == 4 else 0))
    # One spec that can never fit its tenant's quota: must be rejected
    # immediately with the typed quota reason.
    specs.append(AppSpec(
        program=ComputeSleep, nprocs=9,
        params={"steps": 2, "step_time": 0.1},
        ft_policy=FaultPolicy.RESTART, tenant="initech"))
    return specs


def run_fleet_churn(nodes: int = 16, seed: int = 0,
                    perturb_seed: Optional[int] = None,
                    strict: bool = True,
                    timeout: float = 120.0) -> Dict[str, Any]:
    """One full fleet churn run; returns the (byte-stable) report."""
    if nodes < 8:
        raise CampaignError("fleet churn needs >= 8 nodes")
    hb = 0.2
    sf = StarfishCluster.build(spec=ClusterSpec(
        nodes=nodes, seed=seed, perturb_seed=perturb_seed,
        gcs_config=GcsConfig(heartbeat_period=hb, suspect_timeout=5 * hb,
                             announce_period=16 * hb)))
    quotas = {t: TenantQuota(max_ranks=6, max_apps=3) for t in TENANTS}
    controller = FleetController(sf, quotas=quotas)
    jobs = [controller.submit(spec) for spec in _workloads(nodes)]
    victim = jobs[0]
    start = sf.engine.now
    _churn_plan(nodes).apply_to(sf, offset=start)
    deadline = start + timeout
    # Play out the full fault schedule even if every job finishes early
    # — the crashes must actually land for the run to mean anything.
    horizon = start + 12.0
    while (controller.pending_work() or sf.engine.now < horizon) \
            and sf.engine.now < deadline:
        sf.engine.run(until=sf.engine.now + 0.5)
    controller.close()
    sf.engine.run(until=sf.engine.now + 0.5)   # drain the control loop

    oracle_violations = FleetOracle().check(controller.scheduler)
    metrics = controller.registry
    restarted = metrics.group_by("daemon.ranks_restarted", "app")
    migrated = metrics.group_by("daemon.ranks_migrated", "app")
    crash_time = start + CRASH_AT
    victim_moves = [m for m in controller.migrations
                    if m[1] == victim.job_id and m[3] == SUSPECT_NODE]
    report = {
        "campaign": "fleet-churn",
        "nodes": nodes, "seed": seed, "perturb_seed": perturb_seed,
        "tenants": {t: {"max_ranks": 6, "max_apps": 3} for t in TENANTS},
        "submitted": len(jobs),
        "victim": victim.job_id,
        "victim_migrated_at": (round(victim_moves[0][0] - start, 9)
                               if victim_moves else None),
        "crash_at": CRASH_AT,
        "jobs": controller.scheduler.snapshot(),
        "migrations": [
            {"t": round(t - start, 9), "app": app, "rank": rank,
             "src": src, "dst": dst}
            for t, app, rank, src, dst in controller.migrations],
        "ranks_restarted": {k: int(v) for k, v in sorted(
            restarted.items())},
        "ranks_migrated": {k: int(v) for k, v in sorted(
            migrated.items())},
        "scheduler_log": controller.scheduler.log_lines(),
        "faults": sf.faults.log_lines(),
        "oracle": oracle_violations or "ok",
        "duration": round(sf.engine.now - start, 9),
    }
    if strict:
        _gate(report, jobs, victim, crash_time, start)
    return report


def _gate(report: Dict[str, Any], jobs, victim, crash_time: float,
          start: float) -> None:
    """The acceptance gates; typed CampaignError on any miss."""
    if report["oracle"] != "ok":
        raise CampaignError(
            f"fleet oracle violations: {report['oracle']}")
    if victim.state != JobState.DONE:
        raise CampaignError(
            f"victim {victim.job_id} ended {victim.state}, wanted done")
    moved_at = report["victim_migrated_at"]
    if moved_at is None:
        raise CampaignError(
            f"victim {victim.job_id} was never proactively migrated "
            f"off {SUSPECT_NODE}")
    if start + moved_at >= crash_time:
        raise CampaignError(
            f"victim migrated at rel t={moved_at:.3f}, after the "
            f"scheduled crash at rel t={crash_time - start:.3f}")
    if report["ranks_restarted"].get(victim.job_id, 0) != 0:
        raise CampaignError(
            f"victim {victim.job_id} paid a failure restart "
            f"(ranks_restarted={report['ranks_restarted']})")
    if report["ranks_migrated"].get(victim.job_id, 0) < 1:
        raise CampaignError(
            f"victim {victim.job_id} shows no migrated ranks")
    rejected = [j for j in jobs if j.state == JobState.REJECTED]
    if not any(j.reason == "quota-exceeded" for j in rejected):
        raise CampaignError("the oversized submission was not "
                            "quota-rejected")
    done = sum(1 for j in jobs if j.state == JobState.DONE)
    if done < 10:
        raise CampaignError(f"only {done} jobs finished")


def sweep_fleet_churn(nodes: int = 16, seed: int = 0,
                      seeds: int = 20) -> Dict[str, Any]:
    """Perturbation sweep: the base run plus ``seeds`` perturbed runs.

    Every run must pass the strict gates and the FleetOracle; the
    summary counts per-seed job outcomes.
    """
    runs = []
    for pseed in [None] + list(range(1, seeds + 1)):
        report = run_fleet_churn(nodes=nodes, seed=seed,
                                 perturb_seed=pseed, strict=True)
        runs.append({
            "perturb_seed": pseed,
            "done": sum(1 for j in report["jobs"]
                        if j["state"] == JobState.DONE),
            "rejected": sum(1 for j in report["jobs"]
                            if j["state"] == JobState.REJECTED),
            "migrations": len(report["migrations"]),
            "victim_migrated_at": report["victim_migrated_at"],
            "oracle": report["oracle"],
        })
    return {"campaign": "fleet-churn", "nodes": nodes, "seed": seed,
            "sweeps": len(runs), "runs": runs}


def report_bytes(report: Dict[str, Any]) -> str:
    """Canonical JSON (the byte-identity comparison in tests/CLI)."""
    return json.dumps(report, sort_keys=True, indent=1)
