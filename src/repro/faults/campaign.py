"""The campaign runner: workload + fault plan + invariant checks.

A campaign run is ReStore-style scripted failure replay:

1. (optionally) run the *same* workload on a fault-free cluster built
   from the same :class:`~repro.cluster.spec.ClusterSpec` — the golden
   run — and record its per-rank results;
2. build a fresh cluster, submit the workload, apply the
   :class:`~repro.faults.plan.FaultPlan`;
3. after every convergence point (each fault action plus a settle
   grace), run the non-final invariant checkers;
4. drive the workload to its end, drain any open fault windows, settle,
   and run the full checker suite (including the golden-run comparison);
5. emit a JSON-serializable :class:`CampaignReport` whose content is a
   pure function of the campaign + seed (no wall-clock, no process-
   global identifiers) — two same-seed runs produce identical bytes.

If the plan pushes the system past what the protocols absorb (e.g. a
blackout kills every daemon), the run degrades *gracefully*: a typed
:class:`~repro.errors.StarfishError` subclass is recorded (or raised
with ``raise_on_error=True``), never a hang.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.policies import FaultPolicy
from repro.errors import CampaignError, ReproError, StarfishError
from repro.faults.invariants import ALL_CHECKERS

#: Simulated seconds run after each fault action (and after the last open
#: window closes) before the convergence check.
SETTLE_GRACE = 1.5
#: Deadline of the group convergence wait at a convergence point.
SETTLE_TIMEOUT = 20.0


@dataclass
class CampaignContext:
    """What invariant checkers get to look at."""

    sf: Any                       # StarfishCluster
    handle: Any                   # AppHandle
    spec: Any                     # AppSpec of the workload
    injector: Any                 # FaultInjector
    golden: Optional[Dict[int, Any]] = None
    phase: str = "mid"            # "mid" | "final"

    @property
    def policy_value(self) -> str:
        return FaultPolicy.of(self.spec.ft_policy).value

    @property
    def app_was_hit(self) -> bool:
        """Did any crash land on a node hosting a rank of the app?"""
        return any(name == "crash-node" and detail.get("hosts_app")
                   for _t, name, detail in self.injector.log)


@dataclass
class CampaignReport:
    """JSON-serializable outcome of one campaign run."""

    data: Dict[str, Any] = field(default_factory=dict)

    @property
    def status(self) -> str:
        return self.data.get("status", "unknown")

    @property
    def violations(self) -> List[Dict[str, Any]]:
        return [c for c in self.data.get("checks", []) if c["violations"]]

    @property
    def ok(self) -> bool:
        return self.status == "completed" and not self.violations

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2,
                          default=repr) + "\n"

    def summary(self) -> str:
        d = self.data
        lines = [f"campaign {d['campaign']!r} seed={d['seed']} "
                 f"protocol={d['protocol']} policy={d['policy']} "
                 f"-> {d['status']}"]
        if d.get("error"):
            lines.append(f"  error: {d['error']['type']}: "
                         f"{d['error']['message']}")
        lines.append(f"  actions fired: {len(d.get('actions', []))}, "
                     f"checks: {len(d.get('checks', []))}, "
                     f"violations: {len(self.violations)}")
        for c in self.violations:
            for v in c["violations"]:
                lines.append(f"  VIOLATION [{c['checker']} @t={c['time']}] "
                             f"{v}")
        return "\n".join(lines)


class CampaignRunner:
    """Drive one named campaign against one protocol/policy pair."""

    def __init__(self, campaign, *, seed: int = 0,
                 protocol: Optional[str] = "stop-and-sync",
                 policy: Any = FaultPolicy.RESTART,
                 nodes: Optional[int] = None,
                 checkers=None,
                 cluster_spec=None,
                 compare_golden: bool = True,
                 app_id: str = "campaign",
                 workload_timeout: float = 240.0,
                 watchdog=None):
        from repro.faults.campaigns import get_campaign
        self.campaign = (get_campaign(campaign)
                         if isinstance(campaign, str) else campaign)
        self.seed = seed
        self.protocol = protocol
        self.policy = FaultPolicy.of(policy)
        self.nodes = nodes if nodes is not None else self.campaign.nodes
        # Checker precedence: explicit arg > campaign suite > defaults.
        if checkers is None:
            checkers = getattr(self.campaign, "checkers", None) \
                or ALL_CHECKERS
        self.checkers = tuple(checkers)
        #: Overrides the campaign's base ClusterSpec (e.g. the k=1 guard
        #: re-runs a replicated campaign without its replication factor).
        self.cluster_spec = cluster_spec
        self.compare_golden = compare_golden
        self.app_id = app_id
        self.workload_timeout = workload_timeout
        #: Optional liveness watchdog ``(sf, handle, exc) -> dict``: called
        #: when a run aborts with a typed error, its JSON-able diagnosis
        #: rides the report (and the exception, as ``exc.diagnosis``).
        #: The ``repro check`` harness passes
        #: :func:`repro.check.watchdog.diagnose_hang`.
        self.watchdog = watchdog

    # -- pieces ------------------------------------------------------------

    def _cluster_spec(self):
        from repro.cluster.spec import ClusterSpec
        base = self.cluster_spec or self.campaign.cluster_spec \
            or ClusterSpec()
        return base.with_(nodes=self.nodes, seed=self.seed)

    def _build(self):
        from repro.core.starfish import StarfishCluster
        return StarfishCluster.build(spec=self._cluster_spec())

    def _golden_results(self) -> Dict[int, Any]:
        sf = self._build()
        handle = sf.submit(self.campaign.workload(self.protocol, self.policy,
                                                  self.nodes),
                           app_id=self.app_id)
        return sf.run_to_completion(handle, timeout=self.workload_timeout)

    def _drive_workload(self, sf, handle, deadline: float) -> None:
        """Advance until the app reaches a terminal state (DONE counts,
        and so does a *surfaced* failure under the kill policy); raise
        typed errors instead of spinning when it never will."""
        from repro.errors import MajorityLost, UnknownApplication
        while sf.engine.now < deadline:
            if not sf.live_daemons():
                raise MajorityLost(
                    f"all {len(sf.daemons)} daemons are dead; "
                    f"app {handle.app_id!r} can never finish")
            try:
                if handle.finished:
                    return
            except UnknownApplication:
                pass
            sf.engine.run(until=sf.engine.now + 0.5)
        raise CampaignError(
            f"workload {handle.app_id!r} did not reach a terminal state "
            f"within {self.workload_timeout}s of virtual time")

    def _converge_and_check(self, ctx, checks: List[Dict[str, Any]],
                            phase: str) -> None:
        sf, inj = ctx.sf, ctx.injector
        quiescent = (inj.partition_depth == 0 and not inj.paused_nodes
                     and sf.live_daemons())
        if quiescent:
            try:
                sf.settle(timeout=SETTLE_TIMEOUT)
            except StarfishError as exc:
                checks.append({"time": round(sf.engine.now, 9),
                               "phase": phase, "checker": "convergence",
                               "violations": [f"{type(exc).__name__}: {exc}"]})
        ctx.phase = phase
        for checker in self.checkers:
            if checker.final_only and phase != "final":
                continue
            violations = checker.check(ctx)
            checks.append({"time": round(sf.engine.now, 9), "phase": phase,
                           "checker": checker.name,
                           "violations": list(violations)})

    # -- the run -----------------------------------------------------------

    def run(self, raise_on_error: bool = True) -> CampaignReport:
        golden = self._golden_results() if self.compare_golden else None

        sf = self._build()
        inj = sf.faults
        registry = sf.engine.metrics
        registry.events.emit(sf.engine.now, "campaign.start",
                             campaign=self.campaign.name, seed=self.seed)
        workload = self.campaign.workload(self.protocol, self.policy,
                                          self.nodes)
        handle = sf.submit(workload, app_id=self.app_id)
        plan = self.campaign.plan(self.app_id, self.nodes)
        plan.apply_to(sf, offset=sf.engine.now)

        ctx = CampaignContext(sf=sf, handle=handle, spec=workload,
                              injector=inj, golden=golden)
        checks: List[Dict[str, Any]] = []
        status, error = "completed", None
        deadline = sf.engine.now + self.workload_timeout
        try:
            # Convergence point after every action (reverts included).
            while True:
                future = sorted(t for t in inj.scheduled
                                if t > sf.engine.now + 1e-9)
                if not future:
                    break
                sf.engine.run(until=future[0] + 1e-9)
                sf.engine.run(until=sf.engine.now + SETTLE_GRACE)
                self._converge_and_check(ctx, checks, phase="mid")
            self._drive_workload(sf, handle, deadline)
            # Close any still-open windows scheduled after app completion.
            tail = [t for t in inj.scheduled if t > sf.engine.now]
            if tail:
                sf.engine.run(until=max(tail) + SETTLE_GRACE)
            self._converge_and_check(ctx, checks, phase="final")
        except ReproError as exc:
            status = "aborted"
            error = {"type": type(exc).__name__, "message": str(exc)}
            if self.watchdog is not None:
                diagnosis = self.watchdog(sf, handle, exc)
                error["diagnosis"] = diagnosis
                exc.diagnosis = diagnosis
            if raise_on_error:
                raise

        report = self._report(sf, ctx, checks, status, error)
        n_viol = sum(len(c["violations"]) for c in checks)
        registry.events.emit(sf.engine.now, "campaign.end",
                             campaign=self.campaign.name, status=status,
                             violations=n_viol)
        return report

    # -- report ------------------------------------------------------------

    def _report(self, sf, ctx, checks, status, error) -> CampaignReport:
        from repro.errors import UnknownApplication
        reg = sf.engine.metrics
        try:
            record = ctx.handle._record()
            results = {str(r): record.results[r]
                       for r in sorted(record.results)}
            app_status = record.status.value
            restarts = record.restarts
        except UnknownApplication:
            results, app_status, restarts = {}, "unknown", None
        # Whitelisted, label-stable metric series only: anything keyed by
        # process-global identifiers (pipe labels, incarnation numbers)
        # would break the same-seed byte-identity guarantee.
        series = {
            "net.frames_dropped": reg.group_by("net.frames_dropped",
                                               "fabric"),
            "net.frames_sent": reg.group_by("net.frames_sent", "fabric"),
            "gcs.views": reg.group_by("gcs.views", "node"),
            "faults.injected": reg.group_by("faults.injected", "action"),
            "daemon.restarts": {ctx.handle.app_id:
                                reg.sum("daemon.restarts",
                                        app=ctx.handle.app_id)},
        }
        restart_events = [
            {"time": round(ev.time, 9), **ev.field_dict}
            for ev in reg.events.records("daemon.restart")]
        data = {
            "campaign": self.campaign.name,
            "seed": self.seed,
            "nodes": self.nodes,
            "protocol": self.protocol,
            "policy": self.policy.value,
            "status": status,
            "error": error,
            "app": {"id": ctx.handle.app_id, "status": app_status,
                    "restarts": restarts, "results": results},
            "golden": ({str(r): ctx.golden[r] for r in sorted(ctx.golden)}
                       if ctx.golden is not None else None),
            "actions": ctx.injector.log_lines(),
            "checks": checks,
            "series": series,
            "restart_events": restart_events,
            "engine": {"final_time": round(sf.engine.now, 9),
                       "events_processed": sf.engine.events_processed},
        }
        # Only present under the repro.check harness: adding the key
        # unconditionally would change the determinism goldens' bytes.
        spec = self._cluster_spec()
        if spec.perturb_seed is not None:
            data["perturbation"] = {"seed": spec.perturb_seed,
                                    "jitter": spec.delivery_jitter}
        return CampaignReport(data=data)
