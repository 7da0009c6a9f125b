"""The ``repro check`` harness: sweep a campaign across perturbation seeds.

A :class:`CheckRunner` re-runs one campaign/protocol pair under ``N``
independent :class:`~repro.check.perturb.SchedulePerturbation` seeds.
Each run is a normal :class:`~repro.faults.campaign.CampaignRunner` run —
same campaign seed, same fault plan — except same-instant event ordering
is shuffled (and, optionally, frame delivery jittered) by the
perturbation.  The sweep classifies every seed's outcome:

``ok``
    the run behaved exactly like the unperturbed schedule is supposed to
    (completion + zero invariant violations, or — for campaigns with
    ``expect_completion=False`` — a clean typed abort);
``oracle-violation``
    a :class:`~repro.check.oracles.WaveOracle` invariant broke mid-run
    (:class:`~repro.errors.OracleViolation`);
``hang``
    the workload never reached a terminal state; the liveness watchdog's
    :func:`~repro.check.watchdog.diagnose_hang` dump rides the outcome;
``invariant-violation``
    the run completed but a campaign checker reported violations;
``aborted``
    any other typed error ended the run.

Every non-``ok`` outcome carries the perturbation seed that exposed it,
and :meth:`CheckRunner.replay` re-runs that exact seed (twice, comparing
report bytes) — "flaky under churn" becomes a one-command repro:
``python -m repro check --campaign X --protocol Y --replay SEED``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.check.watchdog import diagnose_hang, format_diagnosis
from repro.core.policies import FaultPolicy
from repro.errors import CampaignError, ConvergenceTimeout, OracleViolation


#: Error types classified as liveness failures (the watchdog's domain).
_HANG_TYPES = (CampaignError, ConvergenceTimeout)


@dataclass
class SeedOutcome:
    """One perturbation seed's verdict."""

    perturb_seed: int
    verdict: str                          # ok | oracle-violation | hang | ...
    status: str                           # raw campaign status
    error: Optional[Dict[str, Any]] = None
    violations: List[Dict[str, Any]] = field(default_factory=list)
    report: Optional[Any] = None          # CampaignReport (not serialized)

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"perturb_seed": self.perturb_seed,
                             "verdict": self.verdict, "status": self.status}
        if self.error is not None:
            d["error"] = self.error
        if self.violations:
            d["violations"] = self.violations
        return d


@dataclass
class CheckResult:
    """Outcome of one perturbation sweep."""

    campaign: str
    protocol: str
    seed: int                             # the *campaign* seed
    jitter: float
    outcomes: List[SeedOutcome] = field(default_factory=list)

    @property
    def failures(self) -> List[SeedOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {"campaign": self.campaign, "protocol": self.protocol,
                "seed": self.seed, "jitter": self.jitter,
                "seeds_run": len(self.outcomes),
                "failures": len(self.failures),
                "outcomes": [o.to_dict() for o in self.outcomes]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2,
                          default=repr) + "\n"

    def summary(self) -> str:
        lines = [f"check {self.campaign!r} protocol={self.protocol} "
                 f"seed={self.seed} jitter={self.jitter:g}: "
                 f"{len(self.outcomes)} perturbation seeds, "
                 f"{len(self.failures)} failures"]
        for o in self.failures:
            lines.append(f"  FAIL perturb_seed={o.perturb_seed} "
                         f"[{o.verdict}] status={o.status}")
            if o.error:
                lines.append(f"    {o.error['type']}: {o.error['message']}")
                diagnosis = o.error.get("diagnosis")
                if diagnosis:
                    lines.append(format_diagnosis(diagnosis))
            for c in o.violations:
                for v in c["violations"]:
                    lines.append(f"    VIOLATION [{c['checker']}] {v}")
            lines.append(f"    replay: repro check --campaign "
                         f"{self.campaign} --protocol {self.protocol} "
                         f"--seed {self.seed} --jitter {self.jitter:g} "
                         f"--replay {o.perturb_seed}")
        return "\n".join(lines)


class CheckRunner:
    """Sweep one campaign/protocol pair across perturbation seeds.

    Parameters mirror :class:`~repro.faults.campaign.CampaignRunner`
    where they overlap; ``seed`` is the *campaign* seed (shared by every
    perturbed run — the sweep varies only the schedule, never the fault
    plan), ``jitter`` the per-frame delivery jitter bound in simulated
    seconds.  No golden run: the golden run of a *perturbed* schedule
    proves nothing the checkers don't already, and skipping it halves the
    sweep's cost.
    """

    def __init__(self, campaign, *, protocol: str = "stop-and-sync",
                 seed: int = 0, jitter: float = 0.0,
                 policy: Any = FaultPolicy.RESTART,
                 nodes: Optional[int] = None,
                 workload_timeout: float = 240.0):
        from repro.ckpt.protocols import PROTOCOLS
        from repro.faults.campaigns import get_campaign
        self.campaign = (get_campaign(campaign)
                         if isinstance(campaign, str) else campaign)
        if protocol not in PROTOCOLS:
            known = ", ".join(sorted(PROTOCOLS))
            raise CampaignError(
                f"unknown C/R protocol {protocol!r} (known: {known})")
        self.protocol = protocol
        self.seed = seed
        self.jitter = jitter
        self.policy = policy
        self.nodes = nodes
        self.workload_timeout = workload_timeout

    # -- one seed ----------------------------------------------------------

    def _spec(self, perturb_seed: Optional[int]):
        from repro.cluster.spec import ClusterSpec
        base = self.campaign.cluster_spec or ClusterSpec()
        if perturb_seed is None:
            return base
        return base.with_(perturb_seed=perturb_seed,
                          delivery_jitter=self.jitter)

    def run_one(self, perturb_seed: int) -> SeedOutcome:
        """Run the campaign under one perturbation seed and classify it."""
        from repro.faults.campaign import CampaignRunner
        runner = CampaignRunner(
            self.campaign, seed=self.seed, protocol=self.protocol,
            policy=self.policy, nodes=self.nodes,
            cluster_spec=self._spec(perturb_seed),
            compare_golden=False,
            workload_timeout=self.workload_timeout,
            watchdog=diagnose_hang)
        report = runner.run(raise_on_error=False)
        error = report.data.get("error")
        violations = report.violations
        if report.status == "completed":
            verdict = "ok" if not violations else "invariant-violation"
        elif error and error["type"] == OracleViolation.__name__:
            verdict = "oracle-violation"
        elif error and error["type"] in {t.__name__ for t in _HANG_TYPES}:
            verdict = "hang"
        elif not self.campaign.expect_completion and error:
            # Failure campaigns are green when they fail *cleanly*.
            verdict = "ok"
        else:
            verdict = "aborted"
        return SeedOutcome(perturb_seed=perturb_seed, verdict=verdict,
                           status=report.status, error=error,
                           violations=violations, report=report)

    # -- the sweep ---------------------------------------------------------

    def run(self, seeds: Sequence[int] = range(1, 11)) -> CheckResult:
        result = CheckResult(campaign=self.campaign.name,
                             protocol=self.protocol, seed=self.seed,
                             jitter=self.jitter)
        for pseed in seeds:
            result.outcomes.append(self.run_one(pseed))
        return result

    # -- replay ------------------------------------------------------------

    def replay(self, perturb_seed: int) -> Tuple[SeedOutcome, bool]:
        """Re-run one perturbation seed twice.

        Returns ``(outcome, byte_identical)`` where ``byte_identical``
        asserts the failure's whole campaign report — event timings,
        diagnosis, violations — reproduced byte-for-byte from the seed.
        """
        first = self.run_one(perturb_seed)
        second = self.run_one(perturb_seed)
        identical = (first.report.to_json() == second.report.to_json())
        return first, identical
