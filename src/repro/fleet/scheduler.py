"""Multi-tenant admission scheduling.

The :class:`JobScheduler` owns the fleet's admission queue: many
concurrent :class:`~repro.core.appspec.AppSpec` submissions from multiple
tenants, admitted under per-tenant quotas in **deterministic
FIFO-within-priority order** — the queue is ordered by
``(-priority, submit_time, tenant, seq)``, so any interleaving of
same-instant submits admits in the same order and places on the same
nodes (the Hypothesis property in ``tests/test_fleet_properties.py``).

Placement reuses the store's ring rule
(:func:`~repro.store.placement.ring_successors`): the least-loaded
eligible node hosts rank 0 and its ring successors host the rest
(cycling when the fleet has fewer eligible nodes than ranks).

Rejections are **typed**: :data:`REJECT_QUOTA` for a spec that can never
fit its tenant's quota, :data:`REJECT_PLACEMENT` for an admission whose
submit failed downstream, :data:`REJECT_SHUTDOWN` for jobs still queued
when the controller closes.  The FleetOracle refuses any rejected job
without one of these reasons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.appspec import AppSpec
from repro.fleet.view import FleetView
from repro.store.placement import ring_successors

#: Typed rejection reasons (the only values FleetOracle accepts).
REJECT_QUOTA = "quota-exceeded"
REJECT_PLACEMENT = "placement-failed"
REJECT_SHUTDOWN = "fleet-shutdown"
REJECT_REASONS = (REJECT_QUOTA, REJECT_PLACEMENT, REJECT_SHUTDOWN)


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant concurrency limits (``None`` = unlimited)."""

    max_ranks: Optional[int] = None   # concurrent running ranks
    max_apps: Optional[int] = None    # concurrent running applications


class JobState:
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    REJECTED = "rejected"

    TERMINAL = (DONE, FAILED, REJECTED)


@dataclass
class FleetJob:
    """One submission's lifecycle record."""

    job_id: str
    tenant: str
    spec: AppSpec
    seq: int
    submit_time: float
    priority: int = 0
    state: str = JobState.QUEUED
    reason: Optional[str] = None          # typed, for REJECTED
    placement: Optional[Dict[int, str]] = None
    admitted_at: Optional[float] = None
    finished_at: Optional[float] = None

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    def snapshot(self) -> Dict[str, object]:
        return {
            "job_id": self.job_id, "tenant": self.tenant,
            "priority": self.priority, "nprocs": self.spec.nprocs,
            "state": self.state, "reason": self.reason,
            "placement": ({str(r): n for r, n in sorted(
                self.placement.items())} if self.placement else None),
            "submit_time": self.submit_time,
            "admitted_at": self.admitted_at,
            "finished_at": self.finished_at,
        }


@dataclass
class Admission:
    """One admission decision, kept for the FleetOracle."""

    job_id: str
    tenant: str
    time: float
    placement: Dict[int, str]
    #: Nodes that were *not* eligible at admission time (cordoned,
    #: draining, suspect, or down) — the oracle checks disjointness.
    forbidden: Tuple[str, ...]
    #: Tenant's concurrent ranks/apps right after this admission.
    ranks_after: int
    apps_after: int


class JobScheduler:
    """Admission queue + quota accounting over a :class:`FleetView`."""

    def __init__(self, view: FleetView,
                 quotas: Optional[Dict[str, TenantQuota]] = None,
                 registry=None):
        from repro.obs import NULL_REGISTRY
        self.view = view
        self.quotas = dict(quotas or {})
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.jobs: Dict[str, FleetJob] = {}
        self._tenant_seq: Dict[str, itertools.count] = {}
        #: Admission decisions in order (the oracle's evidence).
        self.admissions: List[Admission] = []
        #: Per-tenant high-water marks of concurrent (ranks, apps).
        self.high_water: Dict[str, Tuple[int, int]] = {}
        self.log: List[str] = []

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def quota(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, TenantQuota())

    def submit(self, spec: AppSpec, now: float) -> FleetJob:
        """Queue one spec; rejects immediately (typed) when the spec can
        never fit inside its tenant's quota."""
        tenant = spec.tenant or spec.owner
        seq = next(self._tenant_seq.setdefault(tenant, itertools.count(1)))
        job = FleetJob(job_id=f"{tenant}-j{seq}", tenant=tenant, spec=spec,
                       seq=seq, submit_time=now, priority=spec.priority)
        self.jobs[job.job_id] = job
        self._count("fleet.jobs_submitted", tenant)
        quota = self.quota(tenant)
        if quota.max_ranks is not None and spec.nprocs > quota.max_ranks:
            self._reject(job, REJECT_QUOTA, now)
            self.log.append(
                f"t={now:.6f} reject {job.job_id} {REJECT_QUOTA} "
                f"(nprocs {spec.nprocs} > max_ranks {quota.max_ranks})")
            return job
        self.log.append(f"t={now:.6f} queue {job.job_id} "
                        f"x{spec.nprocs} prio={job.priority}")
        return job

    def _reject(self, job: FleetJob, reason: str, now: float) -> None:
        job.state = JobState.REJECTED
        job.reason = reason
        job.finished_at = now
        self._count("fleet.jobs_rejected", job.tenant, reason=reason)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def pending(self) -> List[FleetJob]:
        """Queued jobs in deterministic admission order."""
        return sorted(
            (j for j in self.jobs.values() if j.state == JobState.QUEUED),
            key=lambda j: (-j.priority, j.submit_time, j.tenant, j.seq))

    def running(self) -> List[FleetJob]:
        return sorted((j for j in self.jobs.values()
                       if j.state == JobState.RUNNING),
                      key=lambda j: j.job_id)

    def usage(self, tenant: str) -> Tuple[int, int]:
        """(concurrent ranks, concurrent apps) of a tenant's running jobs."""
        ranks = apps = 0
        for job in self.jobs.values():
            if job.state == JobState.RUNNING and job.tenant == tenant:
                ranks += job.spec.nprocs
                apps += 1
        return ranks, apps

    def admit_ready(self, now: float) -> List[FleetJob]:
        """Admit every queued job that fits its quota and places now.

        A job blocked on quota or placement stays queued and does not
        block other jobs behind it (otherwise one saturated tenant would
        stall the whole fleet) — still deterministic, since the scan
        order is the admission order.
        """
        admitted: List[FleetJob] = []
        eligible = self.view.eligible()
        if not eligible:
            return admitted
        loads = self.view.loads()
        forbidden = tuple(sorted(set(self.view.nodes) - set(eligible)))
        for job in self.pending():
            quota = self.quota(job.tenant)
            ranks, apps = self.usage(job.tenant)
            if quota.max_ranks is not None and \
                    ranks + job.spec.nprocs > quota.max_ranks:
                continue
            if quota.max_apps is not None and apps + 1 > quota.max_apps:
                continue
            placement = self._place(job, eligible, loads)
            if placement is None:
                continue
            job.state = JobState.RUNNING
            job.admitted_at = now
            job.placement = placement
            for node_id in placement.values():
                loads[node_id] = loads.get(node_id, 0) + 1
            ranks += job.spec.nprocs
            apps += 1
            hw = self.high_water.get(job.tenant, (0, 0))
            self.high_water[job.tenant] = (max(hw[0], ranks),
                                           max(hw[1], apps))
            self.admissions.append(Admission(
                job_id=job.job_id, tenant=job.tenant, time=now,
                placement=dict(placement), forbidden=forbidden,
                ranks_after=ranks, apps_after=apps))
            self._count("fleet.jobs_admitted", job.tenant)
            self.log.append(
                f"t={now:.6f} admit {job.job_id} -> "
                + ",".join(placement[r] for r in sorted(placement)))
            admitted.append(job)
        self._sample_gauges()
        return admitted

    def _place(self, job: FleetJob, eligible: List[str],
               loads: Dict[str, int]) -> Optional[Dict[int, str]]:
        """Placement over eligible nodes, or None to keep the job queued.

        An explicit ``spec.placement`` is honored verbatim once every
        named node is eligible.  Otherwise: least-loaded primary, ring
        successors for the rest, cycling when ranks outnumber nodes.
        """
        if job.spec.placement is not None:
            wanted = job.spec.placement
            if all(n in eligible for n in wanted.values()):
                return dict(wanted)
            return None
        primary = min(eligible, key=lambda n: (loads.get(n, 0), n))
        rest = ring_successors(primary, eligible, job.spec.nprocs - 1)
        ring = [primary] + rest
        return {rank: ring[rank % len(ring)]
                for rank in range(job.spec.nprocs)}

    # ------------------------------------------------------------------
    # completion / shutdown
    # ------------------------------------------------------------------

    def complete(self, job: FleetJob, state: str, now: float) -> None:
        job.state = state
        job.finished_at = now
        self._count("fleet.jobs_completed", job.tenant, status=state)
        self.log.append(f"t={now:.6f} {state} {job.job_id}")
        self._sample_gauges()

    def reject_queued(self, reason: str, now: float) -> List[FleetJob]:
        """Reject every still-queued job (controller shutdown)."""
        out = []
        for job in self.pending():
            self._reject(job, reason, now)
            self.log.append(f"t={now:.6f} reject {job.job_id} {reason}")
            out.append(job)
        self._sample_gauges()
        return out

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def _count(self, name: str, tenant: str, **labels) -> None:
        self.registry.counter(name, tenant=tenant, **labels).inc()

    def _sample_gauges(self) -> None:
        tenants = sorted({j.tenant for j in self.jobs.values()})
        for tenant in tenants:
            depth = sum(1 for j in self.jobs.values()
                        if j.tenant == tenant
                        and j.state == JobState.QUEUED)
            ranks, _apps = self.usage(tenant)
            self.registry.gauge("fleet.queue_depth",
                                tenant=tenant).set(depth)
            self.registry.gauge("fleet.ranks_running",
                                tenant=tenant).set(ranks)

    def log_lines(self) -> List[str]:
        """Byte-stable admission log (same seed = same bytes)."""
        return list(self.log)

    def snapshot(self) -> List[Dict[str, object]]:
        return [self.jobs[jid].snapshot() for jid in sorted(self.jobs)]
