"""Fleet traffic generator — many short-lived client applications.

The paper's clusters are shared: long-running MPI jobs coexist with a
churn of small client submissions arriving at the daemons.  The
workloads above (:class:`~repro.apps.jacobi.Jacobi1D` etc.) exercise a
*single* application's data path; this module exercises the *control*
path — admission, placement, startup, teardown — by pumping a stream of
short-lived jobs through the :class:`~repro.fleet.FleetController`.

It is also the event-list scheduler's adversarial regime: every arrival
plants a fresh burst of near-term timers while long-horizon heartbeat
timers sit parked far ahead, exactly the mixed-density schedule the
calendar queue's width estimation has to cope with (DESIGN.md §19).

Two pieces:

* :class:`ShortTask` — a minimal program (a few compute steps, no
  communication) whose whole life is dominated by startup/teardown;
* :class:`TrafficGenerator` — an engine process that submits ``jobs``
  :class:`ShortTask` instances (tenant :data:`TENANT`) with seeded-random
  sizes and exponential-ish inter-arrival times, through a controller.

Everything is seeded, so a traffic run is as deterministic as any other
workload in the repo.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.appspec import AppSpec
from repro.core.program import ProgramContext, StarfishProgram

#: Accounting tenant of every generated submission.
TENANT = "traffic"
#: :class:`ShortTask` steps per generated job (jittered ±1) and simulated
#: seconds per step.
STEPS = 3
STEP_TIME = 0.02


class ShortTask(StarfishProgram):
    """A job that barely outlives its own admission.

    Parameters
    ----------
    steps : int
        Compute steps (default 3).
    step_time : float
        Simulated seconds per step (default 0.02).
    """

    def setup(self, ctx: ProgramContext) -> None:
        self.state.update(steps=int(ctx.params.get("steps", 3)), done=0)

    def step(self, ctx: ProgramContext):
        yield from ctx.sleep(float(ctx.params.get("step_time", 0.02)))
        self.state["done"] += 1

    def is_done(self, ctx: ProgramContext) -> bool:
        return self.state["done"] >= self.state["steps"]

    def finalize(self, ctx: ProgramContext):
        return self.state["done"]


class TrafficGenerator:
    """Submit a seeded stream of :class:`ShortTask` jobs to a controller.

    Parameters
    ----------
    controller : repro.fleet.FleetController
        The fleet control plane to submit through (its engine drives the
        arrival process).
    jobs : int
        Total submissions.
    rate : float
        Mean arrivals per simulated second (exponential inter-arrivals,
        from the generator's own seeded RNG).
    nprocs : tuple
        Inclusive ``(lo, hi)`` bounds for each job's world size.
    seed : int
        Generator RNG seed — independent of the cluster seed, same
        convention as the perturbation machinery.
    """

    def __init__(self, controller, jobs: int = 50, rate: float = 5.0,
                 nprocs: tuple = (1, 4), seed: int = 0):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.controller = controller
        self.jobs = jobs
        self.rate = rate
        self.nprocs = nprocs
        self._rng = np.random.default_rng(seed)
        #: FleetJob records of every submission, in arrival order.
        self.submitted: List = []
        self._proc = controller.engine.process(self._run(),
                                               name="traffic-gen")

    def _run(self):
        engine = self.controller.engine
        lo, hi = self.nprocs
        for _ in range(self.jobs):
            yield engine.timeout(float(
                self._rng.exponential(1.0 / self.rate)))
            spec = AppSpec(
                program=ShortTask,
                nprocs=int(self._rng.integers(lo, hi + 1)),
                params={"steps": max(1, STEPS
                                     + int(self._rng.integers(-1, 2))),
                        "step_time": STEP_TIME},
                tenant=TENANT)
            self.submitted.append(self.controller.submit(spec))

    # -- introspection -----------------------------------------------------

    @property
    def all_submitted(self) -> bool:
        return len(self.submitted) >= self.jobs

    @property
    def finished(self) -> int:
        """Submissions that reached a terminal state."""
        return sum(1 for job in self.submitted if job.terminal)

    def drain(self, timeout: float = 600.0) -> int:
        """Run the engine until every job is terminal (or ``timeout``
        simulated seconds pass); returns the finished count."""
        engine = self.controller.engine
        deadline = engine.now + timeout
        while engine.now < deadline:
            if self.all_submitted and not self.controller.pending_work():
                break
            engine.run(until=min(deadline, engine.now + 1.0))
        return self.finished
