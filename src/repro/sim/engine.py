"""The discrete-event engine.

A single :class:`Engine` owns the virtual clock and the event queue.  The
queue orders events by ``(time, priority, sequence)`` where the sequence
number is a global insertion counter — two events scheduled for the same
instant with the same priority are always processed in the order they were
scheduled, which makes every simulation in this repository fully
deterministic and reproducible.

Execution has two bodies.  :meth:`Engine._next` is the one "next entry
<= limit" primitive — the only code that knows about the parked tie-group
remainder, an installed perturbation and which event list is in use — and
:meth:`Engine.step` is that primitive plus one :meth:`Engine._dispatch`.
:meth:`Engine.run` wraps one prologue/epilogue around either a loop over
those two, or, for the default heap with no perturbation, the same work
inlined: bare ``(time, priority, seq, event)`` tuples popped with the
heap, clock and tracer bound to locals.  Both must dispatch identically.

``scheduler="calendar"`` swaps the heap for the
:class:`~repro.sim.sched.CalendarQueue` (same ``(time, priority, seq)``
total order); it survives only as the seam the repository benchmark
measures (DESIGN §19).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappop, heappush
from math import inf
from typing import Any, Generator, Optional

from repro.errors import SimulationError, StopSimulation
from repro.obs.registry import MetricsRegistry
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngStreams
from repro.sim.sched import SCHEDULERS, CalendarQueue
from repro.sim.trace import Tracer

#: Priority for ordinary events.
NORMAL = 1
#: Priority for events that must run before ordinary ones at the same time.
URGENT = 0


class Engine:
    """Deterministic discrete-event simulation engine.

    Parameters
    ----------
    seed:
        Master seed for the per-subsystem random streams (see
        :class:`~repro.sim.rng.RngStreams`).
    trace:
        When true, every processed event is recorded by a
        :class:`~repro.sim.trace.Tracer` (``repro trace --chrome``).
    telemetry:
        When true (default) the engine carries an enabled
        :class:`~repro.obs.registry.MetricsRegistry` that every subsystem
        emits instruments into; when false the registry hands out no-op
        instruments (the zero-cost-ish ablation path).
    scheduler:
        Future-event-list implementation: ``"heap"`` (default, the
        reference binary heap) or ``"calendar"`` (the
        :class:`~repro.sim.sched.CalendarQueue`; dispatch order is
        byte-identical).
    """

    __slots__ = ("_now", "_queue", "_seq", "active_process", "rng",
                 "tracer", "_nprocessed", "metrics", "_perturb",
                 "_tie_pending", "_sched", "_push", "scheduler",
                 "_interrupts_due")

    def __init__(self, seed: int = 0, trace: bool = False,
                 telemetry: bool = True, scheduler: str = "heap"):
        if scheduler not in SCHEDULERS:
            raise ValueError(f"Engine.scheduler must be one of "
                             f"{SCHEDULERS}, got {scheduler!r}")
        self._now: float = 0.0
        self._queue: list = []
        self._seq: int = 0
        self.scheduler = scheduler
        if scheduler == "calendar":
            self._sched: Optional[CalendarQueue] = CalendarQueue()
            self._push = self._sched.push
        else:
            self._sched = None
            self._push = partial(heappush, self._queue)
        self.active_process: Optional[Process] = None
        #: Interrupts posted and not yet delivered (``Process.interrupt``):
        #: while none is, no waiter of an ``Event.fire`` has one in flight.
        self._interrupts_due = 0
        self.rng = RngStreams(seed)
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self._nprocessed = 0
        self.metrics = MetricsRegistry(enabled=telemetry)
        # Schedule perturbation (repro.check): when installed, same-instant
        # same-priority event runs are dispatched in a seeded shuffled
        # order instead of insertion order.  ``_tie_pending`` holds the
        # already-shuffled remainder of the current tie group.
        self._perturb = None
        self._tie_pending: deque = deque()
        # Live engine internals surface as sampled gauges: no per-event
        # registry work on the hot path, always-current at collect time.
        self.metrics.gauge_fn("sim.events_processed",
                              lambda: self._nprocessed)
        self.metrics.gauge_fn("sim.queue_depth", lambda: self.pending)
        self.metrics.gauge_fn(
            "sim.trace.events_dropped",
            lambda: self.tracer.events_dropped if self.tracer else 0)

    @classmethod
    def from_spec(cls, spec) -> "Engine":
        """Build an engine from a :class:`~repro.cluster.spec.ClusterSpec`
        (its ``seed``, ``trace``, ``telemetry``, ``perturb_seed`` and
        ``delivery_jitter`` fields; the sim layer does not import the
        cluster layer)."""
        eng = cls(seed=spec.seed, trace=spec.trace,
                  telemetry=spec.telemetry)
        if spec.perturb_seed is not None:
            from repro.check.perturb import SchedulePerturbation
            eng.set_perturbation(SchedulePerturbation(
                spec.perturb_seed, jitter=spec.delivery_jitter))
        return eng

    def set_perturbation(self, perturb) -> None:
        """Install (or clear, with ``None``) a schedule perturbation.

        ``perturb`` must provide ``shuffle_ties(entries)`` (in-place
        shuffle of a list of same-``(time, priority)`` heap entries) and a
        ``delivery_jitter`` float attribute read by the network layer; see
        :class:`repro.check.perturb.SchedulePerturbation`.  Installing one
        mid-group (``_tie_pending`` non-empty) is refused — order of the
        already-shuffled remainder would be ambiguous.
        """
        if self._tie_pending:
            raise SimulationError(
                "cannot change perturbation with a tie group in flight")
        self._perturb = perturb

    # -- clock & queue ---------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention)."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events processed so far (a work measure)."""
        return self._nprocessed

    @property
    def pending(self) -> int:
        """Number of scheduled events not yet dispatched."""
        queued = self._queue if self._sched is None else self._sched
        return len(queued) + len(self._tie_pending)

    # -- factories ---------------------------------------------------------

    def event(self, name: Optional[str] = None) -> Event:
        """Create a fresh untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None,
                name: Optional[str] = None) -> Timeout:
        """Create an event firing ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Register ``generator`` as a simulated process; returns it."""
        return Process(self, generator, name=name)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    # -- execution ---------------------------------------------------------

    def _pop_until(self, limit: float):
        """Raw event-list pop: the minimal entry if it is due by
        ``limit``, else ``None``."""
        if self._sched is not None:
            return self._sched.pop_until(limit)
        queue = self._queue
        return heappop(queue) if queue and queue[0][0] <= limit else None

    def _head_key(self):
        """``(time, priority)`` at the head of the event list, or ``None``."""
        if self._sched is not None:
            return self._sched.peek_key()
        queue = self._queue
        return queue[0][:2] if queue else None

    def _next(self, limit: float = inf):
        """Pop the next entry to dispatch if its time is ``<= limit``.

        Under an installed perturbation, a run of entries tying on
        ``(time, priority)`` at the head of the event list is drained as
        one group, shuffled by the perturbation's seeded RNG, and handed
        out from ``_tie_pending``.  Events scheduled *while* the group
        dispatches form later groups of their own, so every shuffled
        schedule is still causally valid; URGENT never mixes with NORMAL
        (unequal priority ends the group).  A ``StopSimulation``
        mid-group is safe: the remainder stays parked for the next call.
        """
        pending = self._tie_pending
        if pending:
            return pending.popleft() if pending[0][0] <= limit else None
        entry = self._pop_until(limit)
        if entry is None or self._perturb is None:
            return entry
        key = entry[:2]
        group = [entry]
        while self._head_key() == key:
            group.append(self._pop_until(limit))
        if len(group) == 1:
            return entry
        self._perturb.shuffle_ties(group)
        pending.extend(group)
        return pending.popleft()

    def _dispatch(self, entry) -> None:
        """Advance the clock to ``entry`` and run its event's callbacks.

        Reference implementation of event dispatch — the inlined loop in
        :meth:`_run_heap` must stay behaviorally identical to this.
        """
        when, _prio, _seq, event = entry
        if when < self._now:
            raise SimulationError("event queue went back in time")
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        self._nprocessed += 1
        if self.tracer is not None:
            self.tracer.record(when, event)
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._defused:
            # A failure nobody was waiting on: surface it loudly.
            raise event._value

    def step(self) -> None:
        """Process exactly one event; raise
        :class:`~repro.errors.SimulationError` if the queue is empty."""
        entry = self._next()
        if entry is None:
            raise SimulationError("event queue is empty")
        self._dispatch(entry)

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until that simulated time), or an :class:`Event` (run until it
        is processed; its value is returned — a failed event re-raises).

        The tracer is sampled once on entry: assigning ``engine.tracer``
        takes effect on the next :meth:`run` call, not mid-loop.
        """
        stop_at: Optional[float] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            def _halt(ev: Event) -> None:
                if not ev.ok:
                    ev.defuse()
                raise StopSimulation(ev)
            if until.processed:
                if not until.ok:
                    raise until.value
                return until.value
            until.callbacks.append(_halt)
        else:
            stop_at = float(until)
            if stop_at < self._now:
                raise SimulationError(
                    f"run(until={stop_at}) is in the past (now={self._now})")
        limit = inf if stop_at is None else stop_at

        try:
            if self._sched is not None or self._perturb is not None:
                while (entry := self._next(limit)) is not None:
                    self._dispatch(entry)
            else:
                self._run_heap(limit)
        except StopSimulation as stop:
            ev: Event = stop.value
            if not ev.ok:
                raise ev.value from None
            return ev.value
        if isinstance(until, Event):
            raise SimulationError(
                f"simulation ran dry before {until!r} triggered")
        if stop_at is not None:
            self._now = stop_at
        return None

    def _run_heap(self, limit: float) -> None:
        """:meth:`_next` + :meth:`_dispatch` inlined for the default heap
        with no perturbation installed."""
        queue = self._queue
        pop = heappop
        tracer = self.tracer
        record = tracer.record if tracer is not None else None
        nprocessed = self._nprocessed
        try:
            while queue and queue[0][0] <= limit:
                when, _prio, _seq, event = pop(queue)
                if when < self._now:
                    raise SimulationError("event queue went back in time")
                self._now = when
                callbacks, event.callbacks = event.callbacks, None
                nprocessed += 1
                if record is not None:
                    record(when, event)
                for cb in callbacks:
                    cb(event)
                if not event._ok and not event._defused:
                    raise event._value
        finally:
            self._nprocessed = nprocessed

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._tie_pending:
            return self._tie_pending[0][0]
        key = self._head_key()
        return key[0] if key is not None else inf

    def __repr__(self) -> str:
        return (f"<Engine t={self._now:.9g} queued={self.pending} "
                f"processed={self._nprocessed} sched={self.scheduler}>")
