"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence with an optional value.  Simulated
processes wait for events by ``yield``-ing them; the engine resumes the
process when the event is *processed* (its callbacks run).

Events go through three states:

``pending``    created but not yet triggered;
``triggered``  scheduled on the engine's queue with a value or an exception;
``processed``  callbacks have run (waiting processes resumed).

Hot-path note: triggering an event builds the ``(time, priority, seq,
event)`` queue entry inline and hands it straight to the engine's
pre-bound ``_push`` callable — events are created and triggered once per
simulated hop, so an extra call and the ``triggered`` property lookups
measurably tax large simulations.  ``_push`` is ``heappush`` partial-bound to the queue list
under the default heap scheduler and ``CalendarQueue.push`` under the
calendar scheduler; the entry layout and the ``(time, priority, seq)``
total order are part of the engine's contract and must match
:mod:`repro.sim.engine`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from repro.errors import SimulationError

#: Sentinel for "no value yet".
_PENDING = object()

#: Priority for ordinary events (the public name is ``engine.NORMAL``;
#: duplicated here because the engine module imports this one).
_NORMAL = 1


class Event:
    """A one-shot occurrence that simulated processes can wait on.

    Parameters
    ----------
    engine:
        The owning :class:`~repro.sim.engine.Engine`.
    name:
        Optional label used in traces and ``repr``.
    """

    __slots__ = ("engine", "name", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, engine, name: Optional[str] = None):
        self.engine = engine
        self.name = name
        #: Callbacks run when the event is processed; ``None`` once processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        # A failed event whose exception was delivered somewhere (a waiting
        # process, a condition) is "defused"; undefused failures crash the
        # engine at processing time so errors are never silently dropped.
        self._defused = False

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value/exception and is queued."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event succeeded with (or its exception)."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None, priority: Optional[int] = None,
                delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``; it is processed
        ``delay`` from now (``triggered`` holds at once)."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        engine = self.engine
        engine._seq = seq = engine._seq + 1
        engine._push((engine._now + delay,
                      _NORMAL if priority is None else priority, seq, self))
        return self

    def fire(self, value: Any = None) -> None:
        """Trigger the event successfully and process it *now*: the callbacks
        run in order inside the caller's event and waiting processes resume
        there — the event is never dispatched.  For a completion caused by
        the event being processed (the frame has left the NIC).  Only an
        event callback runs waiters inline: from inside a process step, or
        while a waiter has an interrupt in flight (a kill must find it still
        parked), this is :meth:`succeed` and the waiters take the queue.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if self.engine.active_process is not None:
            self.succeed(value)
            return
        for cb in self.callbacks:
            if getattr(getattr(cb, "__self__", None), "_interrupts", None):
                self.succeed(value)
                return
        self._ok = True
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        for cb in callbacks:
            cb(self)

    def fail(self, exc: BaseException, priority: Optional[int] = None) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on the event;
        if nobody waits, the engine raises it at processing time.
        """
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exc
        engine = self.engine
        engine._seq = seq = engine._seq + 1
        engine._push((engine._now,
                      _NORMAL if priority is None else priority, seq, self))
        return self

    def trigger_from(self, other: "Event") -> None:
        """Copy the outcome of an already-triggered event onto this one."""
        if other.ok:
            self.succeed(other.value)
        else:
            other.defuse()
            self.fail(other.value)

    def defuse(self) -> None:
        """Mark a failure as handled so the engine does not re-raise it."""
        self._defused = True

    # -- composition ---------------------------------------------------

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.engine, [self, other])

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.engine, [self, other])

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` units of simulated time in the future.

    The constructor is fully inlined (no ``super().__init__`` call):
    timeouts are the most-allocated object in any simulation, one per
    modelled latency charge.
    """

    __slots__ = ("delay",)

    def __init__(self, engine, delay: float, value: Any = None,
                 name: Optional[str] = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        self.engine = engine
        self.name = name
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        engine._seq = seq = engine._seq + 1
        engine._push((engine._now + delay, _NORMAL, seq, self))

    @classmethod
    def at(cls, engine, when: float, value: Any = None,
           name: Optional[str] = None) -> "Timeout":
        """A timeout that fires at the absolute time ``when``.  For a chain
        of charges folded into one event: ``(now + a) + b`` is the instant
        the chain used to reach, ``now + (a + b)`` need not be."""
        self = cls.__new__(cls)
        self.engine = engine
        self.name = name
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay = when - engine._now
        if delay < 0:
            raise SimulationError(f"timeout at {when!r} is in the past")
        engine._seq = seq = engine._seq + 1
        engine._push((when, _NORMAL, seq, self))
        return self


class Condition(Event):
    """An event that triggers when ``evaluate(events, n_done)`` is true.

    Used through the :class:`AnyOf` / :class:`AllOf` subclasses (also
    reachable with ``ev1 | ev2`` and ``ev1 & ev2``).  The condition's value
    is an ordered dict of the *triggered* constituent events to their values,
    so a waiting process can tell which events fired.
    """

    __slots__ = ("events", "_evaluate", "_done", "_fired")

    def __init__(self, engine, evaluate: Callable[[List[Event], int], bool],
                 events: Iterable[Event], name: Optional[str] = None):
        # Inlined Event.__init__: one condition per awaited step event in
        # the runtime scheduler makes this a hot constructor.
        self.engine = engine
        self.name = name
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self.events = events = list(events)
        self._evaluate = evaluate
        self._done = 0
        self._fired = set()
        for ev in events:
            if ev.engine is not engine:
                raise SimulationError("condition mixes events of two engines")

        # Immediately-satisfiable conditions (e.g. AllOf([]) or AnyOf with an
        # already-processed event) must still go through the queue for
        # deterministic ordering.
        if not events:
            if evaluate(events, 0):
                self.succeed(self._collect())
            return
        on_event = self._on_event
        for ev in events:
            cbs = ev.callbacks
            if cbs is None:
                on_event(ev)
            else:
                cbs.append(on_event)

    def _collect(self):
        # Only events whose processing we have *observed* count as fired:
        # a Timeout is "triggered" from birth but has not happened yet.
        return {ev: ev.value for ev in self.events if ev in self._fired}

    def _on_event(self, event: Event) -> None:
        if self.triggered:
            if not event.ok:
                # Someone else already resolved the condition; do not let the
                # late failure crash the engine — propagate is impossible.
                event.defuse()
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            return
        self._fired.add(event)
        self._done += 1
        if self._evaluate(self.events, self._done):
            self.succeed(self._collect())


class AnyOf(Condition):
    """Triggers as soon as one constituent event succeeds."""

    __slots__ = ()

    def __init__(self, engine, events: Iterable[Event], name=None):
        super().__init__(engine, lambda evs, n: n > 0 or not evs, events,
                         name=name)


class AllOf(Condition):
    """Triggers once every constituent event has succeeded."""

    __slots__ = ()

    def __init__(self, engine, events: Iterable[Event], name=None):
        super().__init__(engine, lambda evs, n: n >= len(evs), events,
                         name=name)
