"""Simulated processes.

A process wraps a Python generator.  Each time the generator yields an
:class:`~repro.sim.events.Event`, the process suspends until that event is
processed; the event's value is sent back into the generator (or its
exception thrown into it).  When the generator returns, the process's own
event succeeds with the return value, so processes compose: one process can
``yield`` another to wait for its completion.

Hot-path note: ``generator.send`` / ``generator.throw`` are bound once at
construction, and the helper events a process creates (start/bounce/
interrupt) only carry a name when the engine is tracing — names exist for
traces and ``repr`` only, and the f-strings are a measurable cost at
millions of resumptions.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Optional

from repro.errors import Interrupt, SimulationError
from repro.sim.events import _PENDING, Event


class Process(Event):
    """A running simulated process (also an event: fires on termination)."""

    __slots__ = ("generator", "_send", "_throw", "_target", "_interrupts")

    def __init__(self, engine, generator: GeneratorType,
                 name: Optional[str] = None):
        if generator.__class__ is not GeneratorType:
            raise SimulationError(
                f"Process needs a generator, got {generator!r} — did you "
                "forget to call the process function?")
        # Inlined Event.__init__ (one process per isend makes this hot).
        self.engine = engine
        self.name = name or generator.__name__
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self.generator = generator
        self._send = generator.send
        self._throw = generator.throw
        #: The event this process is currently waiting on (None when ready).
        self._interrupts: list = []
        # Kick the process off via an immediately-succeeding event so that
        # it starts inside the engine loop, in deterministic order.
        start = Event(engine,
                      name=f"start:{self.name}"
                      if engine.tracer is not None else None)
        start.callbacks.append(self._resume)
        start.succeed()
        self._target = start

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`~repro.errors.Interrupt` into the process.

        The interrupt is delivered via the queue (never synchronously), so
        the interrupter keeps running first.  Interrupting a terminated
        process is an error; interrupting a process twice before it handles
        the first interrupt delivers both, in order.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt dead process {self!r}")
        if self is self.engine.active_process:
            raise SimulationError("a process cannot interrupt itself")
        hit = Event(self.engine,
                    name=f"interrupt:{self.name}"
                    if self.engine.tracer is not None else None)
        self._interrupts.append(cause)
        self.engine._interrupts_due += 1
        hit.callbacks.append(self._deliver_interrupt)
        hit.succeed()

    def _deliver_interrupt(self, _event: Event) -> None:
        self.engine._interrupts_due -= 1
        if self.triggered or not self._interrupts:
            return
        self.abandon_wait(Interrupt(self._interrupts.pop(0)))

    def abandon_wait(self, exc: BaseException) -> None:
        """Resume the parked process *now* by throwing ``exc`` into it,
        giving up whatever it was waiting for.  Only from an event callback
        (never from inside a process step)."""
        target = self._target
        if target is not None and not target.processed:
            # Detach from whatever we were waiting for; a later failure of
            # the abandoned event must not crash the engine as unhandled.
            if target.callbacks is not None and self._resume in target.callbacks:
                target.callbacks.remove(self._resume)
            target.defuse()
            if target._ok:
                # The abandoned event already *succeeded* — a channel put()
                # handed it an item in this same instant, and defusing it
                # would silently swallow that item.  Events that carry live
                # cargo expose salvage() to give it back to their source
                # (see channel._GetEvent).
                salvage = getattr(target, "salvage", None)
                if salvage is not None:
                    salvage()
        self._target = None
        self._step(throw=exc)

    def _resume(self, event: Event) -> None:
        self._target = None
        if event._ok:
            self._step(event._value)
        else:
            event._defused = True
            self._step(throw=event._value)

    def _step(self, send: Any = None, throw: Optional[BaseException] = None):
        engine = self.engine
        prev = engine.active_process
        engine.active_process = self
        try:
            if throw is not None:
                target = self._throw(throw)
            else:
                target = self._send(send)
        except StopIteration as stop:
            engine.active_process = prev
            self.succeed(stop.value)
            return
        except BaseException as exc:
            engine.active_process = prev
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return
        engine.active_process = prev

        if not isinstance(target, Event):
            msg = (f"process {self.name!r} yielded {target!r}; processes may "
                   "only yield events (did you mean 'yield from'?)")
            self._step(throw=SimulationError(msg))
            return
        if target.engine is not engine:
            self._step(throw=SimulationError(
                f"process {self.name!r} yielded an event of another engine"))
            return
        callbacks = target.callbacks
        if callbacks is None:
            # Already over: resume immediately but through the queue, to
            # keep scheduling deterministic.
            bounce = Event(engine,
                           name=f"bounce:{self.name}"
                           if engine.tracer is not None else None)
            bounce.callbacks.append(self._resume)
            bounce.trigger_from(target)
            self._target = bounce
        else:
            callbacks.append(self._resume)
            self._target = target

    def __repr__(self) -> str:
        state = "dead" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
