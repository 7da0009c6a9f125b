"""Deterministic discrete-event simulation kernel (system S1).

This is the substrate everything else in the Starfish reproduction runs on:
daemons, application processes, network devices and disks are all simulated
processes written as Python generators that ``yield`` *events* to the
:class:`~repro.sim.engine.Engine`.

The kernel is deliberately SimPy-flavoured (processes, timeouts, interrupts,
stores) but is implemented from scratch, fully deterministic (ties in the
event queue are broken by insertion order), and instrumented with a tracing
hook used by the Figure 6 layer-overhead benchmark.

Quick example::

    from repro.sim import Engine

    eng = Engine()

    def pinger(eng, ch):
        yield eng.timeout(1.0)
        ch.put("ping")

    def ponger(eng, ch):
        msg = yield ch.get()
        return msg, eng.now

    eng.process(pinger(eng, ch := __import__("repro.sim", fromlist=["Channel"]).Channel(eng)))
    p = eng.process(ponger(eng, ch))
    eng.run()
    assert p.value == ("ping", 1.0)
"""

from repro.errors import Interrupt, SimulationError, StopSimulation
from repro.sim.engine import Engine, NORMAL, URGENT
from repro.sim.events import AllOf, AnyOf, Condition, Event, Timeout
from repro.sim.process import Process
from repro.sim.channel import Channel, Mailbox
from repro.sim.rng import RngStreams
from repro.sim.sched import SCHEDULERS, CalendarQueue
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "CalendarQueue",
    "Channel",
    "Condition",
    "Engine",
    "Event",
    "Interrupt",
    "Mailbox",
    "NORMAL",
    "Process",
    "RngStreams",
    "SCHEDULERS",
    "SimulationError",
    "StopSimulation",
    "Timeout",
    "TraceRecord",
    "Tracer",
    "URGENT",
]
