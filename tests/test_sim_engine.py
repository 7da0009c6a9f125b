"""Unit tests for the discrete-event kernel: engine, events, processes."""

import pytest

from repro.errors import Interrupt, SimulationError
from repro.sim import AllOf, AnyOf, Engine, Event


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_timeout_advances_clock():
    eng = Engine()

    def proc():
        yield eng.timeout(2.5)
        return eng.now

    p = eng.process(proc())
    assert eng.run(p) == 2.5
    assert eng.now == 2.5


def test_timeout_value_passthrough():
    eng = Engine()

    def proc():
        got = yield eng.timeout(1.0, value="hello")
        return got

    assert eng.run(eng.process(proc())) == "hello"


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.timeout(-1)


def test_process_return_value():
    eng = Engine()

    def proc():
        yield eng.timeout(0)
        return 42

    assert eng.run(eng.process(proc())) == 42


def test_process_requires_generator():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.process(lambda: None)  # type: ignore[arg-type]


def test_processes_compose_by_yielding():
    eng = Engine()

    def child():
        yield eng.timeout(3)
        return "child-done"

    def parent():
        result = yield eng.process(child())
        return result, eng.now

    assert eng.run(eng.process(parent())) == ("child-done", 3)


def test_same_time_events_fifo_order():
    eng = Engine()
    order = []

    def make(i):
        def proc():
            yield eng.timeout(1.0)
            order.append(i)
        return proc

    for i in range(10):
        eng.process(make(i)())
    eng.run()
    assert order == list(range(10))


def test_determinism_across_runs():
    def scenario():
        eng = Engine(seed=7)
        log = []

        def worker(i):
            for k in range(3):
                dt = float(eng.rng.stream("w").integers(1, 5))
                yield eng.timeout(dt)
                log.append((eng.now, i, k))

        for i in range(4):
            eng.process(worker(i))
        eng.run()
        return log

    assert scenario() == scenario()


def test_run_until_time():
    eng = Engine()
    ticks = []

    def ticker():
        while True:
            yield eng.timeout(1)
            ticks.append(eng.now)

    eng.process(ticker())
    eng.run(until=3.5)
    assert ticks == [1, 2, 3]
    assert eng.now == 3.5


def test_run_until_event_in_past_raises():
    eng = Engine()
    eng.process(iter_timeout(eng, 5))
    eng.run(until=5)
    with pytest.raises(SimulationError):
        eng.run(until=1)


def iter_timeout(eng, dt):
    yield eng.timeout(dt)


def test_run_until_untriggerable_event_raises():
    eng = Engine()
    ev = eng.event()
    with pytest.raises(SimulationError, match="ran dry"):
        eng.run(until=ev)


def test_event_succeed_once_only():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.event().fail("not an exception")  # type: ignore[arg-type]


def test_failed_event_raises_in_waiter():
    eng = Engine()
    ev = eng.event()

    def failer():
        yield eng.timeout(1)
        ev.fail(ValueError("boom"))

    def waiter():
        with pytest.raises(ValueError, match="boom"):
            yield ev
        return "handled"

    eng.process(failer())
    assert eng.run(eng.process(waiter())) == "handled"


def test_unhandled_failed_event_crashes_engine():
    eng = Engine()

    def failer():
        yield eng.timeout(1)
        eng.event().fail(RuntimeError("nobody listens"))

    eng.process(failer())
    with pytest.raises(RuntimeError, match="nobody listens"):
        eng.run()


def test_process_exception_propagates_to_run():
    eng = Engine()

    def bad():
        yield eng.timeout(1)
        raise KeyError("oops")

    p = eng.process(bad())
    with pytest.raises(KeyError):
        eng.run(p)


def test_yielding_non_event_is_error():
    eng = Engine()

    def bad():
        yield 42

    with pytest.raises(SimulationError, match="yield"):
        eng.run(eng.process(bad()))


def test_yield_already_processed_event():
    eng = Engine()
    ev = eng.event()
    ev.succeed("early")

    def late():
        yield eng.timeout(5)
        got = yield ev
        return got

    eng.run()  # processes ev
    assert ev.processed
    p = eng.process(late())
    assert eng.run(p) == "early"


def test_any_of_returns_first():
    eng = Engine()

    def proc():
        t1, t2 = eng.timeout(1, value="fast"), eng.timeout(2, value="slow")
        done = yield (t1 | t2)
        return list(done.values()), eng.now

    values, now = eng.run(eng.process(proc()))
    assert values == ["fast"]
    assert now == 1


def test_all_of_waits_for_all():
    eng = Engine()

    def proc():
        t1, t2 = eng.timeout(1, value="a"), eng.timeout(2, value="b")
        done = yield (t1 & t2)
        return sorted(done.values()), eng.now

    assert eng.run(eng.process(proc())) == (["a", "b"], 2)


def test_all_of_empty_triggers_immediately():
    eng = Engine()

    def proc():
        yield AllOf(eng, [])
        return eng.now

    assert eng.run(eng.process(proc())) == 0


def test_condition_failure_propagates():
    eng = Engine()
    ev = eng.event()

    def failer():
        yield eng.timeout(1)
        ev.fail(OSError("disk"))

    def waiter():
        with pytest.raises(OSError):
            yield AnyOf(eng, [ev, eng.timeout(10)])
        return True

    eng.process(failer())
    assert eng.run(eng.process(waiter()))


def test_interrupt_delivers_cause():
    eng = Engine()

    def victim():
        try:
            yield eng.timeout(100)
        except Interrupt as exc:
            return ("interrupted", exc.cause, eng.now)

    def attacker(v):
        yield eng.timeout(2)
        v.interrupt("node-crash")

    v = eng.process(victim())
    eng.process(attacker(v))
    assert eng.run(v) == ("interrupted", "node-crash", 2)


def test_interrupt_dead_process_is_error():
    eng = Engine()

    def victim():
        yield eng.timeout(1)

    v = eng.process(victim())
    eng.run()
    with pytest.raises(SimulationError):
        v.interrupt()


def test_self_interrupt_is_error():
    eng = Engine()

    def proc():
        me = eng.active_process
        with pytest.raises(SimulationError):
            me.interrupt()
        yield eng.timeout(0)
        return True

    assert eng.run(eng.process(proc()))


def test_double_interrupt_delivered_in_order():
    eng = Engine()
    causes = []

    def victim():
        for _ in range(2):
            try:
                yield eng.timeout(100)
            except Interrupt as exc:
                causes.append(exc.cause)
        yield eng.timeout(0)

    def attacker(v):
        yield eng.timeout(1)
        v.interrupt("first")
        v.interrupt("second")

    v = eng.process(victim())
    eng.process(attacker(v))
    eng.run(v)
    assert causes == ["first", "second"]


def test_interrupted_process_can_rewait_event():
    eng = Engine()
    ev = eng.event()

    def victim():
        try:
            yield ev
        except Interrupt:
            pass
        got = yield ev          # re-wait for the same event
        return got

    def driver(v):
        yield eng.timeout(1)
        v.interrupt()
        yield eng.timeout(1)
        ev.succeed("finally")

    v = eng.process(victim())
    eng.process(driver(v))
    assert eng.run(v) == "finally"


def test_is_alive_transitions():
    eng = Engine()

    def proc():
        yield eng.timeout(1)

    p = eng.process(proc())
    assert p.is_alive
    eng.run()
    assert not p.is_alive


def test_events_processed_counter_increases():
    eng = Engine()

    def proc():
        yield eng.timeout(1)
        yield eng.timeout(1)

    eng.run(eng.process(proc()))
    assert eng.events_processed >= 3


def test_peek_reports_next_event_time():
    eng = Engine()
    assert eng.peek() == float("inf")
    eng.timeout(4)
    assert eng.peek() == 4


# -- Event.fire(): a completion processed inside the event that caused it ------

def fire_from_a_callback(eng, event, value=None, at=1.0):
    """Call ``event.fire(value)`` from an event callback at time ``at``;
    returns the list that records what ``fire`` left behind at that instant."""
    seen = []

    def cause(_ev):
        event.fire(value)
        seen.append((event.triggered, event.processed))

    eng.timeout(at - eng.now).callbacks.append(cause)
    return seen


def test_fire_runs_callbacks_in_order_inside_the_caller():
    eng = Engine()
    done = eng.event()
    order = []

    def waiter(tag):
        got = yield done
        order.append((tag, got, eng.now))

    for tag in "ab":
        eng.process(waiter(tag))
    done.callbacks.insert(0, lambda ev: order.append(("cb", ev.value)))
    eng.run(until=0.5)                  # both waiters are parked on ``done``
    before = eng.events_processed
    seen = fire_from_a_callback(eng, done, "v")
    eng.run(until=1.0)
    # Plain callback first, then the processes in the order they yielded —
    # all at t=1.0, inside the one timeout event (``done`` is not dispatched).
    assert order == [("cb", "v"), ("a", "v", 1.0), ("b", "v", 1.0)]
    assert seen == [(True, True)]
    assert done.ok and done.value == "v" and done.callbacks is None
    # Dispatched: the timeout and the two process terminations.
    assert eng.events_processed == before + 3 and eng.pending == 0


def test_fired_event_is_processed_for_a_later_waiter():
    eng = Engine()
    done = eng.event()
    fire_from_a_callback(eng, done, 7)
    eng.run(until=2.0)

    def late():
        return (yield done)

    assert eng.run(eng.process(late())) == 7


def test_fire_takes_the_queue_when_a_waiter_has_an_interrupt_in_flight():
    eng = Engine()
    done = eng.event()
    log = []

    def waiter(tag):
        try:
            log.append((tag, (yield done)))
        except Interrupt as hit:
            log.append((tag, "interrupted", hit.cause))

    victim, other = eng.process(waiter("victim")), eng.process(waiter("other"))
    eng.run(until=0.5)

    def kill_then_complete(_ev):
        victim.interrupt("kill")
        done.fire("v")
        log.append(("fired", done.triggered, done.processed))

    eng.timeout(0.5).callbacks.append(kill_then_complete)
    eng.run()
    # Nobody ran inline; the interrupt, queued first, found its process
    # still parked — a kill wins — and the other waiter got the value from
    # the queue, in the same instant.
    assert log == [("fired", True, False), ("victim", "interrupted", "kill"),
                   ("other", "v")]
    assert other.ok and eng.now == 1.0


def test_fire_from_inside_a_process_step_takes_the_queue():
    eng = Engine()
    done = eng.event()
    log = []

    def waiter():
        log.append(("woke", (yield done)))

    def firer():
        yield eng.timeout(1.0)
        done.fire("v")
        log.append(("fired", done.triggered, done.processed))

    eng.process(waiter())
    eng.process(firer())
    eng.run()
    # The firing step finished first; the waiter resumed on a later event.
    assert log == [("fired", True, False), ("woke", "v")]


def test_fire_twice_or_after_succeed_is_an_error():
    eng = Engine()
    done = eng.event()
    seen = fire_from_a_callback(eng, done)
    eng.run()
    assert seen == [(True, True)]
    with pytest.raises(SimulationError):
        done.fire()
    with pytest.raises(SimulationError):
        done.succeed()
    queued = eng.event().succeed()
    with pytest.raises(SimulationError):
        queued.fire()


def test_succeed_with_a_delay_is_triggered_now_and_processed_later():
    eng = Engine()
    ev = eng.event()

    def proc():
        yield eng.timeout(1.0)
        ev.succeed("v", delay=0.25)
        assert ev.triggered and not ev.processed
        got = yield ev
        return got, eng.now

    assert eng.run(eng.process(proc())) == ("v", 1.25)
