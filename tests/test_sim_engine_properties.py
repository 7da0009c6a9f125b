"""Property-based tests of the event-kernel ordering guarantees.

The engine promises a *total* dispatch order over ``(time, priority,
sequence)`` — randomized schedules here pin that contract independently of
the hand-written unit tests, so hot-path rewrites of the dispatch loop
(see :mod:`repro.sim.engine`) cannot silently weaken it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import SchedulePerturbation
from repro.errors import SimulationError
from repro.sim import SCHEDULERS, Engine
from repro.sim.engine import NORMAL, URGENT
from repro.sim.events import Timeout

# A schedule entry: (delay-index into a small grid, urgent?).  Using a
# coarse delay grid forces many same-instant collisions, which is where
# ordering bugs hide.
entry = st.tuples(st.integers(0, 4), st.booleans())


def _schedule(eng, entries):
    """Schedule one timeout per entry; returns the list of scheduled
    (time, priority, seq) keys in creation order."""
    keys = []
    for delay_i, urgent in entries:
        delay = delay_i * 0.25
        if urgent:
            # A pre-triggered event scheduled urgent with a delay (the
            # shape GCS-style control events take on the heap).
            ev = eng.event()
            ev._ok = True
            ev._value = None
            eng._seq += 1
            eng._push((eng._now + delay, URGENT, eng._seq, ev))
        else:
            ev = Timeout(eng, delay)
        keys.append((eng._now + delay,
                     URGENT if urgent else NORMAL,
                     eng._seq))
        ev.callbacks.append(
            lambda e, k=keys[-1]: fired.append(k))
    return keys


@settings(max_examples=50, deadline=None)
@given(entries=st.lists(entry, min_size=1, max_size=40))
def test_dispatch_follows_time_priority_seq_total_order(entries):
    """Events fire exactly in sorted (time, priority, seq) order."""
    global fired
    fired = []
    eng = Engine()
    keys = _schedule(eng, entries)
    eng.run()
    assert fired == sorted(keys)
    assert len(fired) == len(entries)


@settings(max_examples=50, deadline=None)
@given(entries=st.lists(entry, min_size=2, max_size=40))
def test_equal_instant_equal_priority_is_fifo(entries):
    """At one (time, priority) bucket, creation order is dispatch order."""
    global fired
    fired = []
    eng = Engine()
    _schedule(eng, entries)
    eng.run()
    buckets = {}
    for t, prio, seq in fired:
        buckets.setdefault((t, prio), []).append(seq)
    for seqs in buckets.values():
        assert seqs == sorted(seqs)


@settings(max_examples=50, deadline=None)
@given(entries=st.lists(entry, min_size=1, max_size=40),
       step_count=st.integers(1, 8))
def test_peek_is_monotone_under_stepping(entries, step_count):
    """peek() never decreases as events are consumed, and always bounds
    the clock from above."""
    global fired
    fired = []
    eng = Engine()
    _schedule(eng, entries)
    last_peek = eng.peek()
    while eng.pending:
        assert eng.peek() >= last_peek
        assert eng.peek() >= eng.now
        last_peek = eng.peek()
        eng.step()
        assert eng.now == last_peek
    assert eng.peek() == float("inf")


@settings(max_examples=50, deadline=None)
@given(entries=st.lists(entry, min_size=1, max_size=30),
       cuts=st.lists(st.integers(0, 4), min_size=1, max_size=6))
def test_no_time_travel_across_interleaved_runs(entries, cuts):
    """Interleaved run(until=t) calls: the clock is monotone, reaches
    each deadline exactly, and the dispatch order is the same total
    order an uninterrupted run would produce."""
    global fired
    fired = []
    eng = Engine()
    keys = _schedule(eng, entries)

    deadlines = sorted(c * 0.25 for c in cuts)
    last_now = 0.0
    for t in deadlines:
        eng.run(until=t)
        assert eng.now == t
        assert eng.now >= last_now
        # Everything due strictly before the deadline has fired...
        assert all(k[0] <= t for k in fired)
        # ...and nothing due at or before it is still queued.
        assert eng.peek() > t
        last_now = eng.now
    eng.run()
    assert fired == sorted(keys)


def test_run_until_past_deadline_rejected():
    eng = Engine()
    Timeout(eng, 5.0)
    eng.run(until=3.0)
    with pytest.raises(SimulationError):
        eng.run(until=1.0)


def _step_all(eng, cuts):
    while eng.pending:
        eng.step()


def _sliced_run(eng, cuts):
    for t in sorted(c * 0.25 for c in cuts):
        eng.run(until=t)
    eng.run()


@pytest.mark.parametrize("perturb_seed", [None, 3])
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@settings(max_examples=30, deadline=None)
@given(entries=st.lists(entry, min_size=1, max_size=20),
       cuts=st.lists(st.integers(0, 4), min_size=1, max_size=4))
def test_step_and_run_agree(scheduler, perturb_seed, entries, cuts):
    """step() == run() == sliced run(until=t): one event at a time, the
    run() loop (inlined for the unperturbed heap) and run() re-entered at
    arbitrary deadlines all produce the identical dispatch order, on
    either event list, with or without a (same-seed) perturbation."""
    global fired
    orders = []
    for drive in (lambda eng, cuts: eng.run(), _step_all, _sliced_run):
        fired = []
        eng = Engine(scheduler=scheduler)
        if perturb_seed is not None:
            eng.set_perturbation(SchedulePerturbation(perturb_seed))
        _schedule(eng, entries)
        drive(eng, cuts)
        assert eng.pending == 0
        orders.append(fired)
    assert orders[0] == orders[1] == orders[2]
    assert len(orders[0]) == len(entries)
