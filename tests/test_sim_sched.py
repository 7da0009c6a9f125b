"""Unit + conformance tests for the pluggable event-list schedulers.

The :class:`~repro.sim.sched.CalendarQueue` promises *byte-identical*
dispatch order to the reference ``heapq`` scheduler — including
same-instant ``(time, priority)`` tie groups, which the perturbation
machinery shuffles as a unit.  These tests pin that contract directly
(randomized heap-vs-calendar drains) and at the engine level (identical
dispatch sequences with and without an installed perturbation), plus the
calendar's own mechanics: staging, resizing, periodic re-widthing and the
epoch floor.
"""

import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine
from repro.sim.sched import (_REWIDTH_POPS, MIN_BUCKETS, SCHEDULERS,
                             CalendarQueue)

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

_seq = itertools.count()


def _entry(time, priority=1):
    """A heap entry shaped like the engine's (time, priority, seq, event)."""
    return (time, priority, next(_seq), object())


def _drain(queue):
    out = []
    while queue:
        out.append(queue.pop())
    return out


# ---------------------------------------------------------------------------
# construction / validation
# ---------------------------------------------------------------------------

def test_invalid_width_rejected():
    with pytest.raises(ValueError):
        CalendarQueue(width=0.0)
    with pytest.raises(ValueError):
        CalendarQueue(width=-1.0)


def test_non_power_of_two_buckets_rejected():
    with pytest.raises(ValueError):
        CalendarQueue(nbuckets=12)
    with pytest.raises(ValueError):
        CalendarQueue(nbuckets=0)


def test_engine_rejects_unknown_scheduler():
    with pytest.raises(ValueError):
        Engine(scheduler="splay-tree")


# ---------------------------------------------------------------------------
# basic ordering
# ---------------------------------------------------------------------------

def test_empty_queue_behaviour():
    q = CalendarQueue()
    assert len(q) == 0
    assert not q
    assert q.pop() is None
    assert q.pop_until(10.0) is None
    assert q.peek_key() is None


def test_pops_in_time_priority_seq_order():
    q = CalendarQueue()
    entries = [_entry(3.0), _entry(1.0), _entry(2.0, priority=0),
               _entry(2.0, priority=1), _entry(0.5)]
    for e in entries:
        q.push(e)
    assert _drain(q) == sorted(entries)


def test_same_instant_ties_pop_in_insertion_order():
    q = CalendarQueue()
    ties = [_entry(1.0) for _ in range(20)]
    for e in ties:
        q.push(e)
    assert _drain(q) == ties        # seq rises with insertion order


def test_len_and_bool_include_staged_pushes():
    q = CalendarQueue()
    q.push(_entry(1.0))
    q.push(_entry(2.0))
    # Nothing drained yet — the staging list must still count.
    assert len(q) == 2
    assert bool(q)
    assert q.peek_key() == (1.0, 1)     # peek folds staging in
    assert len(q) == 2


def test_pop_until_respects_limit_and_leaves_entry_queued():
    q = CalendarQueue()
    late = _entry(5.0)
    q.push(late)
    assert q.pop_until(1.0) is None
    assert len(q) == 1              # still queued
    assert q.pop_until(5.0) == late
    assert len(q) == 0


def test_declined_pop_until_does_not_advance_epoch():
    """Regression: a peek/declined pop_until must not advance the scan
    epoch.  If it does, pushes landing on days between the last pop and
    the declined head get skipped and the queue dispatches out of order
    (the engine then dies with "event queue went back in time")."""
    q = CalendarQueue(width=0.001)
    first = _entry(0.0004)
    q.push(first)
    assert q.pop() == first         # _last = 0.0004
    far = _entry(1.0)               # hundreds of days ahead
    q.push(far)
    assert q.pop_until(0.5) is None          # declines; must not move epoch
    near = _entry(0.01)             # lands between _last and far
    q.push(near)
    assert q.pop() == near
    assert q.pop() == far


def test_peek_after_far_future_entry_keeps_order():
    """Same hazard via peek_key: peeking at an entry a full year of days
    away (direct-search path) must leave the epoch on the floor."""
    q = CalendarQueue(width=0.001, nbuckets=16)
    far = _entry(10.0)              # >> 16 buckets * 1ms = one 16ms year
    q.push(far)
    assert q.peek_key() == (10.0, 1)
    near = _entry(0.005)
    q.push(near)
    assert q.pop() == near
    assert q.pop() == far


# ---------------------------------------------------------------------------
# resizing / telemetry
# ---------------------------------------------------------------------------

def test_grows_past_min_buckets_and_counts_resizes():
    q = CalendarQueue()
    for i in range(200):
        q.push(_entry(i * 0.01))
    q.peek_key()                    # forces the drain (and the grow)
    assert q.nbuckets > MIN_BUCKETS
    assert q.resizes >= 1
    assert len(q) == 200


def test_shrinks_back_down_after_draining():
    q = CalendarQueue()
    entries = [_entry(i * 0.01) for i in range(300)]
    for e in entries:
        q.push(e)
    assert _drain(q) == entries
    assert q.nbuckets == MIN_BUCKETS


def test_resize_preserves_order_and_ties():
    q = CalendarQueue()
    entries = ([_entry(1.0) for _ in range(40)]
               + [_entry(0.25 * i) for i in range(100)])
    for e in entries:
        q.push(e)
    assert _drain(q) == sorted(entries)


def test_direct_search_counted_for_far_future_entry():
    q = CalendarQueue(width=0.001, nbuckets=16)
    q.push(_entry(100.0))           # far beyond one year of days
    assert q.peek_key() == (100.0, 1)
    assert q.direct_searches >= 1


def test_width_adapts_to_schedule_density():
    q = CalendarQueue()
    for i in range(200):
        q.push(_entry(i * 0.5))     # 0.5s spacing
    q.peek_key()
    assert q.resizes >= 1
    assert q.width == pytest.approx(1.5)     # 3x the uniform gap


def test_width_re_estimated_at_steady_occupancy():
    """A hold model (one push per pop) never crosses an occupancy
    threshold; the queue's own pop counter must still re-estimate the
    width when the schedule density changes — for any driver, not only
    an engine loop."""
    q = CalendarQueue()
    for i in range(64):
        q.push(_entry(i * 0.5))
    assert q.pop() is not None
    wide, resizes = q.width, q.resizes
    for i in range(_REWIDTH_POPS):
        q.push(_entry(32.0 + i * 0.001))     # 500x denser from here on
        assert q.pop() is not None
    assert q.resizes > resizes
    assert q.width < wide / 100


def test_width_estimate_survives_all_ties_sample():
    """200 same-instant entries: no usable gap — the resize must keep a
    sane width instead of dividing by zero or going to zero."""
    q = CalendarQueue()
    entries = [_entry(2.0) for _ in range(200)]
    for e in entries:
        q.push(e)
    q.peek_key()
    assert q.width > 0.0
    assert _drain(q) == entries


# ---------------------------------------------------------------------------
# heap conformance (the byte-identity contract)
# ---------------------------------------------------------------------------

# Coarse time grid + tiny priority range = heavy (time, priority) ties,
# the regime where bucket-heap ordering could plausibly diverge.
_times = st.integers(min_value=0, max_value=30).map(lambda i: i * 0.125)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _times,
                  st.integers(min_value=0, max_value=1)),
        st.tuples(st.just("pop"), st.just(0.0), st.just(0)),
    ),
    min_size=1, max_size=200)


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_calendar_matches_heap_under_interleaved_ops(ops):
    heap, cal = [], CalendarQueue()
    seq = itertools.count()
    floor = 0.0     # engine contract: pushes happen at t >= now
    for op, time, priority in ops:
        if op == "push":
            entry = (max(time, floor), priority, next(seq), None)
            heapq.heappush(heap, entry)
            cal.push(entry)
        else:
            expected = heapq.heappop(heap) if heap else None
            assert cal.pop() == expected
            if expected is not None:
                floor = expected[0]
    while heap:
        assert cal.pop() == heapq.heappop(heap)
    assert cal.pop() is None


@settings(max_examples=30, deadline=None)
@given(times=st.lists(_times, min_size=1, max_size=120),
       limits=st.lists(_times, min_size=1, max_size=20))
def test_pop_until_matches_heap(times, limits):
    heap, cal = [], CalendarQueue()
    seq = itertools.count()
    for t in times:
        entry = (t, 1, next(seq), None)
        heapq.heappush(heap, entry)
        cal.push(entry)
    for limit in limits:
        expected = (heapq.heappop(heap)
                    if heap and heap[0][0] <= limit else None)
        assert cal.pop_until(limit) == expected
    while heap:
        assert cal.pop() == heapq.heappop(heap)


# ---------------------------------------------------------------------------
# engine-level parity
# ---------------------------------------------------------------------------

def _tie_heavy_run(scheduler, perturb_seed=None):
    """A workload full of same-instant timeouts; returns the dispatch
    order as (time, tag) pairs."""
    eng = Engine(seed=7, scheduler=scheduler)
    if perturb_seed is not None:
        from repro.check.perturb import SchedulePerturbation
        eng.set_perturbation(SchedulePerturbation(perturb_seed))
    order = []

    def proc(tag):
        for step in range(5):
            yield eng.timeout(0.25)
            order.append((eng.now, tag))

    for tag in range(12):
        eng.process(proc(tag))
    eng.run()
    return order


def test_engine_calendar_matches_heap_dispatch():
    assert _tie_heavy_run("calendar") == _tie_heavy_run("heap")


@pytest.mark.parametrize("perturb_seed", [1, 2, 3])
def test_engine_calendar_matches_heap_under_perturbation(perturb_seed):
    """Perturbed tie groups are collected via peek_key/pop_until on the
    scheduler; the shuffled outcome must match the heap's exactly (same
    groups in, same seeded shuffle out)."""
    assert (_tie_heavy_run("calendar", perturb_seed)
            == _tie_heavy_run("heap", perturb_seed))


def test_engine_run_until_time_then_resume():
    """run(until=t) peeks at events beyond t; resuming with later pushes
    must stay ordered (the epoch-floor regression at engine level)."""
    results = {}
    for scheduler in SCHEDULERS:
        eng = Engine(scheduler=scheduler)
        order = []

        def proc():
            for _ in range(20):
                yield eng.timeout(0.3)
                order.append(eng.now)

        eng.process(proc())
        eng.run(until=1.0)
        assert eng.now == 1.0
        # Schedule fresh near-term work mid-run, then finish.
        def late():
            yield eng.timeout(0.05)
            order.append(eng.now)
        eng.process(late())
        eng.run()
        results[scheduler] = order
    assert results["calendar"] == results["heap"]


def test_engine_step_parity():
    for scheduler in SCHEDULERS:
        eng = Engine(scheduler=scheduler)
        eng.timeout(1.0)
        eng.timeout(0.5)
        eng.step()
        assert eng.now == 0.5
        eng.step()
        assert eng.now == 1.0
