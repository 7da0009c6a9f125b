"""Property tests: channel edges under the perturbed scheduler.

The satellite guarantee of the repro.check PR: across *any* tie-break
order the perturbation explores, no ``put()`` item is ever lost or
double-delivered — including when getters are interrupted (the app-
process scheduler pattern) or the channel closes mid-traffic (a crashed
peer).  These properties pinned two delivery-path bugs: a priority
channel's ``put`` handing items to defused getters (that channel is gone
since), and ``get_nowait`` spinning ``(False, None)`` forever on a closed
channel.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import Jacobi1D
from repro.check import SchedulePerturbation
from repro.cluster import ClusterSpec
from repro.core import AppSpec, CheckpointConfig, FaultPolicy, StarfishCluster
from repro.core.program import StarfishProgram
from repro.errors import ConnectionClosed, Interrupt, SimulationError
from repro.sim import Channel, Engine, Mailbox


def _run_traffic(pseed, n_items, n_getters, interrupt_mask, close_at_end):
    """Producers, getters, and an interrupter all collide on the same
    instants; returns (received, leftovers, n_puts)."""
    eng = Engine(seed=0)
    eng.set_perturbation(SchedulePerturbation(pseed))
    ch = Channel(eng, name="traffic")
    received = []

    def producer(base):
        # Two put instants per producer, colliding with getter wakeups.
        for i, item in enumerate(base):
            yield eng.timeout(1.0 if i % 2 == 0 else 2.0)
            try:
                ch.put(item)
            except SimulationError:      # closed: the item was never put
                produced.remove(item)

    def getter(idx):
        try:
            while True:
                item = yield ch.get()
                received.append(item)
        except (Interrupt, ConnectionClosed):
            return

    items = list(range(n_items))
    produced = list(items)
    half = max(1, n_items // 2)
    eng.process(producer(items[:half]))
    eng.process(producer(items[half:]))
    getters = [eng.process(getter(i)) for i in range(n_getters)]

    def director():
        yield eng.timeout(1.0)           # collides with the first puts
        for g, hit in zip(getters, interrupt_mask):
            if hit and not g.triggered:
                g.interrupt()
        yield eng.timeout(1.0)           # collides with the second puts
        if close_at_end:
            ch.close(ConnectionClosed("peer died"))

    eng.process(director())
    eng.run()
    # Surviving getters still parked on get() at run-dry are fine; drain
    # whatever no getter consumed.
    leftovers = ch.drain() if not close_at_end else _drain_closed(ch)
    return received, leftovers, produced


def _drain_closed(ch):
    out = []
    while True:
        try:
            ok, item = ch.get_nowait()
        except ConnectionClosed:
            return out
        if not ok:
            return out
        out.append(item)


@settings(max_examples=60, deadline=None)
@given(pseed=st.integers(0, 10**9),
       n_items=st.integers(1, 16),
       interrupt_mask=st.lists(st.booleans(), min_size=3, max_size=3),
       close_at_end=st.booleans())
def test_no_item_lost_or_double_delivered(pseed, n_items, interrupt_mask,
                                          close_at_end):
    received, leftovers, produced = _run_traffic(
        pseed, n_items, n_getters=3, interrupt_mask=interrupt_mask,
        close_at_end=close_at_end)
    assert Counter(received) + Counter(leftovers) == Counter(produced)


@settings(max_examples=30, deadline=None)
@given(pseed=st.integers(0, 10**9), n_items=st.integers(1, 12))
def test_plain_channel_stays_fifo_under_any_tie_order(pseed, n_items):
    """One producer, one getter: per-channel FIFO survives the shuffle
    (puts happen at distinct instants, so their order is causal)."""
    eng = Engine(seed=0)
    eng.set_perturbation(SchedulePerturbation(pseed))
    ch = Channel(eng)
    received = []

    def producer():
        for i in range(n_items):
            yield eng.timeout(0.5)
            ch.put(i)

    def getter():
        for _ in range(n_items):
            received.append((yield ch.get()))

    eng.process(producer())
    eng.process(getter())
    eng.run()
    assert received == list(range(n_items))


@settings(max_examples=30, deadline=None)
@given(pseed=st.integers(0, 10**9))
def test_closed_channel_poll_never_spins(pseed):
    """After close+drain, get_nowait raises instead of returning
    (False, None) — under every tie order."""
    eng = Engine(seed=0)
    eng.set_perturbation(SchedulePerturbation(pseed))
    ch = Channel(eng)
    outcome = []

    def poller():
        while True:
            try:
                ok, item = ch.get_nowait()
            except ConnectionClosed:
                outcome.append("closed")
                return
            if ok:
                outcome.append(item)
            yield eng.timeout(0.25)

    def closer():
        yield eng.timeout(1.0)
        ch.put("last")
        ch.close(ConnectionClosed("peer died"))

    eng.process(poller())
    eng.process(closer())
    eng.run()
    assert outcome[-1] == "closed"
    assert outcome[:-1] == ["last"]


@settings(max_examples=60, deadline=None)
@given(pseed=st.integers(0, 10**9), n_items=st.integers(1, 16),
       slow=st.sets(st.integers(0, 15)), interrupt=st.booleans())
def test_mailbox_handles_each_delivery_once_in_order_never_nested(
        pseed, n_items, slow, interrupt):
    """A served mailbox fed from a process, from bare callbacks and from
    its own handler, with handlers that wait and an interrupt colliding on
    the same instants: under every tie order each delivery is handled once
    or left queued, each producer's items keep their order, and no handler
    runs inside another."""
    eng = Engine(seed=0)
    eng.set_perturbation(SchedulePerturbation(pseed))
    box = Mailbox(eng, name="box")
    handled, depth = [], [0]

    def handler(item):
        assert depth[0] == 0
        depth[0] += 1
        handled.append(item)
        if isinstance(item, int) and item % 3 == 0:
            box.deliver(("echo", item))         # self-post from a handler
        depth[0] -= 1
        return wait() if item in slow else None

    def wait():
        yield eng.timeout(0.5)

    def consumer():
        try:
            yield from box.serve(handler)
        except Interrupt:
            return

    def producer(items):
        for item in items:
            yield eng.timeout(1.0)
            box.deliver(item)

    server = eng.process(consumer())
    evens, odds = list(range(0, n_items, 2)), list(range(1, n_items, 2))
    eng.process(producer(evens))
    for k, item in enumerate(odds):             # same instants, no process
        eng.timeout(1.0 + k).callbacks.append(
            lambda _e, item=item: box.deliver(item))

    def director():
        yield eng.timeout(2.0)
        if interrupt and server.is_alive:
            server.interrupt()

    eng.process(director())
    eng.run()
    leftovers = [i for i in box.drain() if not hasattr(i, "send")]
    ints = [i for i in handled if isinstance(i, int)]
    if not interrupt:
        assert leftovers == []
    assert Counter(handled) + Counter(leftovers) == Counter(
        list(range(n_items)) + [("echo", i) for i in ints if i % 3 == 0])
    for mine in (evens, odds):
        got = [i for i in ints if i in mine]
        assert got == mine[:len(got)]


# -- a rank crash under every tie order: the step waits and their aborts -------

class CountRounds(StarfishProgram):
    """Twenty allreduce rounds; the result does not depend on the world."""

    def setup(self, ctx):
        self.state["rounds"] = 0

    def step(self, ctx):
        yield from ctx.mpi.allreduce(1)
        yield from ctx.sleep(0.02)
        self.state["rounds"] += 1

    def is_done(self, ctx):
        return self.state["rounds"] >= 20

    def finalize(self, ctx):
        return self.state["rounds"]


_JACOBI = dict(program=Jacobi1D, ft_policy=FaultPolicy.RESTART,
               params={"n": 96, "iterations": 60, "iters_per_step": 5,
                       "compute_ns_per_cell": 2e5},
               checkpoint=CheckpointConfig(protocol="stop-and-sync",
                                           level="vm", interval=0.1))
_ROUNDS = dict(program=CountRounds, ft_policy=FaultPolicy.VIEW_NOTIFY)
_failure_free = {}


def _crash_run(app, pseed, crash_at, victim):
    """3 ranks on 4 nodes; crash ``victim``'s node ``crash_at`` after the
    submit (``None``: never).  Returns ``(results, survivors)``."""
    sf = StarfishCluster.build(spec=ClusterSpec(nodes=4, perturb_seed=pseed))
    handle = sf.submit(AppSpec(nprocs=3, **app))
    survivors = (0, 1, 2)
    if crash_at is not None:
        sf.engine.run(until=sf.engine.now + crash_at)
        if not handle.finished:
            sf.crash_node(handle._record().placement[victim])
            if app is _ROUNDS:
                survivors = tuple(r for r in survivors if r != victim)
    return sf.run_to_completion(handle, timeout=120), survivors


@settings(max_examples=25, deadline=None)
@given(pseed=st.integers(0, 10**9), victim=st.integers(0, 2),
       crash_at=st.floats(0.01, 0.6), restart=st.booleans())
def test_rank_crash_leaves_the_failure_free_result_under_any_tie_order(
        pseed, victim, crash_at, restart):
    """Jacobi rolled back by a coordinated restart (every rank is killed
    mid-wait), or allreduce rounds under view-notify (the survivors' steps
    are aborted mid-receive and re-executed on the shrunk world): whatever
    order the same-instant events take, the results are the failure-free
    ones.  The window spans the whole run: a crash while the survivors
    are still in MPI_Init (they wait on the shrunk world), and one after
    they have finished (completion is re-checked when the view shrinks
    the placement).  It starts at 0.01 s because at 0.0 the harness would
    read a placement before the submit is applied."""
    app = _JACOBI if restart else _ROUNDS
    if restart not in _failure_free:
        _failure_free[restart] = _crash_run(app, None, None, None)[0]
    results, survivors = _crash_run(app, pseed, crash_at, victim)
    assert results == {rank: _failure_free[restart][rank]
                       for rank in survivors}
