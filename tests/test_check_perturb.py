"""The schedule perturbation: tie shuffling, jitter, and determinism."""

import pytest

from repro.check import SchedulePerturbation
from repro.errors import SimulationError
from repro.sim import Engine


def _dispatch_order(perturb_seed, n=12, driver="run"):
    """Order in which n same-instant processes run under one seed."""
    eng = Engine(seed=0)
    if perturb_seed is not None:
        eng.set_perturbation(SchedulePerturbation(perturb_seed))
    order = []

    def make(i):
        def proc():
            yield eng.timeout(1.0)
            order.append(i)
        return proc

    for i in range(n):
        eng.process(make(i)())
    if driver == "run":
        eng.run()
    else:
        while True:
            try:
                eng.step()
            except SimulationError:
                break
    return order


def test_no_perturbation_keeps_insertion_order():
    assert _dispatch_order(None) == list(range(12))


def test_tie_shuffle_changes_order_but_is_seed_deterministic():
    base = _dispatch_order(None)
    a1 = _dispatch_order(7)
    a2 = _dispatch_order(7)
    b = _dispatch_order(8)
    assert a1 == a2                      # same seed, same schedule
    assert sorted(a1) == sorted(base)    # a permutation, nothing lost
    assert a1 != base                    # 12! orders: collision ~ never
    assert b != a1


def test_step_and_run_dispatch_identically_under_perturbation():
    assert _dispatch_order(3, driver="step") == _dispatch_order(3)


def test_urgent_and_normal_never_mix_in_a_tie_group():
    """Unequal priority ends the group: an URGENT succeed() always beats
    same-instant NORMAL events, in every perturbed order."""
    for seed in range(5):
        eng = Engine()
        eng.set_perturbation(SchedulePerturbation(seed))
        order = []

        def normal(i):
            def proc():
                yield eng.timeout(1.0)
                order.append(("normal", i))
            return proc

        for i in range(6):
            eng.process(normal(i)())
        urgent = eng.event()
        urgent.callbacks.append(lambda ev: order.append(("urgent", 0)))

        def trigger():
            yield eng.timeout(1.0)
            urgent.succeed(priority=0)

        eng.process(trigger())
        eng.run()
        fired = order.index(("urgent", 0))
        before = [o for o in order[:fired] if o[0] == "normal"]
        # The trigger process is itself part of the t=1.0 NORMAL tie
        # group, so some normals may precede it — but once the URGENT
        # event exists it preempts every remaining NORMAL.
        assert order[fired][0] == "urgent"
        assert len(before) + 1 + (len(order) - fired - 1) == len(order)
        assert all(o[0] == "normal" for o in order[fired + 1:])


def test_set_perturbation_mid_group_refused():
    eng = Engine()
    eng.set_perturbation(SchedulePerturbation(1))
    done = []

    def proc(i):
        yield eng.timeout(1.0)
        done.append(i)

    for i in range(8):
        eng.process(proc(i))
    # step() far enough to have a shuffled remainder parked.
    while not done:
        eng.step()
    assert eng.pending
    with pytest.raises(SimulationError):
        eng.set_perturbation(None)


def test_peek_sees_parked_tie_group():
    eng = Engine()
    eng.set_perturbation(SchedulePerturbation(1))
    done = []

    def proc(i):
        yield eng.timeout(1.0)
        done.append(i)

    for i in range(8):
        eng.process(proc(i))
    while not done:
        eng.step()
    assert eng.pending
    assert eng.peek() == 1.0
    eng.run()
    assert sorted(done) == list(range(8))


def test_run_until_event_completes_under_perturbation():
    eng = Engine(seed=0)
    eng.set_perturbation(SchedulePerturbation(5))

    def child():
        yield eng.timeout(3)
        return "child-done"

    assert eng.run(eng.process(child())) == "child-done"
    assert eng.now == 3


def test_run_until_time_parks_future_events():
    eng = Engine()
    eng.set_perturbation(SchedulePerturbation(5))
    fired = []

    def proc():
        yield eng.timeout(2.0)
        fired.append(eng.now)

    eng.process(proc())
    eng.run(until=1.0)
    assert eng.now == 1.0 and not fired
    eng.run()
    assert fired == [2.0]


def test_jitter_draws_are_seeded_and_bounded():
    p1 = SchedulePerturbation(9, jitter=1e-5)
    p2 = SchedulePerturbation(9, jitter=1e-5)
    d1 = [p1.draw_jitter() for _ in range(100)]
    d2 = [p2.draw_jitter() for _ in range(100)]
    assert d1 == d2
    assert all(0.0 <= d < 1e-5 for d in d1)
    assert len(set(d1)) > 90
    with pytest.raises(ValueError):
        SchedulePerturbation(0, jitter=-1.0)


def test_jitter_preserves_per_link_fifo():
    """Frames on one (src, dst) link arrive in send order even when each
    frame's wire time is independently jittered."""
    from repro.cluster import Cluster, ClusterSpec
    from repro.net import Frame

    spec = ClusterSpec(nodes=2, perturb_seed=11, delivery_jitter=1e-4)
    cluster = Cluster.build(spec=spec)
    eng = cluster.engine
    n0, n1 = cluster.node("n0"), cluster.node("n1")
    rx = n1.nic("tcp-ethernet").open_port("svc")
    got = []

    def sender():
        for i in range(30):
            frame = Frame(src="n0", dst="n1", port="svc",
                          payload=i, size=64)
            yield from n0.nic("tcp-ethernet").send(frame)

    def receiver():
        for _ in range(30):
            frame = yield rx.get()
            got.append(frame.payload)

    eng.process(sender())
    p = eng.process(receiver())
    eng.run(p)
    assert got == list(range(30))


def test_cluster_spec_validates_perturbation_fields():
    from repro.cluster import ClusterSpec

    with pytest.raises(ValueError):
        ClusterSpec(delivery_jitter=-1e-6, perturb_seed=1)
    with pytest.raises(ValueError):
        ClusterSpec(delivery_jitter=1e-6)      # jitter needs a seed
    spec = ClusterSpec(perturb_seed=4, delivery_jitter=1e-6)
    eng = Engine.from_spec(spec)
    assert eng._perturb is not None
    assert eng._perturb.seed == 4
    assert eng._perturb.delivery_jitter == 1e-6
    assert Engine.from_spec(ClusterSpec())._perturb is None
