"""Casts are repaired by sequence number, not acknowledged copy by copy
(DESIGN §23).

The coordinator relays each ``Ordered`` bare; a member that finds a hole
in the view's sequence — an ``Ordered`` past it, or a coordinator ``Hb``
counting more casts than it has seen — asks for the missing range with a
``Nack``, at once and again every tick while the hole lasts, and the
coordinator answers from the view's delivery history.  These tests pin the
frame cost of a cast, the repair of a dropped copy under the default and
the quiet configuration, each rule of the record, the 20 % loss sweep, and
the one ordering fact that is new: a coordinator's ``P2p`` can overtake an
``Ordered`` it sequenced earlier.
"""

from collections import Counter

import pytest

from repro.apps import ComputeSleep
from repro.core import AppSpec, StarfishCluster
from repro.faults import FrameLossWindow
from repro.gcs import GcsConfig
from repro.gcs.messages import Nack, Ordered, Rel, ViewMsg

from tests.gcs_helpers import Harness, assert_common_prefix

CFG = GcsConfig()
#: The configuration ``benchmarks/perf`` runs its quiet workloads with.
QUIET = GcsConfig(heartbeat_period=2.0, suspect_timeout=16.0,
                  announce_period=32.0)
#: A request and its answer on the Ethernet fabric, with room to spare.
ROUND_TRIP = 0.002
#: Cast spacing of the repair-latency runs.
SPACING = 0.05


def _boot(n: int, config=None, seed: int = 0) -> Harness:
    h = Harness(nodes=n, seed=seed, config=config)
    h.boot_all()
    while not all(gm.view is not None and len(gm.view) == n
                  for gm in h.members.values()):
        h.run(until=h.engine.now + 0.5)
        assert h.engine.now < 30, "boot did not converge"
    return h


def _posted(h: Harness) -> Counter:
    """Frames posted to a NIC from now on, by message type (``Rel``
    unwrapped and tagged)."""
    posted = Counter()
    for gm in h.members.values():
        def post(dst, port, payload, size, kind, _post=gm.nic.post):
            if isinstance(payload, Rel):
                posted["Rel:" + type(payload.inner).__name__] += 1
            else:
                posted[type(payload).__name__] += 1
            return _post(dst, port, payload, size, kind)
        gm.nic.post = post
    return posted


def _drop_ordered(h: Harness, dst: str, payload, times: int = 1):
    """Drop the first ``times`` copies of the cast ``payload`` on their way
    to ``dst``; returns the instants they were dropped at."""
    dropped = []

    def tap(frame):
        msg = frame.payload
        if (isinstance(msg, Ordered) and frame.dst == dst
                and msg.payload == payload and len(dropped) < times):
            dropped.append(h.engine.now)
            return True
        return False

    h.cluster.ethernet.delivery_tap = tap
    return dropped


def _run_until(engine, cond, limit: float = 5.0, tick: float = 0.0005):
    deadline = engine.now + limit
    while not cond():
        assert engine.now < deadline, "condition never held"
        engine.run(until=engine.now + tick)


def _delivered_at(h: Harness, nid: str) -> dict:
    """payload -> instant ``nid`` delivered it, from now on."""
    at = {}
    gm = h.members[nid]
    real = gm._deliver

    def deliver(o):
        at.setdefault(o.payload, h.engine.now)
        return real(o)

    gm._deliver = deliver
    return at


def _repair_latency(config, drop: int, casts: int = 10, times: int = 1,
                    offset: float = 0.0) -> float:
    """An 8-member group; n5 casts 0..casts-1 every ``SPACING``; the copy
    of cast ``drop`` to n3 is dropped (its first ``times`` copies).  Seconds
    from the first drop to n3 delivering it."""
    h = _boot(8, config)
    h.run(until=h.engine.now + 1.0 + offset)
    dropped = _drop_ordered(h, "n3", drop, times)
    at = _delivered_at(h, "n3")
    for k in range(casts):
        h.engine.timeout(k * SPACING).callbacks.append(
            lambda _e, k=k: h.members["n5"].cast(k))
    h.run(until=h.engine.now + casts * SPACING + 2 * h.cfg.heartbeat_period
          + 1.0)
    assert len(dropped) == times
    for nid in h.members:
        assert h.casts(nid) == list(range(casts)), nid
    assert h.engine.metrics.sum("gcs.duplicates") == 0
    return at[drop] - dropped[0]


# -- the cost of a cast ---------------------------------------------------------

@pytest.mark.parametrize("n", [4, 8])
def test_a_cast_costs_n_plus_one_frames(n):
    # A member's cast: its request to the sequencer (still reliable, so
    # acknowledged) and one bare copy to each other member — n + 1 frames;
    # while every copy was acknowledged it was 2n.
    h = _boot(n)
    h.run(until=h.engine.now + 1.0)
    posted = _posted(h)
    h.members["n1"].cast("x")
    h.run(until=h.engine.now + 1.0)
    for nid in h.members:
        assert h.casts(nid) == ["x"], nid
    del posted["Hb"]
    assert posted == {"Rel:CastReq": 1, "RelAck": 1, "Ordered": n - 1}
    assert sum(posted.values()) == n + 1
    # No code path wraps a cast in the reliable sublayer any more.
    assert all(not isinstance(rel.inner, Ordered)
               for gm in h.members.values()
               for out in gm._rel_out.values()
               for rel, _kind in out.unacked.held)


# -- repair of one dropped copy ---------------------------------------------------

#: Repair latency of the same runs while every copy was acknowledged (the
#: ``Rel`` retransmission): a stream of casts kept the sender's retransmit
#: timer from expiring, so mid-stream was the slowest case.
ACKED_LATENCY = {("default", "mid-stream"): 0.3990,
                  ("default", "tail"): 0.1490,
                  ("quiet", "mid-stream"): 0.8993,
                  ("quiet", "tail"): 0.6493}


@pytest.mark.parametrize("offset", [0.0, 0.0237])
@pytest.mark.parametrize("where,drop", [("mid-stream", 4), ("tail", 9)])
@pytest.mark.parametrize("name,config", [("default", CFG), ("quiet", QUIET)])
def test_a_dropped_copy_is_repaired(name, config, where, drop, offset):
    took = _repair_latency(config, drop, offset=offset)
    if where == "mid-stream":
        # Rule 1: the next copy shows the hole and is asked for at once.
        assert took <= SPACING + ROUND_TRIP
    else:
        # Rule 2: nothing follows a lost tail but the coordinator's next
        # heartbeat, which counts the casts it has ordered.
        assert took <= config.heartbeat_period + ROUND_TRIP
    if (name, where) == ("quiet", "tail"):
        # Both wait for the same tick; a request costs one round trip more
        # than the sender's retransmission did.
        assert took <= ACKED_LATENCY[name, where] + ROUND_TRIP
    else:
        assert took <= ACKED_LATENCY[name, where]


def test_a_lost_repair_is_asked_for_again_every_tick():
    # Rule 3: the copy and its first resend are both dropped; the next tick
    # finds the hole still open and asks again.
    took = _repair_latency(CFG, 4, times=2)
    assert took <= SPACING + CFG.heartbeat_period + 2 * ROUND_TRIP


# -- the coordinator's side ---------------------------------------------------------

def test_only_an_unblocked_coordinator_of_the_epoch_answers_a_nack():
    # Rule 4: the history it answers from is this view's, in gseq order.
    h = _boot(4)
    for i in range(3):
        h.members["n2"].cast(i)
    h.run(until=h.engine.now + 0.5)
    coord, other = h.members["n0"], h.members["n1"]
    asker = h.members["n2"].endpoint
    epoch = coord.view.epoch
    posted = _posted(h)

    def ask(gm, epoch, first=0, upto=3):
        gm._inbox.deliver(Nack(group=gm.group, sender=asker, epoch=epoch,
                               first=first, upto=upto))
        return posted.pop("Ordered", 0)

    assert ask(coord, epoch - 1) == 0               # another epoch
    assert ask(coord, epoch + 1) == 0
    assert ask(other, epoch) == 0                   # not the coordinator
    coord.blocked = True
    assert ask(coord, epoch) == 0                   # a flush is running
    coord.blocked = False
    assert ask(coord, epoch) == 3
    assert ask(coord, epoch, first=1, upto=2) == 1
    assert ask(coord, epoch, first=2, upto=9) == 1  # what exists of it


def test_an_ordered_that_outruns_a_dropped_view_is_delivered_once():
    # Rule 5: a cast of the new view reaches n3 while its ViewMsg is being
    # retransmitted; the epoch check drops it, and n3 asks for it once the
    # view is installed — counting the new view's casts from zero (the old
    # view ordered three).
    h = Harness(nodes=5)
    ids = sorted(h.members)
    founder = h.members[ids[0]]
    founder.start(contact=None)
    for nid in ids[1:4]:
        h.members[nid].start(contact=founder.endpoint)
    while not all(h.members[nid].view is not None
                  and len(h.members[nid].view) == 4 for nid in ids[:4]):
        h.run(until=h.engine.now + 0.1)
    for i in range(3):
        founder.cast(f"old-{i}")
    h.run(until=h.engine.now + 1.0)
    n3 = h.members["n3"]
    old = n3.view.epoch
    views_dropped, outran = [], []

    def tap(frame):
        msg = frame.payload
        if (frame.dst == "n3" and isinstance(msg, Rel)
                and isinstance(msg.inner, ViewMsg) and not views_dropped):
            views_dropped.append(h.engine.now)
            # The coordinator casts the moment the new view is out.
            h.engine.timeout(0).callbacks.append(
                lambda _e: founder.cast("first-of-the-view"))
            return True
        if (frame.dst == "n3" and isinstance(msg, Ordered)
                and msg.epoch > n3.view.epoch):
            outran.append(msg.payload)
        return False

    h.cluster.ethernet.delivery_tap = tap
    h.members["n4"].start(contact=founder.endpoint)
    h.run(until=h.engine.now + 2.0)
    assert views_dropped and outran == ["first-of-the-view"]
    assert n3.view.epoch > old and len(n3.view) == 5
    for nid in ids[:4]:
        assert h.casts(nid) == ["old-0", "old-1", "old-2",
                                "first-of-the-view"], nid
    assert h.casts("n4") == ["first-of-the-view"]
    assert h.engine.metrics.sum("gcs.duplicates") == 0
    # Nothing is missing, so nothing is asked for.
    posted = _posted(h)
    h.run(until=h.engine.now + 10 * CFG.heartbeat_period)
    assert posted["Nack"] == 0


# -- loss ------------------------------------------------------------------------

@pytest.mark.parametrize("name,config,seeds", [("default", CFG, 20),
                                               ("quiet", QUIET, 10)])
def test_twenty_percent_loss_keeps_order_and_completeness(name, config,
                                                          seeds):
    # 60 casts from all eight members, 20 ms apart, inside a 20 % frame
    # loss window: every member delivers every cast, in one order, once.
    nacks = 0
    for seed in range(seeds):
        h = _boot(8, config, seed=seed)
        posted = _posted(h)
        window = 60 * 0.02 + 0.5
        h.cluster.faults.fire(FrameLossWindow(prob=0.2, duration=window))
        for k in range(60):
            h.engine.timeout(k * 0.02).callbacks.append(
                lambda _e, k=k: h.members[f"n{k % 8}"].cast(k))
        h.run(until=h.engine.now + window + 3 * config.heartbeat_period
              + 1.0)
        seqs = [h.casts(nid) for nid in sorted(h.members)]
        assert_common_prefix(seqs)
        assert all(sorted(s) == list(range(60)) for s in seqs), seed
        assert h.engine.metrics.sum("gcs.duplicates") == 0
        nacks += posted["Nack"]
    assert nacks > 0


# -- the ordering fact that is new -------------------------------------------------

def test_a_coordinators_p2p_can_overtake_its_cast_and_waits_for_it():
    # A coordinator's Ordered and its later P2p to the same member used to
    # share one Rel stream, so the P2p could not arrive first; now a lost
    # copy is repaired behind it, as a copy from any other sender always
    # could be.  The daemon layer already holds for that (DESIGN §21 R2):
    # an lwg-p2p for an app this daemon has not applied yet waits in that
    # app's mailbox.  Here the coordinator's daemon reports a rank to n2
    # while n2's copy of the app-submit is lost.
    sf = StarfishCluster.build(nodes=4)
    coord, n2 = sf.daemons["n0"], sf.daemons["n2"]
    assert coord.gm.is_coordinator
    sent = []

    def tap(frame):
        msg = frame.payload
        if (frame.dst == "n2" and isinstance(msg, Ordered)
                and msg.payload[0] == "app-submit" and not sent):
            sent.append(sf.engine.now)
            coord.lwg.send(handle.app_id, n2.endpoint,
                           ("rank-done", 0, {0: 3}), kind="control")
            return True
        return False

    sf.cluster.ethernet.delivery_tap = tap
    handle = sf.submit(AppSpec(program=ComputeSleep, nprocs=2,
                               params={"steps": 3, "step_time": 0.05},
                               placement={0: "n0", 1: "n2"}))
    waiting = lambda: len(n2.lwg._subs.get(handle.app_id, ()))
    _run_until(sf.engine, lambda: waiting()
               or n2.registry.maybe(handle.app_id) is not None)
    assert sent, "the app-submit copy was never dropped"
    # The report is here before the cast it depends on.
    assert n2.registry.maybe(handle.app_id) is None and waiting() == 1
    _run_until(sf.engine,
               lambda: n2.registry.maybe(handle.app_id) is not None)
    assert sf.engine.now - sent[0] <= CFG.heartbeat_period + ROUND_TRIP
    sf.engine.run(until=sf.engine.now + 0.001)
    assert 0 in n2.registry.get(handle.app_id).done_ranks
    assert sf.run_to_completion(handle, timeout=30) == {0: 3, 1: 3}
