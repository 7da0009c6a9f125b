"""Lightweight-group relays are repaired by sequence number, not
acknowledged copy by copy (DESIGN §27).

The LWG sequencer posts each ``lwg-ord`` copy bare (a GCS ``Datagram``)
and keeps the epoch's copies until every member has reported past them.
A member that finds a hole asks for it (``lwg-nack``) at once and every
tick while it lasts, and reports its delivered position (``lwg-pos``) at
most once a tick — only when it moved or a duplicate arrived — or on its
own ``lwg-data``.  On its tick the sequencer re-posts its newest copy to
each member whose report is behind it.  These tests pin the frame cost of
a cast, the repair of a dropped copy under the default and the quiet
configuration, each rule of the record, the 20 % loss sweep, and the
ordering fact that is new: the sequencer's later reliable send to a
member can overtake a relay that was lost.
"""

from collections import Counter

import pytest

from repro.faults import FrameLossWindow
from repro.gcs import GcsConfig
from repro.gcs.config import REL_MAX_TRIES
from repro.gcs.messages import Rel
from repro.lwg.events import LwgP2p

from tests.gcs_helpers import assert_common_prefix
from tests.test_lwg import LwgHarness

CFG = GcsConfig()
#: The configuration ``benchmarks/perf`` runs its quiet workloads with.
QUIET = GcsConfig(heartbeat_period=2.0, suspect_timeout=16.0,
                  announce_period=32.0)
#: A request and its answer on the Ethernet fabric, with room to spare.
ROUND_TRIP = 0.002
#: Cast spacing of the repair-latency runs.
SPACING = 0.05
APP = "app"


def _group(m: int, config=None, seed: int = 0, nodes=None) -> LwgHarness:
    """A booted main group of ``nodes`` daemons and one LWG ``APP`` over the
    first ``m`` of them, every member watched."""
    h = LwgHarness(nodes=nodes or m, seed=seed, config=config)
    h.boot_all()
    n = len(h.members)
    while not all(gm.view is not None and len(gm.view) == n
                  for gm in h.members.values()):
        h.run(until=h.engine.now + 0.5)
        assert h.engine.now < 30, "boot did not converge"
    ids = sorted(h.members)[:m]
    for nid in ids:
        h.watch(nid, APP)
    h.lwg["n0"].create(APP, tuple(h.members[nid].endpoint for nid in ids))
    h.run(until=h.engine.now + 1.0)
    assert all(len(h.lwg[nid].members(APP)) == m for nid in ids)
    return h


def _posted(h: LwgHarness) -> Counter:
    """Frames posted to a NIC from now on, by message type (``Rel``
    unwrapped and tagged, LWG payloads by tag)."""
    posted = Counter()
    for gm in h.members.values():
        def post(dst, port, payload, size, kind, _post=gm.nic.post):
            msg = payload.inner if isinstance(payload, Rel) else payload
            name = ("Rel:" if isinstance(payload, Rel) else "") \
                + type(msg).__name__
            inner = getattr(msg, "payload", None)
            if isinstance(inner, tuple) and inner and isinstance(inner[0],
                                                                 str):
                name += ":" + inner[0]
            posted[name] += 1
            return _post(dst, port, payload, size, kind)
        gm.nic.post = post
    return posted


def _is_lwg(frame, tag: str) -> bool:
    msg = frame.payload
    if isinstance(msg, Rel):
        msg = msg.inner
    inner = getattr(msg, "payload", None)
    return isinstance(inner, tuple) and bool(inner) and inner[0] == tag


def _drop(h: LwgHarness, match, times: int = 1):
    """Drop the first ``times`` frames ``match(frame)`` accepts; returns
    the instants they were dropped at."""
    dropped = []

    def tap(frame):
        if len(dropped) < times and match(frame):
            dropped.append(h.engine.now)
            return True
        return False

    h.cluster.ethernet.delivery_tap = tap
    return dropped


def _copy_of(value, dst: str):
    return lambda f: (f.dst == dst and _is_lwg(f, "lwg-ord")
                      and f.payload.payload[6] == value)


def _delivered_at(h: LwgHarness, nid: str) -> dict:
    """payload -> instant ``nid`` delivered it, from now on."""
    at = {}
    mgr = h.lwg[nid]
    real = mgr._deliver

    def deliver(state, item):
        at.setdefault(item[2], h.engine.now)
        return real(state, item)

    mgr._deliver = deliver
    return at


def _cast_every(h: LwgHarness, nid: str, values, spacing: float) -> None:
    for k, value in enumerate(values):
        h.engine.timeout(k * spacing).callbacks.append(
            lambda _e, v=value: h.lwg[nid].cast(APP, v))


def _state(h: LwgHarness, nid: str = "n0"):
    return h.lwg[nid].groups[APP]


def _relay(h: LwgHarness):
    """The sequencer's (n0's) repair state for ``APP``."""
    return _state(h).relay


def _repair_latency(config, drop: int, casts: int = 10, times: int = 1,
                    offset: float = 0.0, match=None) -> float:
    """An 8-member group; n5 casts 0..casts-1 every ``SPACING``; the copy
    of cast ``drop`` to n3 is dropped (with ``match``, whatever it accepts
    instead).  Seconds from the first drop to n3 delivering cast
    ``drop``."""
    h = _group(8, config)
    h.run(until=h.engine.now + offset)
    dropped = _drop(h, match or _copy_of(drop, "n3"), times)
    at = _delivered_at(h, "n3")
    _cast_every(h, "n5", range(casts), SPACING)
    h.run(until=h.engine.now + casts * SPACING + 3 * h.cfg.heartbeat_period
          + 1.0)
    assert len(dropped) == times
    for nid in h.members:
        assert h.lwg_casts(nid, APP) == list(range(casts)), nid
    return at[drop] - dropped[0]


# -- the cost of a cast -------------------------------------------------------

@pytest.mark.parametrize("m", [4, 8])
def test_a_cast_costs_m_plus_one_frames(m):
    # A member's cast: its lwg-data to the sequencer (still reliable, so
    # acknowledged) and one bare copy to each other member — 2 + (m - 1)
    # frames; while every copy was acknowledged it was 2m.  The position
    # reports that bound the sequencer's history go at the members' next
    # tick, one per member however many casts the tick saw.
    h = _group(m)
    posted = _posted(h)
    casts = 5
    _cast_every(h, "n1", range(casts), 0.001)
    h.run(until=h.engine.now + casts * 0.001 + 0.003)
    for nid in sorted(h.members):
        assert h.lwg_casts(nid, APP) == list(range(casts)), nid
    del posted["Hb"]
    assert posted == {"Rel:P2p:lwg-data": casts, "RelAck": casts,
                      "Datagram:lwg-ord": casts * (m - 1)}
    assert sum(posted.values()) == casts * (2 + (m - 1))
    posted.clear()
    h.run(until=h.engine.now + 5 * CFG.heartbeat_period)
    del posted["Hb"]
    # Every member reports once.  The sequencer's tick may come first and
    # re-post its newest copy to a member whose report is still in flight;
    # that member reports the duplicate at its next tick.
    reposts = posted.pop("Datagram:lwg-ord", 0)
    assert posted == {"Datagram:lwg-pos": (m - 1) + reposts}
    assert reposts <= m - 1
    assert _relay(h).history.held == []
    # No code path wraps a relay in the reliable sublayer any more.
    assert all(not (isinstance(rel.inner.payload, tuple)
                    and rel.inner.payload[0] == "lwg-ord")
               for gm in h.members.values()
               for out in gm._rel_out.values()
               for rel, _kind in out.unacked.held
               if hasattr(rel.inner, "payload"))


# -- repair of one dropped copy -----------------------------------------------

#: Repair latency of the same runs while every copy was acknowledged (the
#: ``Rel`` retransmission; first tick phase).  A stream of copies kept the
#: sequencer's retransmit timer from expiring, so mid-stream was the
#: slowest case.
ACKED_LATENCY = {("default", "mid-stream"): 0.3988,
                  ("default", "tail"): 0.1488,
                  ("quiet", "mid-stream"): 0.3994,
                  ("quiet", "tail"): 0.1494}


@pytest.mark.parametrize("offset", [0.0, 0.0237])
@pytest.mark.parametrize("where,drop", [("mid-stream", 4), ("tail", 9)])
@pytest.mark.parametrize("name,config", [("default", CFG), ("quiet", QUIET)])
def test_a_dropped_copy_is_repaired(name, config, where, drop, offset):
    took = _repair_latency(config, drop, offset=offset)
    if where == "mid-stream":
        # Rule 2: the next copy shows the hole and is asked for at once.
        assert took <= SPACING + ROUND_TRIP
        assert took <= ACKED_LATENCY[name, where]
    else:
        # Rule 5: nothing follows a lost tail; the sequencer's next tick
        # finds n3's report behind and re-posts the newest copy.
        assert took <= config.heartbeat_period + ROUND_TRIP
        if name == "default":
            assert took <= ACKED_LATENCY[name, where]


def test_a_lost_nack_is_asked_for_again_every_tick():
    # Rule 3: the copy and the request for it are both dropped; the next
    # tick finds the hole still open and asks again (quiet configuration:
    # no tail re-post comes first, cast 9 reaches n3).
    def copy_or_nack(frame):
        return (frame.dst == "n3" and _is_lwg(frame, "lwg-ord")
                and frame.payload.payload[6] == 4) \
            or (frame.src == "n3" and _is_lwg(frame, "lwg-nack"))
    took = _repair_latency(QUIET, 4, times=2, match=copy_or_nack)
    assert took <= QUIET.heartbeat_period + SPACING + 2 * ROUND_TRIP


# -- the sequencer's side -----------------------------------------------------

def test_only_the_sequencer_of_the_epoch_answers_a_nack():
    # Rule 6: the history it answers from is this epoch's, in gseq order.
    h = _group(4)
    _cast_every(h, "n2", range(3), 0.001)
    h.run(until=h.engine.now + 0.005)
    seq, other = h.lwg["n0"], h.lwg["n1"]
    asker = h.members["n2"].endpoint
    epoch = _state(h).epoch
    posted = _posted(h)

    def ask(mgr, epoch, first=0, upto=3):
        mgr._on_nack(asker, ("lwg-nack", APP, epoch, first, upto))
        return posted.pop("Datagram:lwg-ord", 0)

    assert ask(seq, epoch - 1) == 0                 # another epoch
    assert ask(seq, epoch + 1) == 0
    assert ask(other, epoch) == 0                   # not the sequencer
    assert ask(seq, epoch) == 3
    assert ask(seq, epoch, first=1, upto=2) == 1
    assert ask(seq, epoch, first=2, upto=9) == 1    # what exists of it


def test_the_history_empties_once_every_member_has_reported():
    # Rule 4: each member's report (or its lwg-data) moves its position;
    # the sequencer keeps only what some member has not reported — never
    # more than what it relayed since the slowest member's last report.
    h = _group(4)
    state = _state(h)
    sizes = []
    real = h.lwg["n0"]._sequence

    def sequence(payload):
        real(payload)
        relay = state.relay
        slowest = min(relay.positions.get(h.members[nid].endpoint, 0)
                      for nid in ("n1", "n2", "n3"))
        sizes.append((len(relay.history.held), state.next_gseq - slowest))

    h.lwg["n0"]._sequence = sequence
    for k in range(12):
        h.engine.timeout(k * 0.013).callbacks.append(
            lambda _e, k=k: h.lwg[f"n{k % 4}"].cast(APP, k))
    h.run(until=h.engine.now + 12 * 0.013 + 0.002)
    assert len(sizes) == 12
    assert all(kept == bound for kept, bound in sizes)
    assert max(kept for kept, _ in sizes) > 1
    h.run(until=h.engine.now + 3 * CFG.heartbeat_period)
    relay = state.relay
    assert relay.history.held == [] \
        and relay.history.base == state.next_gseq == 12
    assert all(relay.positions[h.members[nid].endpoint] == 12
               for nid in ("n1", "n2", "n3"))


def test_a_members_lwg_data_carries_its_position():
    # Rule 4, the piggyback: a member's own cast tells the sequencer how
    # far it has delivered, so no report has to be posted for that.
    h = _group(4)
    h.run(until=h.engine.now + 0.001)               # just past a tick
    h.lwg["n1"].cast(APP, "a")
    h.run(until=h.engine.now + 0.003)
    assert h.lwg_casts("n2", APP) == ["a"]
    posted = _posted(h)
    h.lwg["n2"].cast(APP, "b")
    h.run(until=h.engine.now + 0.003)
    assert _relay(h).positions[h.members["n2"].endpoint] == 1
    assert posted["Datagram:lwg-pos"] == 0


def test_a_lost_report_is_made_again_after_the_tail_repost():
    # A report is bare too: lost, the sequencer's next tick re-posts its
    # newest copy, the member takes it for the duplicate it is and reports
    # again at its next tick.
    h = _group(4)
    dropped = _drop(h, lambda f: f.src == "n2" and _is_lwg(f, "lwg-pos"))
    posted = _posted(h)
    h.lwg["n1"].cast(APP, "x")
    h.run(until=h.engine.now + 6 * CFG.heartbeat_period)
    assert len(dropped) == 1
    assert _relay(h).history.held == []
    assert posted["Datagram:lwg-pos"] >= 4          # n1..n3, n2 twice
    assert posted["Datagram:lwg-ord"] >= 3 + 1      # copies + the re-post


def test_the_sequencer_gives_a_silent_member_up_after_rel_max_tries():
    # Rule 5's bound: re-posts to a member that never answers back off
    # like Rel and stop after REL_MAX_TRIES; its failure detector's
    # business then (here the member is alive but deaf to the group).
    h = _group(3, config=GcsConfig(suspect_timeout=1e9))
    to_n2 = _drop(h, lambda f: f.dst == "n2" and _is_lwg(f, "lwg-ord"),
                  times=10**6)
    h.lwg["n1"].cast(APP, "x")
    h.run(until=h.engine.now + 40.0)
    n2 = h.members["n2"].endpoint
    assert _relay(h).resends[n2][0] == REL_MAX_TRIES
    # One copy, then REL_MAX_TRIES re-posts, backing off to 0.8 s apart.
    assert len(to_n2) == 1 + REL_MAX_TRIES
    assert to_n2[-1] - to_n2[-2] == pytest.approx(0.8, abs=0.06)
    assert len(_relay(h).history.held) == 1         # n2 never reported


def test_a_membership_change_drops_the_history():
    # Rule 7: reset_ordering starts the next epoch with no history; the
    # old numbering is never answered again.
    h = _group(4, nodes=5)
    _drop(h, lambda f: _is_lwg(f, "lwg-pos"), times=10**6)
    h.lwg["n1"].cast(APP, "x")
    h.run(until=h.engine.now + 0.01)
    state = _state(h)
    assert state.relay.history.held and state.next_gseq == 1
    h.lwg["n4"].join(APP)
    h.run(until=h.engine.now + 0.5)
    assert len(state.members) == 5
    assert state.relay is None and state.next_gseq == 0


def test_a_member_paused_for_over_a_second_catches_up():
    # n3 hears nothing and sends nothing for 1.5 s while n5 casts; when it
    # resumes, the sequencer's backed-off re-post shows it the tail and it
    # asks for the rest.
    config = GcsConfig(suspect_timeout=4.0)
    h = _group(8, config)
    n3 = h.members["n3"]
    n3.paused = True
    _cast_every(h, "n5", range(10), 0.1)
    h.run(until=h.engine.now + 1.5)
    assert h.lwg_casts("n3", APP) == []
    n3.paused = False
    resumed = h.engine.now
    at = _delivered_at(h, "n3")
    h.run(until=h.engine.now + 2.0)
    assert h.lwg_casts("n3", APP) == list(range(10))
    # The re-post backs off to REL_BACKOFF_MAX (0.8 s) between tries.
    assert max(at.values()) - resumed <= 0.8 + config.heartbeat_period \
        + 2 * ROUND_TRIP
    h.run(until=h.engine.now + 1.0)
    assert _relay(h).history.held == []


# -- loss ---------------------------------------------------------------------

@pytest.mark.parametrize("name,config,seeds", [("default", CFG, 20),
                                               ("quiet", QUIET, 10)])
def test_twenty_percent_loss_keeps_order_and_completeness(name, config,
                                                          seeds):
    # 60 casts from all eight members, 20 ms apart, inside a 20 % frame
    # loss window: every member delivers every cast, in one order, once.
    nacks = 0
    for seed in range(seeds):
        h = _group(8, config, seed=seed)
        posted = _posted(h)
        window = 60 * 0.02 + 0.5
        h.cluster.faults.fire(FrameLossWindow(prob=0.2, duration=window))
        for k in range(60):
            h.engine.timeout(k * 0.02).callbacks.append(
                lambda _e, k=k: h.lwg[f"n{k % 8}"].cast(APP, k))
        h.run(until=h.engine.now + window + 4 * config.heartbeat_period
              + 1.0)
        seqs = [h.lwg_casts(nid, APP) for nid in sorted(h.members)]
        assert_common_prefix(seqs)
        assert all(sorted(s) == list(range(60)) for s in seqs), seed
        nacks += posted["Datagram:lwg-nack"]
    assert nacks > 0


# -- the ordering fact that is new --------------------------------------------

def test_a_sequencers_later_p2p_can_overtake_a_lost_relay():
    # The sequencer's relay and its later lwg-p2p to the same member used
    # to share one Rel stream, so the p2p could not arrive first; now a
    # lost relay is repaired behind it.  Nothing the daemon sends relies
    # on the old FIFO (DESIGN §27): its one lwg-p2p goes to the app
    # authority, which is the sequencer itself.
    h = _group(4, config=QUIET)
    dropped = _drop(h, _copy_of("cast", "n2"))
    h.lwg["n0"].cast(APP, "cast")
    h.lwg["n0"].send(APP, h.members["n2"].endpoint, "p2p")
    h.run(until=h.engine.now + 0.01)
    assert dropped
    log = h.lwg_log[("n2", APP)]
    assert [e.payload for e in log if isinstance(e, LwgP2p)] == ["p2p"]
    assert h.lwg_casts("n2", APP) == []
    h.run(until=h.engine.now + 2 * QUIET.heartbeat_period)
    assert h.lwg_casts("n2", APP) == ["cast"]
    assert [type(e).__name__ for e in log][-2:] == ["LwgP2p", "LwgCast"]
