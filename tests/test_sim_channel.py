"""Unit tests for channels and mailboxes."""

import pytest

from repro.errors import ConnectionClosed, Interrupt, SimulationError
from repro.sim import Channel, Engine, Mailbox


def test_channel_fifo_order():
    eng = Engine()
    ch = Channel(eng, name="c")
    got = []

    def producer():
        for i in range(5):
            yield eng.timeout(1)
            ch.put(i)

    def consumer():
        for _ in range(5):
            item = yield ch.get()
            got.append((eng.now, item))

    eng.process(producer())
    eng.process(consumer())
    eng.run()
    assert [i for _, i in got] == [0, 1, 2, 3, 4]
    assert [t for t, _ in got] == [1, 2, 3, 4, 5]


def test_channel_put_before_get():
    eng = Engine()
    ch = Channel(eng)
    ch.put("a")
    ch.put("b")

    def consumer():
        x = yield ch.get()
        y = yield ch.get()
        return x, y

    assert eng.run(eng.process(consumer())) == ("a", "b")


def test_channel_multiple_getters_served_in_order():
    eng = Engine()
    ch = Channel(eng)
    served = []

    def getter(i):
        item = yield ch.get()
        served.append((i, item))

    for i in range(3):
        eng.process(getter(i))

    def producer():
        yield eng.timeout(1)
        for v in "xyz":
            ch.put(v)

    eng.process(producer())
    eng.run()
    assert served == [(0, "x"), (1, "y"), (2, "z")]


def test_channel_get_nowait():
    eng = Engine()
    ch = Channel(eng)
    assert ch.get_nowait() == (False, None)
    ch.put(9)
    assert ch.get_nowait() == (True, 9)


def test_channel_close_fails_pending_gets():
    eng = Engine()
    ch = Channel(eng)

    def consumer():
        with pytest.raises(ConnectionClosed):
            yield ch.get()
        return "ok"

    def closer():
        yield eng.timeout(1)
        ch.close(ConnectionClosed("peer died"))

    p = eng.process(consumer())
    eng.process(closer())
    assert eng.run(p) == "ok"
    with pytest.raises(SimulationError):
        ch.put(1)


def test_channel_drain_and_peek():
    eng = Engine()
    ch = Channel(eng)
    for i in range(3):
        ch.put(i)
    assert ch.peek_all() == [0, 1, 2]
    assert len(ch) == 3
    assert ch.drain() == [0, 1, 2]
    assert len(ch) == 0


def test_rng_streams_independent_and_stable():
    eng1 = Engine(seed=42)
    eng2 = Engine(seed=42)
    a1 = eng1.rng.stream("a").integers(0, 1000, 10).tolist()
    # Drawing from another stream must not perturb "a".
    eng2.rng.stream("b").integers(0, 1000, 10)
    a2 = eng2.rng.stream("a").integers(0, 1000, 10).tolist()
    assert a1 == a2


def test_rng_streams_differ_by_seed():
    s1 = Engine(seed=1).rng.stream("x").integers(0, 10**9)
    s2 = Engine(seed=2).rng.stream("x").integers(0, 10**9)
    assert s1 != s2


# -- channel edge semantics (pinned for the hot-path overhaul) ------------


def test_channel_close_with_items_queued_still_drains():
    """close() fails *getters*, not *items*: queued items stay readable."""
    eng = Engine()
    ch = Channel(eng)
    ch.put("a")
    ch.put("b")
    ch.close(ConnectionClosed("peer died"))
    assert ch.closed
    assert ch.peek_all() == ["a", "b"]

    def consumer():
        first = yield ch.get()
        second = yield ch.get()
        return first, second

    assert eng.run(eng.process(consumer())) == ("a", "b")


def test_channel_get_after_close_and_drain_fails():
    """Once closed *and* empty, get() fails with the close exception."""
    eng = Engine()
    ch = Channel(eng)
    ch.put("last")
    ch.close(ConnectionClosed("peer died"))

    def consumer():
        got = yield ch.get()
        assert got == "last"
        with pytest.raises(ConnectionClosed):
            yield ch.get()
        return "done"

    assert eng.run(eng.process(consumer())) == "done"


def test_channel_put_skips_interrupted_getter():
    """An interrupted getter must not swallow the item — it goes to the
    next live getter instead."""
    from repro.errors import Interrupt

    eng = Engine()
    ch = Channel(eng)
    got = []

    def victim():
        try:
            got.append(("victim", (yield ch.get())))
        except Interrupt:
            got.append(("victim", "interrupted"))

    def survivor():
        got.append(("survivor", (yield ch.get())))

    p1 = eng.process(victim())
    eng.process(survivor())

    def director():
        yield eng.timeout(1)
        p1.interrupt()
        yield eng.timeout(1)
        ch.put("payload")

    eng.process(director())
    eng.run()
    assert ("victim", "interrupted") in got
    assert ("survivor", "payload") in got
    assert not ch._getters


def test_channel_put_with_no_live_getters_queues_item():
    """If every waiting getter was interrupted, the item is queued."""
    from repro.errors import Interrupt

    eng = Engine()
    ch = Channel(eng)

    def victim():
        try:
            yield ch.get()
        except Interrupt:
            pass

    p = eng.process(victim())

    def director():
        yield eng.timeout(1)
        p.interrupt()
        yield eng.timeout(1)
        ch.put("kept")

    eng.process(director())
    eng.run()
    assert ch.peek_all() == ["kept"]


def test_channel_put_after_close_raises():
    eng = Engine()
    ch = Channel(eng)
    ch.close(ConnectionClosed("gone"))
    with pytest.raises(SimulationError):
        ch.put(1)


def test_channel_put_then_same_instant_interrupt_salvages_item():
    """The deeper interleaving: put() hands the item to a parked getter,
    and the getter is interrupted in the *same instant* before the
    succeeded get event dispatches.  The abandoned event's cargo must be
    salvaged — here it goes to the surviving getter."""
    from repro.errors import Interrupt

    eng = Engine()
    ch = Channel(eng)
    got = []

    def victim():
        try:
            got.append(("victim", (yield ch.get())))
        except Interrupt:
            got.append(("victim", "interrupted"))

    def survivor():
        yield eng.timeout(0.5)          # parks after the victim
        got.append(("survivor", (yield ch.get())))

    p1 = eng.process(victim())
    eng.process(survivor())

    def director():
        yield eng.timeout(1)
        # interrupt() schedules its delivery *before* put() succeeds the
        # victim's get event, so the interrupt dispatches first and
        # abandons an event that already carries the item.
        p1.interrupt()
        ch.put("payload")

    eng.process(director())
    eng.run()
    assert ("victim", "interrupted") in got
    assert ("survivor", "payload") in got


def test_channel_put_then_same_instant_interrupt_requeues_item():
    """Same interleaving with no surviving getter: the salvaged item is
    re-queued at the head instead of vanishing."""
    from repro.errors import Interrupt

    eng = Engine()
    ch = Channel(eng)

    def victim():
        try:
            yield ch.get()
        except Interrupt:
            pass

    p = eng.process(victim())

    def director():
        yield eng.timeout(1)
        p.interrupt()
        ch.put("salvaged")
        ch.put("later")

    eng.process(director())
    eng.run()
    assert ch.peek_all() == ["salvaged", "later"]


def test_channel_get_nowait_closed_raises_after_drain():
    """get_nowait() mirrors get(): queued items drain first, then the
    close exception surfaces — never an eternal (False, None)."""
    eng = Engine()
    ch = Channel(eng)
    ch.put("last")
    ch.close(ConnectionClosed("peer died"))
    assert ch.get_nowait() == (True, "last")
    with pytest.raises(ConnectionClosed):
        ch.get_nowait()


def test_channel_get_nowait_open_empty_still_polls():
    """An *open* empty channel still probes (False, None)."""
    eng = Engine()
    assert Channel(eng).get_nowait() == (False, None)


# ---------------------------------------------------------------------------
# Mailbox: a served channel whose handler producers run to completion
# ---------------------------------------------------------------------------

def _served(eng, handler, name="box", behind=None):
    box = Mailbox(eng, name=name, behind=behind)

    def consumer():
        try:
            yield from box.serve(handler)
        except Interrupt:
            return

    proc = eng.process(consumer(), name=f"serve:{name}")
    return box, proc


def test_mailbox_idle_consumer_runs_inline_without_events():
    eng = Engine()
    got = []
    box, _proc = _served(eng, got.append)
    eng.run()                                   # consumer parks on get()
    before = eng.events_processed
    box.deliver("a")
    assert got == ["a"]                         # ran inside deliver()
    box.deliver("b")
    eng.run()
    assert got == ["a", "b"]
    assert eng.events_processed == before       # no get event, no wakeup


def test_mailbox_unserved_is_a_plain_channel():
    eng = Engine()
    box = Mailbox(eng)
    got = []

    def reader():
        while True:
            got.append((yield box.get()))

    eng.process(reader())
    eng.run()
    box.deliver(1)
    assert got == []                            # put(): one get event away
    box.deliver(2)
    eng.run()
    assert got == [1, 2]


def test_mailbox_busy_consumer_queues_behind_in_fifo_order():
    eng = Engine()
    log = []

    def handler(item):
        if item == "slow":
            return work(item)
        log.append((eng.now, item))
        return None

    def work(item):
        yield eng.timeout(5)
        log.append((eng.now, item))

    box, _proc = _served(eng, handler)
    eng.run()
    box.deliver("slow")                         # handed to the process
    box.deliver("x")                            # consumer busy: queue behind
    eng.timeout(2).callbacks.append(lambda _e: box.deliver("y"))
    eng.run()
    assert log == [(5, "slow"), (5, "x"), (5, "y")]
    box.deliver("z")                            # idle again: inline
    assert log[-1] == (5, "z")


def _chain_scenario(inline: bool):
    """Two chained consumers whose handlers deliver to each other and to
    themselves; ``inline=False`` is the reference: plain queues, each read
    by a hand-written ``while True: item = yield ch.get()`` process."""
    eng = Engine()
    log = []
    depth = [0]

    def enter(who, item):
        assert depth[0] == 0, f"{who}({item}) ran nested"
        depth[0] += 1
        log.append(f"{who}:{item}")

    def up_handler(item):
        enter("up", item)
        if item == 1:
            send(down, "from-1a")               # to the chained consumer
            send(up, 2)                         # to myself
            send(down, "from-1b")
        depth[0] -= 1

    def down_handler(item):
        enter("down", item)
        if item == "from-1a":
            send(up, 3)
        if item == "from-1b":
            send(down, "from-1b-again")
        depth[0] -= 1

    if inline:
        send = Mailbox.deliver
        up, _p1 = _served(eng, up_handler, name="up")
        down, _p2 = _served(eng, down_handler, name="down", behind=up)
    else:
        send = Channel.put
        up, down = Channel(eng), Channel(eng)

        def loop(ch, handler):
            while True:
                handler((yield ch.get()))

        eng.process(loop(up, up_handler))
        eng.process(loop(down, down_handler))
    eng.run()
    before = eng.events_processed
    send(up, 1)
    inline_log = list(log)
    eng.run()
    return log, inline_log, eng.events_processed - before


def test_mailbox_nothing_nests_and_pending_runs_in_queue_order():
    reference, _, ref_events = _chain_scenario(inline=False)
    log, inline_log, events = _chain_scenario(inline=True)
    # down woke first (during 1), up's own next item at the end of 1,
    # down's second item when down finished its first, 3 behind up's 2.
    assert reference == ["up:1", "down:from-1a", "up:2", "down:from-1b",
                         "up:3", "down:from-1b-again"]
    assert log == reference
    assert inline_log == reference              # all inside deliver(1)
    assert (ref_events, events) == (6, 0)


def test_mailbox_waiting_handler_sends_the_rest_down_the_event_path():
    eng = Engine()
    log = []

    def up_handler(item):
        down.deliver(f"d{item}")
        log.append(f"up:{item}")
        return wait(item) if item == 1 else None

    def wait(item):
        log.append(f"up:{item}:started")
        yield eng.timeout(1)
        log.append(f"up:{item}:done")

    up, _p1 = _served(eng, up_handler, name="up")
    down, _p2 = _served(eng, lambda item: log.append(f"down:{item}"),
                        name="down", behind=up)
    eng.run()
    up.deliver(1)
    # The generator's first segment must run before what the handler
    # delivered, as when the process ran the handler itself.
    assert log == ["up:1"]
    up.deliver(2)                               # consumer busy: queued
    eng.run()
    assert log == ["up:1", "up:1:started", "down:d1", "up:1:done",
                   "up:2", "down:d2"]


def test_mailbox_delivery_from_a_process_waits_for_its_step_to_end():
    eng = Engine()
    log = []
    box, _proc = _served(eng, lambda item: log.append(f"handled:{item}"))

    def caller():
        yield eng.timeout(1)
        box.deliver("m")
        log.append("caller-continues")
        yield eng.timeout(1)

    eng.process(caller())
    eng.run()
    assert log == ["caller-continues", "handled:m"]


def test_mailbox_handler_exception_is_raised_in_the_consumer_process():
    eng = Engine()
    caught = []
    got = []

    def handler(item):
        if item == "bad":
            raise ValueError("boom")
        got.append(item)

    box = Mailbox(eng)

    def consumer():
        try:
            yield from box.serve(handler)
        except ValueError as exc:
            caught.append(str(exc))

    proc = eng.process(consumer())
    eng.run()
    for item in ("a", "bad", "b"):              # e.g. one NIC delivery batch
        box.deliver(item)                       # must not raise here
    eng.run()
    assert got == ["a"] and caught == ["boom"]
    assert not proc.is_alive
    assert box.drain() == ["b"]                 # nobody left to handle it


def test_mailbox_interrupted_consumer_runs_no_handler():
    eng = Engine()
    got = []
    box, proc = _served(eng, got.append)
    eng.run()
    proc.interrupt("stop")
    box.deliver("late")                         # interrupt still in flight
    eng.run()
    box.deliver("later")
    eng.run()
    assert got == [] and not proc.is_alive
    assert box.drain() == ["late", "later"]
