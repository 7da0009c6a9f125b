"""The shared sequence window and send history (DESIGN §31).

Cast repair, LWG relay repair, the ``Rel`` sublayer and ``Connection``
all order, ask and answer through these two classes; the protocol tests
pin what each caller does with them.  These pin the edges no protocol
test reaches on purpose.
"""

from repro.net.seqwin import RecvWindow, SendHistory


def _recorded(*arrived):
    """A window that took ``arrived`` in that order, draining as it went,
    and what it handed out."""
    window, out = RecvWindow(), []
    for seq in arrived:
        window.offer(seq, f"m{seq}")
        out.extend(window.drain())
    return window, out


# -- the receive window -------------------------------------------------------

def test_a_duplicate_below_next_or_in_the_buffer_is_refused_and_never_handed_out_twice():
    window, out = _recorded(0, 1, 3)
    assert out == ["m0", "m1"] and window.next == 2
    assert window.offer(1, "again") is False            # below next
    assert window.offer(3, "again") is False            # buffered
    assert list(window.drain()) == []
    assert window.offer(2, "m2") is True
    assert list(window.drain()) == ["m2", "m3"]
    assert window.buffer == {} and window.next == 4


def test_hole_ranges_for_adjacent_and_for_separate_buffered_numbers():
    # Buffered 3, 4 adjacent and 7 apart, 10 heard: holes 0-2, 5-6, 8-9.
    window, _out = _recorded(3, 4, 7)
    window.hear(10)
    assert window.holes() == [(0, 3), (5, 7), (8, 10)]
    # The last buffered number is the last heard: no tail range.
    assert _recorded(1, 2)[0].holes() == [(0, 1)]
    # Nothing missing, nothing asked.
    assert _recorded(0, 1)[0].holes() == []


def test_a_bare_count_raises_heard_with_nothing_buffered():
    # The coordinator's heartbeat says three casts exist; none arrived.
    window = RecvWindow()
    assert window.hear(3) == ((0, 3),)      # a new hole: ask at once
    assert window.hear(3) == ()             # not new
    assert window.hear(2) == ()
    assert window.buffer == {} and window.heard == 3
    assert window.holes() == [(0, 3)]       # and again every tick
    assert window.hear(5) == ((3, 5),)      # only the part not heard of


def test_a_drain_that_re_enters_sees_next_already_advanced():
    window = RecvWindow()
    for seq in (0, 1, 2):
        window.offer(seq, f"m{seq}")
    seen = []
    for item in window.drain():
        seen.append((item, window.next))
        if item == "m0":
            # A consumer that drains again from inside the loop (or after
            # a wait) starts after the item it holds.
            seen.extend((inner, window.next) for inner in window.drain())
    assert seen == [("m0", 1), ("m1", 2), ("m2", 3)]
    assert window.next == 3 and window.buffer == {}


# -- the send history ---------------------------------------------------------

def _history(count: int) -> SendHistory:
    history = SendHistory()
    for seq in range(count):
        history.held.append(f"m{seq}")
    return history


def test_a_slice_below_a_trimmed_base_returns_only_what_is_held():
    history = _history(6)
    assert history.drop_below(3) is True
    assert history.base == 3 and history.end == 6
    assert history.slice(0, 5) == ["m3", "m4"]
    assert history.slice(0, 2) == []
    assert history.slice(4, 99) == ["m4", "m5"]


def test_a_drop_below_a_position_past_the_end_empties_the_history():
    history = _history(4)
    assert history.drop_below(99) is True
    assert history.held == [] and history.base == history.end == 4
    assert history.drop_below(99) is False
    history.held.append("m4")               # numbering carries on
    assert history.slice(4, 5) == ["m4"]

