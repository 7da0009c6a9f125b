"""The disk head: one token, taken FIFO, never lost to a killed process."""

import pytest

from repro.cluster.disk import Disk
from repro.errors import Interrupt
from repro.sim import Engine


def _disk():
    eng = Engine()
    # One byte per second: an operation of n bytes holds the head n seconds.
    return eng, Disk(eng, "n0", write_bandwidth=1.0, read_bandwidth=1.0)


def _writer(eng, disk, nbytes, log, name, start=0.0):
    def body():
        if start:
            yield eng.timeout(start)
        try:
            yield from disk.write(nbytes)
        except Interrupt:
            log.append((name, "killed", eng.now))
            return
        log.append((name, "done", eng.now))
    return eng.process(body(), name=name)


def _kill_at(eng, proc, when):
    def body():
        yield eng.timeout(when)
        proc.interrupt("kill")
    return eng.process(body())


def test_disk_serves_operations_one_at_a_time_in_arrival_order():
    eng, disk = _disk()
    log = []
    for name, nbytes in (("a", 10), ("b", 1), ("c", 5)):
        _writer(eng, disk, nbytes, log, name)
    eng.run()
    assert log == [("a", "done", 10), ("b", "done", 11), ("c", "done", 16)]
    assert disk.bytes_written == 16


def test_disk_writer_killed_while_queued_leaves_the_head_free():
    # The killed writer must not be handed the head: nobody would give it
    # back, and every later operation on the node would wait forever.
    eng, disk = _disk()
    log = []
    _writer(eng, disk, 1, log, "a")
    b = _writer(eng, disk, 1, log, "b")
    _kill_at(eng, b, 0.5)
    _writer(eng, disk, 0.001, log, "c", start=2.0)
    eng.run()
    assert log == [("b", "killed", 0.5), ("a", "done", 1.0),
                   ("c", "done", pytest.approx(2.001))]
    assert len(disk._head) == 1


def test_disk_cancelled_request_is_skipped_for_the_next_in_line():
    eng, disk = _disk()
    log = []
    _writer(eng, disk, 1, log, "a")
    b = _writer(eng, disk, 1, log, "b")
    _writer(eng, disk, 1, log, "c", start=0.25)
    _kill_at(eng, b, 0.5)
    eng.run()
    assert log == [("b", "killed", 0.5), ("a", "done", 1.0),
                   ("c", "done", 2.0)]
    assert len(disk._head) == 1


def test_disk_holder_killed_mid_write_gives_the_head_back():
    eng, disk = _disk()
    log = []
    a = _writer(eng, disk, 1, log, "a")
    _writer(eng, disk, 1, log, "b")
    _kill_at(eng, a, 0.5)
    eng.run()
    assert log == [("a", "killed", 0.5), ("b", "done", 1.5)]
    assert disk.bytes_written == 1
    assert len(disk._head) == 1


def test_disk_head_handed_to_a_writer_killed_in_the_same_instant_survives():
    # The holder finishes at t = 1 and hands the head to b; b's kill lands
    # in that same instant, before b runs.  The head goes on to c.
    eng, disk = _disk()
    log = []
    victim = []

    def kill_b():                   # armed before a's write: fires first
        yield eng.timeout(1.0)
        victim[0].interrupt("kill")

    eng.process(kill_b())
    _writer(eng, disk, 1, log, "a")
    victim.append(_writer(eng, disk, 1, log, "b"))
    _writer(eng, disk, 1, log, "c")
    eng.run()
    assert log == [("a", "done", 1.0), ("b", "killed", 1.0),
                   ("c", "done", 2.0)]
    assert len(disk._head) == 1
