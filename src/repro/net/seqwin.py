"""One in-order receiver and one send history (DESIGN §31).  Every
numbered stream — :class:`~repro.net.conn.Connection`, the GCS ``Rel``
sublayer, main-group casts (§23), LWG relays (§27) — orders what arrives
in a :class:`RecvWindow` and keeps what it may send again in a
:class:`SendHistory`."""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple


class RecvWindow:
    """``next`` is the first number not handed out, ``buffer`` holds what
    arrived above it, ``heard`` counts the numbers known to exist: each
    number in ``[next, heard)`` that is not buffered is missing."""

    __slots__ = ("next", "heard", "buffer")

    def __init__(self) -> None:
        self.next = self.heard = 0
        self.buffer: Dict[int, Any] = {}

    def hear(self, upto: int) -> Tuple[Tuple[int, int], ...]:
        """Numbers below ``upto`` exist: the range this finds missing for
        the first time, if any — a new hole, to ask for at once.  An
        arrival numbered ``seq`` calls ``hear(seq)`` before :meth:`offer`."""
        if upto <= self.heard:
            return ()
        first, self.heard = self.heard, upto
        return ((first, upto),)

    def offer(self, seq: int, item: Any) -> bool:
        """Buffer the arrival numbered ``seq``; ``False`` for a duplicate."""
        if seq >= self.heard:
            self.heard = seq + 1
        if seq < self.next or seq in self.buffer:
            return False
        self.buffer[seq] = item
        return True

    def drain(self) -> Iterator[Any]:
        """Pop the buffered items next in order.  ``next`` moves past each
        before it is handed out, so a consumer that drains again (after a
        wait, or from inside the loop) starts after it."""
        while self.next in self.buffer:
            self.next += 1
            yield self.buffer.pop(self.next - 1)

    def holes(self) -> List[Tuple[int, int]]:
        """Every missing range, lowest first: asked for again each tick."""
        ranges, first = [], self.next
        if first < self.heard:
            for seq in sorted(self.buffer):
                if seq > first:
                    ranges.append((first, seq))
                first = max(first, seq + 1)
            if first < self.heard:
                ranges.append((first, self.heard))
        return ranges


class SendHistory:
    """The items numbered ``base`` up, kept until no receiver can ask for
    them again."""

    __slots__ = ("base", "held")

    def __init__(self) -> None:
        self.base = 0
        self.held: List[Any] = []

    @property
    def end(self) -> int:
        """The number the next appended item gets."""
        return self.base + len(self.held)

    def slice(self, first: int, upto: int) -> List[Any]:
        """The items numbered ``first`` to ``upto - 1`` still held."""
        return self.held[max(first - self.base, 0):max(upto - self.base, 0)]

    def drop_below(self, position: int) -> bool:
        """Forget the items numbered below ``position`` (every item, when
        it lies past the end); ``True`` if any went."""
        count = min(position - self.base, len(self.held))
        if count <= 0:
            return False
        del self.held[:count]
        self.base += count
        return True
