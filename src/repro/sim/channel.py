"""FIFO channels (stores) for inter-process communication inside a node.

Channels are unbounded, asynchronous message queues: ``put`` never blocks,
``get`` returns an event that fires when an item is available.  They model
intra-node queues — e.g. the per-connection delivery queues, the group
members' inboxes, and the one-token disk head — where the cost of the hop
is accounted for by the *network* (or disk) model, not the queue.
"""

from __future__ import annotations

from collections import deque
from types import GeneratorType
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import _PENDING, Event


class _GetEvent(Event):
    """A channel get.

    Carries a back-reference to its channel so that an item handed to a
    getter whose process is interrupted *in the same instant* — after
    ``put()`` succeeded this event but before its dispatch — can be
    salvaged instead of vanishing with the defused event (see
    ``Process._deliver_interrupt``).
    """

    __slots__ = ("channel",)

    def __init__(self, engine, channel, name: Optional[str] = None):
        # Inlined Event.__init__ — one get per delivered message.
        self.engine = engine
        self.name = name
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self.channel = channel

    def salvage(self) -> None:
        """Hand the undelivered item back to the channel."""
        self.channel._redeliver(self._value)


class Channel:
    """Unbounded FIFO queue with event-based ``get``.

    Items put while getters wait are handed to the oldest waiting getter.
    ``close()`` fails all pending and future gets with ``exc`` — used to
    model a peer crashing.

    Get events only carry a name while the engine traces — one channel get
    per delivered message makes the f-string a hot-path allocation.
    """

    __slots__ = ("engine", "name", "_items", "_getters", "_closed")

    def __init__(self, engine, name: Optional[str] = None):
        self.engine = engine
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._closed: Optional[BaseException] = None

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed is not None

    def put(self, item: Any) -> None:
        """Enqueue ``item`` (never blocks)."""
        if self._closed is not None:
            raise SimulationError(f"put() on closed channel {self.name!r}")
        while self._getters:
            getter = self._getters.popleft()
            # A pending get whose process was interrupted is detached and
            # pre-defused (see Process._deliver_interrupt) — handing it the
            # item would silently swallow it.  Skip to the next live getter.
            if getter._value is _PENDING and not getter._defused:
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        ev = _GetEvent(self.engine, self,
                       name=f"get:{self.name}"
                       if self.engine.tracer is not None else None)
        if self._items:
            ev.succeed(self._items.popleft())
        elif self._closed is not None:
            ev.fail(self._closed)
        else:
            self._getters.append(ev)
        return ev

    def _redeliver(self, item: Any) -> None:
        """Re-route an item whose getter abandoned it mid-instant.

        The item was already removed from the queue and handed to a get
        event that will never run — it is still live, so it goes to the
        next waiting getter, or back to the *head* of the queue (it was
        the oldest item).  A closed channel re-queues too: items present
        before the close drain first, per :meth:`close` semantics.
        """
        while self._getters:
            getter = self._getters.popleft()
            if getter._value is _PENDING and not getter._defused:
                getter.succeed(item)
                return
        self._items.appendleft(item)

    def get_nowait(self) -> Tuple[bool, Any]:
        """Non-blocking probe: ``(True, item)`` or ``(False, None)``.

        Items queued before a close drain first; once a closed channel is
        empty the close exception is raised, exactly like :meth:`get` —
        otherwise a polling loop would spin on ``(False, None)`` forever
        against a crashed peer's queue.
        """
        if self._items:
            return True, self._items.popleft()
        if self._closed is not None:
            raise self._closed
        return False, None

    def peek_all(self) -> List[Any]:
        """Snapshot of queued items (used by checkpoint protocols)."""
        return list(self._items)

    def drain(self) -> List[Any]:
        """Remove and return all queued items."""
        items = list(self._items)
        self._items.clear()
        return items

    def close(self, exc: BaseException) -> None:
        """Fail all pending and future ``get``s with ``exc``.

        Close is deliberate, so the failures are pre-defused: a getter
        whose process was already interrupted (and detached) must not
        crash the engine as an unhandled failure.
        """
        if self._closed is not None:
            return
        self._closed = exc
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.fail(exc)
                getter.defuse()

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"{len(self._items)} queued"
        return f"<Channel {self.name!r} {state}>"


class Mailbox(Channel):
    """A channel whose one serial consumer is run to completion by producers.

    The consumer is a process whose body is ``yield from box.serve(handler)``;
    ``handler(item)`` returns ``None``, or a generator when it has to wait.
    ``deliver(item)`` is ``put(item)`` minus the wakeup: while the consumer is
    parked on its empty mailbox the handler runs inside the caller's event,
    in the order the queue would have given it:

    * nothing nests — a delivery made while a handler of this mailbox, or of
      one chained ``behind`` the same root, is running waits for that handler
      to return; what is owed a run then runs oldest first, the order the get
      events would have had in the engine's queue;
    * a handler's generator is handed to its process, which is busy until it
      is finished (later items queue and drain through ``get()``), and what
      is still owed a run takes the event path behind it;
    * a busy, interrupted or absent consumer gets a plain ``put``; so does a
      caller that is itself a process (its own step finishes first);
    * a handler's exception is raised in its process, as if the process had
      made the call.
    """

    __slots__ = ("_handler", "_server", "_owed", "_ready")

    def __init__(self, engine, name: Optional[str] = None,
                 behind: Optional["Mailbox"] = None):
        super().__init__(engine, name=name)
        self._handler: Optional[Callable[[Any], Any]] = None
        self._server = None
        #: True while this mailbox is in ``_ready``.
        self._owed = False
        #: The chain's mailboxes owed a handler run, oldest first; the head
        #: is the one running, so non-empty means "a handler is active".
        self._ready: Deque["Mailbox"] = (deque() if behind is None
                                         else behind._ready)

    def serve(self, handler: Callable[[Any], Any]):
        """Process generator: consume this mailbox with ``handler``, forever.
        ``get()`` yields an item that had to queue, or a generator: the rest
        of a handler that a delivery started."""
        self._handler = handler
        self._server = self.engine.active_process
        ready = self._ready
        wake = self.get()
        while True:
            item = yield wake
            if item.__class__ is not GeneratorType:
                # Handled in this step with the chain held, like a delivery.
                # What it delivered runs here too if this consumer parks
                # next; if it waits, raised (``item`` is then still the work
                # item) or has more queued, its own next get event must not
                # overtake them: they take the event path first.
                ready.append(self)
                try:
                    item = handler(item)
                finally:
                    ready.popleft()
                    if item is not None or self._items:
                        self._flush(ready)
            if item is not None:
                yield from item
            wake = self.get()
            if ready:
                self._drain(ready)

    def deliver(self, item: Any) -> None:
        """Hand ``item`` to the consumer, inline when it is idle."""
        getters = self._getters
        ready = self._ready
        if self._owed:
            self._items.append(item)
        elif (getters and self._handler is not None
              and getters[0]._value is _PENDING and not getters[0]._defused
              and not self._server._interrupts
              and (ready or self.engine.active_process is None)):
            self._owed = True
            self._items.append(item)
            ready.append(self)
            if len(ready) == 1:
                self._drain(ready)
        else:
            self.put(item)

    @staticmethod
    def _drain(ready: Deque["Mailbox"]) -> None:
        """Run the handlers ``ready`` is owed, oldest first."""
        while ready:
            box = ready[0]
            try:
                rest = box._handler(box._items.popleft())
            except Exception as exc:
                rest = exc
            ready.popleft()
            if rest is None and box._items:
                ready.append(box)       # more arrived meanwhile: go round
                continue
            box._owed = False
            if rest is not None:
                # It waits (or died): its process takes over, and whatever
                # is still owed a run wakes behind it.
                wake = box._getters.popleft()
                if isinstance(rest, Exception):
                    wake.fail(rest)
                else:
                    wake.succeed(rest)
                Mailbox._flush(ready)

    @staticmethod
    def _flush(ready: Deque["Mailbox"]) -> None:
        """What ``ready`` is owed takes the event path: each parked process
        is woken with its next item, in order."""
        for box in ready:
            box._owed = False
            box._getters.popleft().succeed(box._items.popleft())
        ready.clear()

