"""Pluggable future-event-list schedulers.

The engine's contract is a total order on ``(time, priority, seq)`` heap
entries (see :mod:`repro.sim.engine`); *how* the pending set is stored is
an implementation choice behind that contract:

``heap``
    the reference implementation — a single binary heap (``heapq``),
    O(log n) per operation.  The engine keeps its inlined fast path for
    this scheduler; it is the default everywhere.

``calendar``
    a Brown-style **calendar queue** [Brown 1988]: a circular day-array
    of bucket "days" keyed by event time, giving amortized O(1) enqueue
    and dequeue independent of the pending-set size.  Buckets are tiny
    binary heaps of full ``(time, priority, seq, event)`` entries, so
    the dispatch order — including same-instant priority and insertion
    tie-breaks — is **byte-identical** to the heap scheduler; the
    determinism goldens are the gate, not a regeneration.

Calendar mechanics
------------------

An entry with time ``t`` lives in bucket ``int(t / width) % nbuckets``.
Dequeue walks absolute day numbers upward from the last-popped day
(``epoch``): a bucket's head entry is due iff its own day number is the
day being examined — heads belonging to a later "year" (a full wrap of
the day array) stay put.  If a whole year of days turns up empty, the
queue falls back to a direct scan for the minimum head (counted in
``direct_searches``; rare once the width matches the schedule density).

The queue resizes itself when the pending count grows past twice the
day count or shrinks below a quarter of it, and every ``_REWIDTH_POPS``
pops (so the width tracks the current schedule density even when the
pending count is steady).  Each resize re-estimates
the bucket width from the head of the schedule the way Brown's paper
does: take the first ~25 pending entries, average their inter-event
gaps, drop outlier gaps (>= 2x the average) and use 3x the refined
average — the width that puts roughly one due event in each day.  All
of it is a pure function of the pending entries, so two same-seed runs
resize identically (determinism holds through resizes).
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import List, Optional, Tuple

#: Valid ``Engine(scheduler=...)`` names.
SCHEDULERS = ("heap", "calendar")

#: Smallest day-array ever used (shrinks stop here).
MIN_BUCKETS = 16

#: How many head entries the resize width estimate samples.
_SAMPLE = 25

#: Fallback bucket width when the schedule gives no usable gap sample
#: (e.g. every pending event at the same instant).
_DEFAULT_WIDTH = 1e-3

#: Rebuild the day array every this many pops so the width tracks the
#: current schedule density even when the pending count is steady
#: (occupancy resizes never fire then and Brown's estimate would stay
#: frozen at its boot-time value).  Pop-counter keyed, so deterministic.
_REWIDTH_POPS = 8192


class CalendarQueue:
    """Amortized-O(1) future event list with heap-identical ordering.

    The public surface is what :class:`~repro.sim.engine.Engine` uses:
    ``push(entry)``, :meth:`pop_until`, :meth:`peek_key` and ``len()``
    (plus :meth:`pop`, the unbounded ``pop_until``).  Entries are the
    engine's ``(time, priority, seq, event)`` tuples and come back in
    strictly non-decreasing ``(time, priority, seq)`` order.
    """

    __slots__ = ("_buckets", "_mask", "_width", "_inv_width", "_epoch",
                 "_last", "_count", "_pops", "_grow_at", "_shrink_at",
                 "_staging", "push", "resizes", "direct_searches")

    def __init__(self, width: float = _DEFAULT_WIDTH,
                 nbuckets: int = MIN_BUCKETS):
        if width <= 0:
            raise ValueError(f"bucket width must be > 0, got {width}")
        if nbuckets < 1 or nbuckets & (nbuckets - 1):
            raise ValueError(f"nbuckets must be a power of two, "
                             f"got {nbuckets}")
        self._buckets: List[list] = [[] for _ in range(nbuckets)]
        self._mask = nbuckets - 1
        self._width = width
        self._inv_width = 1.0 / width
        # The queue's floor: every queued entry's time is >= the time of
        # the last popped entry (the engine pushes at t >= now), so the
        # day of that time is always a safe scan start.  Only pops (and
        # resizes, which re-derive it from ``_last``) may advance the
        # epoch: a peek that jumped it forward would skip over days that
        # later same-run pushes can still land on.
        self._epoch = 0
        self._last = 0.0
        self._count = 0
        # Pops since the last resize (the ``_REWIDTH_POPS`` trigger).
        self._pops = 0
        # Pushes land here and are folded into the buckets, in push
        # order, before the next dequeue/peek.
        self._staging: List[tuple] = []
        #: Enqueue one ``(time, priority, seq, event)`` entry.  Bound
        #: straight to the staging list's C-level ``append`` so a push
        #: costs no Python frame, like the heap's bound ``heappush``.
        self.push = self._staging.append
        self._grow_at = 2 * nbuckets
        self._shrink_at = 0 if nbuckets <= MIN_BUCKETS else nbuckets // 4
        #: Telemetry: day-array rebuilds / full-scan fallbacks so far.
        self.resizes = 0
        self.direct_searches = 0

    # -- properties ------------------------------------------------------

    @property
    def nbuckets(self) -> int:
        return self._mask + 1

    @property
    def width(self) -> float:
        return self._width

    def __len__(self) -> int:
        return self._count + len(self._staging)

    # -- core operations -------------------------------------------------

    def _drain(self) -> None:
        """Fold staged pushes into the buckets, in push order.

        Must run before any dequeue/peek/resize so the bucket walk sees
        the whole pending set.  Draining in push order replays exactly
        the ``heappush`` sequence direct pushes would have done, so the
        bucket heaps (and dispatch order) are byte-identical.
        """
        staged = self._staging
        if not staged:
            return
        buckets = self._buckets
        mask = self._mask
        inv_w = self._inv_width
        for entry in staged:
            heappush(buckets[int(entry[0] * inv_w) & mask], entry)
        self._count += len(staged)
        staged.clear()
        if self._count > self._grow_at:
            self._resize()

    def _find(self) -> Optional[list]:
        """The bucket holding the globally-minimal entry (``None`` when
        empty).  Pure scan — never advances ``epoch`` (see ``__init__``:
        a peek must not skip days future pushes can still land on)."""
        if self._staging:
            self._drain()
        if not self._count:
            return None
        buckets = self._buckets
        mask = self._mask
        inv_w = self._inv_width
        day = self._epoch
        remaining = mask + 2          # one full year, then give up
        while remaining:
            bucket = buckets[day & mask]
            if bucket and int(bucket[0][0] * inv_w) <= day:
                return bucket
            day += 1
            remaining -= 1
        # A whole year of empty days: the next event is at least one
        # wrap away.  Scan every bucket head for the global minimum.
        self.direct_searches += 1
        best = None
        for bucket in buckets:
            if bucket and (best is None or bucket[0] < best[0]):
                best = bucket
        return best

    def pop(self) -> Optional[tuple]:
        """Dequeue and return the minimal entry, or ``None`` when empty."""
        return self.pop_until(inf)

    def pop_until(self, limit: float) -> Optional[tuple]:
        """Dequeue the minimal entry if its time is ``<= limit``; return
        ``None`` (leaving the entry queued, epoch untouched) otherwise
        or when empty."""
        bucket = self._find()
        if bucket is None or bucket[0][0] > limit:
            return None
        entry = heappop(bucket)
        self._last = t = entry[0]
        self._epoch = int(t * self._inv_width)
        self._count -= 1
        self._pops += 1
        if self._count < self._shrink_at or self._pops >= _REWIDTH_POPS:
            self._resize()
        return entry

    def peek_key(self) -> Optional[Tuple[float, int]]:
        """``(time, priority)`` of the minimal entry (``None`` if empty)."""
        bucket = self._find()
        return (bucket[0][0], bucket[0][1]) if bucket is not None else None

    # -- resizing --------------------------------------------------------

    def _estimate_width(self, entries: List[tuple]) -> float:
        """Brown's width rule over the (sorted) head of the schedule.

        The gaps are the *nonzero* time differences within the first
        ``_SAMPLE`` entries.  Zero gaps are skipped (bulk-synchronous
        workloads park dozens of same-instant ties at the schedule head,
        and a zero gap says nothing about spacing) but the sample stays
        confined to the first raw entries on purpose: the width must
        match the density of what is dequeued *soon*, and ranging
        further for distinct times would average in far-future timer
        bands (heartbeats seconds out) and fatten the width by orders
        of magnitude.  No usable gap in the sample keeps the old width —
        a later resize sees a fresh sample.
        """
        gaps = [b[0] - a[0]
                for a, b in zip(entries, entries[1:_SAMPLE])
                if b[0] > a[0]]
        if not gaps:
            return self._width
        avg = sum(gaps) / len(gaps)
        refined = [g for g in gaps if g < 2.0 * avg]
        ravg = (sum(refined) / len(refined)) if refined else 0.0
        return 3.0 * (ravg if ravg > 0.0 else avg)

    def _resize(self) -> None:
        """Rebuild the day array sized to the pending count, with a
        freshly estimated bucket width."""
        entries: List[tuple] = []
        for bucket in self._buckets:
            entries.extend(bucket)
        entries.sort()
        self.resizes += 1
        self._pops = 0
        nbuckets = MIN_BUCKETS
        while nbuckets < len(entries):
            nbuckets <<= 1
        width = self._estimate_width(entries)
        self._width = width
        self._inv_width = inv_w = 1.0 / width
        self._mask = mask = nbuckets - 1
        self._grow_at = 2 * nbuckets
        self._shrink_at = 0 if nbuckets <= MIN_BUCKETS else nbuckets // 4
        self._buckets = buckets = [[] for _ in range(nbuckets)]
        # Ascending inserts keep every bucket a valid heap with no
        # sifting; appending directly would break ties pushed later.
        for entry in entries:
            heappush(buckets[int(entry[0] * inv_w) & mask], entry)
        # Re-derive the epoch from the floor, not from the minimum entry:
        # pushes after the resize may land anywhere in [_last, min entry).
        self._epoch = int(self._last * inv_w)

    def __repr__(self) -> str:
        return (f"<CalendarQueue n={self._count} days={self._mask + 1} "
                f"width={self._width:.3g} resizes={self.resizes} "
                f"searches={self.direct_searches}>")
