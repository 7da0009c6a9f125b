"""Event tracing.

The tracer records ``(time, event-name, event-type)`` triples for every
processed event (``Engine(trace=True)``, ``repro trace --chrome``).

Memory is bounded: event records live in a ring buffer (``max_events``,
default 100k) — once full, the oldest records rotate out and
:attr:`Tracer.events_dropped` counts the loss.  Chrome ``trace_event``
export over the collected records lives in
:func:`repro.obs.export.chrome_trace`, beside the registry's structured
event log.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, List, Optional

#: Default ring-buffer capacity for raw event records.
DEFAULT_MAX_EVENTS = 100_000


@dataclass(frozen=True)
class TraceRecord:
    """One processed event."""
    time: float
    kind: str
    name: Optional[str]


class Tracer:
    """Collects event records."""

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS):
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1 (got {max_events})")
        self.max_events = max_events
        self._events: deque = deque(maxlen=max_events)
        self._recorded = 0

    @property
    def events(self) -> List[TraceRecord]:
        """Retained records, oldest first (ring-buffer view)."""
        return list(self._events)

    @property
    def events_dropped(self) -> int:
        """Records lost to ring-buffer rotation."""
        return self._recorded - len(self._events)

    def record(self, time: float, event: Any) -> None:
        self._events.append(TraceRecord(
            time, type(event).__name__, getattr(event, "name", None)))
        self._recorded += 1
