"""Typed metric instruments.

Three instrument kinds, modelled on the usual time-series vocabulary:

* :class:`Counter` — monotonically non-decreasing count (frames sent,
  checkpoints written);
* :class:`Gauge` — a value that can go both ways (queue depth, nodes up);
* :class:`Histogram` — a distribution over *fixed* buckets (latencies),
  tracking per-bucket counts plus count and sum.

An instrument is identified by ``(name, labels)`` where ``labels`` is a
sorted tuple of ``(key, value)`` string pairs; instances are created and
owned by a :class:`~repro.obs.registry.MetricsRegistry`.  Each class has a
no-op twin (`NULL_COUNTER` et al.) handed out by disabled registries so
instrumented hot paths cost one no-op method call when telemetry is off.
"""

from __future__ import annotations

from bisect import bisect_left
from math import inf
from typing import Dict, Optional, Sequence, Tuple

LabelPairs = Tuple[Tuple[str, str], ...]

#: Default fixed buckets for latency histograms (seconds): a 1-2-5 decade
#: ladder from 1 us to 10 s.  The last implicit bucket is +inf.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    base * 10.0 ** exp
    for exp in range(-6, 2)
    for base in (1.0, 2.0, 5.0))


class Instrument:
    """Base: identity (name + labels) and reset."""

    kind = "abstract"

    def __init__(self, name: str, labels: LabelPairs = (), help: str = ""):
        self.name = name
        self.labels = tuple(labels)
        self.help = help

    @property
    def key(self) -> Tuple[str, LabelPairs]:
        return (self.name, self.labels)

    @property
    def label_dict(self) -> Dict[str, str]:
        return dict(self.labels)

    def reset(self) -> None:
        raise NotImplementedError

    def _label_str(self) -> str:
        if not self.labels:
            return ""
        return "{" + ",".join(f"{k}={v}" for k, v in self.labels) + "}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}{self._label_str()}>"


class Counter(Instrument):
    """Monotonic counter; ``inc`` only accepts non-negative increments."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelPairs = (), help: str = ""):
        super().__init__(name, labels, help)
        self._value = 0

    def inc(self, n: Optional[float] = None) -> None:
        if n is None:       # the per-message call sites: no sign to check
            self._value += 1
        elif n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (n={n})")
        else:
            self._value += n

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0


class Gauge(Instrument):
    """Point-in-time value, replaced by each ``set``."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelPairs = (), help: str = ""):
        super().__init__(name, labels, help)
        self._value = 0.0

    def set(self, v: float) -> None:
        self._value = v

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0


class Histogram(Instrument):
    """Fixed-bucket distribution.

    ``buckets`` are the upper bounds (inclusive) of the finite buckets, in
    ascending order; one extra overflow bucket (+inf) is implicit.  An
    observation lands in the first bucket whose bound is >= the value.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: LabelPairs = (), help: str = "",
                 buckets: Optional[Sequence[float]] = None):
        super().__init__(name, labels, help)
        bounds = tuple(buckets if buckets is not None
                       else DEFAULT_LATENCY_BUCKETS)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name}: buckets must be strictly "
                             f"ascending, got {bounds}")
        self.bounds = bounds
        self.reset()

    def observe(self, v: float) -> None:
        self._counts[bisect_left(self.bounds, v)] += 1
        self._sum += v

    @property
    def count(self) -> int:
        return sum(self._counts)

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> Dict[float, int]:
        """Cumulative counts per upper bound (Prometheus ``le`` style),
        including the terminal ``inf`` bucket."""
        out: Dict[float, int] = {}
        running = 0
        for bound, n in zip(self.bounds, self._counts):
            running += n
            out[bound] = running
        out[inf] = running + self._counts[-1]
        return out

    def reset(self) -> None:
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0


# ---------------------------------------------------------------------------
# no-op twins (telemetry disabled)
# ---------------------------------------------------------------------------

class NullCounter(Counter):
    """Shared do-nothing counter; every read is zero."""

    def inc(self, n: Optional[float] = None) -> None:
        pass


class NullGauge(Gauge):
    def set(self, v: float) -> None:
        pass


class NullHistogram(Histogram):
    def observe(self, v: float) -> None:
        pass


NULL_COUNTER = NullCounter("null")
NULL_GAUGE = NullGauge("null")
NULL_HISTOGRAM = NullHistogram("null", buckets=(1.0,))
