"""Unified observability substrate.

Every subsystem in this repository — simulation engine, fabrics, NIC
driver, VNI, MPI, checkpoint storage and protocols, group communication,
daemons — emits its telemetry through one per-engine
:class:`~repro.obs.registry.MetricsRegistry` of typed instruments
(:class:`~repro.obs.instruments.Counter`,
:class:`~repro.obs.instruments.Gauge`,
:class:`~repro.obs.instruments.Histogram`), plus a bounded structured
:class:`~repro.obs.events.EventLog`.

Metric names are hierarchical dotted paths with label sets, e.g.
``net.frames_sent{fabric="bip-myrinet", kind="data"}`` — see DESIGN.md's
"Observability" section for the naming scheme.

Read sides: :func:`~repro.obs.export.flatten` (flat dict),
:func:`~repro.obs.export.to_text` / :func:`~repro.obs.export.to_prometheus`
(text formats, ``repro metrics``), and
:func:`~repro.obs.export.chrome_trace` (Chrome ``trace_event`` JSON built
from :class:`~repro.sim.trace.Tracer` records and the event log,
``repro trace --chrome``).

Telemetry is on by default and zero-cost-ish when disabled: a registry
built with ``enabled=False`` hands out shared no-op instruments
(the ``ABL-TELEMETRY`` row of ``benchmarks/paper.py`` quantifies the
difference).
"""

from repro.obs.events import EventLog, ObsEvent
from repro.obs.export import (chrome_trace, flatten, to_prometheus,
                              to_text)
from repro.obs.instruments import (DEFAULT_LATENCY_BUCKETS, Counter, Gauge,
                                   Histogram, NULL_COUNTER, NULL_GAUGE,
                                   NULL_HISTOGRAM)
from repro.obs.registry import (NULL_REGISTRY, MetricsRegistry, RegistryView,
                                get_registry)

__all__ = [
    "Counter", "Gauge", "Histogram", "DEFAULT_LATENCY_BUCKETS",
    "NULL_COUNTER", "NULL_GAUGE", "NULL_HISTOGRAM",
    "MetricsRegistry", "NULL_REGISTRY", "RegistryView", "get_registry",
    "EventLog", "ObsEvent",
    "flatten", "to_text", "to_prometheus", "chrome_trace",
]
