"""Measurement taken from outside the program.

A :class:`Probe` records host-time spans around the benchmark's own calls
into a layer, and sums the program's public counters after a cluster has
run.  It lives only in the benchmark's files: nothing under ``src/`` knows
it exists.  A disabled probe (the end-to-end runs) does neither.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, List

from repro.obs import Histogram

#: Per-layer counts read from the ``obs`` registry after a run.  Labelled
#: series are summed over their labels; a histogram contributes its count.
REGISTRY_COUNTS = {
    "net.frames_sent": "net.frames_sent",
    "net.bytes_sent": "net.bytes_sent",
    "net.conn.retransmits": "net.conn.retransmits",
    "vni.sent": "vni.sent",
    "mpi.collective.latency_seconds": "mpi.collective_count",
    "gcs.views": "gcs.views",
    "gcs.rel_retransmits": "gcs.rel_retransmits",
    "daemon.heartbeat.sent": "daemon.heartbeat.sent",
    "daemon.view_changes": "daemon.view_changes",
    "daemon.ranks_restarted": "daemon.ranks_restarted",
    "ckpt.protocol.checkpoints": "ckpt.protocol.checkpoints",
    "ckpt.protocol.bytes": "ckpt.protocol.bytes",
    "ckpt.store.writes": "ckpt.store.writes",
    "ckpt.store.reads": "ckpt.store.reads",
    "ckpt.store.bytes_written": "ckpt.store.bytes_written",
    "store.replica.writes": "store.replica.writes",
    "store.tier.writes": "store.tier.writes",
    "store.tier.reads": "store.tier.reads",
    "store.delta.bytes_saved": "store.delta.bytes_saved",
    "fleet.jobs_admitted": "fleet.jobs_admitted",
    "fleet.jobs_completed": "fleet.jobs_completed",
}


class Probe:
    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        #: ``{name, layer, start, end, workload}``, host seconds since the
        #: probe was made; kept in memory until the run ends.
        self.spans: List[Dict[str, object]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._t0 = time.perf_counter()

    def span(self, name: str, layer: str):
        """Context manager timing one call into ``layer``."""
        return self._span(name, layer) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str, layer: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append({"name": name, "layer": layer,
                               "start": start - self._t0,
                               "end": time.perf_counter() - self._t0,
                               "workload": self.workload})

    def absorb(self, sf) -> None:
        """Add a finished cluster's public counters to ``counts``."""
        if not self.enabled:
            return
        self.counts["sim.events"] += sf.engine.events_processed
        for inst in sf.engine.metrics.instruments():
            metric = REGISTRY_COUNTS.get(inst.name)
            if metric is not None:
                self.counts[metric] += (inst.count
                                        if isinstance(inst, Histogram)
                                        else inst.value)

    def span_ms(self, name: str) -> float:
        """Mean host milliseconds of the spans called ``name``."""
        took = [s["end"] - s["start"] for s in self.spans
                if s["name"] == name]
        return 1e3 * sum(took) / len(took) if took else 0.0
