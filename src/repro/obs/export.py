"""Read-side exporters over the registry and the tracer.

* :func:`flatten` — one flat ``{"name{k=v}": value}`` dict (tests,
  ad-hoc asserts);
* :func:`to_text` — aligned ``name{labels} value`` lines (``repro
  metrics``);
* :func:`to_prometheus` — Prometheus text exposition format
  (``repro metrics --format prom``), histograms as cumulative
  ``_bucket{le=...}`` series;
* :func:`chrome_trace` — Chrome ``trace_event`` JSON (load in
  ``chrome://tracing`` / Perfetto) built from
  :class:`~repro.sim.trace.Tracer` records plus the structured event log
  (``repro trace --chrome``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.instruments import Histogram

#: Simulated seconds -> trace_event microseconds.
_US = 1e6


def _flat_key(name: str, labels, extra: str = "") -> str:
    pairs = [f"{k}={v}" for k, v in labels]
    if extra:
        pairs.append(extra)
    return name + ("{" + ",".join(pairs) + "}" if pairs else "")


def flatten(registry) -> Dict[str, float]:
    """Every series as one flat dict; histograms contribute ``_count``,
    ``_sum``, and cumulative ``_bucket{le=...}`` entries."""
    out: Dict[str, float] = {}
    for inst in registry.instruments():
        if isinstance(inst, Histogram):
            out[_flat_key(inst.name + "_count", inst.labels)] = inst.count
            out[_flat_key(inst.name + "_sum", inst.labels)] = inst.sum
            for bound, n in inst.bucket_counts().items():
                out[_flat_key(inst.name + "_bucket", inst.labels,
                              extra=f"le={_bound_str(bound)}")] = n
        else:
            out[_flat_key(inst.name, inst.labels)] = inst.value
    for name, labels, value in registry.sampled_gauges():
        out[_flat_key(name, labels)] = value
    return out


def _bound_str(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    return f"{bound:g}"


def to_text(registry) -> str:
    """Human-oriented flat listing, sorted by series name."""
    flat = flatten(registry)
    if not flat:
        return "(no metrics recorded)"
    width = max(len(k) for k in flat)
    return "\n".join(f"{k:<{width}}  {v:g}" for k, v in sorted(flat.items()))


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_labels(labels, extra: str = "") -> str:
    pairs = [f'{_prom_name(k)}="{v}"' for k, v in labels]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def to_prometheus(registry) -> str:
    """Prometheus text exposition format (v0.0.4)."""
    lines: List[str] = []
    typed: set = set()

    def declare(name: str, kind: str, help: str) -> None:
        if name in typed:
            return
        typed.add(name)
        if help:
            lines.append(f"# HELP {name} {help}")
        lines.append(f"# TYPE {name} {kind}")

    for inst in registry.instruments():
        pname = _prom_name(inst.name)
        if isinstance(inst, Histogram):
            declare(pname, "histogram", inst.help)
            for bound, n in inst.bucket_counts().items():
                lines.append(f"{pname}_bucket"
                             f"{_prom_labels(inst.labels, extra=_le(bound))}"
                             f" {n}")
            lines.append(f"{pname}_sum{_prom_labels(inst.labels)}"
                         f" {inst.sum:g}")
            lines.append(f"{pname}_count{_prom_labels(inst.labels)}"
                         f" {inst.count}")
        else:
            declare(pname, inst.kind, inst.help)
            lines.append(f"{pname}{_prom_labels(inst.labels)}"
                         f" {inst.value:g}")
    for name, labels, value in registry.sampled_gauges():
        pname = _prom_name(name)
        declare(pname, "gauge", "")
        lines.append(f"{pname}{_prom_labels(labels)} {value:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def _le(bound: float) -> str:
    return f'le="{_bound_str(bound)}"'


def chrome_trace(tracer, event_log=None,
                 max_records: Optional[int] = None) -> Dict[str, Any]:
    """Build a Chrome ``trace_event`` document.

    Raw engine :class:`~repro.sim.trace.TraceRecord` entries (capped at
    ``max_records``, newest kept; track ``engine``) and structured
    :class:`~repro.obs.events.ObsEvent` records (track ``events``) become
    instant (``"ph": "i"``) events.

    Timestamps are simulated microseconds.  The result is
    ``json.dump``-able and loads in ``chrome://tracing`` / Perfetto.
    """
    events: List[Dict[str, Any]] = []
    tids: Dict[str, int] = {}

    def tid(track: str) -> int:
        if track not in tids:
            tids[track] = len(tids) + 1
            events.append({"name": "thread_name", "ph": "M", "pid": 0,
                           "tid": tids[track],
                           "args": {"name": track}})
        return tids[track]

    if tracer is not None:
        records = list(tracer.events)
        if max_records is not None and len(records) > max_records:
            records = records[-max_records:]
        for rec in records:
            events.append({
                "name": rec.name or rec.kind, "cat": rec.kind, "ph": "i",
                "pid": 0, "tid": tid("engine"), "ts": rec.time * _US,
                "s": "t"})
    if event_log is not None:
        for ev in event_log.records():
            events.append({
                "name": ev.name, "cat": "obs", "ph": "i", "pid": 0,
                "tid": tid("events"), "ts": ev.time * _US, "s": "g",
                "args": ev.field_dict})
    events.sort(key=lambda e: (e.get("ts", -1.0), e["tid"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}
