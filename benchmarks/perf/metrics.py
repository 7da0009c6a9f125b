"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` at the root of the repository repeats these lists (a
test keeps the two equal); ``run.py`` prints exactly these names.
"""

from __future__ import annotations

from layers import LAYERS, OTHER
from workloads import RECOVERY_PROTOCOLS

LOWER, HIGHER = "lower", "higher"

#: (name, unit, better, bound): host-time numbers a user of the simulator
#: sees on every workload.  ``bound`` is the share of the parent's median
#: by which a later change may worsen the metric.
END_TO_END = (
    ("wall_s", "s", LOWER, 0.25),
    ("cpu_s", "s", LOWER, 0.25),
    ("peak_rss_mb", "MB", LOWER, 0.10),
    ("setup_s", "s", LOWER, 0.25),
)

#: Simulated (modelled) results: exact for a seed, so they carry no bound
#: and are compared for equality.  A metric a workload does not produce
#: reads 0 there.
SIMULATED = (
    ("sim_makespan_s", "s", LOWER),
    ("sim_rtt_us", "us", LOWER),
    ("sim_recovery_s", "s", LOWER),
    ("sim_ckpt_wave_s", "s", LOWER),
    ("sim_restore_read_s", "s", LOWER),
    ("ckpt_bytes_written", "B", LOWER),
    ("sim_admit_latency_s", "s", LOWER),
) + tuple(
    (f"ckpt.{protocol}.{field}", unit, LOWER)
    for protocol in RECOVERY_PROTOCOLS
    for field, unit in (("failure_free_sim_s", "s"), ("penalty_sim_s", "s"),
                        ("ranks_restarted", "count")))

#: The traced pass: host self seconds and calls per layer.
TRACED = tuple(
    (f"{layer}.{field}", unit, LOWER)
    for layer in LAYERS
    for field, unit in (("self_s", "s"), ("calls", "count"))
) + ((f"{OTHER}.self_s", "s", LOWER), ("trace.overhead_x", "x", LOWER))

#: Counts read from public state after the untraced run; exact for a seed.
COUNTS = (
    ("sim.events", "count", LOWER),
    ("sim.us_per_event", "us", LOWER),
    ("net.frames_sent", "count", LOWER),
    ("net.bytes_sent", "B", LOWER),
    ("net.conn.retransmits", "count", LOWER),
    ("vni.sent", "count", LOWER),
    ("mpi.collective_count", "count", LOWER),
    ("gcs.views", "count", LOWER),
    ("gcs.rel_retransmits", "count", LOWER),
    ("daemon.heartbeat.sent", "count", LOWER),
    ("daemon.view_changes", "count", LOWER),
    ("daemon.ranks_restarted", "count", LOWER),
    ("ckpt.protocol.checkpoints", "count", LOWER),
    ("ckpt.protocol.bytes", "B", LOWER),
    ("ckpt.store.writes", "count", LOWER),
    ("ckpt.store.reads", "count", LOWER),
    ("ckpt.store.bytes_written", "B", LOWER),
    ("store.replica.writes", "count", LOWER),
    ("store.tier.writes", "count", LOWER),
    ("store.tier.reads", "count", LOWER),
    ("store.delta.bytes_saved", "B", HIGHER),
    ("fleet.jobs_admitted", "count", HIGHER),
    ("fleet.jobs_completed", "count", HIGHER),
)

#: Host time around public calls made by the benchmark itself.
HOST_CALLS = (
    ("sim.kernel_events_per_s", "1/s", HIGHER),
    ("sim.sched.heap_ops_per_s", "1/s", HIGHER),
    ("sim.sched.calendar_ops_per_s", "1/s", HIGHER),
    ("mpi.roundtrip_host_us", "us", LOWER),
    ("hetero.encode_mb_per_s", "MB/s", HIGHER),
    ("hetero.decode_mb_per_s", "MB/s", HIGHER),
    ("store.delta.encode_mb_per_s", "MB/s", HIGHER),
    ("store.delta.apply_mb_per_s", "MB/s", HIGHER),
    ("ckpt.wave_host_ms.legacy", "ms", LOWER),
    ("ckpt.wave_host_ms.replicated", "ms", LOWER),
    ("ckpt.wave_host_ms.tiered", "ms", LOWER),
    ("store.read_host_ms.legacy", "ms", LOWER),
    ("store.read_host_ms.replicated", "ms", LOWER),
    ("store.read_host_ms.tiered", "ms", LOWER),
    ("fleet.submit_us", "us", LOWER),
    ("fleet.api_us", "us", LOWER),
    ("obs.counter_inc_ns", "ns", LOWER),
    ("obs.export_ms", "ms", LOWER),
)

PER_LAYER = SIMULATED + TRACED + COUNTS + HOST_CALLS

#: Per-layer metrics that must be identical on two runs of one seed.
EXACT = tuple(
    name for name, _unit, _better in SIMULATED + COUNTS + TRACED
    if not name.endswith(("self_s", "overhead_x", "us_per_event")))


def manifest_entries():
    """The ``end_to_end`` and ``per_layer`` lists of ``BENCHMARK.json``."""
    return (
        [{"name": n, "unit": u, "better": b, "bound": bound}
         for n, u, b, bound in END_TO_END],
        [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    )
