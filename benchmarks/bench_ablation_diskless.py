"""Ablation — diskless (fast-network) checkpointing vs the IDE disk.

The paper's §7 closes with: "developing newer and faster C/R protocols, in
particular ones that utilize fast networks, is a natural research
direction."  This bench implements that direction (see
:mod:`repro.ckpt.protocols.diskless`) and measures what the 1999 hardware
balance implies: the IDE disk sustains ~6.5 MB/s while BIP/Myrinet moves
~30 MB/s, so mirroring checkpoint images into a buddy's memory beats the
disk even though every image crosses the network twice.
"""

import pytest

from repro.calibration import MB
from repro.core import AppSpec, CheckpointConfig, FaultPolicy, StarfishCluster
from repro.apps import ComputeSleep

from bench_helpers import checkpoint_once, fast_or, print_table, quiet_gcs, \
    start_checkpointed_app

PAYLOADS = fast_or([0, 2 * MB], [0, 2 * MB, 8 * MB, 24 * MB])
NPROCS = 4


def wave(protocol, payload):
    sf = StarfishCluster.build(nodes=NPROCS, gcs_config=quiet_gcs())
    app_id = start_checkpointed_app(sf, nprocs=NPROCS, state_bytes=payload,
                                    protocol=protocol, level="native")
    duration = checkpoint_once(sf, app_id)
    disk_bytes = sum(n.disk.bytes_written
                     for n in sf.cluster.nodes.values())
    net_bytes = sf.engine.metrics.sum("net.bytes_sent", fabric="bip-myrinet")
    return duration, disk_bytes, net_bytes


def run_ablation():
    out = {}
    for protocol in ("stop-and-sync", "diskless"):
        for payload in PAYLOADS:
            out[(protocol, payload)] = wave(protocol, payload)
    return out


def test_ablation_diskless_checkpointing(benchmark):
    out = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    rows = []
    for payload in PAYLOADS:
        disk_t = out[("stop-and-sync", payload)][0]
        dl_t, dl_disk, dl_net = out[("diskless", payload)]
        rows.append([f"{payload / MB:.0f}", f"{disk_t:.3f}", f"{dl_t:.3f}",
                     f"{disk_t / dl_t:.1f}x"])
    print_table(
        f"Diskless vs disk checkpointing (native level, {NPROCS} ranks)",
        ["payload MB/rank", "disk s", "diskless s", "speedup"], rows)

    for payload in PAYLOADS:
        disk_t = out[("stop-and-sync", payload)][0]
        dl_t, dl_disk, dl_net = out[("diskless", payload)]
        # Diskless never touches the disks and is substantially faster.
        assert dl_disk == 0
        assert dl_t < disk_t / 2, payload
        # The images really crossed the fast network (2 mirrors each).
        if payload:
            assert dl_net > 2 * NPROCS * payload
    big = PAYLOADS[-1]
    benchmark.extra_info["speedup_24MB"] = \
        out[("stop-and-sync", big)][0] / out[("diskless", big)][0]
