"""Ablation — the daemon/application-process state split.

Paper §5 attributes the small (632 KB) empty checkpoint to the
architecture: "the run-time system on each node is divided between the
application process and the daemon.  The daemon, which accounts for most
of the code, is shared between all processes on the same node, and is
written in a way that we never have to save or recover its state."

This bench measures what checkpoints would cost if the daemon's state
(group communication buffers, registry, configuration — everything a
monolithic runtime would drag along) had to be saved with every process:
it encodes each daemon's actual live state with the VM encoder and adds
the modelled daemon code/image, then compares per-checkpoint bytes and
times against Starfish's split design.
"""

import pytest

from repro.calibration import (KB, MB, NATIVE_DISK_BANDWIDTH,
                               NATIVE_EMPTY_IMAGE)
from repro.core import AppSpec, CheckpointConfig, FaultPolicy, StarfishCluster
from repro.apps import ComputeSleep
from repro.hetero import portable_nbytes

from bench_helpers import checkpoint_once, print_table, quiet_gcs, \
    start_checkpointed_app

# Fast mode (REPRO_BENCH_FAST=1): nothing to shrink — one empty-state
# checkpoint on a 2-node cluster is already smoke-sized.

#: Modelled size of the daemon's code + Ensemble + management image — the
#: "most of the code" that Starfish keeps out of application processes.
#: (The paper's own runtime is several MB of OCaml runtime + Ensemble.)
DAEMON_IMAGE = 4 * MB


def run_split():
    sf = StarfishCluster.build(nodes=2, gcs_config=quiet_gcs())
    app_id = start_checkpointed_app(sf, nprocs=2, state_bytes=0,
                                    protocol="stop-and-sync",
                                    level="native")
    duration = checkpoint_once(sf, app_id)
    record = sf.store.peek(app_id, 0, sf.store.latest_committed(app_id))

    # What a monolithic design would ALSO have to dump, per process:
    daemon = sf.any_daemon()
    live_state = {
        "registry": [daemon._record_blob(r)
                     for r in daemon.registry.all()],
        "config": dict(daemon.config),
        "members": [str(m) for m in daemon.gm.view.members],
        "delivered": int(sf.engine.metrics.value(
            "gcs.delivered", node=daemon.node.node_id)),
    }
    # Serializable subset of daemon state (programs are classes; name them).
    for blob in live_state["registry"]:
        blob["program"] = blob["program"].__name__
    daemon_state_bytes = portable_nbytes(live_state, daemon.node.arch)
    return record.nbytes, duration, daemon_state_bytes


def test_ablation_daemon_state_split(benchmark):
    ckpt_bytes, duration, daemon_state = benchmark.pedantic(
        run_split, rounds=1, iterations=1)
    mono_bytes = ckpt_bytes + DAEMON_IMAGE + daemon_state
    mono_time_est = duration + (DAEMON_IMAGE + daemon_state) \
        / NATIVE_DISK_BANDWIDTH
    print_table(
        "Checkpoint cost: Starfish split vs monolithic runtime (empty app)",
        ["design", "file KB", "time s"],
        [["Starfish (daemon state never saved)",
          f"{ckpt_bytes / KB:.0f}", f"{duration:.3f}"],
         ["monolithic (daemon image + live state in every checkpoint)",
          f"{mono_bytes / KB:.0f}", f"{mono_time_est:.3f}"]])
    benchmark.extra_info["split_bytes"] = ckpt_bytes
    benchmark.extra_info["monolithic_bytes"] = mono_bytes

    # The split design's empty checkpoint is the paper's 632 KB figure.
    assert ckpt_bytes == pytest.approx(NATIVE_EMPTY_IMAGE, rel=0.01)
    # A monolithic runtime would checkpoint ~7x more for an empty program.
    assert mono_bytes > 5 * ckpt_bytes
    assert mono_time_est > 1.5 * duration
