"""The five benchmark workloads.

Each workload is one function ``run(seed, smoke, probe) -> Outcome`` that
builds its clusters from the seed, drives them through the public API,
checks what came back, and returns the operations it attempted, the ones
that failed, and the simulated (modelled, exact) numbers it observed.
``first_spec(seed, smoke)`` is the first cluster that function builds; the
set-up probe boots exactly that.

The run functions are copies of the handful of legacy ``bench_*.py``
functions they descend from, so that later edits to those files cannot
move this benchmark's baseline.  Nothing here reads the environment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro.apps import Jacobi1D, PingPong, TrafficGenerator
from repro.calibration import (BIP_BANDWIDTH, BIP_LAYERS, RTT_1BYTE_BIP,
                               one_way_time)
from repro.cluster import ClusterSpec
from repro.core import (AppSpec, CheckpointConfig, FaultPolicy,
                        StarfishCluster)
from repro.fleet import FleetController, FleetOracle, JobState
from repro.gcs import GcsConfig

from probe import Probe
from programs import DirtyBlocks, jacobi_reference


@dataclass
class Outcome:
    """What one run of a workload did."""

    attempted: int = 0
    #: One line per failed operation (a wrong result counts as failed).
    failures: List[str] = field(default_factory=list)
    #: Simulated-time and other modelled numbers; exact for a given seed.
    sim: Dict[str, float] = field(default_factory=dict)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def quiet_gcs(heartbeat: float) -> GcsConfig:
    """Sparse failure-detector traffic, so the data path dominates."""
    return GcsConfig(heartbeat_period=heartbeat,
                     suspect_timeout=8 * heartbeat,
                     announce_period=16 * heartbeat)


# ---------------------------------------------------------------------------
# p2p_pingpong
# ---------------------------------------------------------------------------

PINGPONG_SIZES = (1, 1024, 65536)


def pingpong_reps(smoke: bool) -> int:
    return 300 if smoke else 3000


def _pingpong_spec(seed: int, smoke: bool) -> ClusterSpec:
    return ClusterSpec(nodes=8, seed=seed, gcs_config=quiet_gcs(2.0))


def run_pingpong(seed: int, smoke: bool, probe: Probe) -> Outcome:
    out = Outcome()
    # The seed orders the sizes; every size is still sent `reps` times.
    sizes = [int(s) for s in
             np.random.default_rng(seed).permutation(PINGPONG_SIZES)]
    with probe.span("build", "cluster"):
        sf = StarfishCluster.build(spec=_pingpong_spec(seed, smoke))
    with probe.span("pingpong", "mpi"):
        handle = sf.submit(AppSpec(program=PingPong, nprocs=2,
                                   params={"sizes": sizes,
                                           "reps": pingpong_reps(smoke)}),
                           app_id="pingpong")
        rtts = sf.run_to_completion(handle, timeout=4000)[0]
    probe.absorb(sf)
    # Fig. 5: the round trip is twice the calibrated one-way time, and the
    # 1-byte point is the paper's 86 us anchor.
    expected = {s: 2 * one_way_time(BIP_LAYERS, BIP_BANDWIDTH, s)
                for s in PINGPONG_SIZES}
    ok = (sorted(rtts) == sorted(PINGPONG_SIZES)
          and all(math.isclose(rtts[s], expected[s], rel_tol=0.01)
                  for s in PINGPONG_SIZES)
          and math.isclose(rtts[1], RTT_1BYTE_BIP, rel_tol=0.01))
    out.op(ok, f"pingpong RTTs {rtts} != calibration {expected}")
    out.sim = {"sim_makespan_s": sf.engine.now,
               "sim_rtt_us": rtts.get(1, 0.0) * 1e6}
    return out


# ---------------------------------------------------------------------------
# scale_jacobi256
# ---------------------------------------------------------------------------

def _jacobi_shape(smoke: bool):
    """(nodes, iterations, cells per rank)"""
    return (16, 20, 64) if smoke else (256, 20, 64)


def _jacobi_spec(seed: int, smoke: bool) -> ClusterSpec:
    return ClusterSpec(nodes=_jacobi_shape(smoke)[0], seed=seed,
                       gcs_config=quiet_gcs(2.0))


def run_jacobi(seed: int, smoke: bool, probe: Probe) -> Outcome:
    out = Outcome()
    nodes, iterations, cells = _jacobi_shape(smoke)
    with probe.span("build", "cluster"):
        sf = StarfishCluster.build(spec=_jacobi_spec(seed, smoke))
    with probe.span("jacobi", "mpi"):
        handle = sf.submit(AppSpec(program=Jacobi1D, nprocs=nodes,
                                   params={"n": cells * nodes,
                                           "iterations": iterations,
                                           "iters_per_step": 10}),
                           app_id="jacobi")
        got = sf.run_to_completion(handle, timeout=4000)[0]
    probe.absorb(sf)
    want = jacobi_reference(cells * nodes, nodes, iterations)
    ok = (got is not None and got[0] == want[0]
          and abs(got[1] - want[1]) <= 1e-9
          and abs(got[2] - want[2]) <= 1e-9)
    out.op(ok, f"jacobi result {got} != single-process reference {want}")
    out.sim = {"sim_makespan_s": sf.engine.now}
    return out


# ---------------------------------------------------------------------------
# recovery_modes
# ---------------------------------------------------------------------------

RECOVERY_PROTOCOLS = ("sender-logging", "causal-logging", "uncoordinated",
                      "stop-and-sync", "replication")

#: How many ranks a crash may restart: logging replays the crashed rank
#: alone, replication promotes a copy, rollback restarts the world.
_RESTART_SHAPE: Dict[str, Callable[[int], bool]] = {
    "sender-logging": lambda n: n == 1,
    "causal-logging": lambda n: n == 1,
    "uncoordinated": lambda n: n >= 2,
    "stop-and-sync": lambda n: n >= 2,
    "replication": lambda n: n == 0,
}


def _recovery_spec(seed: int, smoke: bool) -> ClusterSpec:
    return ClusterSpec(nodes=5, seed=seed)


def _recovery_run(seed: int, smoke: bool, protocol: str, crash: bool,
                  probe: Probe):
    with probe.span("build", "cluster"):
        sf = StarfishCluster.build(spec=_recovery_spec(seed, smoke))
    # Long enough that every protocol is still mid-run when the crash
    # lands (pessimistic logging stretches iterations ~20x in sim time).
    # Replication pays a total-order cast per send, so it gets fewer
    # iterations: its two runs then cost about as much host time as the
    # other eight together.
    if protocol == "replication":
        iterations = 40 if smoke else 60
    else:
        iterations = 150 if smoke else 200
    spec = AppSpec(
        program=Jacobi1D, nprocs=4,
        params={"n": 256, "iterations": iterations,
                "iters_per_step": 10, "compute_ns_per_cell": 30000},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(
            protocol=protocol, level="vm", interval=0.15,
            replicas=2 if protocol == "replication" else 1))
    label = f"{protocol}/{'crash' if crash else 'golden'}"
    with probe.span(label, "ckpt"):
        handle = sf.submit(spec, app_id="recovery")
        if crash:
            if protocol == "replication":
                # No checkpoint to wait on: crash at a fixed point well
                # into the exchange.
                sf.engine.run(until=sf.engine.now + (0.2 if smoke else 0.3))
            else:
                # Right after rank 1's first committed checkpoint.
                while not sf.store.versions_of(handle.app_id, 1):
                    sf.engine.run(until=sf.engine.now + 0.05)
                    if sf.engine.now > 10.0:
                        raise RuntimeError(f"{label}: no rank-1 checkpoint")
            sf.crash_node(sf.books[handle.app_id][1][0])    # rank 1's host
        results = sf.run_to_completion(handle, timeout=240.0)
    probe.absorb(sf)
    restarted = sf.engine.metrics.group_by("daemon.ranks_restarted", "app")
    return results, sf.engine.now, int(restarted.get(handle.app_id, 0))


def run_recovery(seed: int, smoke: bool, probe: Probe) -> Outcome:
    out = Outcome()
    makespan = 0.0
    penalties = []
    for protocol in RECOVERY_PROTOCOLS:
        golden, golden_s, _ = _recovery_run(seed, smoke, protocol, False,
                                            probe)
        crashed, crashed_s, restarted = _recovery_run(seed, smoke, protocol,
                                                      True, probe)
        out.op(crashed == golden and _RESTART_SHAPE[protocol](restarted),
               f"{protocol}: results equal={crashed == golden}, "
               f"ranks_restarted={restarted}")
        makespan += golden_s + crashed_s
        if protocol != "replication":
            penalties.append(crashed_s - golden_s)
        out.sim[f"ckpt.{protocol}.failure_free_sim_s"] = golden_s
        out.sim[f"ckpt.{protocol}.penalty_sim_s"] = crashed_s - golden_s
        out.sim[f"ckpt.{protocol}.ranks_restarted"] = restarted
    out.sim["sim_makespan_s"] = makespan
    out.sim["sim_recovery_s"] = sum(penalties) / len(penalties)
    return out


# ---------------------------------------------------------------------------
# ckpt_waves
# ---------------------------------------------------------------------------

#: (label, checkpoint level, ClusterSpec store fields)
STORE_BUILDS = (
    ("legacy", "vm", {}),
    ("legacy-native", "native", {}),
    ("replicated", "vm", {"replication_factor": 2}),
    ("tiered", "vm", {"store_tiers": ("memory", "disk", "fabric"),
                      "replication_factor": 2, "delta_depth": 4}),
)
WAVES_APP = "waves"
WAVES_RANKS = 8


def _waves_spec(seed: int, smoke: bool, **store) -> ClusterSpec:
    return ClusterSpec(nodes=10, seed=seed, gcs_config=quiet_gcs(2.0),
                       **store)


def _lowest_rank_protocol(sf: StarfishCluster):
    """The checkpoint protocol instance of the lowest live rank."""
    found = None
    for daemon in sf.live_daemons():
        for (app_id, rank), handle in daemon.handles.items():
            if app_id == WAVES_APP and handle.protocol is not None \
                    and (found is None or rank < found[0]):
                found = (rank, handle.protocol)
    if found is None:
        raise RuntimeError("no checkpointing process for the waves app")
    return found[1]


def _waves_build(seed: int, smoke: bool, label: str, level: str, store,
                 probe: Probe, out: Outcome) -> None:
    waves = 5 if smoke else 12
    with probe.span("build", "cluster"):
        sf = StarfishCluster.build(spec=_waves_spec(seed, smoke, **store))
    sf.submit(AppSpec(
        program=DirtyBlocks, nprocs=WAVES_RANKS,
        params={"state_bytes": (256 if smoke else 2048) * 1024,
                "step_time": 0.05, "seed": seed},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="stop-and-sync", level=level)),
        app_id=WAVES_APP)
    engine, stored = sf.engine, sf.store
    engine.run(until=engine.now + 1.0)        # every rank is stepping

    wave_sim = 0.0
    for wave in range(1, waves + 1):
        t0 = engine.now
        with probe.span(f"wave/{label}", "ckpt"):
            done = _lowest_rank_protocol(sf).request_checkpoint()
            engine.run(until=done)
        wave_sim += engine.now - t0
        committed = stored.latest_committed(WAVES_APP)
        out.op(committed == wave,
               f"{label}: wave {wave} committed v{committed}")

    # Crash rank 0's host, then read its image back from a survivor: the
    # store-dependent leg of a restart.
    victim = sf.books[WAVES_APP][0][0]
    restarts_before = sf.any_daemon().registry.get(WAVES_APP).restarts
    t_crash = engine.now
    sf.cluster.crash_node(victim)
    reader = next(n for n in sf.cluster.nodes.values()
                  if n.node_id != victim and n.is_up)

    def restore_read():
        record = yield from stored.read(reader, WAVES_APP, 0, committed)
        return record

    t0 = engine.now
    with probe.span(f"read/{label}", "store"):
        proc = engine.process(restore_read(), name="bench-restore-read")
        engine.run(until=proc)
    read_sim = engine.now - t0
    out.op(proc.value.version == committed and proc.value.rank == 0,
           f"{label}: restore read returned v{proc.value.version}, "
           f"committed v{committed}")

    restarted = False
    with probe.span(f"restart/{label}", "daemon"):
        while engine.now < t_crash + 120.0 and not restarted:
            engine.run(until=engine.now + 0.25)
            record = sf.any_daemon().registry.get(WAVES_APP)
            restarted = (record.restarts > restarts_before
                         and len(record.done_ranks) < record.nprocs)
    out.op(restarted, f"{label}: no restart within 120 sim-s of the crash")
    probe.absorb(sf)

    out.sim["sim_makespan_s"] += engine.now
    out.sim["sim_ckpt_wave_s"] += wave_sim / waves
    out.sim["sim_restore_read_s"] += read_sim
    out.sim["ckpt_bytes_written"] += engine.metrics.value(
        "ckpt.store.bytes_written")


def run_waves(seed: int, smoke: bool, probe: Probe) -> Outcome:
    out = Outcome(sim={"sim_makespan_s": 0.0, "sim_ckpt_wave_s": 0.0,
                       "sim_restore_read_s": 0.0, "ckpt_bytes_written": 0})
    for label, level, store in STORE_BUILDS:
        _waves_build(seed, smoke, label, level, store, probe, out)
    return out


# ---------------------------------------------------------------------------
# fleet_traffic32
# ---------------------------------------------------------------------------

def _traffic_shape(smoke: bool):
    """(nodes, jobs)"""
    return (8, 20) if smoke else (32, 200)


def _traffic_spec(seed: int, smoke: bool) -> ClusterSpec:
    return ClusterSpec(nodes=_traffic_shape(smoke)[0], seed=seed,
                       gcs_config=quiet_gcs(2.0))


def run_traffic(seed: int, smoke: bool, probe: Probe) -> Outcome:
    out = Outcome()
    nodes, jobs = _traffic_shape(smoke)
    with probe.span("build", "cluster"):
        sf = StarfishCluster.build(spec=_traffic_spec(seed, smoke))
    with probe.span("traffic", "fleet"):
        controller = FleetController(sf, auto_drain=False)
        # Open loop in simulated time: 10 arrivals per simulated second
        # whatever the cluster does, so the generator is never late.
        gen = TrafficGenerator(controller, jobs=jobs, rate=10.0,
                               nprocs=(1, 4), seed=seed)
        gen.drain(timeout=600.0)
        controller.close()
    probe.absorb(sf)
    for job in gen.submitted:
        out.op(job.state == JobState.DONE,
               f"job {job.job_id} ended {job.state} ({job.reason})")
    violations = FleetOracle().check(controller.scheduler)
    out.op(len(gen.submitted) == jobs and not violations,
           f"{len(gen.submitted)}/{jobs} submitted; oracle: {violations}")
    admitted = [j for j in gen.submitted if j.admitted_at is not None]
    out.sim = {
        "sim_makespan_s": sf.engine.now,
        "sim_admit_latency_s": (sum(j.admitted_at - j.submit_time
                                    for j in admitted)
                                / max(1, len(admitted))),
    }
    return out


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    first_spec: Callable[[int, bool], ClusterSpec]
    run: Callable[[int, bool, Probe], Outcome]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("p2p_pingpong",
             "Pure send/receive fast path on a near-empty event list: a "
             "per-message gain must show here, an event-list or heartbeat "
             "gain must not.",
             _pingpong_spec, run_pingpong),
    Workload("scale_jacobi256",
             "256 ranks of halo exchange and collectives over a deep event "
             "list with n^2 group traffic: where per-event cost decays "
             "with cluster size (legacy jacobi/256/dense, 20 iterations).",
             _jacobi_spec, run_jacobi),
    Workload("recovery_modes",
             "The paper's core path, detection to view change to "
             "restart/replay/promote, under five recovery protocols, each "
             "failure-free and with one host crash.",
             _recovery_spec, run_recovery),
    Workload("ckpt_waves",
             "Only workload where hetero+ckpt+store carry a real share of "
             "host time: 2 MB/rank write waves and a restore read on all "
             "three store backends.",
             _waves_spec, run_waves),
    Workload("fleet_traffic32",
             "Control-path churn: 200 short jobs through the fleet "
             "scheduler, spawn/exit and lightweight groups, almost no MPI "
             "(legacy traffic/32/jobs200 row).",
             _traffic_spec, run_traffic),
)}
