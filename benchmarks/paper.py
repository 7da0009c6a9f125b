"""The paper's evaluation, executable: one table, one row per experiment.

``EXPERIMENTS`` maps each DESIGN.md §5 id to an :class:`Experiment`: a
``run`` that builds the full Starfish stack (daemons, group communication,
lightweight groups, C/R protocols, MPI, VNI, disk and network models) and
returns rows of *simulated* numbers, the column headings with a formatter
each, and a ``check`` that asserts the paper's anchors and shapes on those
rows.  Every experiment runs at the paper's own size.  The output is
deterministic except for the telemetry ablation's host CPU-seconds cells.

    PYTHONPATH=src python benchmarks/paper.py             # every experiment
    PYTHONPATH=src python benchmarks/paper.py FIG3 TAB2   # some of them

prints one markdown table per experiment and exits non-zero when a check
fails.  ``tests/test_paper.py`` runs every row in tier-1, and EXPERIMENTS.md
quotes the tables.
"""

from __future__ import annotations

import gc
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.apps import ComputeSleep, Jacobi1D, MonteCarloPi, PingPong
from repro.calibration import (BIP_BANDWIDTH, BIP_LAYERS, BLOCKING_RECV_SYSCALL,
                               DATA_HEADER, HETERO_CONVERT_BANDWIDTH, KB, MB,
                               NATIVE_DISK_BANDWIDTH, NATIVE_EMPTY_IMAGE,
                               RTT_1BYTE_BIP, RTT_1BYTE_TCP, TCP_BANDWIDTH,
                               TCP_LAYERS, US, VM_EMPTY_IMAGE, VM_PAYLOAD_FACTOR,
                               native_checkpoint_time)
from repro.ckpt import VmCheckpointer
from repro.ckpt.protocols import PROTOCOLS
from repro.cluster import TABLE2_MACHINES, Cluster, ClusterSpec
from repro.core import (AppSpec, CheckpointConfig, FaultPolicy, StarfishCluster,
                        StarfishProgram)
from repro.faults import CampaignRunner
from repro.fleet import FleetController, FleetOracle, JobState
from repro.gcs import GcsConfig, GroupMember
from repro.hetero import portable_nbytes
from repro.lwg import LwgManager
from repro.mpi import Communicator, MpiEndpoint


@dataclass(frozen=True)
class Experiment:
    """One row of the table: ``run()`` returns the rows of simulated
    numbers, ``check(rows)`` raises ``AssertionError`` where the paper's
    claim does not hold on them."""

    title: str
    #: ``(heading, format spec or formatter)`` per column; a ``None`` cell
    #: prints ``-``.
    columns: tuple
    run: Callable[[], list]
    check: Callable[[list], None]

    def render(self, exp_id: str, rows: list) -> str:
        lines = [f"## `{exp_id}` — {self.title}", "",
                 "| " + " | ".join(h for h, _f in self.columns) + " |",
                 "|" + "---|" * len(self.columns)]
        for row in rows:
            cells = ("-" if v is None else fmt(v) if callable(fmt) else format(v, fmt)
                     for v, (_h, fmt) in zip(row, self.columns))
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"


def scaled(unit: float, spec: str) -> Callable:
    """Formatter: the value in ``unit``s, formatted with ``spec``."""
    return lambda v: format(v / unit, spec)


def close(value: float, expected: float, rel: float) -> bool:
    """``value`` is within ``rel`` of ``expected``, relative to ``expected``."""
    return abs(value - expected) <= rel * abs(expected)


# --- shared workload pieces ------------------------------------------------

def quiet_gcs(heartbeat: float = 0.5) -> GcsConfig:
    """GCS timing for long runs (less failure-detector traffic)."""
    return GcsConfig(heartbeat_period=heartbeat,
                     suspect_timeout=8 * heartbeat,
                     announce_period=16 * heartbeat)


def fit_line(xs: Sequence[float], ys: Sequence[float]):
    """Least-squares fit ``y = a*x + b``; returns (a, b, R^2)."""
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    a = sxy / sxx if sxx else 0.0
    b = my - a * mx
    ss_res = sum((y - (a * x + b)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    return a, b, 1.0 - (ss_res / ss_tot if ss_tot else 0.0)


def start_checkpointed_app(sf: StarfishCluster, *, nprocs: int,
                           state_bytes: int, protocol: str,
                           level: str) -> str:
    """Submit an endless ComputeSleep app and run until it is stepping."""
    handle = sf.submit(AppSpec(
        program=ComputeSleep, nprocs=nprocs,
        params={"steps": 10**9, "step_time": 0.005,
                "state_bytes": state_bytes},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol=protocol, level=level)))
    sf.engine.run(until=sf.engine.now + 1.0)
    return handle.app_id


def checkpoint_once(sf: StarfishCluster, app_id: str) -> float:
    """One checkpoint of a running app, request to commit, in sim-s."""
    handles = [(rank, h) for d in sf.live_daemons()
               for (aid, rank), h in d.handles.items()
               if aid == app_id and h.protocol is not None]
    assert handles, f"no checkpointing process for {app_id}"
    t0 = sf.engine.now
    _rank, lowest = min(handles, key=lambda rh: rh[0])
    sf.engine.run(until=lowest.protocol.request_checkpoint())
    return sf.engine.now - t0


def checkpoint_wave(nodes: int, state_bytes: int, level: str):
    """(duration, rank 0's image bytes) of one stop-and-sync wave."""
    sf = StarfishCluster.build(nodes=nodes, gcs_config=quiet_gcs())
    app_id = start_checkpointed_app(sf, nprocs=nodes, state_bytes=state_bytes,
                                    protocol="stop-and-sync", level=level)
    duration = checkpoint_once(sf, app_id)
    nbytes = sf.store.peek(app_id, 0, sf.store.latest_committed(app_id)).nbytes
    # The cluster holds its ranks' states and images (up to 4 x 135 MB):
    # free it before the next wave builds another.
    del sf
    gc.collect()
    return duration, nbytes


def pingpong(sizes: list, reps: int, **spec) -> dict:
    """Rank 0's {size: round-trip seconds} of one PingPong run."""
    sf = StarfishCluster.build(nodes=2, gcs_config=quiet_gcs())
    return sf.run(AppSpec(program=PingPong, nprocs=2,
                          params={"sizes": sizes, "reps": reps}, **spec),
                  timeout=4000)[0]


def await_restart(sf: StarfishCluster, app_id: str, restarts_before: int,
                  t_crash: float):
    """Crash to restarted world, in sim-s (None: not within 120 s)."""
    while sf.engine.now < t_crash + 120.0:
        sf.engine.run(until=sf.engine.now + 0.25)
        rec = sf.any_daemon().registry.get(app_id)
        if rec.restarts > restarts_before and len(rec.done_ranks) < rec.nprocs:
            return sf.engine.now - t_crash
    return None


# --- FIG3: native checkpoint time vs data size ----------------------------

FIG3_FILES = [632 * KB, 4 * MB, 16 * MB, 48 * MB, 96 * MB, 135 * MB]
FIG3_PAPER = {1: 0.104061, 2: 0.131898, 4: 0.149219}


def run_fig3():
    rows = []
    for nodes, paper in FIG3_PAPER.items():
        for file_size in FIG3_FILES:
            state = int(max(0, file_size - NATIVE_EMPTY_IMAGE) * VM_PAYLOAD_FACTOR)
            duration, nbytes = checkpoint_wave(nodes, state, "native")
            model = native_checkpoint_time(nbytes - NATIVE_EMPTY_IMAGE, nodes)
            anchor = paper if file_size == FIG3_FILES[0] else None
            rows.append((nodes, nbytes, duration, model,
                         100 * (duration - model) / model, anchor,
                         None if anchor is None
                         else 100 * (duration - anchor) / anchor))
    return rows


def check_fig3(rows):
    series = {n: [(nbytes, t) for node, nbytes, t, *_ in rows if node == n]
              for n in FIG3_PAPER}
    for nodes, _nbytes, measured, _m, _d, paper, _dp in rows:
        if paper is not None:   # protocol rounds add a little over the model
            assert close(measured, paper, 0.12), nodes
    for nodes, points in series.items():
        slope, _b, r2 = fit_line(*zip(*points))
        assert r2 > 0.999, f"not linear for {nodes} nodes (R2={r2})"
        assert slope > 0
    assert 5 < series[4][-1][1] < 60        # "on the order of seconds"
    for one, two, four in zip(*series.values()):   # more nodes => slower
        assert one[1] < two[1] < four[1]


# --- FIG4: VM-level checkpoint time vs data size --------------------------

FIG4_PAYLOADS = [0, 4 * MB, 16 * MB, 48 * MB, 96 * MB]
FIG4_PAPER = {1: 0.0077, 2: 0.0205, 4: 0.052}


def run_fig4():
    rows = []
    for nodes, paper in FIG4_PAPER.items():
        for payload in FIG4_PAYLOADS:
            duration, nbytes = checkpoint_wave(nodes, payload, "vm")
            anchor = paper if payload == 0 else None
            rows.append((nodes, payload, nbytes, duration, anchor,
                         None if anchor is None
                         else 100 * (duration - anchor) / anchor))
    return rows


def check_fig4(rows):
    for nodes, payload, nbytes, measured, paper, _dp in rows:
        if paper is not None:   # protocol rounds are visible at 7.7 ms
            assert close(measured, paper, 0.35), nodes
        if (nodes, payload) == (1, 0):       # the VM image is NOT saved
            assert close(nbytes, VM_EMPTY_IMAGE, 0.02)
        if (nodes, payload) == (2, 48 * MB):  # > 3x faster than native
            assert measured < native_checkpoint_time(48 * MB, 2) / 3
    for n in FIG4_PAPER:
        slope, _b, r2 = fit_line(*zip(*((nbytes, t) for node, _p, nbytes, t, *_
                                        in rows if node == n)))
        assert r2 > 0.999 and slope > 0
    # 96 MB portable vs 135 MB native for the same application.
    assert 0.65 < VM_PAYLOAD_FACTOR < 0.75


# --- FIG5: round-trip delay vs message size -------------------------------

FIG5_SIZES = [1, 64, 256, 1024, 4096, 16384, 65536, 262144]


def run_fig5():
    rtt = {t: pingpong(FIG5_SIZES, 100, transport=t)
           for t in ("bip-myrinet", "tcp-ethernet")}
    return [(s, rtt["bip-myrinet"][s], rtt["tcp-ethernet"][s])
            for s in FIG5_SIZES]


def check_fig5(rows):
    _s, bip1, tcp1 = rows[0]
    assert close(bip1, RTT_1BYTE_BIP, 0.01)
    assert close(tcp1, RTT_1BYTE_TCP, 0.01)
    sizes = [r[0] for r in rows]
    for col, bw in ((1, BIP_BANDWIDTH), (2, TCP_BANDWIDTH)):
        slope, _b, r2 = fit_line(sizes, [r[col] for r in rows])
        assert r2 > 0.9999 and close(slope, 2.0 / bw, 0.01), bw
    assert all(bip < tcp for _s, bip, tcp in rows)   # BIP wins every size
    ratio_small, ratio_big = tcp1 / bip1, rows[-1][2] / rows[-1][1]
    assert close(ratio_small, 552 / 86, 0.05)
    assert 1.0 < ratio_big < ratio_small


# --- FIG6: time a message spends in the software layers -------------------

FIG6_SIZES = [1, 1024, 65536, 1048576]
FIG6_TRANSPORTS = (("bip-myrinet", BIP_BANDWIDTH, BIP_LAYERS),
                   ("tcp-ethernet", TCP_BANDWIDTH, TCP_LAYERS))


def one_way(transport: str, size: int) -> float:
    """One MPI message's latency between two bare endpoints."""
    cluster = Cluster.build(nodes=2)
    book = {}
    comms = [Communicator(MpiEndpoint(cluster.engine, cluster.node(f"n{r}"),
                                      app_id="fig6", world_rank=r,
                                      addressbook=book, transport=transport),
                          "world:fig6:v0", (0, 1))
             for r in range(2)]
    out = {}

    def sender():
        yield from comms[0].send(b"", dest=1, tag=0, size=size)

    def receiver():
        t0 = cluster.engine.now
        yield from comms[1].recv(source=0, tag=0)
        out["t"] = cluster.engine.now - t0

    cluster.engine.process(sender())
    cluster.engine.run(cluster.engine.process(receiver()))
    return out["t"]


def run_fig6():
    rows = []
    for transport, bw, layers in FIG6_TRANSPORTS:
        for size in FIG6_SIZES:
            t = one_way(transport, size)
            rows.append((transport, size, t, t - (size + DATA_HEADER) / bw,
                         layers.one_way_fixed))
    return rows


def check_fig6(rows):
    # Software overhead (latency minus byte time) is the layer sum at
    # every size: messages are never copied.
    for transport, *_ in FIG6_TRANSPORTS:
        mine = [(o, layer_sum) for t, _b, _l, o, layer_sum in rows if t == transport]
        overheads = [o for o, _s in mine]
        assert max(overheads) - min(overheads) < 1e-9, \
            f"layer overheads vary with size ({transport})"
        assert close(*mine[0], 1e-6), transport
    # The driver layer is where TCP loses: kernel entry dwarfs the rest.
    assert TCP_LAYERS.driver_send + TCP_LAYERS.driver_recv > \
        10 * (BIP_LAYERS.driver_send + BIP_LAYERS.driver_recv)


# --- TAB1: the six message types and who exchanges them -------------------

#: (type, sent between, kind tag, the channel it must be seen on).
TAB1_TYPES = (
    ("Control", "Starfish daemons (Ensemble, Ethernet)", "control", 0),
    ("Coordination", "app processes through daemons", "coordination", 0),
    ("Data", "app processes via MPI+VNI fast path (Myrinet)", "data", 1),
    ("Lightweight membership", "lightweight endpoint <-> app process",
     "lightweight membership", 2),
    ("Configuration", "local daemon <-> app process", "configuration", 2),
    ("Checkpoint/restart", "C/R modules through daemons",
     "checkpoint/restart", 0),
)


class ChattyPi(MonteCarloPi):
    """Monte-Carlo that announces its progress through the daemons (a
    "general coordination task", paper §2.2)."""

    def step(self, ctx):
        if self.state["done"] and self.state["done"] % 20_000 == 0:
            ctx.coordinate(("progress", ctx.rank, self.state["done"]))
        yield from MonteCarloPi.step(self, ctx)

    def on_coordination(self, ctx, source, payload):
        self.state["heard"] = self.state.get("heard", 0) + 1


def run_tab1():
    """A lifecycle exercising every type: submission, MPI traffic,
    coordination, Chandy-Lamport checkpoints, a crash with restart."""
    sf = StarfishCluster.build(nodes=4, gcs_config=quiet_gcs(0.2))
    jacobi = sf.submit(AppSpec(
        program=Jacobi1D, nprocs=4,
        params={"n": 256, "iterations": 200, "iters_per_step": 10,
                "compute_ns_per_cell": 200_000},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="chandy-lamport", level="vm",
                                    interval=1.0)))
    pi = sf.submit(AppSpec(
        program=ChattyPi, nprocs=3,
        params={"shots": 150_000, "chunk": 1000,
                "compute_ns_per_shot": 120_000},
        ft_policy=FaultPolicy.VIEW_NOTIFY))
    sf.engine.run(until=sf.engine.now + 2.5)
    sf.crash_node(jacobi._record().placement[2])
    sf.run_to_completion(jacobi, timeout=600)
    sf.run_to_completion(pi, timeout=600)
    reg = sf.engine.metrics
    channels = [reg.group_by("net.frames_sent", "kind", fabric="tcp-ethernet"),
                reg.group_by("net.frames_sent", "kind", fabric="bip-myrinet"),
                {}]
    for daemon in sf.live_daemons():
        for kind, n in reg.group_by("daemon.local_msgs", "kind",
                                    node=daemon.node.node_id).items():
            channels[2][kind] = channels[2].get(kind, 0) + n
    named = {kind for *_l, kind, _c in TAB1_TYPES}
    return [(label, between, *(c.get(kind, 0) for c in channels))
            for label, between, kind, _c in TAB1_TYPES] + [
        ("(any other kind)", None,
         *(sum(n for k, n in c.items() if k not in named) for c in channels))]


def check_tab1(rows):
    for (label, *_w, channel), (*_l, eth, myr, local) in zip(TAB1_TYPES, rows):
        assert (eth, myr, local)[channel] > 0, f"no {label!r} messages observed"
        # The fast path carries only data (C/R markers are in-band); no
        # application data rides the daemons' Ethernet path.
        assert myr == 0 or label == "Data", label
        assert eth == 0 or label != "Data"
    _other, _between, _eth, other_on_myrinet, _local = rows[-1]
    assert other_on_myrinet == 0


# --- TAB2: heterogeneous C/R across the six machine types ------------------

TAB2_STATE = {
    "iteration": 912,
    "residual": 3.0517578125e-05,
    "grid": np.arange(4096, dtype=np.float64),
    "flags": [True, False, None],
    "tag": "jacobi-block-7",
    "wide_counter": (1 << 40),      # unboxed on 64-bit, boxed on 32-bit
}
TAB2_SHORT = [f"{m.endianness[0].upper()}E/{m.word_bits}" for m in TABLE2_MACHINES]


def same_state(a, b) -> bool:
    return all(np.array_equal(a[k], b[k]) if k == "grid" else a[k] == b[k]
               for k in TAB2_STATE)


def run_tab2():
    """Checkpoint on each machine, restart on every machine: per pair the
    conversion cost in seconds (0 = none), or None if the state differs."""
    ck = VmCheckpointer()
    rows = []
    for src, short in zip(TABLE2_MACHINES, TAB2_SHORT):
        image, nbytes = ck.capture(TAB2_STATE, src)
        cells = []
        for dst in TABLE2_MACHINES:
            restored, extra = ck.restore(image, nbytes, dst)
            cells.append(extra if same_state(TAB2_STATE, restored) else None)
        rows.append((f"{src.name[:28]} ({short})", nbytes, *cells))
    return rows


def check_tab2(rows):
    cells = [(nbytes, extra) for _m, nbytes, *extras in rows for extra in extras]
    assert len(cells) == 36 and None not in (e for _n, e in cells)
    # Exactly the pairs of different representation classes convert ...
    assert sum(1 for _n, e in cells if e == 0) == sum(
        1 for a in TABLE2_MACHINES for b in TABLE2_MACHINES
        if a.same_representation(b))
    # ... at the blob size over the conversion bandwidth.
    nbytes, extra = next(c for c in cells if c[1] > 0)
    assert close(extra, (nbytes - VM_EMPTY_IMAGE) / HETERO_CONVERT_BANDWIDTH, 0.01)


# --- CLAIM-1h: hourly checkpoints cost < 1 % --------------------------------

#: Payload whose native dump is the paper's largest file (135 MB).
CLAIM_STATE = int((135 * 1e6 - NATIVE_EMPTY_IMAGE) * VM_PAYLOAD_FACTOR)


def claim_run(ckpt: bool):
    """(completion sim-s, checkpoints) of one simulated hour of work
    (360 steps x 10 s) on 4 nodes, with or without hourly checkpoints."""
    # Slow heartbeats: an hour of failure detection is not the subject.
    sf = StarfishCluster.build(nodes=4, gcs_config=GcsConfig(
        heartbeat_period=30.0, suspect_timeout=240.0, announce_period=600.0,
        gossip=False))
    t0 = sf.engine.now
    handle = sf.submit(AppSpec(
        program=ComputeSleep, nprocs=4,
        params={"steps": 360, "step_time": 10.0, "state_bytes": CLAIM_STATE},
        ft_policy=FaultPolicy.RESTART if ckpt else FaultPolicy.KILL,
        checkpoint=CheckpointConfig(protocol="stop-and-sync", level="native",
                                    interval=3600.0)
        if ckpt else CheckpointConfig()))
    sf.run_to_completion(handle, timeout=3 * 3600.0)
    return (sf.engine.now - t0,
            len(sf.store.versions_of(handle.app_id, 0)) if ckpt else 0)


def run_claim():
    base, _ = claim_run(False)
    with_ckpt, n = claim_run(True)
    return [("no checkpointing", base, 0, None),
            ("checkpoint every hour", with_ckpt, n, (with_ckpt - base) / base)]


def check_claim(rows):
    _c, _t, n_ckpts, overhead = rows[1]
    assert n_ckpts >= 1
    assert 0 < overhead < 0.01      # the paper's claim; not free either


# --- ABL-POLLING: the polling thread (§2.2.1) ------------------------------

def run_polling():
    sizes = [1, 1024, 16384]
    rows = []
    for transport in ("bip-myrinet", "tcp-ethernet"):
        rtt = {p: pingpong(sizes, 50, transport=transport, polling=p)
               for p in (True, False)}
        rows += [(transport, s, rtt[True][s], rtt[False][s],
                  rtt[False][s] - rtt[True][s]) for s in sizes]
    return rows


def check_polling(rows):
    # Two receives per round trip, each now entering the kernel itself.
    for transport, size, _with, _without, delta in rows:
        assert close(delta, 2 * BLOCKING_RECV_SYSCALL, 0.01), (transport, size)
    _t, _s, with_poll, without, _d = rows[0]
    assert without / with_poll > 3.0   # dramatic on the fast network


# --- ABL-FASTPATH: the fast data path vs the daemon relay (§2.2) -----------

class PathRacer(StarfishProgram):
    """Rank 0 sends one message each way; rank 1 times the delivery."""

    def setup(self, ctx):
        self.state.update(phase=0, fast_t=None, coord_t=None)

    def step(self, ctx):
        mpi = ctx.mpi
        if self.state["phase"] == 0:        # the fast path
            if ctx.rank == 0:
                yield from mpi.send(ctx.now, dest=1, tag=1, size=64)
            elif ctx.rank == 1:
                sent = yield from mpi.recv(source=0, tag=1)
                self.state["fast_t"] = ctx.now - sent
            yield from mpi.barrier()
            self.state["phase"] = 1
        elif self.state["phase"] == 1:      # the daemon relay
            if ctx.rank == 0:
                ctx.coordinate(("stamp", ctx.now))
            while self.state["coord_t"] is None:
                yield from ctx.sleep(0.0001)
            yield from mpi.barrier()
            self.state["phase"] = 2

    def on_coordination(self, ctx, source, payload):
        if payload[0] == "stamp" and ctx.rank == 1:
            self.state["coord_t"] = ctx.now - payload[1]
        elif ctx.rank != 1:
            self.state["coord_t"] = 0.0

    def is_done(self, ctx):
        return self.state["phase"] >= 2

    def finalize(self, ctx):
        return (self.state["fast_t"], self.state["coord_t"])


def run_fastpath():
    sf = StarfishCluster.build(nodes=2, gcs_config=quiet_gcs())
    fast_t, coord_t = sf.run(AppSpec(program=PathRacer, nprocs=2,
                                     ft_policy=FaultPolicy.KILL), timeout=200)[1]
    return [("fast path (MPI/VNI over BIP-Myrinet)", fast_t),
            ("through daemons (group handler + lwg over Ethernet)", coord_t)]


def check_fastpath(rows):
    (_f, fast_t), (_c, coord_t) = rows
    assert coord_t > 6 * fast_t     # fine for control, disastrous for data
    assert fast_t < 100 * US


# --- ABL-LWG: lightweight groups vs a full group per app (§2.1) ------------

LWG_NODES, LWG_CASTS, LWG_WINDOW = 8, 50, 10.0


def lwg_cluster():
    """An 8-node cluster whose main group has settled."""
    cfg = GcsConfig(heartbeat_period=0.25, suspect_timeout=2.0)
    cluster = Cluster.build(nodes=LWG_NODES)
    members = [GroupMember(cluster.engine, cluster.node(f"n{i}"), config=cfg)
               for i in range(LWG_NODES)]
    members[0].start()
    for gm in members[1:]:
        gm.start(contact=members[0].endpoint)
    cluster.engine.run(until=cluster.engine.now + 3.0)
    return cluster, members, cfg


def lwg_frames(cluster, cast):
    """(frames over the casts, heartbeats among them, idle frames over the
    window) on the Ethernet."""
    metrics = cluster.engine.metrics
    frames = lambda: metrics.sum("net.frames_sent", fabric="tcp-ethernet")
    base, hb = frames(), metrics.sum("gcs.heartbeats")
    for k in range(LWG_CASTS):
        cast(("payload", k))
    cluster.engine.run(until=cluster.engine.now + 2.0)
    cast_frames, hb = frames() - base, metrics.sum("gcs.heartbeats") - hb
    base = frames()
    cluster.engine.run(until=cluster.engine.now + LWG_WINDOW)
    return cast_frames, hb, frames() - base


def run_lwg():
    cluster, members, _cfg = lwg_cluster()
    lwgs = [LwgManager(cluster.engine, gm) for gm in members]
    for i, gm in enumerate(members):
        def pump(gm=gm, mgr=lwgs[i]):
            while True:
                mgr.on_main_event((yield gm.events.get()))
        cluster.node(f"n{i}").spawn(pump())
    lwgs[0].create("app", [members[0].endpoint, members[1].endpoint])
    cluster.engine.run(until=cluster.engine.now + 1.0)
    lw_cast, lw_hb, lw_idle = lwg_frames(cluster,
                                         lambda p: lwgs[0].cast("app", p))
    # A dedicated full process group for the 2-node application.
    cluster, _members, cfg = lwg_cluster()
    app = [GroupMember(cluster.engine, cluster.node(f"n{i}"), name="appgrp",
                       group="app", config=cfg) for i in range(2)]
    app[0].start()
    app[1].start(contact=app[0].endpoint)
    cluster.engine.run(until=cluster.engine.now + 2.0)
    fg_cast, _hb, fg_idle = lwg_frames(cluster, app[0].cast)
    return [("lightweight group (Starfish)", lw_cast, lw_cast - lw_hb,
             lw_idle, 0),
            ("full process group per app", fg_cast, None, fg_idle,
             fg_idle - lw_idle)]


def check_lwg(rows):
    (_l, lw_cast, lw_relay, _i, _x), (_f, fg_cast, _r, _fi, extra) = rows
    # A full group per app pays a second failure-detection layer (at least
    # its own heartbeats) for EVERY application; lightweight groups none.
    assert extra >= LWG_WINDOW / 0.25
    # Per cast both designs relay one bare copy to the other member (DESIGN
    # §23, §27).  Besides the main group's heartbeats the lightweight group
    # adds one position report at the member's next tick and at most one
    # re-post of the newest copy with the report that answers it.
    assert LWG_CASTS + 1 <= lw_relay <= LWG_CASTS + 3
    assert lw_cast <= fg_cast


# --- LWG-LIFECYCLE: an application's frames from submit to DONE (§21) ------

def run_lifecycle():
    """(span, main-group casts, control frames, data frames) of one
    ComputeSleep job per span, one rank per node, on 8 nodes."""
    rows = []
    for span in (2, LWG_NODES):
        # No heartbeat falls inside the job: every frame counted is lifecycle.
        sf = StarfishCluster.build(nodes=LWG_NODES, gcs_config=quiet_gcs(1000.0))
        reg = sf.engine.metrics
        frames = lambda: reg.sum("net.frames_sent", fabric="tcp-ethernet",
                                 kind="control")
        casts, base = reg.sum("gcs.casts"), frames()
        sf.run_to_completion(sf.submit(AppSpec(
            program=ComputeSleep, nprocs=span,
            params={"steps": 3, "step_time": 0.05},
            placement={r: f"n{r}" for r in range(span)})))
        rows.append((span, int(reg.sum("gcs.casts") - casts),
                     int(frames() - base),
                     int(reg.sum("net.frames_sent", kind="data"))))
    return rows


def check_lifecycle(rows):
    for span, casts, frames, data in rows:
        # Two casts whatever the span, each copied to the seven other
        # daemons, plus span - 1 reports to the app authority, each with
        # one RelAck (a cast copy is repaired by sequence number instead).
        assert casts == 2 and data == 0
        assert frames == 2 * (LWG_NODES - 1) + 2 * (span - 1)    # 16 and 28


# --- ABL-PROTOCOLS: C/R protocols side by side (§3.2.2) --------------------

def protocol_run(protocol):
    """Jacobi on 4 nodes, checkpointing every second under ``protocol``."""
    sf = StarfishCluster.build(nodes=4, gcs_config=quiet_gcs())
    t0 = sf.engine.now
    handle = sf.submit(AppSpec(
        program=Jacobi1D, nprocs=4,
        params={"n": 512, "iterations": 300, "iters_per_step": 10,
                "compute_ns_per_cell": 200_000},
        ft_policy=FaultPolicy.RESTART if protocol else FaultPolicy.KILL,
        checkpoint=CheckpointConfig(protocol=protocol, level="vm", interval=1.0)
        if protocol else CheckpointConfig()))
    # Rank 0's process survives the whole run: read its frozen time at the end.
    sf.engine.run(until=sf.engine.now + 0.5)
    rank0 = None
    for daemon in sf.live_daemons():
        rank0 = daemon.handles.get((handle.app_id, 0)) or rank0
    sf.run_to_completion(handle, timeout=3000)
    return (sf.engine.now - t0, len(sf.store.versions_of(handle.app_id, 0)),
            int(sf.engine.metrics.value("ckpt.store.bytes_written")),
            rank0.paused_accum if rank0 is not None else 0.0)


def run_protocols():
    out = {p: protocol_run(p) for p in (None, "stop-and-sync", "chandy-lamport",
                                        "uncoordinated", "diskless")}
    base = out[None][0]
    return [(p or "(no C/R baseline)", *r, 100 * (r[0] - base) / base)
            for p, r in out.items()]


def check_protocols(rows):
    _base, ss, cl, uc, _diskless = rows
    for _p, _t, ckpts, _bytes, _blocked, overhead_pct in (ss, cl, uc):
        assert ckpts >= 2
        assert overhead_pct < 15    # VM-level files are tiny here
    blocked = {p: b for p, _t, _c, _bytes, b, _o in rows}
    # Chandy-Lamport blocks far less than stop-and-sync; uncoordinated has
    # no global synchronization at all.
    assert blocked["chandy-lamport"] < blocked["stop-and-sync"]
    assert blocked["uncoordinated"] <= blocked["stop-and-sync"]


# --- ABL-STATE-SPLIT: the daemon / application-process split (§5) ---------

#: Modelled daemon code + Ensemble + management image: the "most of the
#: code" that Starfish keeps out of application processes.
DAEMON_IMAGE = 4 * MB


def run_split():
    sf = StarfishCluster.build(nodes=2, gcs_config=quiet_gcs())
    app_id = start_checkpointed_app(sf, nprocs=2, state_bytes=0,
                                    protocol="stop-and-sync", level="native")
    duration = checkpoint_once(sf, app_id)
    nbytes = sf.store.peek(app_id, 0, sf.store.latest_committed(app_id)).nbytes
    # What a monolithic runtime would also dump with every process.
    daemon = sf.any_daemon()
    live_state = {
        "registry": [{**daemon._record_blob(r),
                      "program": r.program.__name__}
                     for r in daemon.registry.all()],
        "config": dict(daemon.config),
        "members": [str(m) for m in daemon.gm.view.members],
        "delivered": int(sf.engine.metrics.value("gcs.delivered",
                                                 node=daemon.node.node_id)),
    }
    extra = DAEMON_IMAGE + portable_nbytes(live_state, daemon.node.arch)
    return [("Starfish (daemon state never saved)", nbytes, duration),
            ("monolithic (daemon image + live state in every checkpoint)",
             nbytes + extra, duration + extra / NATIVE_DISK_BANDWIDTH)]


def check_split(rows):
    (_s, split_bytes, split_t), (_m, mono_bytes, mono_t) = rows
    assert close(split_bytes, NATIVE_EMPTY_IMAGE, 0.01)   # the paper's 632 KB
    assert mono_bytes > 5 * split_bytes
    assert mono_t > 1.5 * split_t


# --- ABL-DISKLESS: checkpoints over the fast network (§7) -----------------

def diskless_wave(protocol, payload):
    sf = StarfishCluster.build(nodes=4, gcs_config=quiet_gcs())
    app_id = start_checkpointed_app(sf, nprocs=4, state_bytes=payload,
                                    protocol=protocol, level="native")
    return (checkpoint_once(sf, app_id),
            sum(n.disk.bytes_written for n in sf.cluster.nodes.values()),
            sf.engine.metrics.sum("net.bytes_sent", fabric="bip-myrinet"))


def run_diskless():
    rows = []
    for payload in (0, 2 * MB, 8 * MB, 24 * MB):
        disk_t = diskless_wave("stop-and-sync", payload)[0]
        dl_t, dl_disk, dl_net = diskless_wave("diskless", payload)
        rows.append((payload, disk_t, dl_t, disk_t / dl_t, dl_disk, dl_net))
    return rows


def check_diskless(rows):
    for payload, disk_t, dl_t, _x, dl_disk, dl_net in rows:
        assert dl_disk == 0 and dl_t < disk_t / 2, payload
        if payload:     # the images crossed the network, two mirrors each
            assert dl_net > 2 * 4 * payload


# --- ABL-TELEMETRY: the telemetry substrate on the hottest path -----------
#
# The Figure 5 workload with telemetry on and off, held to an absolute
# budget of interpreter opcodes of telemetry per round trip, counted with
# ``sys.settrace``: a deterministic run executes the same opcodes on any
# host.  Host CPU time (GC off, interleaved pairs, median ratio) only
# guards against gross regressions.

TELEMETRY_SIZES = [1, 64, 1024, 16384, 65536]
#: Telemetry opcodes (on minus off) per round trip over 5 sizes x 100 reps
#: when the gate was re-based.
MAX_OPS_PER_ROUND_TRIP = 108_629 / 500
MAX_WALL_OVERHEAD = 0.25


def telemetry_spec(reps: int) -> AppSpec:
    return AppSpec(program=PingPong, nprocs=2,
                   params={"sizes": TELEMETRY_SIZES, "reps": reps},
                   transport="bip-myrinet")


def telemetry_run(telemetry: bool, reps: int, trace=None) -> float:
    """Host CPU seconds of one PingPong run (``trace`` installed while it
    runs, if given)."""
    sf = StarfishCluster.build(nodes=2, gcs_config=quiet_gcs(),
                               telemetry=telemetry)
    gc.collect()
    gc.disable()         # GC pauses dominate sub-second timings
    sys.settrace(trace)
    try:
        t0 = time.process_time()
        sf.run(telemetry_spec(reps), timeout=4000)
        return time.process_time() - t0
    finally:
        sys.settrace(None)
        gc.enable()


def count_opcodes(telemetry: bool) -> int:
    n = 0

    def trace(frame, event, arg):
        nonlocal n
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            n += 1
        return trace

    telemetry_run(telemetry, 100, trace)
    return n


def run_telemetry():
    ops_on, ops_off = count_opcodes(True), count_opcodes(False)
    telemetry_run(True, 300)        # warm-up: imports, code objects, caches
    telemetry_run(False, 300)
    pairs = [(telemetry_run(True, 300), telemetry_run(False, 300))
             for _ in range(5)]
    ratios = sorted(on / off for on, off in pairs)
    return [(ops_on, ops_off, ops_on / ops_off - 1.0,
             (ops_on - ops_off) / (len(TELEMETRY_SIZES) * 100),
             MAX_OPS_PER_ROUND_TRIP, min(p[0] for p in pairs),
             min(p[1] for p in pairs), ratios[len(ratios) // 2] - 1.0)]


def check_telemetry(rows):
    *_o, ops_per_rt, budget, _on, _off, wall_overhead = rows[0]
    assert ops_per_rt <= budget, (
        f"telemetry costs {ops_per_rt:,.1f} interpreter ops per round trip, "
        f"over the {budget:,.1f} budget")
    # Host time on a shared machine is noisy: this catches only gross
    # regressions (an O(n) collect per event shows as 2x, not 25 %).
    assert wall_overhead < MAX_WALL_OVERHEAD, (
        f"telemetry CPU overhead {wall_overhead:.1%} exceeds "
        f"{MAX_WALL_OVERHEAD:.0%}")


# --- CAMPAIGN-MATRIX: standard campaign x protocol x policy x store --------

#: Per store column, the ClusterSpec override (None: the campaign default,
#: the idealized single-copy store).
CAMPAIGN_STORES = (("legacy", None),
                   ("replicated-k2", ClusterSpec(replication_factor=2)))


def campaign(protocol, policy, spec, **run):
    return CampaignRunner("standard", seed=7, protocol=protocol, policy=policy,
                          cluster_spec=spec).run(**run)


def run_campaign():
    """Every cell must come back green (completed with zero invariant
    violations; under kill, the failure surfaced cleanly); one cell per
    store runs twice more for the same-seed byte-identity guarantee."""
    rows = []
    for protocol in sorted(PROTOCOLS):
        for policy in ("kill", "view-notify", "restart"):
            for store, spec in CAMPAIGN_STORES:
                report = campaign(protocol, policy, spec, raise_on_error=False)
                d = report.data
                identical = None
                if (protocol, policy) == ("uncoordinated", "restart"):
                    identical = (campaign(protocol, policy, spec).to_json()
                                 == campaign(protocol, policy, spec).to_json())
                rows.append((protocol, policy, store, d["app"]["status"],
                             d["app"]["restarts"], len(d["actions"]),
                             sum(len(c["violations"]) for c in d["checks"]),
                             d["engine"]["final_time"], report.ok, identical))
    return rows


def check_campaign(rows):
    red = [cell for *cell, ok, _i in rows if not ok]
    assert not red, f"red campaign cells: {red}"
    replays = [i for *_c, i in rows if i is not None]
    assert replays == [True] * len(CAMPAIGN_STORES), \
        "same-seed campaign reports differ"


# --- RECOVERY-MODES: solo log replay vs rollback vs failover ----------------

RECOVERY_PROTOCOLS = ("sender-logging", "causal-logging", "uncoordinated",
                      "stop-and-sync", "replication")


def recovery_run(protocol: str, crash: bool):
    """One 4-rank Jacobi run on 5 nodes; with ``crash``, rank 1's host dies
    right after rank 1's first committed checkpoint (under replication,
    which takes none, 1 s in)."""
    sf = StarfishCluster.build(nodes=5, seed=7)
    handle = sf.submit(AppSpec(
        program=Jacobi1D, nprocs=4,
        # Long enough that every protocol is mid-run when the crash lands.
        params={"n": 256, "iterations": 400, "iters_per_step": 10,
                "compute_ns_per_cell": 30000},
        ft_policy=FaultPolicy.RESTART,
        # VM-level images: native ones would keep the disk head busy and
        # the per-send log writes would measure its queueing instead.
        checkpoint=CheckpointConfig(
            protocol=protocol, level="vm", interval=0.15,
            replicas=2 if protocol == "replication" else 1)))
    if crash:
        if protocol == "replication":
            sf.engine.run(until=sf.engine.now + 1.0)
        else:
            while not sf.store.versions_of(handle.app_id, 1):
                sf.engine.run(until=sf.engine.now + 0.05)
                assert sf.engine.now < 10.0, "no rank-1 checkpoint"
        sf.crash_node(handle._record().placement[1])
    results = sf.run_to_completion(handle, timeout=240.0)
    restarted = sf.engine.metrics.group_by("daemon.ranks_restarted", "app")
    return (results, sf.engine.now, handle.restarts,
            restarted.get(handle.app_id, 0))


def run_recovery():
    rows = []
    for protocol in RECOVERY_PROTOCOLS:
        golden, golden_s, _r, _rr = recovery_run(protocol, crash=False)
        results, crashed_s, restarts, ranks = recovery_run(protocol, crash=True)
        rows.append((protocol, golden_s, crashed_s, crashed_s - golden_s,
                     ranks, restarts, results == golden))
    return rows


def check_recovery(rows):
    for protocol, *_s, ranks, restarts, replayed in rows:
        assert replayed, f"{protocol}: post-crash results diverged"
        assert restarts >= 1
        # Replication restarts nothing (failover), message logging exactly
        # the crashed rank, every rollback planner at least two.
        if protocol == "replication":
            assert ranks == 0, protocol
        elif protocol.endswith("-logging"):
            assert ranks == 1, protocol
        else:
            assert ranks >= 2, protocol


# --- STORE-K: replicated store, fan-out cost vs survivability -------------

def crash_after_wave(spec: ClusterSpec, victim_of: Callable):
    """Checkpoint a 4-rank app of 1 MB per rank once, then crash the node
    ``victim_of(sf, app_id, version)``.  Returns (sf, app_id, version,
    wave sim-s, whether the line is still restorable, a function that waits
    for the restart and returns its sim-s since the crash)."""
    sf = StarfishCluster.build(spec=spec)
    app_id = start_checkpointed_app(sf, nprocs=4, state_bytes=1024 * 1024,
                                    protocol="stop-and-sync", level="vm")
    wave_s = checkpoint_once(sf, app_id)
    committed = sf.store.latest_committed(app_id)
    assert committed is not None
    victim = victim_of(sf, app_id, committed)
    restarts = sf.any_daemon().registry.get(app_id).restarts
    t_crash = sf.engine.now
    sf.cluster.crash_node(victim)
    survived = sf.store.latest_restorable(app_id, range(4)) == committed
    return (sf, app_id, committed, wave_s, survived,
            lambda: await_restart(sf, app_id, restarts, t_crash))


def run_store_k():
    """Per cluster size and k: one wave with the replica fan-out on the
    critical path, then the rank-0 copy's primary holder crashes."""
    rows = []
    for nodes in (8, 32, 128):
        for k in (1, 2, 3):
            sf, _a, _v, wave_s, survived, recovery = crash_after_wave(
                ClusterSpec(nodes=nodes, seed=23, replication_factor=k,
                            gcs_config=quiet_gcs(2.0)),
                lambda sf, app, v: sf.store.peek(app, 0, v).all_holders()[0])
            rows.append((nodes, k, wave_s, recovery(), survived,
                         sf.store.replica_deficit()))
    return rows


def check_store_k(rows):
    for nodes, k, wave_s, recovery_s, survived, _deficit in rows:
        assert wave_s > 0 and recovery_s is not None and recovery_s > 0, (nodes, k)
        # With k >= 2 a single holder crash never loses the committed
        # line; with k = 1 it always does.
        assert survived == (k >= 2), (nodes, k)


# --- STORE-TIERS: restore read by the fastest surviving tier --------------

def run_store_tiers():
    """Rank 0's host crashes; the crashed rank's restore read, issued from
    a surviving node, hits an L1 partner's memory under the full hierarchy
    and a remote disk plus the wire under the fabric alone.  Recovery is
    failure-detection dominated and reported for context only."""
    rows = []
    for label, tiers in (("l1-memory", ("memory", "disk", "fabric")),
                         ("l3-fabric", ("fabric",))):
        sf, app_id, version, wave_s, survived, recovery = crash_after_wave(
            ClusterSpec(nodes=8, seed=29, store_tiers=tiers,
                        replication_factor=2, gcs_config=quiet_gcs(2.0)),
            lambda sf, app, v: sf.books[app][0][0])
        reader = next(n for n in sf.cluster.nodes.values() if n.is_up)
        t0 = sf.engine.now
        sf.engine.run(until=sf.engine.process(
            sf.store.read(reader, app_id, 0, version)))
        rows.append((label, "+".join(tiers), wave_s, sf.engine.now - t0,
                     recovery(), survived))
    return rows


def check_store_tiers(rows):
    (*_l1, l1_read, _r1, l1_ok), (*_l3, l3_read, _r3, l3_ok) = rows
    assert l1_ok and l3_ok
    assert l1_read < l3_read


# --- STORE-DELTA: delta checkpoints cut the bytes written ------------------

def run_store_delta():
    """Jacobi under stop-and-sync on the full hierarchy, full dumps vs
    changed blocks between full bases (``delta_depth=4``)."""
    rows = []
    for depth in (0, 4):
        sf = StarfishCluster.build(spec=ClusterSpec(
            nodes=8, seed=29, store_tiers=("memory", "disk", "fabric"),
            replication_factor=2, delta_depth=depth, gcs_config=quiet_gcs(2.0)))
        sf.run_to_completion(sf.submit(AppSpec(
            program=Jacobi1D, nprocs=3,
            params={"n": 120, "iterations": 150, "iters_per_step": 10,
                    "compute_ns_per_cell": 500_000},
            ft_policy=FaultPolicy.RESTART,
            checkpoint=CheckpointConfig(protocol="stop-and-sync", level="vm",
                                        interval=0.25))))
        metrics = sf.engine.metrics
        rows.append((f"delta-depth-{depth}",
                     int(metrics.value("ckpt.store.writes")),
                     int(metrics.value("ckpt.store.bytes_written"))))
    return rows


def check_store_delta(rows):
    (_f, _fw, full_bytes), (_d, _dw, delta_bytes) = rows
    assert delta_bytes < full_bytes


# --- FLEET-ADMISSION: the fleet control plane vs cluster size --------------

def run_fleet():
    """24 two-rank jobs of 3 tenants submitted at once, unlimited quotas."""
    rows = []
    for nodes in (4, 8, 16, 32):
        sf = StarfishCluster.build(spec=ClusterSpec(
            nodes=nodes, seed=29, gcs_config=quiet_gcs()))
        controller = FleetController(sf)
        start = sf.engine.now
        jobs = [controller.submit(AppSpec(
            program=ComputeSleep, nprocs=2,
            params={"steps": 3, "step_time": 0.05},
            ft_policy=FaultPolicy.RESTART, tenant=f"t{i % 3}"))
            for i in range(24)]
        while controller.pending_work() and sf.engine.now < start + 300.0:
            sf.engine.run(until=sf.engine.now + 0.5)
        controller.close()
        FleetOracle().verify(controller.scheduler)
        done = [j for j in jobs if j.state == JobState.DONE]
        makespan = max(j.finished_at or start for j in jobs) - start
        rows.append((nodes, len(jobs), len(done),
                     sum(j.admitted_at - j.submit_time for j in done) / len(jobs),
                     makespan, len(jobs) / makespan))
    return rows


def check_fleet(rows):
    for nodes, jobs, done, admit_s, makespan_s, per_s in rows:
        assert done == jobs, nodes
        assert 0 < admit_s < 5.0, nodes    # within a handful of ticks
        assert makespan_s > 0 and per_s > 0


# --- the table ---------------------------------------------------------------

EXPERIMENTS = {
    "FIG3": Experiment(
        "Figure 3: native checkpoint time (stop-and-sync)",
        (("nodes", ""), ("file MB", scaled(MB, ".2f")),
         ("measured s", ".6f"), ("model s", ".4f"),
         ("vs model", "{:+.1f}%".format), ("paper s", ".6f"),
         ("vs paper", "{:+.1f}%".format)),
        run_fig3, check_fig3),
    "FIG4": Experiment(
        "Figure 4: VM-level checkpoint time (stop-and-sync)",
        (("nodes", ""), ("payload MB", scaled(MB, ".0f")),
         ("file MB", scaled(MB, ".2f")), ("measured s", ".4f"),
         ("paper s", ".4f"), ("vs paper", "{:+.1f}%".format)),
        run_fig4, check_fig4),
    "FIG5": Experiment(
        "Figure 5: round-trip delay vs data size (us, 100 reps)",
        (("bytes", ""), ("BIP/Myrinet", scaled(US, ".1f")),
         ("TCP/IP", scaled(US, ".1f"))),
        run_fig5, check_fig5),
    "FIG6": Experiment(
        "Figure 6: software overhead of one message is size-independent (us)",
        (("transport", ""), ("bytes", ""), ("one-way", scaled(US, ".2f")),
         ("software overhead", scaled(US, ".3f")),
         ("layer sum", scaled(US, ".3f"))),
        run_fig6, check_fig6),
    "TAB1": Experiment(
        "Table 1: message types observed in a full lifecycle",
        (("message type", ""), ("sent between", ""),
         ("Ethernet frames", ""), ("Myrinet frames", ""),
         ("local deliveries", "")),
        run_tab1, check_tab1),
    "TAB2": Experiment(
        "Table 2: heterogeneous C/R matrix (ok = no conversion needed)",
        (("ckpt on \\ restart on", ""), ("image bytes", ","),
         *((short, lambda v: "ok" if v == 0 else f"conv {v * 1e3:.1f}ms")
           for short in TAB2_SHORT)),
        run_tab2, check_tab2),
    "CLAIM-1h": Experiment(
        "Hourly checkpointing overhead (135 MB native files, 4 nodes)",
        (("configuration", ""), ("completion s", ".1f"),
         ("checkpoints", ""), ("overhead", lambda v: f"{100 * v:.3f}%")),
        run_claim, check_claim),
    "ABL-POLLING": Experiment(
        "Polling thread ablation: RTT (us)",
        (("transport", ""), ("bytes", ""), ("polling", scaled(US, ".1f")),
         ("blocking recv", scaled(US, ".1f")), ("delta", scaled(US, "+.1f"))),
        run_polling, check_polling),
    "ABL-FASTPATH": Experiment(
        "Fast path vs daemon relay (one 64-byte app-level message)",
        (("path", ""), ("latency us", scaled(US, ".1f"))),
        run_fastpath, check_fastpath),
    "ABL-LWG": Experiment(
        f"Lightweight vs full group ({LWG_NODES}-node cluster, 2-node app)",
        (("design", ""), (f"frames for {LWG_CASTS} casts", ""),
         ("of which relay", ""), (f"idle frames per {LWG_WINDOW:.0f}s", ""),
         ("idle frames over lightweight", "")),
        run_lwg, check_lwg),
    "LWG-LIFECYCLE": Experiment(
        f"Application lifecycle, submit to DONE ({LWG_NODES}-node cluster)",
        (("application span", "{} nodes".format), ("main-group casts", ""),
         ("control frames", ""), ("data frames", "")),
        run_lifecycle, check_lifecycle),
    "ABL-PROTOCOLS": Experiment(
        "C/R protocols side by side (Jacobi, 4 ranks, ckpt every 1s)",
        (("protocol", ""), ("completion s", ".2f"), ("ckpts/rank", ""),
         ("MB written", scaled(1e6, ".1f")), ("blocked ms", scaled(1e-3, ".0f")),
         ("overhead", "{:+.2f}%".format)),
        run_protocols, check_protocols),
    "ABL-STATE-SPLIT": Experiment(
        "Checkpoint cost: Starfish split vs monolithic runtime (empty app)",
        (("design", ""), ("file KB", scaled(KB, ".0f")), ("time s", ".3f")),
        run_split, check_split),
    "ABL-DISKLESS": Experiment(
        "Diskless vs disk checkpointing (native level, 4 ranks)",
        (("payload MB/rank", scaled(MB, ".0f")), ("disk s", ".3f"),
         ("diskless s", ".3f"), ("speedup", "{:.1f}x".format),
         ("diskless disk bytes", ","), ("diskless Myrinet bytes", ",")),
        run_diskless, check_diskless),
    "ABL-TELEMETRY": Experiment(
        "Telemetry ablation: Figure 5 workload, on vs off",
        (("interpreter ops on", ","), ("off", ","),
         ("overhead", "+.2%"), ("telemetry ops / round trip", ",.1f"),
         ("budget", ",.1f"), ("cpu s on (best)", ".3f"),
         ("off (best)", ".3f"), ("cpu overhead (median)", "+.1%")),
        run_telemetry, check_telemetry),
    "CAMPAIGN-MATRIX": Experiment(
        "Standard fault campaign x C/R protocol x FT policy x store",
        (("protocol", ""), ("policy", ""), ("store", ""), ("app status", ""),
         ("restarts", ""), ("actions", ""), ("violations", ""),
         ("sim s", ".2f"), ("verdict", lambda ok: "green" if ok else "RED"),
         ("same-seed replay identical", "")),
        run_campaign, check_campaign),
    "RECOVERY-MODES": Experiment(
        "Recovery modes: solo log-replay vs rollback vs failover (one host crash)",
        (("protocol", ""), ("failure-free sim-s", ".3f"),
         ("crashed sim-s", ".3f"), ("penalty", ".3f"),
         ("ranks restarted", ""), ("restarts", ""),
         ("results match failure-free", "")),
        run_recovery, check_recovery),
    "STORE-K": Experiment(
        "Replicated checkpoint store: k copies vs wave cost and recovery",
        (("nodes", ""), ("k", ""), ("wave sim-s", ".4f"),
         ("recovery sim-s", ".3f"), ("line survived", ""), ("deficit", "")),
        run_store_k, check_store_k),
    "STORE-TIERS": Experiment(
        "Tiered store: restore path by fastest surviving tier",
        (("config", ""), ("tiers", ""), ("wave sim-s", ".4f"),
         ("restore-read sim-s", ".4f"), ("recovery sim-s", ".3f"),
         ("line survived", "")),
        run_store_tiers, check_store_tiers),
    "STORE-DELTA": Experiment(
        "Delta checkpoints: jacobi bytes written, full vs incremental",
        (("config", ""), ("writes", ""), ("ckpt bytes", "")),
        run_store_delta, check_store_delta),
    "FLEET-ADMISSION": Experiment(
        "Fleet control plane: admission latency and job throughput",
        (("nodes", ""), ("jobs", ""), ("done", ""), ("admit sim-s", ".4f"),
         ("makespan sim-s", ".3f"), ("jobs/sim-s", ".3f")),
        run_fleet, check_fleet),
}


def main(ids: Sequence[str]) -> int:
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {' '.join(unknown)}; "
              f"known: {' '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    failed = 0
    for exp_id in ids or EXPERIMENTS:
        exp = EXPERIMENTS[exp_id]
        rows = exp.run()
        print(exp.render(exp_id, rows), flush=True)
        try:
            exp.check(rows)
        except AssertionError:
            failed += 1
            print(f"{exp_id}: check failed", file=sys.stderr)
            traceback.print_exc()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
