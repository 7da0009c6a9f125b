"""Ablation — lightweight groups vs one full process group per app.

Paper §2.1: "it would have been possible to allocate a separate full blown
process group for each application.  But ... the lightweight group
approach is more efficient."

This bench measures the network cost of (a) the steady-state overhead and
(b) per-application multicast, under the two designs, on an 8-node cluster
hosting an application spanning only 2 nodes:

* **lightweight** (Starfish): the app's casts are sequenced and relayed
  point-to-point among the 2 member daemons only; there is ONE
  heartbeat-bearing group for the whole cluster;
* **full-group-per-app**: a second full process group is created for the
  app — every multicast costs a full Ensemble round among its members,
  and the group adds its own heartbeat/membership traffic for as long as
  the application lives.

A second, deterministic table is the application *lifecycle* on a booted
Starfish cluster (DESIGN §21): the frames between ``submit`` and ``DONE``.
An application is two main-group casts — ``app-submit`` opens its
lightweight group, ``app-done`` closes it — and what happens in between
(each finished rank reporting to the app authority) stays inside the
lightweight group, so a job's cost in *casts* does not depend on its ranks
and its completion traffic is linear in its span.  Asserted exactly: a
regression to reporting completion on the main group (one cast per rank,
copied to every daemon) breaks it.
"""

import pytest

from repro.apps import ComputeSleep
from repro.cluster import Cluster
from repro.core import AppSpec, StarfishCluster
from repro.gcs import GcsConfig, GroupMember
from repro.lwg import LwgManager

from bench_helpers import fast_or, print_table, quiet_gcs

N_NODES = 8
APP_SPAN = 2
N_CASTS = fast_or(10, 50)
WINDOW = fast_or(5.0, 10.0)      # seconds of steady state measured


def ethernet_frames(cluster):
    return cluster.engine.metrics.sum("net.frames_sent",
                                      fabric="tcp-ethernet")


def build_main_group(cluster, cfg):
    members = []
    for i in range(N_NODES):
        gm = GroupMember(cluster.engine, cluster.node(f"n{i}"), config=cfg)
        members.append(gm)
    members[0].start()
    for gm in members[1:]:
        gm.start(contact=members[0].endpoint)
    cluster.engine.run(until=cluster.engine.now + 3.0)
    return members


def drain(members, lwgs=None):
    for gm in members:
        gm.events.drain() if hasattr(gm.events, "drain") else None


def run_lightweight():
    cfg = GcsConfig(heartbeat_period=0.25, suspect_timeout=2.0)
    cluster = Cluster.build(nodes=N_NODES)
    members = build_main_group(cluster, cfg)
    lwgs = [LwgManager(cluster.engine, gm) for gm in members]
    for i, gm in enumerate(members):
        def pump(gm=gm, mgr=lwgs[i]):
            while True:
                ev = yield gm.events.get()
                mgr.on_main_event(ev)
        cluster.node(f"n{i}").spawn(pump())
    lwgs[0].create("app", [members[0].endpoint, members[1].endpoint])
    cluster.engine.run(until=cluster.engine.now + 1.0)

    heartbeats = lambda: cluster.engine.metrics.sum("gcs.heartbeats")
    base, hb = ethernet_frames(cluster), heartbeats()
    for k in range(N_CASTS):
        lwgs[0].cast("app", ("payload", k))
    cluster.engine.run(until=cluster.engine.now + 2.0)
    cast_frames = ethernet_frames(cluster) - base
    relay_frames = cast_frames - (heartbeats() - hb)

    base = ethernet_frames(cluster)
    cluster.engine.run(until=cluster.engine.now + WINDOW)
    idle_frames = ethernet_frames(cluster) - base
    return cast_frames, idle_frames, relay_frames


def run_full_group():
    cfg = GcsConfig(heartbeat_period=0.25, suspect_timeout=2.0)
    cluster = Cluster.build(nodes=N_NODES)
    members = build_main_group(cluster, cfg)
    # A dedicated, full process group for the 2-node application.
    app_members = [GroupMember(cluster.engine, cluster.node(f"n{i}"),
                               name="appgrp", group="app", config=cfg)
                   for i in range(APP_SPAN)]
    app_members[0].start()
    app_members[1].start(contact=app_members[0].endpoint)
    cluster.engine.run(until=cluster.engine.now + 2.0)

    base = ethernet_frames(cluster)
    for k in range(N_CASTS):
        app_members[0].cast(("payload", k))
    cluster.engine.run(until=cluster.engine.now + 2.0)
    cast_frames = ethernet_frames(cluster) - base

    base = ethernet_frames(cluster)
    cluster.engine.run(until=cluster.engine.now + WINDOW)
    idle_frames = ethernet_frames(cluster) - base
    return cast_frames, idle_frames


def run_ablation():
    return run_lightweight(), run_full_group()


def test_ablation_lightweight_groups(benchmark):
    (lw_cast, lw_idle, lw_relay), (fg_cast, fg_idle) = benchmark.pedantic(
        run_ablation, rounds=1, iterations=1)
    print_table(
        f"Lightweight vs full group ({N_NODES}-node cluster, "
        f"{APP_SPAN}-node app)",
        ["design", f"frames for {N_CASTS} casts",
         f"idle frames per {WINDOW:.0f}s"],
        [["lightweight group (Starfish)", lw_cast, lw_idle],
         ["full process group per app", fg_cast, fg_idle]])
    extra_per_app = fg_idle - lw_idle
    print(f"\nextra steady-state frames per app per {WINDOW:.0f}s under the "
          f"full-group design: {extra_per_app} "
          f"(x N_apps on a shared cluster)")
    benchmark.extra_info.update(lw_cast=lw_cast, lw_idle=lw_idle,
                                lw_relay=lw_relay, fg_cast=fg_cast,
                                fg_idle=fg_idle)
    # The full-group design pays extra steady-state traffic (a second
    # failure-detection/membership layer) for EVERY application, while
    # lightweight groups add none; the gap scales with the number of
    # applications sharing the cluster.
    assert extra_per_app >= WINDOW / 0.25  # at least its own heartbeats
    # Per cast both designs relay one bare copy to the other member (DESIGN
    # §23, §27).  Besides the main group's heartbeats, the lightweight
    # group adds one position report at the member's next tick (the casts
    # leave in one instant), and at most one re-post of the newest copy with
    # the report that answers it: N + 1 to N + 3 frames (50 casts: 212 ->
    # 165 frames in the window while every copy was acknowledged, N + N
    # relay frames).  The full group pays its own heartbeats instead.
    assert N_CASTS + 1 <= lw_relay <= N_CASTS + 3
    assert lw_cast <= fg_cast


def run_lifecycle(span):
    """(main-group casts, control frames) from submit to DONE of one
    ``span``-rank ComputeSleep job, one rank per node, on N_NODES nodes."""
    # No heartbeat falls inside the job: every frame counted is lifecycle.
    sf = StarfishCluster.build(nodes=N_NODES, gcs_config=quiet_gcs(1000.0))
    reg = sf.engine.metrics
    frames = lambda: reg.sum("net.frames_sent", fabric="tcp-ethernet",
                             kind="control")
    casts, base = reg.sum("gcs.casts"), frames()
    handle = sf.submit(AppSpec(
        program=ComputeSleep, nprocs=span,
        params={"steps": 3, "step_time": 0.05},
        placement={r: f"n{r}" for r in range(span)}))
    sf.run_to_completion(handle)
    assert reg.sum("net.frames_sent", kind="data") == 0
    return int(reg.sum("gcs.casts") - casts), int(frames() - base)


def test_lifecycle_frames(benchmark):
    spans = (APP_SPAN, N_NODES)
    rows = benchmark.pedantic(lambda: [run_lifecycle(s) for s in spans],
                              rounds=1, iterations=1)
    others = N_NODES - 1
    print_table(
        f"Application lifecycle, submit to DONE ({N_NODES}-node cluster)",
        ["application span", "main-group casts", "control frames"],
        [[f"{span} nodes", casts, frames]
         for span, (casts, frames) in zip(spans, rows)])
    benchmark.extra_info.update(
        {f"lifecycle_frames_span{span}": frames
         for span, (_c, frames) in zip(spans, rows)})
    for span, (casts, frames) in zip(spans, rows):
        # Two casts whatever the span (submitted through the sequencer's own
        # daemon, which is also the authority: no request hop), each copied
        # to the seven other daemons, plus span - 1 reports to the
        # authority, each acknowledged with one RelAck (a cast copy is not:
        # a lost one is asked for again by sequence number, DESIGN §23).
        # (While completion was a main-group cast per rank: 3 + span casts
        # — 72 and 168 frames for these two jobs; then 30 and 42 while
        # every cast copy was acknowledged.)
        assert casts == 2
        assert frames == 2 * others + 2 * (span - 1)       # 16 and 28
