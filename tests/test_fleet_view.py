"""FleetView, daemon heartbeats, suspicion scoring, drain lifecycle.

The heartbeat tests assert on *structured* payloads and ``repro.obs``
instruments only — no daemon log parsing anywhere (ISSUE 9 satellite).
"""

import pytest

from repro.apps import ComputeSleep
from repro.core import (AppSpec, CheckpointConfig, FaultPolicy,
                        StarfishCluster)
from repro.fleet import (FleetController, FleetView, NodeHealth,
                         SuspicionScorer)
from repro.fleet.suspicion import W_DISK, W_LOSS
from repro.obs import MetricsRegistry, to_prometheus


# ---------------------------------------------------------------------------
# daemon heartbeats (structured, through repro.obs)
# ---------------------------------------------------------------------------

def test_daemon_heartbeat_payload_and_instruments():
    sf = StarfishCluster.build(nodes=3)
    sf.submit(AppSpec(program=ComputeSleep, nprocs=2,
                      params={"steps": 40, "step_time": 0.05},
                      ft_policy=FaultPolicy.RESTART,
                      placement={0: "n0", 1: "n1"}))
    sf.engine.run(until=sf.engine.now + 0.5)
    daemon = next(d for d in sf.live_daemons()
                  if d.node.node_id == "n0")
    payload = daemon.heartbeat()
    assert payload["node"] == "n0"
    assert payload["ranks"] == 1
    assert payload["apps"] and payload["time"] == sf.engine.now
    assert payload["epoch"] >= 0

    # The same numbers are queryable as instruments — no log parsing.
    metrics = sf.engine.metrics
    sent = metrics.group_by("daemon.heartbeat.sent", "node")
    assert sent.get("n0", 0) >= 1
    ranks = metrics.group_by("daemon.heartbeat.ranks", "node")
    assert ranks["n0"] == 1
    daemon.heartbeat()
    assert metrics.group_by("daemon.heartbeat.sent", "node")["n0"] >= 2


def test_heartbeat_membership_counters():
    sf = StarfishCluster.build(nodes=3)
    sf.engine.run(until=sf.engine.now + 1.0)
    sf.cluster.crash_node("n2")
    sf.engine.run(until=sf.engine.now + 3.0)
    left = sf.engine.metrics.group_by("daemon.membership.left", "node")
    assert any(v >= 1 for v in left.values())


# ---------------------------------------------------------------------------
# FleetView bookkeeping
# ---------------------------------------------------------------------------

def test_view_observe_refresh_and_missed_beats():
    view = FleetView()
    view.observe({"node": "n0", "ranks": 2, "copies": 1,
                  "apps": ["a"], "store_bytes": 64, "epoch": 3}, 1.0)
    info = view.row("n0")
    assert (info.ranks, info.copies, info.store_bytes) == (2, 1, 64)
    view.refresh(1.25, down_nodes=())
    assert info.missed == 0                   # exactly one period old
    view.refresh(2.0, down_nodes=())
    assert info.missed == 3                   # three periods of silence
    view.refresh(2.0, down_nodes=("n0",))
    assert info.health is NodeHealth.DOWN
    assert info.ranks == 0
    # A heartbeat after reboot returns the node to service.
    view.observe({"node": "n0"}, 3.0)
    assert info.health is NodeHealth.ACTIVE
    assert "n0" in view.eligible()


def test_eligible_excludes_everything_but_active():
    view = FleetView()
    for i, health in enumerate(NodeHealth):
        info = view.row(f"n{i}")
        info.health = health
    view.row("n9").suspect = True
    assert view.eligible() == ["n0"]          # ACTIVE and not suspect


# ---------------------------------------------------------------------------
# suspicion scoring
# ---------------------------------------------------------------------------

def test_suspicion_from_fault_events():
    registry = MetricsRegistry()
    view = FleetView()
    for n in ("n0", "n1"):
        view.observe({"node": n}, 0.0)
    scorer = SuspicionScorer(registry)
    registry.events.emit(1.0, "fault.inject", action="disk-slowdown",
                         nodes="n1", factor=6.0)
    scorer.update(view)
    assert view.row("n1").suspicion == W_DISK
    assert view.row("n1").suspect            # W_DISK >= THRESHOLD
    assert not view.row("n0").suspect
    # Fabric-wide loss alone stays below the threshold (not one sick
    # node), but stacks on top of per-node signals.
    registry.events.emit(2.0, "fault.inject", action="frame-loss",
                         fabric="tcp-ethernet", prob=0.05)
    scorer.update(view)
    assert view.row("n0").suspicion == W_LOSS
    assert not view.row("n0").suspect
    assert view.row("n1").suspicion == min(1.0, W_DISK + W_LOSS)
    # End events clear both signals.
    registry.events.emit(3.0, "fault.inject", action="disk-slowdown-end",
                         nodes="n1")
    registry.events.emit(3.0, "fault.inject", action="frame-loss-end",
                         fabric="tcp-ethernet")
    scorer.update(view)
    assert view.row("n1").suspicion == 0.0
    assert not view.row("n1").suspect


def test_suspicion_from_missed_heartbeats_and_down_nodes():
    view = FleetView()
    for node, last in (("n0", 0.0), ("n1", 0.0), ("n2", 0.5), ("n3", 0.25)):
        view.observe({"node": node}, last)
    view.refresh(1.0, down_nodes=("n1",))     # n0 silent for 3 periods
    scorer = SuspicionScorer(MetricsRegistry())
    scorer.update(view)
    assert view.row("n0").suspicion == pytest.approx(0.75)  # 3 x W_MISSED
    assert view.row("n0").suspect
    assert view.row("n2").suspicion == pytest.approx(0.25)  # one missed beat
    assert not view.row("n2").suspect
    assert view.row("n3").suspicion == pytest.approx(0.5)   # two: THRESHOLD
    assert view.row("n3").suspect
    assert view.row("n1").suspicion == 1.0    # down is certainty
    assert view.row("n1").suspect


def test_suspicion_survives_event_log_ring_wrap():
    """Regression: the scorer's incremental cursor must be an emission
    seq, not a position into ``records()``.  Once the bounded event log
    wraps, list positions shift under a positional cursor and fresh
    ``fault.inject`` events land *before* it — the old code skipped the
    ``disk-slowdown-end`` below and left n1 suspect forever."""
    registry = MetricsRegistry(event_log_capacity=8)
    view = FleetView()
    for n in ("n0", "n1"):
        view.observe({"node": n}, 0.0)
    scorer = SuspicionScorer(registry)
    registry.events.emit(1.0, "fault.inject", action="disk-slowdown",
                         nodes="n1", factor=6.0)
    scorer.update(view)
    assert view.row("n1").suspect
    # Unrelated traffic rotates the slowdown event out of the ring, so
    # every retained fault.inject position is below the old cursor.
    for i in range(20):
        registry.events.emit(1.5, "app.restart", app=f"a{i}")
    registry.events.emit(2.0, "fault.inject", action="disk-slowdown-end",
                         nodes="n1")
    scorer.update(view)
    assert view.row("n1").suspicion == 0.0
    assert not view.row("n1").suspect


def test_suspicion_ignores_reprocessed_events_after_wrap():
    """The dual hazard: retained-but-already-seen events must not be
    double counted when the ring shifts them to new positions (a
    re-folded ``frame-loss`` would push the depth to 2 and one ``-end``
    would no longer clear it)."""
    registry = MetricsRegistry(event_log_capacity=8)
    view = FleetView()
    view.observe({"node": "n0"}, 0.0)
    scorer = SuspicionScorer(registry)
    registry.events.emit(1.0, "fault.inject", action="frame-loss",
                         fabric="tcp-ethernet", prob=0.05)
    scorer.update(view)
    assert scorer._loss_depth == 1
    registry.events.emit(1.5, "app.restart", app="a0")   # shifts positions
    scorer.update(view)
    assert scorer._loss_depth == 1                       # not re-counted
    registry.events.emit(2.0, "fault.inject", action="frame-loss-end",
                         fabric="tcp-ethernet")
    scorer.update(view)
    assert scorer._loss_depth == 0
    assert view.row("n0").suspicion == 0.0


def test_suspicion_empty_nodes_field_adds_no_phantom_node():
    """Regression: a fault event with an empty/missing ``nodes`` field
    must not register the phantom node ``""`` as slow (``"".split(",")``
    == ``[""]``) — it can never be cleared by a well-formed end event."""
    registry = MetricsRegistry()
    view = FleetView()
    view.observe({"node": "n0"}, 0.0)
    scorer = SuspicionScorer(registry)
    registry.events.emit(1.0, "fault.inject", action="disk-slowdown",
                         nodes="", factor=2.0)
    registry.events.emit(1.0, "fault.inject", action="disk-slowdown",
                         factor=2.0)                     # field absent
    scorer.update(view)
    assert scorer._slow_disks == set()
    # And a CSV with a trailing comma only names real nodes.
    registry.events.emit(2.0, "fault.inject", action="disk-slowdown",
                         nodes="n0,", factor=2.0)
    scorer.update(view)
    assert scorer._slow_disks == {"n0"}


# ---------------------------------------------------------------------------
# drain lifecycle through the controller
# ---------------------------------------------------------------------------

def test_drain_state_machine_on_live_cluster():
    sf = StarfishCluster.build(nodes=4)
    controller = FleetController(sf, auto_drain=False)
    handle = sf.submit(AppSpec(
        program=ComputeSleep, nprocs=2,
        params={"steps": 200, "step_time": 0.05, "state_bytes": 1024},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="stop-and-sync", level="vm",
                                    interval=0.4),
        placement={0: "n0", 1: "n2"}))
    sf.engine.run(until=sf.engine.now + 1.0)
    controller.drain("n2")
    assert controller.view.row("n2").health is NodeHealth.DRAINING
    assert "n2" not in controller.view.eligible()
    sf.engine.run(until=sf.engine.now + 4.0)
    # cordon -> proactive-migrate -> confirm-empty.
    assert controller.view.row("n2").health is NodeHealth.DRAINED
    assert controller.migrations and \
        controller.migrations[0][3] == "n2"
    record = handle._record()
    assert "n2" not in record.placement.values()
    # Operator drains never auto-uncordon; explicit uncordon does.
    controller.uncordon("n2")
    assert controller.view.row("n2").health is NodeHealth.ACTIVE
    sf.run_to_completion(handle, timeout=300)


# ---------------------------------------------------------------------------
# RegistryView (per-tenant metric filtering)
# ---------------------------------------------------------------------------

def test_registry_view_filters_by_label():
    registry = MetricsRegistry()
    registry.counter("fleet.jobs_submitted", tenant="acme").inc(3)
    registry.counter("fleet.jobs_submitted", tenant="globex").inc(5)
    registry.counter("fleet.jobs_admitted", tenant="acme").inc(2)
    view = registry.view(tenant="acme")
    flat = view.collect()
    assert flat and all("tenant=acme" in key for key in flat)
    assert sum(v for k, v in flat.items()
               if k.startswith("fleet.jobs_submitted")) == 3
    text = to_prometheus(view)
    assert 'tenant="acme"' in text and 'tenant="globex"' not in text
