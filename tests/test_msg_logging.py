"""Message-logging protocols: sender logs, solo replay, planners, e2e.

Covers the pieces the logging protocols add on top of the four-role
protocol layer: the store's sender-side channel logs, the
:class:`SoloReplayPlanner` (restart only the crashed rank) against the
:class:`DependencyRollbackPlanner` domino, the :class:`ReplayTap`'s
duplicate suppression and restore-time replay, the :class:`ReplayOracle`
invariants, and full solo restarts through the Starfish stack.
"""

import pytest

from repro.ckpt.protocols.msg_logging import (CausalLoggingProtocol,
                                              SenderLoggingProtocol)
from repro.ckpt.protocols.roles import (DependencyRollbackPlanner,
                                        SoloReplayPlanner)
from repro.cluster import Cluster
from repro.errors import OracleViolation
from repro.store import CheckpointRecord, CheckpointStore

from ckpt_helpers import CrHarness


# ---------------------------------------------------------------------------
# store: sender-based message logs
# ---------------------------------------------------------------------------

def _store():
    cluster = Cluster.build(nodes=1, seed=0)
    return CheckpointStore(cluster.engine)


def test_log_append_is_idempotent_per_ssn():
    store = _store()
    assert store.log_append("app", 0, 1, 1, ("c", 0, 10, "x", 8))
    # A restarted sender re-executing its past re-appends the same ssn:
    # no log growth, no IO billed (the caller keys IO off the False).
    assert not store.log_append("app", 0, 1, 1, ("c", 0, 10, "x", 8))
    assert store.log_end("app", 0, 1) == 1
    assert len(store.log_tail("app", 0, 1)) == 1


def test_log_tail_end_and_senders():
    store = _store()
    for ssn in (1, 2, 3):
        store.log_append("app", 0, 2, ssn, ("c", 0, 10, ssn, 4))
    store.log_append("app", 1, 2, 1, ("c", 1, 11, "y", 4))
    assert store.log_end("app", 0, 2) == 3
    assert store.log_end("app", 9, 2) == 0          # empty channel
    assert [ssn for ssn, _e in store.log_tail("app", 0, 2, after_ssn=1)] \
        == [2, 3]
    assert store.log_senders("app", 2) == [0, 1]
    assert store.log_senders("app", 0) == []


def test_drop_app_clears_message_logs():
    store = _store()
    store.log_append("app", 0, 1, 1, ("c", 0, 10, "x", 8))
    store.log_append("other", 0, 1, 1, ("c", 0, 10, "x", 8))
    store.drop_app("app")
    assert store.log_end("app", 0, 1) == 0
    assert store.log_end("other", 0, 1) == 1


# ---------------------------------------------------------------------------
# planners: solo replay vs dependency-rollback domino (same store state)
# ---------------------------------------------------------------------------

class _StubDaemon:
    """Just enough daemon for RestartPlanner.plan()."""

    def __init__(self, store, node):
        self.store = store
        self.node = node


class _StubRecord:
    def __init__(self, app_id, placement):
        self.app_id = app_id
        self.placement = placement


def _write(engine, store, node, rank, version, deps=()):
    rec = CheckpointRecord(
        app_id="app", rank=rank, version=version, level="vm", nbytes=100,
        image=b"s", arch_name="sparc-sunos", taken_at=engine.now,
        deps=list(deps))
    engine.process(store.write(node, rec))
    engine.run(until=engine.now + 0.5)


def _domino_fixture():
    """rank0 checkpointed once, then sent a message (its interval 1) that
    rank1 received *before* its own checkpoint: rolling rank0 back to v0
    orphans the receive inside rank1's v0."""
    cluster = Cluster.build(nodes=2, seed=0)
    engine = cluster.engine
    store = CheckpointStore(engine)
    n0 = cluster.node("n0")
    _write(engine, store, n0, rank=0, version=0)
    _write(engine, store, n0, rank=1, version=0, deps=[(0, 1, 0)])
    daemon = _StubDaemon(store, n0)
    record = _StubRecord("app", {0: "n0", 1: "n1"})
    return daemon, record


def test_solo_planner_restarts_exactly_the_failed_rank():
    daemon, record = _domino_fixture()
    plan = SoloReplayPlanner().plan(daemon, record, failed_ranks=[0])
    assert SoloReplayPlanner.solo
    assert plan["mode"] == "log-replay"
    assert plan["ranks"] == [0]                  # survivors keep running
    assert plan["line"] == {0: 0}                # own latest checkpoint


def test_dependency_rollback_dominoes_the_survivor():
    # The SAME store state under the uncoordinated planner: rank0's
    # re-execution of interval 1 orphans rank1's checkpoint, so the
    # recovery line rolls BOTH ranks back (rank1 to initial state).
    daemon, record = _domino_fixture()
    plan = DependencyRollbackPlanner().plan(daemon, record,
                                            failed_ranks=[0])
    assert not DependencyRollbackPlanner.solo
    assert plan["mode"] == "uncoordinated"
    assert plan["line"] == {0: 0, 1: -1}
    rolled_back = [r for r, v in plan["line"].items()]
    assert len(rolled_back) >= 2                 # everyone restarts


def test_solo_planner_falls_to_initial_without_checkpoints():
    cluster = Cluster.build(nodes=1, seed=0)
    store = CheckpointStore(cluster.engine)
    daemon = _StubDaemon(store, cluster.node("n0"))
    record = _StubRecord("app", {0: "n0", 1: "n0"})
    plan = SoloReplayPlanner().plan(daemon, record, failed_ranks=[1])
    assert plan["line"] == {1: -1}


# ---------------------------------------------------------------------------
# the tap: piggybacked ssns, duplicate suppression, restore-time replay
# ---------------------------------------------------------------------------

def _app_exchange(mpi, rank, h):
    """Two rounds of 0 -> 1 sends (the logging path under test)."""
    if rank == 0:
        yield from mpi.send("one", dest=1, tag=10)
        yield from mpi.send("two", dest=1, tag=10)
        return "sent"
    first = yield from mpi.recv(source=0, tag=10)
    second = yield from mpi.recv(source=0, tag=10)
    return (first, second)


def test_sender_logging_logs_every_send_with_ssn():
    h = CrHarness(nranks=2, protocol="sender-logging")
    results = h.run_app(_app_exchange)
    assert results[1] == ("one", "two")
    store = h.store
    assert store.log_end("testapp", 0, 1) == 2
    entries = [e for _ssn, e in store.log_tail("testapp", 0, 1)]
    assert [e[3] for e in entries] == ["one", "two"]
    # Pessimistic logging bills the send-path disk write per message.
    assert h.cluster.node("n0").disk.bytes_written > 0


def test_causal_logging_defers_log_io_to_the_checkpoint():
    h = CrHarness(nranks=2, protocol="causal-logging")
    h.run_app(_app_exchange)
    # Entries recorded immediately...
    assert h.store.log_end("testapp", 0, 1) == 2
    proto = h.protocols[0]
    assert proto._unflushed_bytes > 0
    # ...but no disk traffic until the next checkpoint flushes the batch.
    assert h.cluster.node("n0").disk.bytes_written == 0
    ev = proto.request_checkpoint()
    h.run(until=h.engine.now + 2.0)
    assert ev.triggered
    assert proto._unflushed_bytes == 0
    assert h.cluster.node("n0").disk.bytes_written > 0


def test_tap_suppresses_duplicate_ssn_deliveries():
    h = CrHarness(nranks=2, protocol="sender-logging")
    h.run_app(_app_exchange)
    tap = h.protocols[1].tap
    ep = h.apis[1].endpoint
    assert ep.recv_count[0] == 2
    # A restarted sender re-executing its past re-sends ssn 1: suppressed.
    assert tap.on_deliver(0, object(), ("ssn", 1)) is True
    # The next fresh ssn (logged by its sender first — the pessimistic
    # ordering the oracle enforces) passes through to the matching engine.
    comm = h.apis[1].comm_id
    h.store.log_append("testapp", 0, 1, 3, (comm, 0, 10, "three", 8))
    assert tap.on_deliver(0, object(), ("ssn", 3)) is False


def test_tap_stashes_live_traffic_while_restoring_and_replays_log():
    from repro.mpi.matching import InboundMsg
    h = CrHarness(nranks=2, protocol="sender-logging")
    store, engine = h.store, h.engine
    # Sender log: three messages toward rank 1 on the world communicator.
    comm = h.apis[1].comm_id
    for ssn in (1, 2, 3):
        store.log_append("testapp", 0, 1, ssn,
                         (comm, 0, 10, f"m{ssn}", 16))
    proto = h.protocols[1]
    tap = proto.tap
    ep = h.apis[1].endpoint
    ep.recv_count[0] = 1                 # checkpoint consumed ssn 1 already
    tap._holding = True
    live = InboundMsg(comm_id=comm, source=0, tag=10, data="live", nbytes=16)
    assert tap.on_deliver(0, live, ("ssn", 4)) is True     # stashed
    assert tap._stash
    done = engine.process(tap.replay(ep, store))
    engine.run(until=engine.now + 2.0)
    assert done.triggered and done.ok
    # Replay fed ssns 2..3 and then released the stashed live message.
    assert ep.recv_count[0] == 4
    datas = [m.data for m in ep.matching.unexpected]
    assert datas == ["m2", "m3", "live"]
    assert tap._holding is False and not tap._stash


def test_replay_oracle_rejects_orphans_and_double_replay():
    proto = SenderLoggingProtocol()
    oracle = proto.replay_oracle
    oracle.bind(1)
    # Restored state consumed more than the log covers: orphan.
    with pytest.raises(OracleViolation):
        oracle.restored(0, recv_count=5, log_end=3)
    oracle.replayed(0, ssn=2, expected=2)
    with pytest.raises(OracleViolation):
        oracle.replayed(0, ssn=2, expected=3)     # fed twice
    with pytest.raises(OracleViolation):
        oracle.delivered(0, ssn=9, log_end=3)     # beyond the stable log


def test_protocol_classes_expose_planner_and_boundary_flag():
    for cls in (SenderLoggingProtocol, CausalLoggingProtocol):
        assert cls.planner is SoloReplayPlanner
        assert cls.wants_boundary_capture
    assert SenderLoggingProtocol.name == "sender-logging"
    assert CausalLoggingProtocol.name == "causal-logging"


# ---------------------------------------------------------------------------
# independent checkpoints through the harness
# ---------------------------------------------------------------------------

def test_log_take_checkpoints_locally_with_channel_state():
    h = CrHarness(nranks=2, protocol="sender-logging")
    h.run_app(_app_exchange)
    proto = h.protocols[0]
    ev = proto.request_checkpoint()
    h.run(until=h.engine.now + 2.0)
    assert ev.triggered
    assert h.store.versions_of("testapp", 0) == [0]
    rec = h.store.peek("testapp", 0, 0)
    assert rec.mpi_state["sent_count"] == {1: 2}
    assert "comm_seqs" in rec.mpi_state
    # No coordination: rank 1 did not checkpoint.
    assert h.store.versions_of("testapp", 1) == []


# ---------------------------------------------------------------------------
# end to end: crash one rank's node, watch it restart alone
# ---------------------------------------------------------------------------

def _solo_run(protocol, crash=True):
    from repro.apps.jacobi import Jacobi1D
    from repro.core.appspec import AppSpec, CheckpointConfig
    from repro.core.policies import FaultPolicy
    from repro.core.starfish import StarfishCluster

    sf = StarfishCluster.build(nodes=5, seed=7)
    # Pessimistic logging charges a disk write per send, stretching each
    # iteration ~20x in simulated time; size the workload so every
    # protocol is still mid-run when the crash lands at rank 1's first
    # committed checkpoint (~t=0.2).
    iterations = 120 if protocol == "sender-logging" else 400
    spec = AppSpec(
        program=Jacobi1D, nprocs=4,
        params=dict(n=256, iterations=iterations, iters_per_step=10,
                    compute_ns_per_cell=30000),
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol=protocol, level="native",
                                    interval=0.15))
    handle = sf.submit(spec)
    if crash:
        # Crash rank 1's node as soon as it has a committed checkpoint.
        while not sf.store.versions_of(handle.app_id, 1):
            sf.engine.run(until=sf.engine.now + 0.05)
            assert sf.engine.now < 10.0, "no rank-1 checkpoint"
        victim = handle._record().placement[1]
        sf.crash_node(victim)
    results = sf.run_to_completion(handle, timeout=120.0)
    restarted = sf.engine.metrics.group_by("daemon.ranks_restarted", "app")
    return results, handle.restarts, restarted.get(handle.app_id, 0)


@pytest.mark.parametrize("protocol", ["sender-logging", "causal-logging"])
def test_solo_restart_end_to_end(protocol):
    golden, restarts, _ = _solo_run(protocol, crash=False)
    results, restarts, ranks_restarted = _solo_run(protocol)
    assert restarts == 1
    # THE point of message logging: only the crashed rank was respawned.
    assert ranks_restarted == 1
    assert results == golden                     # replay reconverged


def test_uncoordinated_crash_restarts_more_than_one_rank():
    # Same workload and crash under the dependency-rollback planner: the
    # recovery line restarts every rank (no sender logs to replay from).
    _results, restarts, ranks_restarted = _solo_run("uncoordinated")
    assert restarts >= 1
    assert ranks_restarted >= 2
