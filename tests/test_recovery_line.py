"""Recovery-line computation on the rollback-dependency graph."""

import pytest

from repro.ckpt import DependencyGraph, compute_recovery_line
from repro.errors import RecoveryLineError


def test_no_messages_latest_checkpoints():
    g = DependencyGraph([0, 1])
    g.record_checkpoint(0)   # ckpt 0 of rank 0
    g.record_checkpoint(1)
    line = compute_recovery_line(g, failed=[0])
    assert line.cut[0] == 0          # failed rank: last stored ckpt
    assert line.cut[1] == 1          # survivor: live state (index 1 == live)
    assert line.discarded_intervals == 0


def test_orphan_message_rolls_back_receiver():
    # rank0 checkpoints, then sends m in interval 1; rank1 receives m in
    # interval 0 and then checkpoints.  rank0 fails -> resumes interval 1,
    # m is re-sent eventually, fine.  But if rank0 had NOT checkpointed,
    # m becomes an orphan and rank1's checkpoint is useless.
    g = DependencyGraph([0, 1])
    # rank0: no checkpoint; sends in interval 0.
    g.record_message(sender=0, send_interval=0, receiver=1, recv_interval=0)
    g.record_checkpoint(1)           # rank1 ckpt 0 (captures the receive)
    line = compute_recovery_line(g, failed=[0])
    # rank0 restarts from scratch; rank1's ckpt 0 contains an orphan
    # receive, so rank1 rolls back to initial state too.
    assert line.cut[0] == -1
    assert line.cut[1] == -1
    assert line.is_initial


def test_consistent_checkpoint_survives():
    g = DependencyGraph([0, 1])
    g.record_message(0, 0, 1, 0)     # sent & received in interval 0
    g.record_checkpoint(0)           # both checkpoint AFTER the exchange
    g.record_checkpoint(1)
    line = compute_recovery_line(g, failed=[0])
    assert line.cut == {0: 0, 1: 1}  # rank1 keeps running (live = index 1)


def test_domino_effect_cascades():
    # The classic zig-zag: each checkpoint is invalidated by a message
    # received before it that was sent after the peer's checkpoint.
    g = DependencyGraph([0, 1])
    for k in range(3):
        # Every checkpoint is taken right after receiving a message the
        # peer sent from *its* post-checkpoint interval: rolling back any
        # checkpoint orphans the receive captured by the previous one.
        g.record_message(1, k, 0, k)           # recv before rank0's ckpt k
        g.record_checkpoint(0)                 # ckpt k of rank 0
        g.record_message(0, k + 1, 1, k)       # sent after 0's ckpt
        g.record_checkpoint(1)                 # ckpt k of rank 1
    line = compute_recovery_line(g, failed=[0])
    # Every checkpoint is orphaned in turn: full domino.
    assert line.is_initial
    with pytest.raises(RecoveryLineError):
        compute_recovery_line(g, failed=[0], allow_initial=False)


def test_partial_rollback_stops_at_consistent_pair():
    g = DependencyGraph([0, 1])
    # Consistent pair of checkpoints (no cross messages around them).
    g.record_checkpoint(0)     # ckpt 0
    g.record_checkpoint(1)     # ckpt 0
    # Then a zig-zag that invalidates everything after.
    g.record_checkpoint(0)                  # ckpt 1 of rank 0
    g.record_message(0, 2, 1, 1)
    g.record_checkpoint(1)                  # ckpt 1 of rank 1
    g.record_message(1, 2, 0, 2)
    line = compute_recovery_line(g, failed=[0])
    # rank0 resumes from ckpt 1 (its interval-2 receive is discarded with
    # the rolled-back execution); the zig-zag forces rank1 back to ckpt 0.
    assert line.cut == {0: 1, 1: 0}
    assert not line.is_initial


def test_survivors_not_rolled_back_without_orphans():
    g = DependencyGraph([0, 1, 2])
    for r in (0, 1, 2):
        g.record_checkpoint(r)
    # Messages all sent & received in old intervals (before checkpoints).
    g.record_message(0, 0, 1, 0)
    g.record_message(1, 0, 2, 0)
    line = compute_recovery_line(g, failed=[2])
    assert line.cut[0] == 1  # live
    assert line.cut[1] == 1  # live
    assert line.cut[2] == 0  # restored from its checkpoint


def test_transitive_rollback_propagation():
    g = DependencyGraph([0, 1, 2])
    # 0 sends (interval 0) to 1; 1 checkpoints; 1 sends (interval 1) to 2;
    # 2 checkpoints.  0 fails with no checkpoint:
    #  -> 1 rolls to initial (orphan from 0)
    #  -> 2's checkpoint recorded a receive sent in 1's interval 1,
    #     which is now rolled back, so 2 rolls to initial too.
    g.record_message(0, 0, 1, 0)
    g.record_checkpoint(1)
    g.record_message(1, 1, 2, 0)
    g.record_checkpoint(2)
    line = compute_recovery_line(g, failed=[0])
    assert line.cut == {0: -1, 1: -1, 2: -1}


def test_multiple_failures():
    g = DependencyGraph([0, 1, 2])
    for r in (0, 1, 2):
        g.record_checkpoint(r)
    line = compute_recovery_line(g, failed=[0, 2])
    assert line.cut[0] == 0
    assert line.cut[2] == 0
    assert line.cut[1] == 1  # live


def test_discarded_intervals_counts_lost_work():
    g = DependencyGraph([0, 1])
    g.record_checkpoint(0)
    g.record_checkpoint(0)   # rank 0 has 2 ckpts, current interval 2
    g.record_checkpoint(1)
    # Orphan: rank1 received (interval 0) a message rank0 sent in
    # interval 2 (after its last checkpoint).
    g.record_message(0, 2, 1, 0)
    g.record_checkpoint(1)   # ckpt 1 of rank 1 captures the orphan receive
    line = compute_recovery_line(g, failed=[0])
    # rank0 -> ckpt 1 (resume interval 2); the message it sent in interval
    # 2 is unsent now; rank1 received it in interval 0, so rank1 rolls all
    # the way to initial state.
    assert line.cut[0] == 1
    assert line.cut[1] == -1
    assert line.discarded_intervals == 3  # rank1 lost intervals 0,1,2(live)


# ---------------------------------------------------------------------------
# replica loss: unreachable checkpoints truncate a rank's usable prefix
# (uncoordinated protocol over the replicated store — satellite of the
# repro.store PR; the daemon feeds compute_recovery_line a ckpt_count cut
# down to the restorable prefix, which can domino OTHER ranks further back)
# ---------------------------------------------------------------------------

def test_truncated_prefix_dominoes_the_peer():
    # rank0: ckpts 0 and 1; it sent a message in interval 1 (after ckpt 0,
    # before ckpt 1) that rank1 received and captured in its ckpt 0.
    def graph():
        g = DependencyGraph([0, 1])
        g.record_checkpoint(0)                 # rank0 ckpt 0
        g.record_message(0, 1, 1, 0)           # sent interval 1, recv by 1
        g.record_checkpoint(0)                 # rank0 ckpt 1
        g.record_checkpoint(1)                 # rank1 ckpt 0
        return g

    # All replicas reachable: rank0 resumes after ckpt 1 — the interval-1
    # send is inside it, nothing is orphaned, rank1 keeps its checkpoint.
    line = compute_recovery_line(graph(), failed=[0, 1])
    assert line.cut == {0: 1, 1: 0}

    # Replica loss eats rank0's ckpt 1: the daemon truncates the usable
    # prefix exactly like this, and the SAME dependency log now dominoes —
    # rank0 re-executes interval 1, its message becomes unsent, and the
    # receive captured by rank1's ckpt 0 is an orphan.
    g = graph()
    g.ckpt_count[0] = 1
    line = compute_recovery_line(g, failed=[0, 1])
    assert line.cut == {0: 0, 1: -1}
    assert line.discarded_intervals > 0


def test_hole_in_versions_truncates_not_filters():
    # A reachable checkpoint AFTER an unreachable one must not be used:
    # its interval numbering depends on the missing predecessor, so only
    # the contiguous restorable prefix can anchor a rollback.  Losing the
    # middle checkpoint costs the tail too.
    g = DependencyGraph([0, 1])
    for _ in range(3):
        g.record_checkpoint(0)
    g.record_checkpoint(1)
    g.ckpt_count[0] = 1              # v2 unreachable: v3 is unusable too
    line = compute_recovery_line(g, failed=[0])
    assert line.cut[0] == 0


def test_uncoordinated_restore_truncates_at_unreachable_replicas():
    """End to end through the daemon: the recovery line falls back (and
    dominoes) when a checkpoint's every replica is gone."""
    from repro.apps import ComputeSleep
    from repro.ckpt.restart import plan_restart
    from repro.store import CheckpointRecord
    from repro.cluster.spec import ClusterSpec
    from repro.core import StarfishCluster
    from repro.daemon.registry import AppRecord

    sf = StarfishCluster.build(spec=ClusterSpec(nodes=5, seed=0,
                                                replication_factor=2))
    store, engine, cluster = sf.store, sf.engine, sf.cluster

    def put(rank, node_id, version, deps=()):
        rec = CheckpointRecord(
            app_id="app", rank=rank, version=version, level="vm",
            nbytes=1000, image=b"s", arch_name="sparc-sunos",
            taken_at=engine.now, deps=list(deps))
        engine.process(store.write(cluster.nodes[node_id], rec))
        engine.run(until=engine.now + 0.5)   # daemons never go idle

    put(0, "n0", 1)
    put(1, "n1", 1, deps=[(0, 1, 0)])     # recv of rank0's interval-1 send
    # rank0's v2 replica target (ring successor n1) is cut off during the
    # dump: v2 lands with a single copy on n0.
    cluster.myrinet.set_partition(["n0", "n2", "n3", "n4"], ["n1"])
    put(0, "n0", 2)
    cluster.myrinet.clear_partition()
    assert store.peek("app", 0, 2).all_holders() == ["n0"]

    record = AppRecord(
        app_id="app", nprocs=2, placement={0: "n0", 1: "n1"}, spec=dict(
            owner="t", program=ComputeSleep, params={}, ft_policy="restart",
            ckpt_protocol="uncoordinated", ckpt_level="vm",
            ckpt_interval=None, transport="bip-myrinet", polling=True))
    daemon = sf.daemons["n2"]

    def plan():
        return plan_restart(daemon._restart_inputs(record, [0, 1], {}))

    assert plan().line == {0: 1, 1: 0}           # intact: latest ckpts

    # Crash the only holder of v2 (v1 survives on its n1 replica): rank0's
    # usable prefix shrinks to [v1] and the dependency log dominoes rank1
    # all the way back to initial state.
    cluster.crash_node("n0")
    assert plan().line == {0: 0, 1: None}
    assert store.versions_of("app", 1) == [1]    # a stored version discarded


# -- departed / dynamic ranks ---------------------------------------------


def test_departed_sender_orphans_the_receiver():
    """A rank absent from the cut (departed dynamic rank) never
    re-executes, so any message received from it is unconditionally an
    orphan: the receiver must roll back to before the receive.  (The
    pre-fix code silently *skipped* such dependencies, keeping a
    checkpoint that captures a receive no surviving rank can re-send.)"""
    g = DependencyGraph([0, 1])
    # Rank 2 departed: not in the graph's ranks, but a message it sent in
    # its interval 0 is captured by rank 1's first checkpoint.
    g.record_message(sender=2, send_interval=0, receiver=1, recv_interval=0)
    g.record_checkpoint(1)
    line = compute_recovery_line(g, failed=[0])
    assert line.cut[1] == -1      # the orphan receive invalidates ckpt 0


def test_departed_sender_dominoes_transitively():
    """The departed-sender rollback propagates like any other orphan."""
    g = DependencyGraph([0, 1])
    g.record_message(2, 0, 1, 0)   # departed rank 2 -> rank 1, interval 0
    g.record_checkpoint(1)         # rank1 ckpt 0 captures that receive
    g.record_message(1, 1, 0, 0)   # rank1 sends post-ckpt -> rank 0
    g.record_checkpoint(0)         # rank0 ckpt 0 captures *that* receive
    line = compute_recovery_line(g, failed=[1])
    # rank1 rolls to before its receive from the departed rank; its
    # interval-1 send becomes an orphan in turn, dominoing rank0.
    assert line.cut == {0: -1, 1: -1}
    assert line.is_initial


def test_departed_receiver_dep_is_inert():
    """A dependency whose *receiver* departed rolls back nobody — there
    is no state left to make inconsistent."""
    g = DependencyGraph([0, 1])
    g.record_checkpoint(0)
    g.record_checkpoint(1)
    g.record_message(sender=0, send_interval=0, receiver=7, recv_interval=0)
    line = compute_recovery_line(g, failed=[0])
    assert line.cut == {0: 0, 1: 1}


def test_departed_sender_with_receiver_already_rolled_back_is_stable():
    """If the receiver is already at/below the receive interval the
    departed-sender rule changes nothing (no infinite re-lowering)."""
    g = DependencyGraph([0, 1])
    g.record_message(2, 3, 1, 1)
    g.record_checkpoint(1)
    line = compute_recovery_line(g, failed=[1])
    # Failed rank1 resumes from its stored checkpoint (x=1); the receive
    # happened in interval 1, which that checkpoint does *not* capture
    # (1 <= 1 is no orphan), so the cut keeps the stored checkpoint.
    assert line.cut[1] == 0
