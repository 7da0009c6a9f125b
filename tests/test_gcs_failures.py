"""Group communication under crashes, partitions, joins, and merges."""

import pytest

from repro.faults import CrashNode
from repro.gcs import GcsConfig, GroupMember

from tests.gcs_helpers import Harness, assert_common_prefix


def test_member_crash_triggers_new_view():
    h = Harness(nodes=4)
    h.boot_all()
    h.run(until=2.0)
    h.cluster.crash_node("n3")
    h.run(until=4.0)
    for nid in ("n0", "n1", "n2"):
        assert h.member_ids(nid) == ["n0", "n1", "n2"], nid
    # Survivors agree on the epoch.
    assert len({h.last_view(nid).epoch for nid in ("n0", "n1", "n2")}) == 1


def test_coordinator_crash_elects_new_coordinator():
    h = Harness(nodes=4)
    h.boot_all()
    h.run(until=2.0)
    coord = [gm for gm in h.members.values() if gm.is_coordinator][0]
    coord_node = coord.endpoint.node
    h.cluster.crash_node(coord_node)
    h.run(until=5.0)
    survivors = [nid for nid in h.members if nid != coord_node]
    for nid in survivors:
        assert h.member_ids(nid) == sorted(survivors), nid
    new_coords = [nid for nid in survivors if h.members[nid].is_coordinator]
    assert len(new_coords) == 1
    assert new_coords[0] != coord_node


def test_casting_resumes_after_member_crash():
    h = Harness(nodes=3)
    h.boot_all()
    h.run(until=2.0)
    h.cluster.crash_node("n2")
    h.run(until=4.0)
    h.members["n0"].cast("after-crash")
    h.run(until=5.0)
    assert "after-crash" in h.casts("n0")
    assert "after-crash" in h.casts("n1")


def test_cast_concurrent_with_crash_not_lost_for_survivors():
    # n1 casts a burst right as n2 dies; survivors must deliver all of
    # n1's messages exactly once, in FIFO order.
    h = Harness(nodes=3)
    h.boot_all()
    h.run(until=2.0)

    def burster():
        for i in range(10):
            h.members["n1"].cast(("burst", i))
            yield h.engine.timeout(0.001)

    h.engine.process(burster())
    h.cluster.faults.at(2.004, CrashNode(node="n2"))
    h.run(until=6.0)
    for nid in ("n0", "n1"):
        bursts = [p for p in h.casts(nid) if isinstance(p, tuple)]
        assert bursts == [("burst", i) for i in range(10)], nid
        assert h.engine.metrics.value("gcs.duplicates", node=nid) == 0


def test_virtual_synchrony_same_messages_before_view_change():
    # All co-transitioning members deliver the same set in the old view:
    # compare the per-view delivery logs around a crash.
    h = Harness(nodes=4)
    h.boot_all()
    h.run(until=2.0)
    for i in range(6):
        h.members["n0"].cast(("pre", i))
    h.cluster.faults.at(2.02, CrashNode(node="n3"))
    h.run(until=5.0)
    for i in range(3):
        h.members["n1"].cast(("post", i))
    h.run(until=7.0)
    survivors = ("n0", "n1", "n2")
    seqs = [h.casts(nid) for nid in survivors]
    assert_common_prefix(seqs)
    for s in seqs:
        assert len(s) == 9  # nothing lost, nothing duplicated


def test_join_after_group_is_running():
    h = Harness(nodes=3)
    h.boot_all()
    h.run(until=2.0)
    # Add a brand-new node and member late.
    node = h.cluster.add_node("n9")
    gm = GroupMember(h.engine, node, config=h.cfg)
    h.members["n9"] = gm
    h.log["n9"] = []
    node.spawn(h._recorder("n9", gm))
    gm.start(contact=h.members["n0"].endpoint)
    h.run(until=4.0)
    for nid in h.members:
        assert h.member_ids(nid) == ["n0", "n1", "n2", "n9"], nid


def test_crashed_node_recovers_and_rejoins_with_new_incarnation():
    h = Harness(nodes=3)
    h.boot_all()
    h.run(until=2.0)
    old_ep = h.members["n2"].endpoint
    h.cluster.crash_node("n2")
    h.run(until=4.0)
    node = h.cluster.recover_node("n2")
    gm = GroupMember(h.engine, node, config=h.cfg)
    h.members["n2b"] = gm
    h.log["n2b"] = []
    node.spawn(h._recorder("n2b", gm))
    gm.start(contact=h.members["n0"].endpoint)
    h.run(until=7.0)
    assert h.member_ids("n0") == ["n0", "n1", "n2"]
    view = h.last_view("n0")
    new_ep = view.member_on("n2")
    assert new_ep is not None and new_ep != old_ep
    assert new_ep.inc != old_ep.inc


def test_graceful_leave_shrinks_view():
    h = Harness(nodes=3)
    h.boot_all()
    h.run(until=2.0)
    h.members["n2"].leave()
    h.run(until=4.0)
    for nid in ("n0", "n1"):
        assert h.member_ids(nid) == ["n0", "n1"], nid


def test_coordinator_graceful_leave():
    h = Harness(nodes=3)
    h.boot_all()
    h.run(until=2.0)
    coord_node = [nid for nid, gm in h.members.items()
                  if gm.is_coordinator][0]
    h.members[coord_node].leave()
    h.run(until=5.0)
    rest = sorted(nid for nid in h.members if nid != coord_node)
    for nid in rest:
        assert h.member_ids(nid) == rest, nid


@pytest.mark.parametrize("leaver", ["n2", "n0"])
def test_graceful_leave_is_announced_not_suspected(leaver):
    # The Leave frame is posted to the NIC before stop() and still goes
    # out (socket-buffer semantics), so the view shrinks through
    # _on_leave's flush well before the leaver could have been suspected.
    h = Harness(nodes=3)
    h.boot_all()
    h.run(until=2.0)
    rest = sorted(nid for nid in h.members if nid != leaver)
    successor = rest[0]     # the coordinator, or its designated successor
    assert h.members[leaver].is_coordinator == (leaver == "n0")
    flushes = h.engine.metrics.value("gcs.flushes", node=successor)
    h.members[leaver].leave()
    h.run(until=2.0 + h.cfg.suspect_timeout / 2)
    for nid in rest:
        assert h.member_ids(nid) == rest, nid
    assert h.engine.metrics.value("gcs.flushes",
                                  node=successor) == flushes + 1


def test_partition_forms_two_views():
    h = Harness(nodes=4)
    h.boot_all()
    h.run(until=2.0)
    h.cluster.ethernet.set_partition(["n0", "n1"], ["n2", "n3"])
    h.run(until=5.0)
    assert h.member_ids("n0") == ["n0", "n1"]
    assert h.member_ids("n1") == ["n0", "n1"]
    assert h.member_ids("n2") == ["n2", "n3"]
    assert h.member_ids("n3") == ["n2", "n3"]
    # Each side still works.
    h.members["n0"].cast("left-side")
    h.members["n2"].cast("right-side")
    h.run(until=6.0)
    assert "left-side" in h.casts("n1")
    assert "left-side" not in h.casts("n2")
    assert "right-side" in h.casts("n3")


def test_partition_heal_merges_views():
    h = Harness(nodes=4)
    h.boot_all()
    h.run(until=2.0)
    h.cluster.ethernet.set_partition(["n0", "n1"], ["n2", "n3"])
    h.run(until=5.0)
    h.cluster.ethernet.clear_partition()
    h.run(until=12.0)
    for nid in h.members:
        assert h.member_ids(nid) == ["n0", "n1", "n2", "n3"], nid
    coords = [nid for nid, gm in h.members.items() if gm.is_coordinator]
    assert len(coords) == 1
    # The merged group still orders casts consistently.
    h.members["n0"].cast("merged-0")
    h.members["n3"].cast("merged-3")
    h.run(until=14.0)
    tails = [h.casts(nid)[-2:] for nid in h.members]
    assert all(t == tails[0] and len(t) == 2 for t in tails)


def test_two_simultaneous_crashes():
    h = Harness(nodes=5)
    h.boot_all()
    h.run(until=2.0)
    h.cluster.crash_node("n1")
    h.cluster.crash_node("n3")
    h.run(until=6.0)
    for nid in ("n0", "n2", "n4"):
        assert h.member_ids(nid) == ["n0", "n2", "n4"], nid


def test_cascading_crashes_leave_singleton():
    h = Harness(nodes=3)
    h.boot_all()
    h.run(until=2.0)
    h.cluster.faults.at(2.5, CrashNode(node="n0"))
    h.cluster.faults.at(3.5, CrashNode(node="n1"))
    h.run(until=7.0)
    assert h.member_ids("n2") == ["n2"]
    assert h.members["n2"].is_coordinator
    # And it still "works" as a group of one.
    h.members["n2"].cast("alone")
    h.run(until=8.0)
    assert "alone" in h.casts("n2")


def test_no_gossip_config_keeps_partitions_separate():
    h = Harness(nodes=2, config=GcsConfig(gossip=False))
    h.boot_all()
    h.run(until=2.0)
    h.cluster.ethernet.set_partition(["n0"], ["n1"])
    h.run(until=4.0)
    h.cluster.ethernet.clear_partition()
    h.run(until=8.0)
    # Without gossip the two singleton views never merge.
    assert h.member_ids("n0") == ["n0"]
    assert h.member_ids("n1") == ["n1"]


def test_reincarnated_member_ignores_frames_for_its_predecessor():
    # Frames addressed to a dead incarnation (retransmits queued while the
    # node was down) must not reach the recovered member on the same node:
    # accepting them poisons the per-sender reliable streams — the old
    # stream's sequence numbers shadow the new one's, and fresh sends get
    # acked away as "duplicates" without ever being delivered.
    h = Harness(nodes=3)
    h.boot_all()
    h.run(until=2.0)
    old_ep = h.members["n2"].endpoint
    h.cluster.crash_node("n2")
    h.run(until=4.0)
    node = h.cluster.recover_node("n2")
    gm = GroupMember(h.engine, node, config=h.cfg)
    h.members["n2b"] = gm
    h.log["n2b"] = []
    node.spawn(h._recorder("n2b", gm))
    gm.start(contact=h.members["n0"].endpoint)
    h.run(until=7.0)
    new_ep = h.last_view("n0").member_on("n2")
    assert new_ep.inc != old_ep.inc

    h.members["n0"].send(old_ep, "for-the-dead")     # must vanish
    h.members["n0"].send(new_ep, "for-the-living")
    h.run(until=10.0)
    p2p = [ev.payload for ev in h.log["n2b"]
           if type(ev).__name__ == "P2pEvent"]
    assert "for-the-living" in p2p
    assert "for-the-dead" not in p2p
