"""Lightweight groups: membership replication, scoped casts, failures."""

import pytest

from repro.errors import NotMember
from repro.gcs import GroupMember
from repro.lwg import LwgCast, LwgManager, LwgView
from repro.lwg.events import LwgP2p

from tests.gcs_helpers import Harness


class LwgHarness(Harness):
    """GCS harness plus one LwgManager per daemon, wired into its events."""

    def __init__(self, nodes=4, seed=0, config=None):
        super().__init__(nodes=nodes, seed=seed, config=config)
        self.lwg = {}
        self.lwg_log = {}
        for nid, gm in self.members.items():
            self.lwg[nid] = LwgManager(self.engine, gm)

    # Replace the plain recorder: route events through the lwg manager.
    def _recorder(self, node_id, gm):
        try:
            while True:
                ev = yield gm.events.get()
                if not self.lwg[node_id].on_main_event(ev):
                    self.log[node_id].append(ev)
        except Exception:
            return

    def watch(self, node_id: str, app_id: str):
        """Record the lwg upcalls for (node, app)."""
        ch = self.lwg[node_id].subscribe(app_id)
        self.lwg_log[(node_id, app_id)] = []

        def pump():
            try:
                while True:
                    ev = yield ch.get()
                    self.lwg_log[(node_id, app_id)].append(ev)
            except Exception:
                return

        self.cluster.node(node_id).spawn(pump())

    def lwg_casts(self, node_id, app_id):
        return [e.payload for e in self.lwg_log[(node_id, app_id)]
                if isinstance(e, LwgCast)]

    def lwg_views(self, node_id, app_id):
        return [e for e in self.lwg_log[(node_id, app_id)]
                if isinstance(e, LwgView)]


def booted(nodes=4, seed=0):
    h = LwgHarness(nodes=nodes, seed=seed)
    h.boot_all()
    h.run(until=2.0)
    return h


def eps(h, *nids):
    return tuple(h.members[n].endpoint for n in nids)


def test_create_replicates_membership_everywhere():
    h = booted()
    h.lwg["n0"].create("app1", eps(h, "n0", "n1", "n2"))
    h.run(until=3.0)
    for nid in h.members:  # even n3, which is not a member, knows the group
        got = {m.node for m in h.lwg[nid].members("app1")}
        assert got == {"n0", "n1", "n2"}, nid


def test_lwg_cast_scoped_to_members():
    h = booted()
    for nid in h.members:
        h.watch(nid, "app1")
    h.lwg["n0"].create("app1", eps(h, "n0", "n1", "n2"))
    h.run(until=3.0)
    h.lwg["n1"].cast("app1", {"op": "sync"})
    h.run(until=4.0)
    for nid in ("n0", "n1", "n2"):
        assert h.lwg_casts(nid, "app1") == [{"op": "sync"}], nid
    assert h.lwg_casts("n3", "app1") == []


def test_lwg_casts_totally_ordered():
    h = booted()
    for nid in ("n0", "n1", "n2"):
        h.watch(nid, "a")
    h.lwg["n0"].create("a", eps(h, "n0", "n1", "n2"))
    h.run(until=3.0)
    for nid in ("n0", "n1", "n2"):
        for i in range(4):
            h.lwg[nid].cast("a", (nid, i))
    h.run(until=5.0)
    seqs = [h.lwg_casts(nid, "a") for nid in ("n0", "n1", "n2")]
    assert all(len(s) == 12 for s in seqs)
    assert seqs[0] == seqs[1] == seqs[2]
    # FIFO per sender
    for nid in ("n0", "n1", "n2"):
        mine = [p for p in seqs[0] if p[0] == nid]
        assert mine == [(nid, i) for i in range(4)]


def test_cast_by_non_member_rejected():
    h = booted()
    h.lwg["n0"].create("a", eps(h, "n0", "n1"))
    h.run(until=3.0)
    with pytest.raises(NotMember):
        h.lwg["n3"].cast("a", "intruder")


def test_two_groups_are_independent():
    h = booted()
    for nid in h.members:
        h.watch(nid, "a")
        h.watch(nid, "b")
    h.lwg["n0"].create("a", eps(h, "n0", "n1"))
    h.lwg["n0"].create("b", eps(h, "n2", "n3"))
    h.run(until=3.0)
    h.lwg["n0"].cast("a", "for-a")
    h.lwg["n2"].cast("b", "for-b")
    h.run(until=4.0)
    assert h.lwg_casts("n1", "a") == ["for-a"]
    assert h.lwg_casts("n1", "b") == []
    assert h.lwg_casts("n3", "b") == ["for-b"]
    assert h.lwg_casts("n3", "a") == []


def test_join_and_leave():
    h = booted()
    for nid in h.members:
        h.watch(nid, "a")
    h.lwg["n0"].create("a", eps(h, "n0", "n1"))
    h.run(until=3.0)
    h.lwg["n3"].join("a")
    h.run(until=4.0)
    assert {m.node for m in h.lwg["n0"].members("a")} == {"n0", "n1", "n3"}
    h.lwg["n3"].cast("a", "newcomer")
    h.run(until=5.0)
    assert "newcomer" in h.lwg_casts("n0", "a")
    h.lwg["n1"].leave("a")
    h.run(until=6.0)
    assert {m.node for m in h.lwg["n0"].members("a")} == {"n0", "n3"}
    # The leaver saw its own departure as an LwgView.
    last = h.lwg_views("n1", "a")[-1]
    assert h.members["n1"].endpoint in last.left


def test_node_crash_shrinks_lightweight_group():
    # Paper fig. 2 semantics: a main-view change propagates to exactly the
    # lightweight groups containing the failed node.
    h = booted()
    for nid in ("n0", "n1", "n2"):
        h.watch(nid, "a")
    h.lwg["n0"].create("a", eps(h, "n0", "n1", "n2"))
    h.lwg["n0"].create("b", eps(h, "n0", "n1"))
    h.run(until=3.0)
    h.cluster.crash_node("n2")
    h.run(until=6.0)
    assert {m.node for m in h.lwg["n0"].members("a")} == {"n0", "n1"}
    assert {m.node for m in h.lwg["n0"].members("b")} == {"n0", "n1"}
    views = h.lwg_views("n0", "a")
    assert any(any(m.node == "n2" for m in v.left) for v in views)


def test_app_process_exit_changes_only_its_lwg():
    # An application process terminating on a node (daemon leaves the lwg)
    # must not disturb the main Starfish group or other lwgs.
    h = booted()
    h.lwg["n0"].create("a", eps(h, "n0", "n1", "n2"))
    h.lwg["n0"].create("b", eps(h, "n1", "n2"))
    h.run(until=3.0)
    main_views_before = len(h.views("n0"))
    h.lwg["n2"].leave("a")
    h.run(until=4.0)
    assert {m.node for m in h.lwg["n0"].members("a")} == {"n0", "n1"}
    assert {m.node for m in h.lwg["n0"].members("b")} == {"n1", "n2"}
    assert len(h.views("n0")) == main_views_before  # no main view change


def test_cast_concurrent_with_coordinator_crash_is_redelivered():
    h = booted()
    for nid in ("n1", "n2"):
        h.watch(nid, "a")
    h.lwg["n0"].create("a", eps(h, "n0", "n1", "n2"))
    h.run(until=3.0)
    # n0 is the lwg coordinator (lowest endpoint).  Cast from n2 and crash
    # n0 at the same instant: the re-send path must deliver it via the new
    # coordinator once membership shrinks.
    h.lwg["n2"].cast("a", "must-survive")
    h.cluster.crash_node("n0")
    h.run(until=8.0)
    assert h.lwg_casts("n1", "a") == ["must-survive"]
    assert h.lwg_casts("n2", "a") == ["must-survive"]


def test_destroy_group():
    h = booted()
    h.watch("n1", "a")
    h.lwg["n0"].create("a", eps(h, "n0", "n1"))
    h.run(until=3.0)
    h.lwg["n0"].destroy("a")
    h.run(until=4.0)
    assert h.lwg["n1"].members("a") == ()
    last = h.lwg_views("n1", "a")[-1]
    assert last.members == ()


def test_lwg_p2p_between_members():
    h = booted()
    h.watch("n1", "a")
    h.lwg["n0"].create("a", eps(h, "n0", "n1"))
    h.run(until=3.0)
    h.lwg["n0"].send("a", h.members["n1"].endpoint, "direct",
                     kind="checkpoint/restart")
    h.run(until=4.0)
    p2ps = [e for e in h.lwg_log[("n1", "a")] if isinstance(e, LwgP2p)]
    assert len(p2ps) == 1
    assert p2ps[0].payload == "direct"
    assert p2ps[0].kind == "checkpoint/restart"


def test_duplicate_create_ignored():
    h = booted()
    h.lwg["n0"].create("a", eps(h, "n0", "n1"))
    h.lwg["n1"].create("a", eps(h, "n2", "n3"))  # loses the total-order race
    h.run(until=3.0)
    # Whichever create was ordered first wins at *every* daemon identically.
    results = {nid: tuple(m.node for m in h.lwg[nid].members("a"))
               for nid in h.members}
    assert len(set(results.values())) == 1


# ---------------------------------------------------------------------------
# ordering epochs: gseq numbering restarts on every membership change, and
# the sequencer's direct sends are not ordered against the main group's
# total order — receivers must park traffic from changes they have not
# applied yet instead of dropping it (a dropped gseq wedges the stream)
# ---------------------------------------------------------------------------

def test_future_epoch_ord_parked_until_membership_catches_up():
    h = booted()
    h.lwg["n0"].create("app1", eps(h, "n0", "n1", "n2"))
    h.run(until=3.0)
    h.watch("n2", "app1")
    m2 = h.lwg["n2"]
    state = m2.groups["app1"]
    ep3 = h.members["n3"].endpoint
    # An ord sequenced under n3's join, arriving before n2 applies it.
    m2._receive_ordered(("lwg-ord", "app1", state.epoch + 1, 0, ep3, 0,
                         "hello", "coordination"))
    h.run(until=3.3)
    assert h.lwg_casts("n2", "app1") == []        # parked, not delivered
    m2._apply_op(("lwg-op", "join", "app1", ep3))
    h.run(until=3.6)
    assert h.lwg_casts("n2", "app1") == ["hello"]


def test_stale_epoch_ord_dropped_after_membership_change():
    h = booted()
    h.lwg["n0"].create("app1", eps(h, "n0", "n1", "n2"))
    h.run(until=3.0)
    h.watch("n2", "app1")
    m2 = h.lwg["n2"]
    old_epoch = m2.groups["app1"].epoch
    m2._apply_op(("lwg-op", "join", "app1", h.members["n3"].endpoint))
    ep0 = h.members["n0"].endpoint
    # A pre-change ord limping in late: its numbering is obsolete and its
    # payload was re-driven by the origin, so it must not deliver.
    m2._receive_ordered(("lwg-ord", "app1", old_epoch, 0, ep0, 7,
                         "stale", "coordination"))
    h.run(until=3.5)
    assert h.lwg_casts("n2", "app1") == []


def test_ord_before_replica_exists_is_parked_and_replayed():
    h = booted()
    m3 = h.lwg["n3"]
    h.watch("n3", "app1")
    ep0 = h.members["n0"].endpoint
    ep3 = h.members["n3"].endpoint
    # A joining daemon can receive group traffic before the state blob
    # that tells it the group exists (different senders, no mutual FIFO).
    m3._receive_ordered(("lwg-ord", "app1", 0, 0, ep0, 0, "early",
                         "coordination"))
    assert "app1" in m3._orphans
    m3._apply_op(("lwg-op", "create", "app1", (ep0, ep3)))
    h.run(until=2.5)
    assert h.lwg_casts("n3", "app1") == ["early"]


def test_sequencer_parks_data_from_not_yet_admitted_origin():
    h = booted()
    h.lwg["n0"].create("app1", eps(h, "n0", "n1"))
    h.run(until=3.0)
    h.watch("n0", "app1")
    m0 = h.lwg["n0"]                 # n0 is min(members): the sequencer
    ep2 = h.members["n2"].endpoint
    # ep2 applied its (totally ordered) join before the sequencer did and
    # is already casting; dropping would lose the message for good.
    m0._sequence(("lwg-data", "app1", ep2, 0, "fresh", "coordination",
                  0, 0))
    h.run(until=3.3)
    assert h.lwg_casts("n0", "app1") == []
    m0._apply_op(("lwg-op", "join", "app1", ep2))
    h.run(until=3.6)
    assert h.lwg_casts("n0", "app1") == ["fresh"]


def test_absorb_filters_dead_members_and_counts_the_epoch_bump():
    from repro.gcs.endpoint import EndpointId
    h = booted()
    m1 = h.lwg["n1"]
    ghost = EndpointId("nX", "daemon", 10 ** 6)   # not in any view
    live = h.members["n0"].endpoint
    m1.absorb({"appZ": ((live, ghost), 4)})
    state = m1.groups["appZ"]
    assert ghost not in state.members and live in state.members
    # The view that killed `ghost` bumps the epoch once on every old
    # replica; the absorbed copy must count the same bump.
    assert state.epoch == 5
