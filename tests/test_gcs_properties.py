"""Property-based tests of the group-communication guarantees.

Hypothesis drives randomized schedules of casts and crashes; the virtual
synchrony invariants must hold on every schedule:

* total order (common-prefix property) among survivors,
* FIFO per sender,
* no duplicate deliveries,
* survivors converge to the same final view,
* a surviving sender's casts are eventually delivered everywhere.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import CrashNode

from tests.gcs_helpers import Harness, assert_common_prefix

# Schedules: a list of actions; each action is either
#   ("cast", sender_idx, tag)   or   ("crash", node_idx, at_time)
action = st.one_of(
    st.tuples(st.just("cast"), st.integers(0, 3), st.integers(0, 99)),
    st.tuples(st.just("crash"), st.integers(1, 3)),  # never crash n0
)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(actions=st.lists(action, min_size=1, max_size=12),
       seed=st.integers(0, 2**16))
def test_invariants_under_random_schedules(actions, seed):
    h = Harness(nodes=4, seed=seed)
    h.boot_all()
    h.run(until=2.0)

    crashed = set()
    sent = {nid: [] for nid in h.members}
    t = 2.0
    for act in actions:
        if act[0] == "cast":
            _, sender_idx, tag = act
            nid = f"n{sender_idx}"
            if nid in crashed:
                continue
            payload = (nid, len(sent[nid]), tag)
            sent[nid].append(payload)
            h.members[nid].cast(payload)
            t += 0.01
            h.run(until=t)
        else:
            _, node_idx = act
            nid = f"n{node_idx}"
            if nid in crashed or len(crashed) >= 2:
                continue  # keep at least two nodes alive
            crashed.add(nid)
            h.cluster.crash_node(nid)
            t += 0.3
            h.run(until=t)

    h.run(until=t + 6.0)
    survivors = [nid for nid in h.members if nid not in crashed]

    # 1. Convergence: all survivors agree on the final view.
    views = {tuple(h.member_ids(nid)) for nid in survivors}
    assert len(views) == 1
    assert set(views.pop()) == set(survivors)

    # 2. Total order among survivors.
    seqs = [h.casts(nid) for nid in survivors]
    assert_common_prefix(seqs)
    # All survivors actually delivered the same *complete* set.
    lens = {len(s) for s in seqs}
    assert len(lens) == 1

    # 3. FIFO per sender + completeness for surviving senders.
    reference = seqs[0]
    for nid in survivors:
        mine = [p for p in reference if p[0] == nid]
        assert mine == sent[nid], f"sender {nid} messages lost or reordered"

    # 4. No duplicates.
    for nid in survivors:
        assert h.engine.metrics.value("gcs.duplicates", node=nid) == 0
        assert len(set(seqs[0])) == len(seqs[0])


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n_casts=st.integers(1, 15), crash_after=st.integers(0, 14),
       seed=st.integers(0, 2**16))
def test_sender_crash_mid_burst_consistency(n_casts, crash_after, seed):
    """A crashing sender's delivered messages form a FIFO prefix of what it
    sent, identical at all survivors (no partial/duplicated tail)."""
    h = Harness(nodes=3, seed=seed)
    h.boot_all()
    h.run(until=2.0)

    def burst():
        for i in range(n_casts):
            h.members["n2"].cast(("b", i))
            yield h.engine.timeout(0.002)

    h.engine.process(burst())
    h.cluster.faults.at(2.0 + 0.002 * crash_after + 0.001,
                        CrashNode(node="n2"))
    h.run(until=8.0)

    seq0 = [p for p in h.casts("n0") if isinstance(p, tuple)]
    seq1 = [p for p in h.casts("n1") if isinstance(p, tuple)]
    assert seq0 == seq1
    # FIFO prefix of the sender's stream.
    assert seq0 == [("b", i) for i in range(len(seq0))]
    assert len(seq0) <= n_casts
