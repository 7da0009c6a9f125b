"""The restart decision over every input, without a simulator.

:func:`~repro.ckpt.restart.plan_restart` is pure, so a property test can
walk the decision inputs directly at 3-4 nodes: the placement, which
nodes died (or which rank a migration moves), the protocol's restart
mode, ``replicas``, the stored and committed versions, the checkpoint
level and each node's representation.  The inputs respect what the
daemon guarantees before it asks: a lost rank's node is dead or it is
the migrated rank, and a migration's target is live.  Backup copies on
dead nodes are left in (the daemon prunes them at the view change, but
the plan must not depend on it).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt.restart import (RestartInputs, RestartMode, StoredVersion,
                                plan_restart, restart_coordinator)
from repro.cluster.arch import arch_by_name
from repro.errors import PlacementError
from repro.gcs.endpoint import EndpointId

LINUX = arch_by_name("Intel P-II 350 MHz, i686")
SUN = arch_by_name("Sun Ultra Enterprise 3000")
MODES = [None, *RestartMode]


@st.composite
def decisions(draw):
    """One restart decision's inputs, as the coordinator would read them."""
    nodes = [f"n{i}" for i in range(draw(st.integers(3, 4)))]
    nranks = draw(st.integers(1, 4))
    placement = {r: draw(st.sampled_from(nodes)) for r in range(nranks)}
    mode = draw(st.sampled_from(MODES))
    replicas = {}
    if mode is RestartMode.FAILOVER:
        k = draw(st.integers(1, 3))
        for rank, primary in placement.items():
            others = [n for n in nodes if n != primary]
            backups = draw(st.permutations(others))[:k - 1]
            if backups:
                replicas[rank] = tuple(backups)
    migrate = draw(st.booleans()) and mode is not RestartMode.FAILOVER
    if migrate:
        # A migration: every node lives, one rank moves to another one.
        dead = set()
        rank = draw(st.sampled_from(sorted(placement)))
        target = draw(st.sampled_from(
            [n for n in nodes if n != placement[rank]]))
        lost, moves = (rank,), {rank: target}
    else:
        hosts = sorted(set(placement.values()))
        dead = set(draw(st.lists(st.sampled_from(hosts), min_size=1,
                                 unique=True)))
        if dead >= set(nodes):
            dead.discard(draw(st.sampled_from(sorted(dead))))
        lost = tuple(r for r, n in sorted(placement.items()) if n in dead)
        moves = {}
    alive = frozenset(n for n in nodes if n not in dead)
    archs = {n: draw(st.sampled_from([LINUX, SUN])) for n in nodes}
    stored = {}
    for rank in placement:
        if mode is RestartMode.UNCOORDINATED:
            # Independent checkpoints are numbered by the rank's
            # checkpoint index: 0, 1, 2, ...
            versions = range(draw(st.integers(0, 4)))
        else:
            versions = draw(st.lists(st.integers(0, 4), unique=True,
                                     max_size=4))
        stored[rank] = tuple(
            StoredVersion(v, draw(st.booleans()),
                          draw(st.sampled_from([LINUX, SUN])).name,
                          tuple(draw(st.lists(st.tuples(
                              st.sampled_from(sorted(placement)),
                              st.integers(0, 4), st.integers(0, 4)),
                              max_size=3))))
            for v in sorted(versions))
    committed = tuple(sorted(draw(st.lists(st.integers(0, 4), unique=True,
                                           max_size=3))))
    disabled = set(draw(st.lists(st.sampled_from(sorted(alive)),
                                 unique=True, max_size=1)))
    load = {n: sum(1 for p in placement.values() if p == n)
            for n in sorted(alive) if n not in disabled}
    return RestartInputs(
        mode=mode, lost=lost, alive=alive, placement=placement, moves=moves,
        replicas=replicas, level=draw(st.sampled_from(["vm", "native"])),
        world_version=draw(st.integers(0, 3)), stored=stored,
        committed=committed, load=load, archs=archs)


def _plan(inputs):
    """The plan, or ``None`` when no schedulable node can take a lost rank
    (``PlacementError``: only ever for that reason)."""
    try:
        return plan_restart(inputs)
    except PlacementError:
        assert inputs.level == "native" or not inputs.load
        return None


@settings(max_examples=150, deadline=None)
@given(decisions())
def test_every_rank_lands_on_a_live_node(inputs):
    plan = _plan(inputs)
    if plan is None:
        return
    assert sorted(plan.placement) == sorted(inputs.placement)
    for rank, node in plan.placement.items():
        assert node in inputs.alive, (rank, node)
    for rank in inputs.lost:
        # A lost rank goes where a migration names, to a promoted copy's
        # node, or to a schedulable node.
        if rank in inputs.moves:
            assert plan.placement[rank] == inputs.moves[rank]
        elif rank not in plan.promote:
            assert plan.placement[rank] in inputs.load


@settings(max_examples=150, deadline=None)
@given(decisions())
def test_a_promotion_goes_only_to_a_live_backup(inputs):
    plan = _plan(inputs)
    if plan is None:
        return
    for rank, node in plan.promote.items():
        assert node in inputs.alive
        assert node in inputs.replicas.get(rank, ())
        assert rank in inputs.lost
    if plan.promote:
        assert sorted(plan.promote) == sorted(inputs.lost)
        for rank, backups in plan.replicas.items():
            assert plan.placement[rank] not in backups
            assert set(backups) <= inputs.alive


@settings(max_examples=150, deadline=None)
@given(decisions())
def test_hosting_covers_placement_and_backups(inputs):
    plan = _plan(inputs)
    if plan is None:
        return
    assert set(plan.placement.values()) <= plan.hosting
    for backups in plan.replicas.values():
        assert set(backups) <= plan.hosting


@settings(max_examples=150, deadline=None)
@given(decisions())
def test_world_is_bumped_iff_the_plan_is_a_rollback(inputs):
    plan = _plan(inputs)
    if plan is None:
        return
    # A rollback respawns every rank; a solo plan only lost ones (none
    # under a failover) and leaves the survivors in their world.
    rollback = set(plan.line) == set(inputs.placement) \
        and not plan.mode.solo
    assert rollback or set(plan.line) <= set(inputs.lost)
    assert (plan.world_version == inputs.world_version + 1) == rollback
    assert plan.world_version in (inputs.world_version,
                                  inputs.world_version + 1)


@settings(max_examples=150, deadline=None)
@given(decisions())
def test_a_line_names_only_restorable_versions(inputs):
    plan = _plan(inputs)
    if plan is None:
        return
    for rank, version in plan.line.items():
        if version is not None:
            assert any(s.version == version and s.usable
                       for s in inputs.stored[rank])
    if plan.mode is RestartMode.COORDINATED:
        versions = set(plan.line.values())
        assert len(versions) == 1
        assert versions <= set(inputs.committed) | {None}


@settings(max_examples=150, deadline=None)
@given(decisions(), st.data())
def test_exactly_one_live_coordinator_is_chosen(inputs, data):
    # The view's members: one daemon per live node, plus perhaps a
    # recovered node's new daemon beside its old life.
    members = [EndpointId(n, "dmn", 0) for n in sorted(inputs.alive)]
    if data.draw(st.booleans()):
        members.append(EndpointId(data.draw(st.sampled_from(
            sorted(inputs.alive))), "dmn", 1))
    chosen = [m for m in members if restart_coordinator(
        members, inputs.placement, inputs.alive) == m]
    assert len(chosen) == 1
    hosts = set(inputs.placement.values()) & inputs.alive
    if hosts:
        # It hosts a surviving rank, so it knows the app's state first.
        assert chosen[0].node in hosts


@pytest.mark.xfail(strict=True, reason="red cell (d): the k-exhausted "
                   "fallback keeps the replica map and may place a lost "
                   "rank on its own backup's node")
def test_no_rank_restarts_beside_its_own_backup():
    # replicas=2 on 5 nodes: n1 died and rank 1 was promoted onto n2, its
    # backup's node; now n2 dies too.  Rank 1 has no copy left, so every
    # rank restarts from the initial state, and rank 2 is placed on n3,
    # where its backup already runs.  The daemon keys handles by (app,
    # rank): the backup replaces the primary, which never reports.
    plan = plan_restart(RestartInputs(
        mode=RestartMode.FAILOVER, lost=(1, 2),
        alive=frozenset({"n0", "n3", "n4"}),
        placement={0: "n0", 1: "n2", 2: "n2"}, replicas={2: ("n3",)},
        load={"n0": 1, "n3": 0, "n4": 0}))
    for rank, node in plan.placement.items():
        assert node not in plan.replicas.get(rank, ()), (rank, node)
