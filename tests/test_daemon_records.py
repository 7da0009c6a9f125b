"""The replicated application record (DESIGN §21's table).

Every daemon applies every application's main-group casts, hosting or not,
so after each apply every live daemon holds the same ``status``,
``placement``, ``restarts``, ``world_version``, ``replicas`` and spec.  The
spec is shared by reference and read-only; the containers a replica changes
are replaced, never written in place, so a write at one daemon cannot reach
another daemon's record.
"""

from collections import defaultdict

import pytest

from repro.apps import ComputeSleep
from repro.core import AppSpec, CheckpointConfig, FaultPolicy, StarfishCluster
from repro.daemon import AppStatus
from repro.daemon.registry import SPEC_FIELDS

APP = "rec"


def _view(record):
    """What every replica must agree on after an apply."""
    return (record.status, dict(record.placement), record.nprocs,
            record.restarts, record.world_version, dict(record.replicas),
            {name: (dict(record.params) if name == "params"
                    else getattr(record, name)) for name in SPEC_FIELDS})


def _watch_applies(sf):
    """Per node, ``(op, record view)`` after each ``app-*`` op applied
    there — for an op that waits (spawning), once it has finished."""
    seen = defaultdict(list)

    def watch(nid, daemon):
        apply = daemon._apply_op

        def note(op):
            record = daemon.registry.maybe(APP)
            seen[nid].append((op, None if record is None else _view(record)))

        def finished(op, waiting):
            yield from waiting
            note(op)

        def watched(payload, source):
            out = apply(payload, source)
            op = payload[0] if isinstance(payload, tuple) and payload \
                else None
            if not (isinstance(op, str) and op.startswith("app-")):
                return out
            if out is None:
                note(op)
                return None
            return finished(op, out)

        daemon._apply_op = watched

    for nid, daemon in sf.daemons.items():
        watch(nid, daemon)
    return seen


def _run_until(sf, cond, limit=30.0):
    deadline = sf.engine.now + limit
    while not cond():
        assert sf.engine.now < deadline, "condition never held"
        sf.engine.run(until=sf.engine.now + 0.01)


def test_every_daemon_holds_the_same_record_after_each_apply():
    # Six nodes; n0 (the main-group coordinator), n4 and n5 host nothing
    # at first.  Submit, a crash restart, a migration, a grow, done.
    sf = StarfishCluster.build(nodes=6)
    seen = _watch_applies(sf)
    handle = sf.submit(AppSpec(
        program=ComputeSleep, nprocs=3,
        params={"steps": 60, "step_time": 0.05},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="stop-and-sync", level="vm",
                                    interval=0.4),
        placement={0: "n1", 1: "n2", 2: "n3"}), app_id=APP)
    live = lambda: [d for d in sf.daemons.values() if d.node.is_up]   # noqa
    records = lambda: [d.registry.get(APP) for d in live()]           # noqa

    sf.engine.run(until=sf.engine.now + 0.9)
    sf.crash_node("n2")
    _run_until(sf, lambda: all(r.restarts == 1 and r.status
                               is AppStatus.RUNNING for r in records()))
    sf.engine.run(until=sf.engine.now + 0.5)
    sf.migrate(handle, rank=0, target_node="n5")
    _run_until(sf, lambda: all(r.restarts == 2 and r.status
                               is AppStatus.RUNNING for r in records()))
    sf.engine.run(until=sf.engine.now + 0.3)
    sf.daemons["n4"].request_spawn(APP, 1)
    _run_until(sf, lambda: all(r.nprocs == 4 for r in records()))
    results = sf.run_to_completion(handle, timeout=60.0)
    assert sorted(results) == [0, 1, 2, 3]

    ops = [op for op, _ in seen["n0"]]
    assert ops == ["app-submit", "app-restart", "app-migrate",
                   "app-restart", "app-grow", "app-done"]
    # Hosting or not, every live daemon went through the same views; the
    # crashed one through a prefix of them.
    for nid in ("n1", "n3", "n4", "n5"):
        assert seen[nid] == seen["n0"], nid
    assert seen["n2"] == seen["n0"][:len(seen["n2"])]
    # And the spec is one object, shared by reference.
    assert len({id(r.spec) for r in records()}) == 1
    placements = [dict(r.placement) for r in records()]
    assert placements == [placements[0]] * len(placements)
    assert placements[0][0] == "n5" and len(placements[0]) == 4


class WritesItsParams(ComputeSleep):
    """Tries to write ``ctx.params`` and returns whether it was refused."""

    def setup(self, ctx):
        super().setup(ctx)
        try:
            ctx.params["steps"] = 1
        except TypeError:
            self.state["refused"] = True

    def finalize(self, ctx):
        return self.state.get("refused", False)


def test_a_program_cannot_write_its_params():
    # The params are every daemon's, shared: a write raises TypeError
    # instead of silently changing the hosting daemon's copy.
    sf = StarfishCluster.build(nodes=3)
    results = sf.run(AppSpec(program=WritesItsParams, nprocs=2,
                             params={"steps": 3, "step_time": 0.01}))
    assert results == {0: True, 1: True}
    for daemon in sf.daemons.values():
        record = daemon.registry.all()[0]
        assert dict(record.params) == {"steps": 3, "step_time": 0.01}
        with pytest.raises(TypeError):
            record.params["steps"] = 1


def test_app_grow_replaces_placement_at_the_applying_daemon_only():
    sf = StarfishCluster.build(nodes=4)
    sf.submit(AppSpec(program=ComputeSleep, nprocs=2,
                      params={"steps": 200, "step_time": 0.05},
                      placement={0: "n1", 1: "n2"}), app_id=APP)
    sf.engine.run(until=sf.engine.now + 0.3)
    before = {nid: d.registry.get(APP).placement
              for nid, d in sf.daemons.items()}
    copies = {nid: dict(p) for nid, p in before.items()}
    # Applied at n0 alone (it hosts nothing, so nothing spawns).
    n0 = sf.daemons["n0"]
    for _ in n0._op_app_grow(("app-grow", APP, {2: "n3"}, 1), None):
        pass
    record = n0.registry.get(APP)
    assert record.placement == {0: "n1", 1: "n2", 2: "n3"}
    assert record.placement is not before["n0"]
    assert before["n0"] == copies["n0"]       # replaced, not written
    for nid in ("n1", "n2", "n3"):
        placement = sf.daemons[nid].registry.get(APP).placement
        assert placement is before[nid] and placement == copies[nid]
