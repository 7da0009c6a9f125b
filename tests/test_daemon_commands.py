"""The daemon's one command surface (DESIGN §20).

Every client format — ``StarfishCluster``, the ASCII session server, the
fleet's JSON ``ControlAPI`` — reaches the same validated
``StarfishDaemon.submit`` / ``migrate``.  These are the regressions for
the three defects the former per-surface validators had drifted into, plus
the rule that a daemon whose main loop dies says so in the run artifact.
"""

import pytest

from repro.apps import ComputeSleep
from repro.cluster import arch_by_name
from repro.core import AppSpec, CheckpointConfig, FaultPolicy, StarfishCluster
from repro.core.appspec import MAX_NPROCS
from repro.daemon import AppStatus
from repro.daemon.protocol import MGMT_COMMANDS, USER_COMMANDS
from repro.daemon.session import _VERBS
from repro.errors import DaemonError, PlacementError
from repro.fleet import ControlAPI, FleetController


def drive(sf, lines, to_node=None, user=("alice", "alicepw", False)):
    """Run ``lines`` through one ASCII session; returns the replies."""
    client = sf.client(to_node=to_node)

    def session():
        c = yield from client.connect()
        yield from c.login(user[0], user[1], mgmt=user[2])
        replies = []
        for line in lines:
            replies.append((yield from c.command(line, timeout=5.0)))
        yield from c.close()
        return replies

    proc = sf.engine.process(session())
    deadline = sf.engine.now + 10.0
    while not proc.triggered and sf.engine.now < deadline:
        sf.engine.run(until=sf.engine.now + 0.1)
    assert proc.triggered, "client session did not finish"
    if not proc.ok:
        raise proc.value
    return proc.value


def assert_daemons_alive(sf):
    for daemon in sf.live_daemons():
        for proc in daemon._procs:          # dmn:<node>, dmn-accept:<node>
            assert proc.is_alive, f"{proc.name} died"


def test_verb_table_covers_the_protocol():
    assert set(_VERBS) == MGMT_COMMANDS | USER_COMMANDS


@pytest.mark.parametrize("option,bad", [
    ("ckpt", "bogus"), ("level", "bogus"), ("transport", "bogus"),
    ("ft", "bogus"), ("interval", "abc"), ("interval", "0"),
    ("interval", "-1"), ("interval", "inf")])
def test_submit_with_a_bad_option_is_one_err_and_kills_nothing(option, bad):
    # Parent: the first four were answered OK and then killed _main on every
    # hosting node (which kept heartbeating and applied nothing ever after);
    # interval=abc ended the session without a reply; interval=0 was
    # answered OK and then wedged the run, interval=-1 silently disabled
    # checkpointing.
    sf = StarfishCluster.build(nodes=3)
    ckpt = "" if option == "ckpt" else "ckpt=stop-and-sync "
    bad_reply, = drive(sf, [
        f"SUBMIT x 2 program=computesleep {ckpt}{option}={bad}"])
    assert bad_reply.startswith("ERR ") and bad in bad_reply
    sf.engine.run(until=sf.engine.now + 1.0)
    assert_daemons_alive(sf)
    assert all("x" not in d.registry for d in sf.live_daemons())
    # The surface still works, through a node that would have hosted a rank.
    ok, = drive(sf, ["SUBMIT good 3 program=computesleep param.steps=3 "
                     "param.step_time=0.01"], to_node="n1")
    assert ok == "OK good"
    sf.engine.run(until=sf.engine.now + 2.0)
    for daemon in sf.live_daemons():
        assert daemon.registry.get("good").status is AppStatus.DONE


def test_submit_nprocs_is_bounded_on_every_surface():
    # Parent: SUBMIT and the ControlAPI both queued a 10**7-rank job, and
    # placement then built one entry per rank.
    assert MAX_NPROCS >= 1024                  # the north-star run fits
    sf = StarfishCluster.build(nodes=3)
    huge, limit = drive(sf, [
        f"SUBMIT huge {10**7} program=computesleep",
        f"SUBMIT limit {MAX_NPROCS + 1} program=computesleep"])
    assert huge.startswith("ERR ") and str(MAX_NPROCS) in huge
    assert limit.startswith("ERR ")
    with pytest.raises(DaemonError, match="nprocs"):
        AppSpec(program=ComputeSleep, nprocs=MAX_NPROCS + 1)
    controller = FleetController(sf)
    response = ControlAPI(controller).handle(
        {"op": "submit", "program": "computesleep", "nprocs": 10**7})
    assert (response["ok"], response["error"]) == (False, "DaemonError")
    assert controller.scheduler.jobs == {}
    sf.engine.run(until=sf.engine.now + 1.0)
    assert_daemons_alive(sf)
    assert all(not d.registry.all() for d in sf.live_daemons())
    controller.close()


def _checkpointed(sf, level="vm", app_id="job"):
    handle = sf.submit(AppSpec(
        program=ComputeSleep, nprocs=2,
        params={"steps": 60, "step_time": 0.05},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol="stop-and-sync", level=level,
                                    interval=0.5),
        placement={0: "n0", 1: "n1"}), app_id=app_id)
    sf.engine.run(until=sf.engine.now + 1.3)
    assert sf.store.latest_committed(app_id) is not None
    return handle


def test_ascii_migrate_to_a_crashed_or_the_same_node_is_refused():
    # Parent: MIGRATE to the crashed node was answered OK and stranded the
    # rank there (running, restarts=1, never done).
    sf = StarfishCluster.build(nodes=3)
    handle = _checkpointed(sf)
    sf.crash_node("n2")
    crashed, same, bad_rank = drive(
        sf, ["MIGRATE job 0 n2", "MIGRATE job 1 n1", "MIGRATE job x n0"],
        user=("admin", "adminpw", True))
    assert crashed.startswith("ERR ") and "down" in crashed
    assert same.startswith("ERR ") and "already" in same
    assert bad_rank.startswith("ERR ") and "'x'" in bad_rank
    assert sf.run_to_completion(handle, timeout=300) == {0: 60, 1: 60}
    assert handle.restarts == 0


def test_native_checkpoints_do_not_migrate_across_representations():
    # Parent: accepted on every surface, and the app ended FAILED — although
    # the failure path has always enforced paper §4 through _pick_nodes.
    linux = arch_by_name("Intel P-II 350 MHz, i686")
    sun = arch_by_name("Sun Ultra Enterprise 3000")
    sf = StarfishCluster.build(nodes=4, archs=[linux, linux, sun, linux])
    controller = FleetController(sf)
    handle = _checkpointed(sf, level="native")
    with pytest.raises(PlacementError, match="native"):
        sf.migrate(handle, rank=1, target_node="n2")
    ascii_reply, = drive(sf, ["MIGRATE job 1 n2"],
                         user=("admin", "adminpw", True))
    assert ascii_reply.startswith("ERR ") and "native" in ascii_reply
    json_reply = ControlAPI(controller).handle(
        {"op": "migrate", "app_id": "job", "rank": 1, "target": "n2"})
    assert (json_reply["ok"], json_reply["error"]) == \
        (False, "PlacementError")
    # Same representation: the move is taken, and VM-level images go anywhere.
    sf.migrate(handle, rank=1, target_node="n3")
    assert sf.run_to_completion(handle, timeout=300) == {0: 60, 1: 60}
    assert handle._record().placement[1] == "n3"
    portable = _checkpointed(sf, level="vm", app_id="portable")
    sf.migrate(portable, rank=1, target_node="n2")
    assert sf.run_to_completion(portable, timeout=300) == {0: 60, 1: 60}
    controller.close()


def test_a_daemon_whose_main_loop_dies_says_so():
    # Containment is unchanged (tests/test_gcs_inline_dispatch.py (e)): the
    # daemon stops applying upcalls.  But it stays in the view, so the run
    # artifact — its log and the event log — must name the op that killed it.
    sf = StarfishCluster.build(nodes=3)
    victim = sf.daemons["n1"]
    real = victim._apply_op

    def apply_op(payload, source):
        if payload[:2] == ("cfg-set", "boom"):
            raise RuntimeError("handler bug")
        return real(payload, source)

    victim._apply_op = apply_op
    sf.daemons["n0"].gm.cast(("cfg-set", "boom", "1"))
    sf.engine.run(until=sf.engine.now + 1.0)
    assert not victim._procs[0].is_alive
    assert [msg for _t, msg in victim.log if "failed" in msg] == [
        "op cfg-set failed: RuntimeError('handler bug')"]
    failed = sf.engine.metrics.events.records("daemon.op_failed")
    assert [(ev.field_dict["node"], ev.field_dict["op"]) for ev in failed] \
        == [("n1", "cfg-set")]
    # A crash is not a failed op: nothing is reported for the dying node.
    sf.crash_node("n2")
    sf.engine.run(until=sf.engine.now + 2.0)
    assert len(sf.engine.metrics.events.records("daemon.op_failed")) == 1
    assert not any("failed" in msg for _t, msg in sf.daemons["n2"].log)
