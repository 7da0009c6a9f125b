"""The ASCII management/user client protocol, end to end (paper §3.1.1)."""

import pytest

from repro.core import AppSpec, StarfishCluster
from repro.daemon import parse_command, format_response
from repro.daemon.protocol import parse_submit_options
from repro.errors import ProtocolError


def drive(sf, script):
    """Run a client script (generator taking a connected Client)."""
    client = sf.client()

    def session():
        c = yield from client.connect()
        result = yield from script(c)
        yield from c.close()
        return result

    proc = sf.engine.process(session())
    sf.engine.run(until=sf.engine.now + 30.0)
    assert proc.triggered, "client session did not finish"
    if not proc.ok:
        raise proc.value
    return proc.value


# ---------------------------------------------------------------------------
# parsing unit tests
# ---------------------------------------------------------------------------

def test_parse_command_basic():
    assert parse_command("LOGIN admin adminpw MGMT") == \
        ("LOGIN", ["admin", "adminpw", "MGMT"])
    assert parse_command("nodes") == ("NODES", [])


def test_parse_command_rejects_unknown_and_arity():
    with pytest.raises(ProtocolError):
        parse_command("FROBNICATE x")
    with pytest.raises(ProtocolError):
        parse_command("DISABLE")          # missing argument
    with pytest.raises(ProtocolError):
        parse_command("")


def test_parse_submit_options():
    opts = parse_submit_options(["program=montecarlo", "ft=view-notify",
                                 "param.shots=5000"])
    assert opts == {"program": "montecarlo", "ft": "view-notify",
                    "param.shots": "5000"}
    with pytest.raises(ProtocolError):
        parse_submit_options(["no-equals-sign"])


def test_format_response():
    assert format_response(True) == "OK"
    assert format_response(False, "nope") == "ERR nope"
    assert format_response(True, "a", 3) == "OK a 3"


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

def test_login_authentication():
    sf = StarfishCluster.build(nodes=2)

    def script(c):
        bad = yield from c.command("LOGIN admin wrongpw MGMT")
        nonadmin = yield from c.command("LOGIN alice alicepw MGMT")
        need = yield from c.command("NODES")
        ok = yield from c.command("LOGIN admin adminpw MGMT")
        return bad, nonadmin, need, ok

    bad, nonadmin, need, ok = drive(sf, script)
    assert bad.startswith("ERR")
    assert nonadmin.startswith("ERR")      # alice is not an administrator
    assert need.startswith("ERR")          # login required first
    assert ok.startswith("OK")


def test_user_session_cannot_run_mgmt_commands():
    sf = StarfishCluster.build(nodes=2)

    def script(c):
        yield from c.login("alice", "alicepw")
        return (yield from c.command("DISABLE n1"))

    assert drive(sf, script).startswith("ERR")


def test_mgmt_set_get_replicated_to_all_daemons():
    sf = StarfishCluster.build(nodes=3)

    def script(c):
        yield from c.login("admin", "adminpw", mgmt=True)
        yield from c.must("SET scheduler.quantum 50ms")
        return (yield from c.command("GET scheduler.quantum"))

    assert drive(sf, script) == "OK 50ms"
    sf.engine.run(until=sf.engine.now + 1.0)
    for daemon in sf.live_daemons():
        assert daemon.config["scheduler.quantum"] == "50ms"


def test_nodes_listing_and_disable():
    sf = StarfishCluster.build(nodes=3)

    def script(c):
        yield from c.login("admin", "adminpw", mgmt=True)
        yield from c.must("DISABLE n2")
        yield sf.engine.timeout(1.0)      # let the cast replicate
        return (yield from c.command("NODES"))

    reply = drive(sf, script)
    assert "n2:disabled" in reply
    assert "n0:up" in reply
    # The placement logic must now avoid n2.
    daemon = sf.any_daemon()
    picks = daemon._pick_nodes(6)
    assert "n2" not in picks


def test_submit_status_result_via_ascii():
    sf = StarfishCluster.build(nodes=2)

    def script(c):
        yield from c.login("alice", "alicepw")
        yield from c.must("SUBMIT myjob 2 program=computesleep "
                          "param.steps=3 param.step_time=0.01")
        # Poll status until done (reply: "OK <status> done=<k>/<n> ...").
        for _ in range(100):
            status = yield from c.command("STATUS myjob")
            if status.split()[1] == "done":
                break
            yield sf.engine.timeout(0.2)
        result = yield from c.command("RESULT myjob")
        return status, result

    status, result = drive(sf, script)
    assert status.startswith("OK done")
    assert result == "OK [3, 3]"


def test_submit_unknown_program_rejected():
    sf = StarfishCluster.build(nodes=2)

    def script(c):
        yield from c.login("alice", "alicepw")
        return (yield from c.command("SUBMIT x 2 program=doesnotexist"))

    assert drive(sf, script).startswith("ERR unknown program")


def test_user_cannot_touch_other_users_app():
    sf = StarfishCluster.build(nodes=2)

    def script(c):
        yield from c.login("alice", "alicepw")
        yield from c.must("SUBMIT alicejob 1 program=computesleep "
                          "param.steps=500 param.step_time=0.05")
        yield from c.close()
        c2 = sf.client()
        c2 = yield from c2.connect()
        yield from c2.login("bob", "bobpw")
        denied = yield from c2.command("DELETE alicejob")
        yield from c2.close()
        return denied

    assert "belongs to alice" in drive(sf, script)


def test_suspend_and_resume():
    sf = StarfishCluster.build(nodes=2)

    def script(c):
        yield from c.login("alice", "alicepw")
        yield from c.must("SUBMIT job 2 program=computesleep "
                          "param.steps=30 param.step_time=0.05")
        yield sf.engine.timeout(0.5)
        yield from c.must("SUSPEND job")
        yield sf.engine.timeout(0.3)      # let the suspension take hold
        status1 = yield from c.command("STATUS job")
        before = sf.engine.metrics.group_by("app.steps", "rank", app="job")
        yield sf.engine.timeout(2.0)      # suspended: no progress
        after = sf.engine.metrics.group_by("app.steps", "rank", app="job")
        yield from c.must("RESUME job")
        return status1, before, after

    status1, before, after = drive(sf, script)
    assert "suspended" in status1
    assert len(before) == 2 and before == after   # frozen while suspended
    sf.engine.run(until=sf.engine.now + 5.0)
    from repro.daemon import AppStatus
    assert sf.any_daemon().registry.get("job").status is AppStatus.DONE


def test_delete_app_removes_registry_and_checkpoints():
    sf = StarfishCluster.build(nodes=2)

    def script(c):
        yield from c.login("admin", "adminpw", mgmt=True)
        yield from c.must("SUBMIT job 2 program=computesleep "
                          "param.steps=1000 param.step_time=0.05")
        yield sf.engine.timeout(0.5)
        yield from c.must("DELETE job")
        yield sf.engine.timeout(1.0)
        return (yield from c.command("STATUS job"))

    reply = drive(sf, script)
    assert reply.startswith("ERR unknown application")
    assert all("job" not in d.registry for d in sf.live_daemons())


def test_checkpoint_command():
    sf = StarfishCluster.build(nodes=2)

    def script(c):
        yield from c.login("alice", "alicepw")
        yield from c.must(
            "SUBMIT job 2 program=computesleep param.steps=200 "
            "param.step_time=0.02 ckpt=stop-and-sync level=vm")
        yield sf.engine.timeout(1.0)
        yield from c.must("CHECKPOINT job")
        yield sf.engine.timeout(2.0)
        return True

    drive(sf, script)
    assert sf.store.latest_committed("job") is not None


def test_client_reconnects_to_another_daemon_after_crash():
    # High availability (§3.1.3): the session dies with its daemon, but a
    # reconnect to any other daemon sees the same replicated state.
    sf = StarfishCluster.build(nodes=3)

    def script(c):
        yield from c.login("alice", "alicepw")
        # view-notify: the rank on the crashed node is absorbed, the rest
        # of the job finishes.
        yield from c.must("SUBMIT job 2 program=computesleep "
                          "param.steps=6 param.step_time=0.05 "
                          "ft=view-notify")
        yield sf.engine.timeout(0.2)
        return True

    # Connect specifically to daemon n0 from node n2.
    client = sf.client(from_node="n2", to_node="n0")

    def session():
        c = yield from client.connect()
        yield from script(c)
        # Crash the daemon we are talking to.
        sf.crash_node("n0")
        # Reconnect through n1 and continue the disrupted session.
        c2 = sf.client(from_node="n2", to_node="n1")
        c2 = yield from c2.connect()
        yield from c2.login("alice", "alicepw")
        for _ in range(100):
            status = yield from c2.command("STATUS job")
            if status.split()[1] == "done":
                return status
            yield sf.engine.timeout(0.3)
        return status

    proc = sf.engine.process(session())
    sf.engine.run(until=sf.engine.now + 60.0)
    assert proc.triggered and proc.ok
    assert proc.value.split()[1] == "done"


# ---------------------------------------------------------------------------
# timeouts & retry (graceful degradation instead of hangs)
# ---------------------------------------------------------------------------

def test_request_raises_typed_error_when_daemon_node_dies():
    from repro.errors import NetworkError, RequestTimeout
    sf = StarfishCluster.build(nodes=3)
    client = sf.client(from_node="n0", to_node="n2")

    def session():
        yield from client.connect()
        sf.cluster.crash_node("n2")
        try:
            yield from client.request("NODES", timeout=0.3, attempts=2,
                                      backoff=0.05)
        except (RequestTimeout, NetworkError) as exc:
            return type(exc).__name__
        return "no error"

    proc = sf.engine.process(session())
    sf.engine.run(until=sf.engine.now + 30.0)
    assert proc.triggered, "request() hung instead of timing out"
    assert proc.value in ("RequestTimeout", "ConnectionClosed")


def test_connect_with_timeout_to_dead_daemon():
    from repro.errors import RequestTimeout
    sf = StarfishCluster.build(nodes=2)
    sf.cluster.crash_node("n1")
    client = sf.client(from_node="n0", to_node="n1")

    def session():
        with pytest.raises(RequestTimeout):
            yield from client.connect(timeout=0.4, attempts=2)
        return "typed"

    proc = sf.engine.process(session())
    sf.engine.run(until=sf.engine.now + 10.0)
    assert proc.triggered and proc.value == "typed"


def test_request_reconnects_and_relogs_in_after_drop():
    sf = StarfishCluster.build(nodes=2)
    client = sf.client(from_node="n0", to_node="n1")

    def session():
        yield from client.connect()
        yield from client.login("admin", "adminpw", mgmt=True)
        # Simulate a dropped control connection mid-session.
        client.conn.abort()
        reply = yield from client.request("NODES", timeout=2.0)
        return reply

    proc = sf.engine.process(session())
    sf.engine.run(until=sf.engine.now + 30.0)
    assert proc.triggered and proc.ok
    assert proc.value.startswith("OK")
