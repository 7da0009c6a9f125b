"""ControlAPI (in-sim JSON surface) and the real HTTP gateway.

The HTTP tests run the stdlib server on a helper thread and drive it
with real ``urllib`` requests — the same path ``repro fleet serve
--self-test`` exercises in CI.
"""

import json
import socket
import struct
import urllib.error
import urllib.request

import pytest

from repro.apps import ComputeSleep
from repro.core import AppSpec, StarfishCluster
from repro.errors import DaemonError
from repro.fleet import (ControlAPI, FleetController, FleetHTTPServer,
                         TenantQuota)


@pytest.fixture()
def api():
    sf = StarfishCluster.build(nodes=4)
    controller = FleetController(
        sf, quotas={"acme": TenantQuota(max_ranks=8, max_apps=4)})
    sf.engine.run(until=sf.engine.now + 1.0)   # first heartbeat round
    return ControlAPI(controller)


def _submit(api, **over):
    req = {"op": "submit", "tenant": "acme", "program": "computesleep",
           "nprocs": 2, "params": {"steps": 3, "step_time": 0.05}}
    req.update(over)
    return api.handle(req)


def test_submit_status_and_step(api):
    response = _submit(api)
    assert response["ok"]
    job_id = response["job"]["job_id"]
    assert response["job"]["state"] == "queued"
    api.handle({"op": "step", "dt": 2.0})
    status = api.handle({"op": "status", "job_id": job_id})
    assert status["ok"] and status["job"]["state"] == "done"
    jobs = api.handle({"op": "jobs"})
    assert [j["job_id"] for j in jobs["jobs"]] == [job_id]


def test_nodes_reflects_fleet_view(api):
    response = api.handle({"op": "nodes"})
    assert response["ok"]
    rows = {r["node"]: r for r in response["nodes"]}
    assert set(rows) == {"n0", "n1", "n2", "n3"}
    assert all(r["health"] == "active" for r in rows.values())


def test_drain_and_uncordon_ops(api):
    assert api.handle({"op": "drain", "node": "n3"})["health"] == "draining"
    api.handle({"op": "step", "dt": 1.0})
    nodes = api.handle({"op": "nodes"})["nodes"]
    assert next(r for r in nodes if r["node"] == "n3")["health"] == "drained"
    assert api.handle({"op": "uncordon",
                       "node": "n3"})["health"] == "active"


def test_typed_errors_not_tracebacks(api):
    unknown = api.handle({"op": "status", "job_id": "nope-j9"})
    assert not unknown["ok"] and unknown["error"] == "BadRequest"
    bad_op = api.handle({"op": "frobnicate"})
    assert not bad_op["ok"] and bad_op["error"] == "UnknownOp"
    bad_program = _submit(api, program="nope")
    assert not bad_program["ok"] and bad_program["error"] == "BadRequest"
    response = _submit(api)
    api.handle({"op": "step", "dt": 1.0})
    bad_migrate = api.handle({"op": "migrate",
                              "app_id": response["job"]["job_id"],
                              "rank": 0, "target": "n99"})
    assert not bad_migrate["ok"]
    assert bad_migrate["error"] == "PlacementError"


def test_submit_rejects_a_bad_checkpoint_interval(api):
    # Parent: accepted; the job's first step then wedged the gateway.
    for interval in (0, -1, "inf"):
        response = _submit(api, ckpt="uncoordinated", interval=interval)
        assert not response["ok"] and response["error"] == "DaemonError"
    assert api.handle({"op": "jobs"})["jobs"] == []


@pytest.mark.parametrize("field,value", [
    ("nprocs", 2.9), ("nprocs", True), ("nprocs", "3"), ("nprocs", None),
    ("priority", 1.7), ("priority", False), ("replicas", 1.0),
    ("replicas", True)])
def test_submit_takes_json_integers_only(api, field, value):
    # Parent: nprocs 2.9 was queued as 2, true as 1, "3" as 3; priority 1.7
    # as 1, false as 0; replicas 1.0 and true as 1.
    response = _submit(api, **{field: value})
    assert not response["ok"] and response["error"] == "BadRequest"
    assert field in response["message"]
    assert api.handle({"op": "jobs"})["jobs"] == []


def test_a_non_string_tenant_is_refused_and_admission_goes_on(api):
    # Parent: tenant 7 was queued beside "acme"; the next step's queue sort
    # raised TypeError inside the controller loop, which died, and both
    # jobs were still queued at t = 3.5.
    good = _submit(api)["job"]["job_id"]
    bad = _submit(api, tenant=7)
    assert not bad["ok"] and bad["error"] == "BadRequest"
    assert "tenant" in bad["message"]
    for _ in range(5):
        assert api.handle({"op": "step", "dt": 0.5})["ok"]
    status = api.handle({"op": "status", "job_id": good})
    assert status["job"]["state"] == "done"
    assert [j["job_id"] for j in api.handle({"op": "jobs"})["jobs"]] == [good]
    metrics = api.handle({"op": "metrics", "tenant": 7})
    assert not metrics["ok"] and metrics["error"] == "BadRequest"


@pytest.mark.parametrize("field,value", [
    ("tenant", 7), ("tenant", b"acme"), ("owner", 7), ("owner", None),
    ("priority", 1.5), ("priority", True), ("priority", "3")])
def test_appspec_refuses_a_wrong_tenant_owner_or_priority_type(field, value):
    # Parent: accepted; the fleet scheduler met the value in its queue sort.
    with pytest.raises(DaemonError, match=field):
        AppSpec(ComputeSleep, nprocs=1, **{field: value})


def test_a_library_submit_of_a_non_string_tenant_leaves_admission_alive(api):
    # Parent: FleetController.submit queued tenant 7 beside "acme"; the next
    # step answered BadRequest (TypeError from JobScheduler.pending()), every
    # later one answered ok, and both jobs stayed queued.
    good = _submit(api)["job"]["job_id"]
    with pytest.raises(DaemonError, match="tenant"):
        api.controller.submit(AppSpec(ComputeSleep, nprocs=1, tenant=7,
                                      params={"steps": 1}))
    for _ in range(5):
        assert api.handle({"op": "step", "dt": 0.5})["ok"]
    assert api.handle({"op": "status", "job_id": good})["job"]["state"] \
        == "done"
    assert api.controller._proc.is_alive


def test_step_after_the_control_loop_died_is_a_fleet_error(api, monkeypatch):
    # Parent: the step in which the loop died answered BadRequest and every
    # later step answered ok, while no job was ever admitted again.
    def broken():
        raise TypeError("queue sort broke")

    monkeypatch.setattr(api.controller.scheduler, "pending", broken)
    job = _submit(api)["job"]["job_id"]
    for _ in range(3):
        response = api.handle({"op": "step", "dt": 0.5})
        assert not response["ok"] and response["error"] == "FleetError"
        assert "TypeError: queue sort broke" in response["message"]
    assert api.handle({"op": "status", "job_id": job})["job"]["state"] \
        == "queued"
    monkeypatch.undo()
    api.controller.close()          # a closed controller's loop may end
    assert api.handle({"op": "step", "dt": 0.5})["ok"]


@pytest.mark.parametrize("rank", [0.0, True, "0"])
def test_migrate_rank_takes_json_integers_only(api, rank):
    # Parent: each was taken as rank 0 (and refused only for the target).
    response = api.handle({"op": "migrate", "app_id": "x", "rank": rank,
                           "target": "n1"})
    assert not response["ok"] and response["error"] == "BadRequest"
    assert "rank" in response["message"]


@pytest.mark.parametrize("dt", ["nan", "inf", -1])
def test_step_rejects_a_non_finite_or_negative_dt(api, dt):
    # Parent: "inf" ran the engine forever, "nan" was silently 0.
    before = api.handle({"op": "nodes"})["time"]
    response = api.handle({"op": "step", "dt": dt})
    assert not response["ok"] and response["error"] == "BadRequest"
    assert api.handle({"op": "nodes"})["time"] == before


def test_metrics_op_filters_by_tenant(api):
    _submit(api)
    _submit(api, tenant="globex")
    api.handle({"op": "step", "dt": 1.0})
    everything = api.handle({"op": "metrics"})["text"]
    assert 'tenant="acme"' in everything
    assert 'tenant="globex"' in everything
    acme = api.handle({"op": "metrics", "tenant": "acme"})["text"]
    assert 'tenant="acme"' in acme and 'tenant="globex"' not in acme


# ---------------------------------------------------------------------------
# real HTTP
# ---------------------------------------------------------------------------

@pytest.fixture()
def server(api):
    gw = FleetHTTPServer(api).start_background()
    yield gw
    gw.shutdown()


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as r:
        return r.status, r.headers.get("Content-Type"), r.read().decode()


def _post(server, path, body):
    req = urllib.request.Request(
        server.url + path, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10) as r:
        return json.loads(r.read().decode())


def test_http_submit_step_status_roundtrip(server):
    job = _post(server, "/v1/submit",
                {"tenant": "acme", "program": "computesleep", "nprocs": 2,
                 "params": {"steps": 3, "step_time": 0.05}})
    assert job["ok"]
    _post(server, "/v1/step", {"dt": 2.0})
    status, ctype, body = _get(server,
                               f"/v1/jobs/{job['job']['job_id']}")
    assert status == 200 and ctype == "application/json"
    assert json.loads(body)["job"]["state"] == "done"
    status, _ctype, body = _get(server, "/v1/nodes")
    assert status == 200 and len(json.loads(body)["nodes"]) == 4


def test_http_metrics_endpoint_with_tenant_filter(server):
    _post(server, "/v1/submit",
          {"tenant": "acme", "program": "computesleep", "nprocs": 1,
           "params": {"steps": 1, "step_time": 0.05}})
    status, ctype, body = _get(server, "/metrics?tenant=acme")
    assert status == 200 and ctype.startswith("text/plain")
    assert "fleet_jobs_submitted" in body
    assert 'tenant="acme"' in body


def test_http_error_statuses(server):
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(server, "/nope")
    assert err.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server, "/v1/submit", {"tenant": "acme", "program": "nope",
                                     "nprocs": 1})
    assert err.value.code == 400
    body = json.loads(err.value.read().decode())
    assert body["error"] == "BadRequest"


# ---------------------------------------------------------------------------
# hostile clients (regressions: the gateway must outlive bad peers)
# ---------------------------------------------------------------------------

def _raw_request(server, payload: bytes) -> bytes:
    """Send raw bytes and read until the server closes the connection."""
    host, port = server.address
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(payload)
        chunks = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return chunks
            chunks += chunk


def test_http_malformed_content_length_is_400_json(server):
    """Regression: ``Content-Length: abc`` used to make ``int()`` raise
    inside ``do_POST`` — the handler died mid-request, the client saw the
    connection drop with *no* response at all.  It is the client's error:
    a 400 with the standard typed-JSON body, then close."""
    raw = _raw_request(server,
                       b"POST /v1/step HTTP/1.1\r\n"
                       b"Host: test\r\n"
                       b"Content-Length: abc\r\n"
                       b"\r\n")
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400")
    payload = json.loads(body)
    assert payload == {"ok": False, "error": "BadRequest",
                       "message": "malformed Content-Length header"}
    # The server itself is unharmed: the next request round-trips.
    status, _ctype, nodes = _get(server, "/v1/nodes")
    assert status == 200 and json.loads(nodes)["ok"]


def test_http_negative_content_length_reads_no_body(server):
    """A negative length must not make ``rfile.read`` block until EOF;
    it is treated as "no body" (empty JSON object)."""
    raw = _raw_request(server,
                       b"POST /v1/step HTTP/1.1\r\n"
                       b"Host: test\r\n"
                       b"Content-Length: -5\r\n"
                       b"Connection: close\r\n"
                       b"\r\n")
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200")
    assert json.loads(body)["ok"]


def test_http_client_hangup_mid_reply_does_not_wedge_server(server):
    """Regression: a client that sends a request and resets the
    connection before reading the reply used to surface as an unhandled
    ``BrokenPipeError``/``ConnectionResetError`` traceback in the
    handler.  The gateway must shrug it off and keep serving."""
    host, port = server.address
    for _ in range(3):
        sock = socket.create_connection((host, port), timeout=10)
        try:
            sock.sendall(b"GET /v1/nodes HTTP/1.1\r\nHost: test\r\n\r\n")
            # RST on close (no FIN handshake): the server's reply write
            # hits a dead socket.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
        finally:
            sock.close()
    status, _ctype, nodes = _get(server, "/v1/nodes")
    assert status == 200 and json.loads(nodes)["ok"]
