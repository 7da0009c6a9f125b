"""The command-line interface."""

import pytest

from repro.cli import main


def test_demo(capsys):
    assert main(["demo", "--nodes", "2", "--shots", "4000"]) == 0
    out = capsys.readouterr().out
    assert "pi ~ 3." in out
    assert "2-node Starfish cluster" in out


def test_status(capsys):
    assert main(["status", "--nodes", "2", "--seconds", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "2/2 nodes up" in out
    assert "stop-and-sync" in out


def test_metrics_text(capsys):
    assert main(["metrics", "--nodes", "2", "--seconds", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "net.frames_sent{fabric=tcp-ethernet,kind=control}" in out
    assert "sim.events_processed" in out
    assert "gcs.views{node=n0}" in out


def test_metrics_prometheus(capsys):
    assert main(["metrics", "--nodes", "2", "--seconds", "1.0",
                 "--format", "prom"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE net_frames_sent counter" in out
    assert 'net_frames_sent{fabric="tcp-ethernet",kind="control"}' in out
    assert 'mpi_p2p_latency_seconds_bucket' in out


def test_trace_chrome_export(tmp_path, capsys):
    import json
    out_path = tmp_path / "trace.json"
    assert main(["trace", "--nodes", "2", "--seconds", "1.0",
                 "--chrome", str(out_path)]) == 0
    assert "wrote" in capsys.readouterr().out
    doc = json.loads(out_path.read_text())
    events = doc["traceEvents"]
    assert len(events) > 10
    assert all({"name", "ph", "pid", "tid"} <= set(e) for e in events)
    assert any(e["ph"] == "i" for e in events)


def test_rtt(capsys):
    assert main(["rtt", "--reps", "3"]) == 0
    out = capsys.readouterr().out
    assert "bip-myrinet" in out
    assert "us" in out


def test_examples_listing(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    assert "quickstart.py" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_store_what_flag_removed(capsys):
    # The flag is gone, stub and all: argparse's own usage error, exit 2.
    with pytest.raises(SystemExit) as exc:
        main(["store", "--nodes", "3", "--what", "placement"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --what" in capsys.readouterr().err
