"""The repro.check harness: oracles, watchdog diagnoses, sweep, replay."""

import json

import pytest

from repro.check import WaveOracle
from repro.check.harness import CheckRunner
from repro.check.watchdog import diagnose_hang, format_diagnosis
from repro.cli import main
from repro.errors import OracleViolation


# -- WaveOracle unit invariants -------------------------------------------


class _FakeProto:
    name = "fake"


def _oracle():
    o = WaveOracle(_FakeProto())
    o.bind(0)
    return o


def test_oracle_happy_wave_lifecycle():
    o = _oracle()
    o.wave_begin(1)
    o.counts_published(1)
    o.dumped(1)
    o.commit_coordination(1)
    o.committed(1, participating=True)
    assert o._active is None and o._committed == 1
    o.wave_begin(2)           # next wave opens cleanly
    assert o.violations == 0


def test_oracle_rejects_double_dump():
    o = _oracle()
    o.wave_begin(1)
    o.dumped(1)
    with pytest.raises(OracleViolation, match="dump-once"):
        o.dumped(1)
    assert o.violations == 1


def test_oracle_rejects_overlapping_waves():
    o = _oracle()
    o.wave_begin(1)
    with pytest.raises(OracleViolation, match="single-wave"):
        o.wave_begin(2)


def test_oracle_rejects_wave_behind_commit():
    o = _oracle()
    o.wave_begin(1)
    o.dumped(1)
    o.committed(1, participating=True)
    with pytest.raises(OracleViolation, match="version-monotone"):
        o.wave_begin(1)


def test_oracle_rejects_double_counts_in_one_epoch():
    o = _oracle()
    o.wave_begin(1)
    o.counts_published(1)
    with pytest.raises(OracleViolation, match="counts-once"):
        o.counts_published(1)


def test_oracle_allows_counts_again_after_wave_revival():
    o = _oracle()
    o.wave_begin(1)
    o.counts_published(1)
    o.wave_abort(1)
    o.wave_begin(1)           # revival re-opens the same version
    o.counts_published(1)     # fresh epoch, fresh counts
    assert o.violations == 0


def test_oracle_rejects_commit_without_dump_when_participating():
    o = _oracle()
    o.wave_begin(1)
    with pytest.raises(OracleViolation, match="commit-covers-dump"):
        o.committed(1, participating=True)


def test_oracle_allows_commit_without_dump_as_bystander():
    o = _oracle()
    o.committed(3, participating=False)   # joined after the wave
    assert o._committed == 3


def test_oracle_rejects_commit_regression():
    o = _oracle()
    o.committed(2, participating=False)
    with pytest.raises(OracleViolation, match="commit-monotone"):
        o.committed(1, participating=False)


def test_oracle_rejects_double_commit_coordination():
    o = _oracle()
    o.commit_coordination(1)
    with pytest.raises(OracleViolation, match="commit-coordinate-once"):
        o.commit_coordination(1)


def test_oracle_rejects_unbalanced_buddy_ack():
    o = _oracle()
    with pytest.raises(OracleViolation, match="ack-balance"):
        o.buddy_ack(1, 0)


# -- CheckRunner sweep / classification -----------------------------------


def test_sweep_green_campaign_all_ok():
    result = CheckRunner("crash-recover", protocol="stop-and-sync").run(
        seeds=range(1, 4))
    assert result.ok
    assert [o.perturb_seed for o in result.outcomes] == [1, 2, 3]
    assert all(o.verdict == "ok" for o in result.outcomes)
    assert "0 failures" in result.summary()


def test_sweep_runs_report_their_perturbation():
    outcome = CheckRunner("crash-recover",
                          protocol="chandy-lamport").run_one(5)
    assert outcome.ok
    assert outcome.report.data["perturbation"] == {"seed": 5, "jitter": 0.0}


def test_expected_failure_campaign_clean_abort_is_ok():
    outcome = CheckRunner("blackout", protocol="stop-and-sync").run_one(1)
    assert outcome.ok
    assert outcome.status == "aborted"
    assert outcome.error["type"] == "MajorityLost"


def test_hang_verdict_carries_watchdog_diagnosis():
    """A workload that cannot finish in time is diagnosed, not timed out:
    the outcome names each rank's wave, parked-on channel, and progress."""
    runner = CheckRunner("crash-recover", protocol="stop-and-sync",
                         workload_timeout=0.25)
    outcome = runner.run_one(1)
    assert outcome.verdict == "hang"
    diagnosis = outcome.error["diagnosis"]
    assert diagnosis["cause"] == "CampaignError"
    ranks = diagnosis["ranks"]
    assert ranks and all("parked_on" in r for r in ranks
                         if "protocol" in r)
    json.dumps(diagnosis)                 # must ride a JSON report
    # And the failure replays byte-identically from its seed.
    again = runner.run_one(1)
    assert again.report.to_json() == outcome.report.to_json()


def test_hang_dump_shows_each_daemons_view_of_the_app():
    """The standing red cell partition-flap x replication: every rank has
    finished, yet the app never ends.  The dump's per-node lines show why —
    after the merge the daemons hold different lightweight-group replicas,
    so they believe in different app authorities."""
    outcome = CheckRunner("partition-flap", protocol="replication").run_one(1)
    assert outcome.verdict == "hang"
    diagnosis = outcome.error["diagnosis"]
    nodes = {n["node"]: n for n in diagnosis["nodes"]}
    assert sorted(nodes) == ["n0", "n1", "n2", "n3", "n4"]
    assert len({tuple(n["view_members"]) for n in nodes.values()}) == 1
    assert len({tuple(n["lwg_members"]) for n in nodes.values()}) > 1
    assert len({n["authority"] for n in nodes.values()}) > 1
    assert all(n["status"] == "running" for n in nodes.values())
    text = format_diagnosis(diagnosis)
    assert all(f"node {nid} up=True" in text for nid in nodes)
    json.dumps(diagnosis)


def test_hang_dump_never_raises_on_a_broken_daemon():
    class Broken:
        handles = {}

        def __getattr__(self, name):
            raise RuntimeError("torn down")

    class Handle:
        app_id = "app"

    class Cluster:
        daemons = {"n0": Broken()}

    diagnosis = diagnose_hang(Cluster(), Handle(), RuntimeError("x"))
    assert diagnosis["nodes"][0]["node"] == "n0"
    assert "error" in diagnosis["nodes"][0]
    assert "node n0: <" in format_diagnosis(diagnosis)


def test_oracle_violation_verdict(monkeypatch):
    """An invariant broken mid-run surfaces as a typed oracle-violation
    failure of the whole campaign, never a silent module death."""
    def bad_dumped(self, version):
        self._fail("dump-once", "injected for the harness test")

    monkeypatch.setattr(WaveOracle, "dumped", bad_dumped)
    outcome = CheckRunner("crash-recover",
                          protocol="stop-and-sync").run_one(1)
    assert outcome.verdict == "oracle-violation"
    assert outcome.error["type"] == "OracleViolation"
    assert "dump-once" in outcome.error["message"]
    assert "replay" in CheckRunner("crash-recover").run(
        seeds=[1]).summary()


def test_replay_is_byte_identical():
    runner = CheckRunner("partition-flap", protocol="diskless", jitter=1e-6)
    outcome, identical = runner.replay(4)
    assert identical
    assert outcome.ok


def test_different_perturb_seeds_change_the_schedule():
    runner = CheckRunner("crash-recover", protocol="stop-and-sync")
    a = runner.run_one(1).report.data["engine"]["events_processed"]
    runs = {runner.run_one(s).report.to_json() for s in (1, 2, 3)}
    assert isinstance(a, int)
    assert len(runs) > 1      # at least one seed reorders something


def test_result_json_roundtrip():
    result = CheckRunner("crash-recover").run(seeds=[1])
    data = json.loads(result.to_json())
    assert data["campaign"] == "crash-recover"
    assert data["failures"] == 0
    assert data["outcomes"][0]["verdict"] == "ok"


# -- CLI -------------------------------------------------------------------


def test_cli_check_unknown_campaign():
    assert main(["check", "--campaign", "nope"]) == 2


def test_cli_check_sweep_and_json(tmp_path, capsys):
    out = tmp_path / "check.json"
    rc = main(["check", "--campaign", "crash-recover",
               "--protocol", "stop-and-sync", "--seeds", "2",
               "--json", str(out)])
    assert rc == 0
    assert "0 failures" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload[0]["seeds_run"] == 2


def test_cli_check_replay(capsys):
    rc = main(["check", "--campaign", "crash-recover",
               "--protocol", "stop-and-sync", "--replay", "3"])
    assert rc == 0
    assert "replay byte-identical: True" in capsys.readouterr().out
