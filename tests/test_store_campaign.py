"""The store-crash-burst campaign: CheckpointSurvivability(k) end to end."""

import pytest

from repro.cli import main
from repro.cluster.spec import ClusterSpec
from repro.faults import (CampaignRunner, CheckpointSurvivability,
                          get_campaign)

PROTOCOLS = ("stop-and-sync", "chandy-lamport", "uncoordinated", "diskless")


def test_campaign_is_registered_with_replicated_spec_and_checker():
    campaign = get_campaign("store-crash-burst")
    assert campaign.cluster_spec.replication_factor == 2
    assert any(isinstance(c, CheckpointSurvivability)
               for c in campaign.checkers)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_crash_burst_is_green_under_every_protocol(protocol):
    """Crashing any k-1 replica holders between commit and restart must
    leave the latest committed line restorable — for all four C/R
    protocols running over the k=2 store."""
    report = CampaignRunner("store-crash-burst", seed=3,
                            protocol=protocol, policy="restart").run()
    assert report.ok, report.summary()
    assert report.data["app"]["results"] == report.data["golden"]
    surv = [c for c in report.data["checks"]
            if c["checker"] == "checkpoint-survivability"]
    assert surv and all(not c["violations"] for c in surv)


def test_k1_guard_the_same_campaign_loses_the_line():
    """With replication stripped to k=1 the identical crash schedule
    demonstrably breaks the survivability contract: the checker is
    vacuous (1 crash >= k), and the store has to fall back — the crash
    wipes the victim's only copies, so at some convergence point the
    latest committed version is NOT restorable."""
    runner = CampaignRunner("store-crash-burst", seed=3,
                            protocol="stop-and-sync", policy="restart",
                            cluster_spec=ClusterSpec(replication_factor=1),
                            checkers=(CheckpointSurvivability(k=2),))
    report = runner.run()
    # the workload still finishes (restart falls back to an older line or
    # version 0), but the k=2 contract is violated along the way
    assert report.data["status"] == "completed"
    assert report.violations, report.summary()
    msgs = [v for c in report.violations for v in c["violations"]]
    assert any("not restorable" in m for m in msgs)


def test_replicated_campaign_reports_are_seed_stable():
    r1 = CampaignRunner("store-crash-burst", seed=5,
                        protocol="chandy-lamport").run()
    r2 = CampaignRunner("store-crash-burst", seed=5,
                        protocol="chandy-lamport").run()
    assert r1.ok
    assert r1.to_json() == r2.to_json()


def test_cli_chaos_store_crash_burst_green(capsys):
    rc = main(["chaos", "--campaign", "store-crash-burst", "--seed", "3",
               "--protocol", "stop-and-sync", "--policy", "restart"])
    assert rc == 0
    assert "store-crash-burst" in capsys.readouterr().out


def test_cli_store_dumps_placement_replicas_repair(capsys):
    rc = main(["store", "--nodes", "5", "--k", "2", "--seed", "3",
               "--crash"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "placement policy=ring k=2" in out
    assert "replica map" in out and "holders=" in out
    assert "repair:" in out and "kicks=" in out
