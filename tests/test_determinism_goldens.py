"""Determinism golden suite — the engine-overhaul safety net.

Checked-in SHA-256 digests of campaign reports and telemetry snapshots
for a seed sweep (5 seeds x 2 C/R protocols over the ``standard``
campaign).  The digests were generated *before* the hot-path engine
overhaul; any optimization that perturbs event order, timing, fault
scheduling, or telemetry whitelisted series changes a digest and fails
this suite.

The ``standard`` campaign only ever runs the idealized stable disk, so
the store cells (3 seeds x ``stop-and-sync``/``diskless`` over
``store-crash-burst`` = ``replication_factor=2`` and ``tier-failover``
= memory+disk+fabric tiers with ``delta_depth=3``) pin the other two
store configurations; they were generated *before* the three store
classes were folded into one.

Neither family installs a schedule perturbation, so the perturbed cells
(``crash-recover`` / ``partition-flap`` x ``stop-and-sync`` /
``sender-logging`` x perturbation seeds 1-3 through the ``repro check``
harness, plus one cell with ``delivery_jitter > 0``) pin the tie-shuffled
dispatch; they were generated *before* perturbation was folded into the
engine's shared "next entry" primitive.  Their entries also carry
``events_processed``: with the digest of everything else, that makes the
whole report byte-pinned.  The tie shuffle draws from its stream for
every group of same-instant events, so these cells are a function of the
event *population*, not only of simulated behaviour: they were regenerated
(``--regen --family perturb``, the 22 unperturbed cells bit-for-bit
untouched) when GCS transport hop folding removed three dispatched events
per group-communication frame (the member's ``_tx``/``_rx`` pump gets and
the NIC ``Resource`` grant), and again when the control path became
run-to-completion: an idle member, daemon and LWG pump handle a message
inside the frame's ``driver_recv`` event, so the per-frame inbox get, the
``gcs-ev`` get and the LWG get are no longer events a tie group can hold —
per-frame delivery order still is.  A third time for data-path hop
folding: a program step awaits its own events (the race event that wrapped
every one of them is gone) and the polling thread and the MPI dispatcher
are callback stages (their two queue gets per message are gone); the 22
unperturbed digests, both ``fleet-churn`` digests and the five ``migrate``
shas did not move.

No campaign migrates a rank, so the ``migrate`` family pins that path
directly: five scenarios (4 nodes, 3 ranks; ``migrate(rank 1 -> n3)`` at
t = 1.3 s, crash ``n0`` one second later, run to completion) digest every
daemon's ``log``, the per-rank results, final time, frame/byte counts,
the restart/migrate counters, ``local_msgs``, final placement and world
version, and carry ``events_processed`` *beside* the digest, as the
perturbed cells do (it used to be hashed inside, so any change of the
event population rewrote the sha and hid whether behaviour had moved);
two more cells digest the ``fleet-churn`` report bytes (proactive
migration under load) for seeds 0 and 1.  They were generated *before*
migration was folded into the one restart path, and re-pinned on
untouched code when ``events_processed`` left the hash.

All four families were regenerated once for one reason (DESIGN §21): an
application became two main-group casts — ``app-submit`` opens its
lightweight group, finished ranks are reported point-to-point to the app
authority, one ``app-done`` closes it — so every report's frame, byte and
event counters moved, and with fewer casts queued ahead of them so did
timestamps.  Not blind: the full report JSON of all 42 cells was dumped on
the parent and on the change first, and the JSON paths that differ are
``series/net.frames_sent/tcp-ethernet``, ``engine/events_processed``,
``restart_events[]/time`` (campaign cells); ``frames_sent``, ``bytes_sent``,
``events_processed`` and the timestamps — never the text — of
``logs/*`` (``migrate`` cells); ``jobs[]/finished_at`` and the matching
``done`` lines of ``scheduler_log`` (``fleet-churn``).  Application results,
final status, invariant verdicts, the fault log, ``daemon.restarts``,
``daemon.ranks_restarted``, ``daemon.ranks_migrated`` and ``gcs.views`` per
node are equal in every cell.

And once more, the same way, when the failure detector became a star
(DESIGN §22: members heartbeat and time their coordinator, the coordinator
the whole view; 2(n-1) heartbeats a period instead of n(n-1)).  Differing
paths, all 42 cells dumped on parent and change first:
``series/net.frames_sent/*``, ``series/net.frames_dropped/*`` and
``engine/events_processed`` (35 campaign cells); ``restart_events[]/time``
(17: the isolated spare of ``standard`` / ``partition-flap``, on the side
of the partition that loses the coordinator, notices one ``suspect_timeout``
later and restarts at 4.70 s instead of 4.45 s; in the one jitter cell the
per-frame jitter stream is drawn for fewer frames, which moves its four
restart stamps by about a microsecond); ``checks[]/time`` of the
final checks and ``engine/final_time`` (16: the ten ``standard`` cells end
0.5-1.0 s sooner — by 4.70 s recovery line 3 has committed, so the
``app-restart`` the spare re-casts after the merge rolls back to line 3, not
line 2, and 0.8 s less is re-executed; under ``chandy-lamport`` that is also
22 more marker frames on Myrinet — the six ``partition-flap`` cells end 0.5 s
later); ``frames_sent`` / ``bytes_sent`` / ``events_processed`` only in the
``migrate`` cells (every log line and timestamp equal); in ``fleet-churn``
``jobs[]/admitted_at`` (1), ``jobs[]/finished_at`` (7) and the matching
``scheduler_log`` lines, one 0.25 s poll quantum earlier.  Results, final
status, check verdicts, the fault log, ``daemon.restarts``,
``ranks_restarted``, ``ranks_migrated``, ``gcs.views`` per node, placement
and world version are equal in every cell.

And a third time when casts stopped being acknowledged copy by copy
(DESIGN §23: a member asks the coordinator for a missing ``Ordered`` by
sequence number instead).  Differing paths, all 42 cells dumped on parent
and change first: ``series/net.frames_sent/tcp-ethernet`` and
``engine/events_processed`` (35 campaign cells); ``restart_events[]/time``
in the one jitter cell only (its per-frame jitter stream is drawn for fewer
frames: four stamps by under a microsecond); ``frames_sent`` /
``bytes_sent`` / ``events_processed`` in the five ``migrate`` cells (every
log line and timestamp equal); in ``fleet-churn`` ``jobs[]/finished_at``
and the matching ``scheduler_log`` lines of three jobs, one 0.25 s poll
quantum earlier or later — the campaign's 5 % loss window draws
``net.loss`` per frame, so fewer frames lose different ones (with the
window removed every job time is equal).  Results, final status, check
verdicts, the fault log, ``daemon.restarts``, ``ranks_restarted``,
``ranks_migrated``, ``gcs.views`` per node, placement and world version
are equal in every cell.

All four families were regenerated a fourth time when the lightweight
group's relays stopped being acknowledged copy by copy (DESIGN §27: the
sequencer posts each ``lwg-ord`` copy bare and a member asks for a missing
one by sequence number).  Differing paths, all 42 cells dumped on parent and
change first: ``series/net.frames_sent/tcp-ethernet`` (26 campaign cells),
``series/net.frames_dropped/tcp-ethernet`` (21: fewer frames in a loss
window or a partition, fewer dropped) and ``engine/events_processed`` (27);
``restart_events[]/time`` in the one jitter cell only (four stamps by under a
microsecond: its jitter stream is drawn for fewer frames); ``frames_sent`` /
``bytes_sent`` / ``events_processed`` in three ``migrate`` cells, and in
``migrate/stop-and-sync`` the ``app mig done`` stamp of three daemons 0.38 ms
earlier (the last wave's casts no longer queue behind acknowledgements on
the sequencer's NIC); in ``fleet-churn`` ``jobs[]/finished_at`` and the
matching ``scheduler_log`` lines of four jobs, one 0.25 s poll quantum
earlier or later — the campaign's 5 % loss window draws ``net.loss`` per
frame (with the window removed every job time is equal on both sides).
Results, final status, check verdicts, the fault log, ``daemon.restarts``,
``ranks_restarted``, ``ranks_migrated``, ``gcs.views`` per node, placement
and world version are equal in every cell.

Only ``perturb`` and ``migrate`` were regenerated when the object bus went
(DESIGN §24: five dispatched events per rank fewer).  All 42 full reports
were dumped on parent and change first: the one differing path is
``engine/events_processed``, so every sha held and only the 18
``events_processed`` scalars of those two families moved.

The same two families again when a frame's arrival became one event
(DESIGN §12: the wire event and ``driver_recv`` folded, one event per frame
fewer).  The 13 perturbed and 7 ``migrate`` full reports were dumped on
parent and change first.  Differing paths: ``engine/events_processed`` (13
perturbed cells) and, in the four perturbation-seed-3 cells,
``series/gcs.views/n1`` and ``/n3`` — the shuffle, drawing over a different
event population, installed one transient view at n3 instead of n1 (4/3 ->
3/4); ``events_processed`` in the five ``migrate`` cells (diskless 4,215 ->
3,438), every sha equal; ``fleet-churn`` equal.  Results, status,
``final_time``, verdicts, restart events and the fault log are equal in
every cell, and the 22 unperturbed cells did not move.

Only ``migrate`` when an MPI message became four events (DESIGN §30: the
send stage rides the NIC FIFO by ready instant, polling plus dispatch are
one filing event).  The 7 ``migrate`` full reports were dumped on parent
and change first: the one differing path is ``events_processed``, in
``migrate/chandy-lamport`` (2,895 -> 2,811) and ``migrate/diskless``
(3,438 -> 3,270), whose markers and transfers are MPI messages; every sha
equal.  The 35 campaign cells pass untouched, ``perturb`` included.

The ``migrate`` cells were regenerated once more when the restart decision
became one ``RestartPlan`` value (``docs/records/35-restart-plan.md``).
The full undigested cells were dumped on parent and change first; the
only differing paths are ``logs/n0[1]`` and ``logs/n2[2]`` of each of the
five ``migrate/*`` cells, the text of the coordinator's ``migrate …
(from …)`` and ``restart … from …`` lines, which now name the plan's mode
and line (``coordinated {0: 3, 1: 3, 2: 3}``) instead of the restore dict
(``{'mode': 'coordinated', 'version': 3}``).  Timestamps,
``events_processed`` and every other field are equal, and both
``fleet-churn`` cells did not move.

No family above makes three of the restart decisions: promoting a
surviving backup copy in place (``replication``), restarting only the
crashed rank from the sender logs (``causal-logging``) and the
dependency-graph rollback (``uncoordinated``).  The ``restart`` family
pins them: ``replica-failover`` x ``replication`` and ``solo-crash`` x
``causal-logging`` / ``uncoordinated``, campaign seeds 0-2, unperturbed,
through the same test as the campaign cells.  They were generated on the
code that still decided restarts with one planner class per protocol,
before the decision became one ``RestartPlan`` value.

What is digested:

* the full campaign report (actions, checks, per-rank results, series,
  restart events, final simulated time) — normalized by dropping the one
  engine *work measure* (``engine.events_processed``): collapsing
  redundant event hops is exactly what the overhaul is allowed to do, so
  the number of engine wake-ups is not part of the behavioral contract,
  while everything the simulation *computed* is;
* the telemetry snapshot (the report's label-stable metric series plus
  the restart event log) separately, so a telemetry regression is
  distinguishable from a scheduling regression.

Regenerate (only when a PR deliberately changes simulated behavior, and
only the family it changes — cells outside ``--family`` are carried over
from the file untouched; record the reason in ``NOTE``)::

    PYTHONPATH=src python tests/test_determinism_goldens.py --regen \\
        --family {standard,store,perturb,restart,migrate}
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
from pathlib import Path

import pytest

from repro.check import CheckRunner
from repro.faults import CampaignRunner

GOLDEN_PATH = Path(__file__).parent / "goldens" / "determinism.json"

CAMPAIGN = "standard"
SEEDS = (0, 1, 2, 3, 4)
PROTOCOLS = ("stop-and-sync", "chandy-lamport")
POLICY = "restart"

MATRIX = [(seed, protocol) for seed in SEEDS for protocol in PROTOCOLS]

STORE_CAMPAIGNS = ("store-crash-burst", "tier-failover")
STORE_SEEDS = (0, 1, 2)
STORE_PROTOCOLS = ("stop-and-sync", "diskless")

STORE_MATRIX = [(campaign, seed, protocol) for campaign in STORE_CAMPAIGNS
                for seed in STORE_SEEDS for protocol in STORE_PROTOCOLS]

#: ``(campaign, protocol)`` of the restart decisions the other families
#: never make: promoting a backup copy in place, restarting the crashed
#: rank alone from the sender logs, and the dependency rollback.
RESTART_CELLS = (("replica-failover", "replication"),
                 ("solo-crash", "causal-logging"),
                 ("solo-crash", "uncoordinated"))
RESTART_SEEDS = (0, 1, 2)

PERTURB_CAMPAIGNS = ("crash-recover", "partition-flap")
PERTURB_PROTOCOLS = ("stop-and-sync", "sender-logging")
PERTURB_SEEDS = (1, 2, 3)
JITTER = 1e-6

#: ``(campaign, campaign seed, protocol, perturbation seed, jitter)``.
PERTURB_MATRIX = [(campaign, 0, protocol, perturb, 0.0)
                  for campaign in PERTURB_CAMPAIGNS
                  for protocol in PERTURB_PROTOCOLS
                  for perturb in PERTURB_SEEDS] \
    + [("crash-recover", 0, "stop-and-sync", 1, JITTER)]

MIGRATE_PROTOCOLS = ("stop-and-sync", "chandy-lamport", "uncoordinated",
                     "sender-logging", "diskless")
CHURN_SEEDS = (0, 1)
MIGRATE_KEYS = [f"migrate/{protocol}" for protocol in MIGRATE_PROTOCOLS] \
    + [f"fleet-churn/seed{seed}" for seed in CHURN_SEEDS]


def _run_migrate(key: str) -> dict:
    """One ``migrate`` family cell: its golden entry, freshly computed."""
    family, arg = key.split("/")
    if family == "fleet-churn":
        from repro.fleet import report_bytes, run_fleet_churn
        report = run_fleet_churn(nodes=16, seed=int(arg[4:]), strict=True)
        return {"report_sha256": hashlib.sha256(
                    report_bytes(report).encode()).hexdigest(),
                "duration": report["duration"],
                "n_migrations": len(report["migrations"])}
    from repro.apps import ComputeSleep
    from repro.core import (AppSpec, CheckpointConfig, FaultPolicy,
                            StarfishCluster)
    sf = StarfishCluster.build(nodes=4)
    handle = sf.submit(AppSpec(
        program=ComputeSleep, nprocs=3,
        params={"steps": 80, "step_time": 0.05},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol=arg, level="vm", interval=0.5),
        placement={0: "n0", 1: "n1", 2: "n2"}), app_id="mig")
    sf.engine.run(until=sf.engine.now + 1.3)
    sf.migrate(handle, rank=1, target_node="n3")
    sf.engine.run(until=sf.engine.now + 1.0)
    sf.crash_node("n0")
    results = sf.run_to_completion(handle, timeout=300)
    reg = sf.engine.metrics
    record = handle._record()
    scalars = {
        "final_time": sf.engine.now,
        "restarts": record.restarts,
        "world_version": record.world_version,
        "placement": {str(r): n for r, n in sorted(record.placement.items())},
    }
    # Per node, the daemon's local messages by kind (ints, zeros left out).
    local_msgs = {nid: {kind: int(n) for kind, n in reg.group_by(
        "daemon.local_msgs", "kind", node=nid).items() if n}
        for nid in sorted(sf.daemons)}
    digest = _digest({
        **scalars, "results": results,
        "logs": {nid: d.log for nid, d in sorted(sf.daemons.items())},
        "local_msgs": local_msgs,
        "frames_sent": reg.sum("net.frames_sent"),
        "bytes_sent": reg.sum("net.bytes_sent"),
        "daemon.restarts": reg.group_by("daemon.restarts", "app"),
        "ranks_restarted": reg.group_by("daemon.ranks_restarted", "app"),
        "ranks_migrated": reg.group_by("daemon.ranks_migrated", "app"),
    })
    return {"sha256": digest, **scalars,
            "events_processed": sf.engine.events_processed}


def _run_report(seed: int, protocol: str, campaign: str = CAMPAIGN,
                perturb=None, jitter: float = 0.0):
    if perturb is not None:
        return CheckRunner(campaign, seed=seed, protocol=protocol,
                           policy=POLICY, jitter=jitter
                           ).run_one(perturb).report
    return CampaignRunner(campaign, seed=seed, protocol=protocol,
                          policy=POLICY, compare_golden=False).run()


def normalize(data: dict) -> dict:
    """The behavioral view of a campaign report: everything except the
    engine's processed-event count (an implementation work measure that
    legitimately shrinks when the engine batches redundant hops)."""
    out = copy.deepcopy(data)
    out.get("engine", {}).pop("events_processed", None)
    return out


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def report_digest(data: dict) -> str:
    return _digest(normalize(data))


def telemetry_digest(data: dict) -> str:
    return _digest({"series": data["series"],
                    "restart_events": data["restart_events"]})


def _key(seed: int, protocol: str, campaign: str = CAMPAIGN,
         perturb=None, jitter: float = 0.0) -> str:
    key = f"{campaign}/seed{seed}/{protocol}/{POLICY}"
    if perturb is not None:
        key += f"/perturb{perturb}"
    if jitter:
        key += f"/jitter{jitter:g}"
    return key


def _load_goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def goldens():
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing — regenerate with "
        f"PYTHONPATH=src python {__file__} --regen")
    return _load_goldens()


FAMILIES = {
    "standard": [(CAMPAIGN, seed, protocol, None, 0.0)
                 for seed, protocol in MATRIX],
    "store": [cell + (None, 0.0) for cell in STORE_MATRIX],
    "perturb": PERTURB_MATRIX,
    "restart": [(campaign, seed, protocol, None, 0.0)
                for campaign, protocol in RESTART_CELLS
                for seed in RESTART_SEEDS],
}
ALL_CELLS = [cell for cells in FAMILIES.values() for cell in cells]
FAMILY_NAMES = sorted(FAMILIES) + ["migrate"]

#: Written into the JSON: why each family holds the digests it does.
NOTE = ("migrate cells regenerated when the restart decision became one "
        "RestartPlan value: the one differing path is the text of two "
        "daemon log lines per cell, logs/n0[1] 'migrate ... (from ...)' and "
        "logs/n2[2] 'restart ... from ...' (the plan's mode and line in "
        "place of the restore dict), at equal timestamps; events_processed "
        "and everything else equal, fleet-churn untouched; audited against "
        "the parent's full dumps first.  Before that: "
        "restart cells added on untouched code (replica-failover x "
        "replication, solo-crash x causal-logging / uncoordinated, seeds "
        "0-2: the failover, solo log-replay and dependency-rollback "
        "restart decisions), the 42 older entries carried over.  "
        "Before that: "
        "migrate cells regenerated when an MPI message became three "
        "events (a frame bound for a polling VNI is handed over at "
        "transmit with its arrival instant; no arrival event): only "
        "events_processed moved, migrate/chandy-lamport 2811 -> 2769 and "
        "migrate/diskless 3270 -> 3186, every sha equal; audited against "
        "the parent's full reports first, the 35 campaign cells untouched.  "
        "Before that: "
        "migrate cells regenerated when an MPI message became four "
        "events (the send stage rides the NIC FIFO by ready instant; polling "
        "and dispatch are one filing event): only events_processed moved, "
        "in migrate/chandy-lamport and migrate/diskless, every sha equal; "
        "audited against the parent's full reports first, the 35 campaign "
        "cells untouched.  Before that: "
        "perturb and migrate cells regenerated when a frame's arrival "
        "became one event (wire + driver_recv; the driver_recv event is "
        "gone): in the 13 perturb cells events_processed moved and, in the "
        "four perturbation-seed-3 cells, the tie shuffle installed one "
        "transient view at n3 instead of n1 (series/gcs.views n1/n3 "
        "swapped); in the migrate cells only events_processed moved, every "
        "sha equal; audited cell by cell against the parent's full reports "
        "first — results, status, final_time, verdicts and everything else "
        "equal, the other 22 cells untouched.  Before that: "
        "all four families regenerated a fourth time when the lightweight "
        "group's relays stopped being acknowledged copy by copy (a member "
        "asks the sequencer for a missing lwg-ord by sequence number): frame "
        "/ drop / byte / event counters moved, the jitter cell's restart "
        "stamps by under a microsecond, migrate/stop-and-sync's 'app mig "
        "done' stamps by 0.38 ms and four fleet-churn job times by one poll "
        "quantum (the loss window draws for fewer frames), audited cell by "
        "cell against the parent's full reports first — results, status, "
        "verdicts, fault log, restart and migration counters, gcs.views, "
        "placement and world version equal everywhere.  Before that: "
        "perturb and migrate cells regenerated when the object bus went "
        "(five events per rank fewer): only events_processed moved, every "
        "sha equal, the other 24 cells untouched.  Before that: "
        "all four families regenerated a third time when casts stopped "
        "being acknowledged copy by copy (a member asks the coordinator "
        "for a missing Ordered by sequence number): frame / byte / event "
        "counters moved, the jitter cell's restart stamps by under a "
        "microsecond and three fleet-churn job times by one poll quantum "
        "(the loss window draws for fewer frames), audited cell by cell "
        "against the parent's full reports first — results, status, "
        "verdicts, fault log, restart and migration counters, gcs.views, "
        "placement and world version equal everywhere.  Before that: "
        "all four families regenerated a second time when the failure "
        "detector became a star (members heartbeat and time their "
        "coordinator, the coordinator the whole view): frame / drop / event "
        "counters moved everywhere, the orphan side of a partition notices "
        "one suspect_timeout later (restart_events[]/time, final_time and "
        "the final checks of the standard and partition-flap cells; "
        "fleet-churn job times by one poll quantum), audited cell by cell "
        "against the parent's full reports first — results, status, "
        "verdicts, fault log, restart and migration counters, gcs.views, "
        "placement and world version equal everywhere.  Before that: "
        "all four families regenerated once when an application became "
        "two main-group casts (app-submit opens the LWG, rank completion "
        "is reported to the app authority, one app-done closes it): frame "
        "/ byte / event counters and timestamps moved, audited cell by "
        "cell against the parent's full reports first — results, status, "
        "verdicts, fault log, restart counters and gcs.views equal "
        "everywhere.  Before that: "
        "standard and store cells: generated pre-engine-overhaul / "
        "pre-store-fold, never regenerated.  perturb cells: regenerated "
        "for GCS transport hop folding (three fewer dispatched events per "
        "GCS frame reshuffle the tie-shuffle stream) and again for the "
        "run-to-completion control path (an idle member/daemon/LWG pump "
        "handles a message inside the frame's driver_recv event: the "
        "inbox, gcs-ev and LWG gets left the event population) and for "
        "data-path hop folding (a step awaits its own events: no race "
        "event per awaited event; polling thread and MPI dispatcher are "
        "callback stages: no queue get per receive stage); unperturbed "
        "cells untouched all three times.  migrate cells: "
        "generated before migration was folded into the one restart path; "
        "re-pinned once, on untouched code, to hash everything but "
        "events_processed and carry that count beside the sha.  Regenerate one family, only when a PR "
        "deliberately changes what it pins.")


def _entry(report) -> dict:
    entry = {
        "report_sha256": report_digest(report.data),
        "telemetry_sha256": telemetry_digest(report.data),
        "status": report.data["status"],
        "final_time": report.data["engine"]["final_time"],
        "n_actions": len(report.data["actions"]),
    }
    if "perturbation" in report.data:
        entry["events_processed"] = \
            report.data["engine"]["events_processed"]
    return entry


@pytest.mark.parametrize("campaign,seed,protocol,perturb,jitter", ALL_CELLS,
                         ids=[_key(s, p, c, ps, j)
                              for c, s, p, ps, j in ALL_CELLS])
def test_campaign_report_matches_golden(goldens, campaign, seed, protocol,
                                        perturb, jitter):
    report = _run_report(seed, protocol, campaign, perturb, jitter)
    key = _key(seed, protocol, campaign, perturb, jitter)
    entry = goldens["entries"][key]
    assert report_digest(report.data) == entry["report_sha256"], (
        f"campaign report for {key} diverged from its golden — a change "
        f"perturbed event order, timing, or the store's behaviour.\n"
        f"{report.summary()}")
    assert telemetry_digest(report.data) == entry["telemetry_sha256"], (
        f"telemetry series for {key} diverged from its golden")
    # Stable scalars too, so a digest mismatch in the future comes with
    # a human-readable first diff.
    assert _entry(report) == entry


@pytest.mark.parametrize("key", MIGRATE_KEYS)
def test_migration_matches_golden(goldens, key):
    assert _run_migrate(key) == goldens["entries"][key], (
        f"{key} diverged from its golden: a change reordered, added or "
        "dropped a cast or a kill on the migrate/restart path — find it, "
        "do not regenerate")


def test_same_process_rerun_is_byte_identical():
    """Two same-seed runs in one process: identical bytes, including the
    engine work measures (no process-global state leaks into reports)."""
    a = _run_report(SEEDS[0], PROTOCOLS[0]).to_json()
    b = _run_report(SEEDS[0], PROTOCOLS[0]).to_json()
    assert a == b


def test_normalization_only_drops_the_work_measure():
    report = _run_report(SEEDS[0], PROTOCOLS[0])
    norm = normalize(report.data)
    assert "events_processed" not in norm["engine"]
    assert norm["engine"]["final_time"] == report.data["engine"]["final_time"]
    assert norm["actions"] == report.data["actions"]


def regenerate(family=None) -> None:
    """Rewrite the cells of ``family`` (all cells with None); every cell
    outside it keeps the entry the file already has."""
    entries = {} if family is None else _load_goldens()["entries"]
    for campaign, seed, protocol, perturb, jitter in (
            ALL_CELLS if family is None else FAMILIES.get(family, ())):
        report = _run_report(seed, protocol, campaign, perturb, jitter)
        key = _key(seed, protocol, campaign, perturb, jitter)
        entries[key] = _entry(report)
        print(f"  {key}: {entries[key]['report_sha256'][:16]}…")
    for key in MIGRATE_KEYS if family in (None, "migrate") else ():
        entries[key] = _run_migrate(key)
        print(f"  {key}: {entries[key]}")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(
        {"campaign": CAMPAIGN, "policy": POLICY, "note": NOTE,
         "entries": entries}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--regen", action="store_true")
    parser.add_argument("--family", choices=FAMILY_NAMES,
                        help="regenerate only this family's cells")
    args = parser.parse_args()
    if args.regen:
        regenerate(args.family)
    else:
        print(__doc__)
