"""Command-line interface: ``python -m repro <command>``.

A thin operational front end for trying the system without writing code:

* ``demo`` — boot a cluster, run Monte-Carlo π, print the result;
* ``status`` — boot a cluster with a workload and print the metrics report;
* ``metrics [--format text|prom]`` — same workload, raw telemetry dump;
* ``trace --chrome OUT.json`` — run traced, export Chrome trace JSON;
* ``chaos --campaign NAME`` — run a deterministic fault campaign;
* ``store [flags] [placement|replica-map|repair|tiers]`` — run a
  replicated- or tiered-store workload and dump placement, the replica
  map, repair status, or the per-tier holder/delta-chain map (no
  subcommand = every section; ``--tiers memory,disk,fabric`` builds the
  multi-level store);
* ``examples`` — list the bundled example scripts;
* ``rtt [--transport ...]`` — quick Figure-5-style latency probe.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro._version import __version__


def cmd_demo(args) -> int:
    from repro.apps import MonteCarloPi
    from repro.core import AppSpec, StarfishCluster
    sf = StarfishCluster.build(nodes=args.nodes)
    print(f"booted {args.nodes}-node Starfish cluster "
          f"(group epoch {sf.any_daemon().gm.view.epoch})")
    results = sf.run(AppSpec(program=MonteCarloPi, nprocs=args.nodes,
                             params={"shots": args.shots}))
    print(f"pi ~ {results[0]:.6f} after {args.shots} samples on "
          f"{args.nodes} ranks (simulated t={sf.engine.now:.3f}s)")
    return 0


def cmd_status(args) -> int:
    from repro.core import ClusterMetrics
    sf = _run_status_workload(args.nodes, args.seconds)
    print(ClusterMetrics(sf).format_report())
    return 0


def _run_status_workload(nodes: int, seconds: float, trace: bool = False):
    """Boot a cluster, run the ``status`` workload, return the cluster."""
    from repro.apps import ComputeSleep
    from repro.core import (AppSpec, CheckpointConfig, FaultPolicy,
                            StarfishCluster)
    sf = StarfishCluster.build(nodes=nodes, trace=trace)
    sf.submit(AppSpec(program=ComputeSleep, nprocs=nodes,
                      params={"steps": 100, "step_time": 0.05},
                      ft_policy=FaultPolicy.RESTART,
                      checkpoint=CheckpointConfig(protocol="stop-and-sync",
                                                  level="vm", interval=1.0)))
    sf.engine.run(until=sf.engine.now + seconds)
    return sf


def cmd_metrics(args) -> int:
    from repro.obs import to_prometheus, to_text
    sf = _run_status_workload(args.nodes, args.seconds)
    render = to_prometheus if args.format == "prom" else to_text
    print(render(sf.engine.metrics))
    return 0


def cmd_trace(args) -> int:
    from repro.obs import chrome_trace
    try:
        fh = open(args.chrome, "w")   # fail on a bad path *before* the run
    except OSError as exc:
        print(f"repro trace: cannot write {args.chrome}: {exc.strerror}",
              file=sys.stderr)
        return 1
    with fh:
        sf = _run_status_workload(args.nodes, args.seconds, trace=True)
        doc = chrome_trace(sf.engine.tracer,
                           event_log=sf.engine.metrics.events)
        json.dump(doc, fh)
    print(f"wrote {len(doc['traceEvents'])} trace events to {args.chrome} "
          f"(open in chrome://tracing or https://ui.perfetto.dev)")
    return 0


def cmd_chaos(args) -> int:
    from repro.errors import CampaignError
    from repro.faults import CampaignRunner, get_campaign
    try:
        campaign = get_campaign(args.campaign)
    except CampaignError as exc:
        print(f"repro chaos: {exc}", file=sys.stderr)
        return 2
    fh = None
    if args.json is not None:
        try:
            fh = open(args.json, "w")  # fail on a bad path *before* the run
        except OSError as exc:
            print(f"repro chaos: cannot write {args.json}: {exc.strerror}",
                  file=sys.stderr)
            return 1
    runner = CampaignRunner(campaign, seed=args.seed, protocol=args.protocol,
                            policy=args.policy, nodes=args.nodes)
    try:
        report = runner.run(raise_on_error=False)
    except Exception:
        if fh is not None:
            fh.close()
        raise
    if fh is not None:
        with fh:
            fh.write(report.to_json())
    print(report.summary())
    if not campaign.expect_completion:
        # Failure campaigns are green when they fail *cleanly* (a typed
        # StarfishError recorded in the report, not a hang or a crash).
        aborted_cleanly = report.status == "aborted" and report.data["error"]
        return 0 if aborted_cleanly else 1
    return 0 if report.ok else 1


def cmd_check(args) -> int:
    from repro.check.harness import CheckRunner
    from repro.errors import CampaignError
    from repro.faults import get_campaign
    try:
        campaigns = ([args.campaign] if args.campaign != "churn"
                     else ["store-crash-burst", "partition-flap"])
        for name in campaigns:
            get_campaign(name)
    except CampaignError as exc:
        print(f"repro check: {exc}", file=sys.stderr)
        return 2
    from repro.ckpt.protocols import PROTOCOLS
    protocols = ([args.protocol] if args.protocol != "all"
                 else sorted(PROTOCOLS))
    rc = 0
    results = []
    for name in campaigns:
        for protocol in protocols:
            runner = CheckRunner(name, protocol=protocol, seed=args.seed,
                                 jitter=args.jitter, nodes=args.nodes)
            if args.replay is not None:
                outcome, identical = runner.replay(args.replay)
                print(f"check {name!r} protocol={protocol} "
                      f"perturb_seed={args.replay}: [{outcome.verdict}] "
                      f"status={outcome.status}  "
                      f"replay byte-identical: {identical}")
                if outcome.error:
                    print(f"  {outcome.error['type']}: "
                          f"{outcome.error['message']}")
                    diagnosis = outcome.error.get("diagnosis")
                    if diagnosis:
                        from repro.check.watchdog import format_diagnosis
                        print(format_diagnosis(diagnosis))
                if not identical or not outcome.ok:
                    rc = 1
                continue
            result = runner.run(seeds=range(1, args.seeds + 1))
            results.append(result)
            print(result.summary())
            if not result.ok:
                rc = 1
    if args.json is not None and args.replay is None:
        import json as _json
        payload = _json.dumps([r.to_dict() for r in results], sort_keys=True,
                              indent=2, default=repr) + "\n"
        try:
            with open(args.json, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"repro check: cannot write {args.json}: {exc.strerror}",
                  file=sys.stderr)
            return 1
    return rc


def cmd_store(args) -> int:
    from repro.apps import ComputeSleep
    from repro.cluster.spec import ClusterSpec
    from repro.core import (AppSpec, CheckpointConfig, FaultPolicy,
                            StarfishCluster)
    from repro.faults import CrashNode, FaultPlan, RecoverNode
    from repro.store import ring_successors
    tiers = tuple(args.tiers.split(",")) if args.tiers else None
    spec = ClusterSpec(nodes=args.nodes, seed=args.seed,
                       replication_factor=args.k,
                       store_tiers=tiers,
                       delta_depth=args.delta_depth if tiers else 0,
                       tier_policy=args.tier_policy if tiers
                       else "write-through")
    sf = StarfishCluster.build(spec=spec)
    nprocs = min(3, args.nodes)
    handle = sf.submit(AppSpec(
        program=ComputeSleep, nprocs=nprocs,
        params={"steps": 10, "step_time": 0.25, "state_bytes": 4096},
        ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol=args.protocol, level="vm",
                                    interval=0.8)))
    if args.crash:
        plan = (FaultPlan()
                .at(1.2, CrashNode(pick="app-host", app_id=handle.app_id))
                .at(2.8, RecoverNode()))
        plan.apply_to(sf, offset=sf.engine.now)
    sf.run_to_completion(handle)
    store = sf.store
    sub = getattr(args, "store_cmd", None)
    if sub is not None:
        sections = ({"replica-map": "replicas"}.get(sub, sub),)
    else:
        sections = ("placement", "replicas", "repair")
        if tiers is not None:
            sections += ("tiers",)
    app_id = getattr(args, "app", None) or handle.app_id
    rank = getattr(args, "rank", None)
    version = getattr(args, "version", None)

    def keep(key) -> bool:
        return ((rank is None or key[1] == rank)
                and (version is None or key[2] == version))

    if "placement" in sections:
        print(f"placement policy=ring k={store.k} nodes={args.nodes}")
        newest = store.max_version(app_id)
        for key, rec in store.iter_records(app_id):
            if key[2] != (version if version is not None else newest) \
                    or not keep(key):
                continue
            primary = next(iter(rec.holders.get(rec.tier, ())), "?")
            extra = ring_successors(primary, store.candidates(primary),
                                    store.k - 1)
            print(f"  rank {key[1]} v{key[2]}: primary {primary} "
                  f"-> replicas {extra or '[]'}")
    if "replicas" in sections:
        committed = store.latest_committed(app_id)
        restorable = store.latest_restorable(app_id, range(nprocs))
        print(f"replica map app={app_id} committed={committed} "
              f"restorable={restorable} deficit={store.replica_deficit()}")
        for key, rec in store.iter_records(app_id):
            if not keep(key):
                continue
            print(f"  {key[0]} rank={key[1]} v{key[2]} "
                  f"holders={rec.holders.get(rec.tier, [])} "
                  f"reachable={store.available_holders(rec)}")
    if "repair" in sections:
        if store.repair is None:
            print(f"repair: disabled (k={store.k}; no replicas to maintain)")
        else:
            status = store.repair.status()
            print("repair: " + " ".join(f"{k}={status[k]}"
                                        for k in sorted(status)))
    if "tiers" in sections:
        print(f"tier map app={app_id} tiers={'+'.join(store.tiers)} "
              f"promotion={store.promotion} "
              f"delta_depth={store.delta_depth}")
        for key, rec in store.iter_records(app_id):
            if not keep(key):
                continue
            by_tier = store.available_by_tier(rec)
            held = " ".join(
                f"{t}={by_tier.get(t, [])}" for t in store.tiers)
            delta = (f" delta_of=v{rec.delta_of}"
                     f" full={rec.full_nbytes}B"
                     if rec.is_delta else " full-image")
            print(f"  rank={key[1]} v{key[2]} nbytes={rec.nbytes}"
                  f"{delta} {held}")
    return 0


def cmd_fleet_churn(args) -> int:
    from repro.errors import CampaignError, FleetOracleViolation
    from repro.fleet import report_bytes, run_fleet_churn, sweep_fleet_churn
    fh = None
    if args.json is not None:
        try:
            fh = open(args.json, "w")  # fail on a bad path *before* the run
        except OSError as exc:
            print(f"repro fleet churn: cannot write {args.json}: "
                  f"{exc.strerror}", file=sys.stderr)
            return 1
    try:
        if args.seeds > 0:
            summary = sweep_fleet_churn(nodes=args.nodes, seed=args.seed,
                                        seeds=args.seeds)
            payload = json.dumps(summary, sort_keys=True, indent=1)
            for run in summary["runs"]:
                print(f"  perturb_seed={run['perturb_seed']}: "
                      f"done={run['done']} rejected={run['rejected']} "
                      f"migrations={run['migrations']} "
                      f"victim_migrated_at={run['victim_migrated_at']} "
                      f"oracle={run['oracle']}")
            print(f"fleet churn sweep: {summary['sweeps']} runs green "
                  f"(nodes={summary['nodes']} seed={summary['seed']})")
        else:
            report = run_fleet_churn(nodes=args.nodes, seed=args.seed,
                                     perturb_seed=args.perturb_seed)
            payload = report_bytes(report)
            done = sum(1 for j in report["jobs"] if j["state"] == "done")
            print(f"fleet churn: {done}/{report['submitted']} jobs done, "
                  f"{len(report['migrations'])} proactive migrations, "
                  f"victim migrated at rel "
                  f"t={report['victim_migrated_at']}, "
                  f"oracle={report['oracle']}")
    except (CampaignError, FleetOracleViolation) as exc:
        if fh is not None:
            fh.close()
        print(f"repro fleet churn: {exc}", file=sys.stderr)
        return 1
    if fh is not None:
        with fh:
            fh.write(payload + "\n")
    return 0


def cmd_fleet_serve(args) -> int:
    from repro.core import StarfishCluster
    from repro.fleet import ControlAPI, FleetController, FleetHTTPServer
    sf = StarfishCluster.build(nodes=args.nodes)
    controller = FleetController(sf)
    sf.engine.run(until=sf.engine.now + 1.0)   # first heartbeat round
    api = ControlAPI(controller)
    server = FleetHTTPServer(api, host=args.host, port=args.port)
    print(f"fleet gateway on {server.url} over a simulated "
          f"{args.nodes}-node cluster (POST /v1/step to advance time)")
    if args.self_test:
        return _fleet_self_test(server)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _fleet_self_test(server) -> int:
    """Exercise the gateway over real sockets, then shut it down."""
    import urllib.request
    server.start_background()
    rc = 0
    try:
        def get(path):
            with urllib.request.urlopen(server.url + path, timeout=10) as r:
                return r.read().decode()

        def post(path, body):
            req = urllib.request.Request(
                server.url + path, data=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(req, timeout=10) as r:
                return json.loads(r.read().decode())

        nodes = json.loads(get("/v1/nodes"))
        job = post("/v1/submit", {"tenant": "selftest",
                                  "program": "computesleep", "nprocs": 2,
                                  "params": {"steps": 3,
                                             "step_time": 0.05}})
        status = post("/v1/step", {"dt": 2.0})
        final = json.loads(get(f"/v1/jobs/{job['job']['job_id']}"))
        metrics = get("/metrics?tenant=selftest")
        print(f"  nodes: {len(nodes['nodes'])} tracked, ok={nodes['ok']}")
        print(f"  submit: job {job['job']['job_id']} -> "
              f"{final['job']['state']} at t={status['time']:.3f}")
        wanted = "fleet_jobs_submitted"
        print(f"  metrics: {wanted} exported="
              f"{wanted in metrics}")
        ok = (nodes["ok"] and final["job"]["state"] == "done"
              and wanted in metrics)
        print(f"self-test: {'PASS' if ok else 'FAIL'}")
        rc = 0 if ok else 1
    finally:
        server.shutdown()
    return rc


def cmd_rtt(args) -> int:
    from repro.apps import PingPong
    from repro.core import AppSpec, StarfishCluster
    sf = StarfishCluster.build(nodes=2)
    sizes = [1, 64, 1024, 16384, 65536]
    results = sf.run(AppSpec(program=PingPong, nprocs=2,
                             params={"sizes": sizes, "reps": args.reps},
                             transport=args.transport), timeout=2000)
    print(f"round-trip over {args.transport} ({args.reps} reps):")
    for size in sizes:
        print(f"  {size:>7} B  {results[0][size] * 1e6:10.1f} us")
    return 0


def cmd_examples(_args) -> int:
    here = Path(__file__).resolve().parents[2] / "examples"
    if not here.is_dir():
        print("examples/ directory not found (installed without sources?)")
        return 1
    for script in sorted(here.glob("*.py")):
        doc = script.read_text().split('"""')
        headline = doc[1].strip().splitlines()[0] if len(doc) > 1 else ""
        print(f"  {script.name:<34} {headline}")
    return 0


def main(argv=None) -> int:
    from repro.ckpt.protocols import PROTOCOLS
    protocol_names = sorted(PROTOCOLS)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Starfish (HPDC 1999) reproduction — fault-tolerant "
                    "dynamic MPI on a simulated cluster of workstations.")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run Monte-Carlo pi on a cluster")
    demo.add_argument("--nodes", type=int, default=4)
    demo.add_argument("--shots", type=int, default=200_000)
    demo.set_defaults(fn=cmd_demo)

    status = sub.add_parser("status", help="run a workload and print the "
                                           "cluster metrics report")
    status.add_argument("--nodes", type=int, default=4)
    status.add_argument("--seconds", type=float, default=3.0)
    status.set_defaults(fn=cmd_status)

    metrics = sub.add_parser("metrics", help="run a workload and dump the "
                                             "telemetry registry")
    metrics.add_argument("--nodes", type=int, default=4)
    metrics.add_argument("--seconds", type=float, default=3.0)
    metrics.add_argument("--format", default="text",
                         choices=["text", "prom"])
    metrics.set_defaults(fn=cmd_metrics)

    trace = sub.add_parser("trace", help="run a traced workload and export "
                                         "Chrome trace_event JSON")
    trace.add_argument("--nodes", type=int, default=4)
    trace.add_argument("--seconds", type=float, default=3.0)
    trace.add_argument("--chrome", required=True, metavar="OUT.json",
                       help="output path for the trace JSON")
    trace.set_defaults(fn=cmd_trace)

    chaos = sub.add_parser("chaos", help="run a deterministic fault "
                                         "campaign with invariant checks")
    chaos.add_argument("--campaign", required=True, metavar="NAME",
                       help="campaign name (see repro.faults.CAMPAIGNS)")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--nodes", type=int, default=None,
                       help="override the campaign's cluster size")
    chaos.add_argument("--protocol", default="stop-and-sync",
                       choices=protocol_names)
    chaos.add_argument("--policy", default="restart",
                       choices=["kill", "view-notify", "restart"])
    chaos.add_argument("--json", default=None, metavar="OUT.json",
                       help="write the full campaign report as JSON")
    chaos.set_defaults(fn=cmd_chaos)

    check = sub.add_parser(
        "check", help="schedule-perturbation sweep: re-run a campaign "
                      "under N seeded shuffles of same-instant event "
                      "ordering, with protocol oracles + liveness watchdog")
    check.add_argument("--campaign", default="churn", metavar="NAME",
                       help="campaign name, or 'churn' (default) for the "
                            "store-crash-burst + partition-flap pair")
    check.add_argument("--protocol", default="all",
                       choices=["all"] + protocol_names)
    check.add_argument("--seeds", type=int, default=10, metavar="N",
                       help="perturbation seeds 1..N to sweep (default 10)")
    check.add_argument("--seed", type=int, default=0,
                       help="the campaign seed (shared by every "
                            "perturbed run)")
    check.add_argument("--jitter", type=float, default=0.0,
                       metavar="SECONDS",
                       help="per-frame delivery jitter bound (breaks up "
                            "same-instant wire batches; per-link FIFO is "
                            "preserved)")
    check.add_argument("--nodes", type=int, default=None,
                       help="override the campaign's cluster size")
    check.add_argument("--replay", type=int, default=None, metavar="PSEED",
                       help="replay one perturbation seed twice and verify "
                            "the report reproduces byte-identically")
    check.add_argument("--json", default=None, metavar="OUT.json",
                       help="write all sweep results as JSON")
    check.set_defaults(fn=cmd_check)

    store = sub.add_parser("store", help="run a checkpointed workload on "
                                         "the replicated/tiered store and "
                                         "inspect placement/replicas/"
                                         "repair/tiers")
    # Build flags live on THIS parser only (before the subcommand token);
    # the inspection subcommands define --app/--rank/--version only —
    # argparse child defaults would otherwise clobber parent-parsed
    # values (bpo-9351).
    store.add_argument("--nodes", type=int, default=5)
    store.add_argument("--k", type=int, default=2,
                       help="replication factor (copies per record)")
    store.add_argument("--protocol", default="stop-and-sync",
                       choices=protocol_names)
    store.add_argument("--seed", type=int, default=0)
    store.add_argument("--crash", action="store_true",
                       help="crash an app host mid-run (and recover it) to "
                            "exercise failure-driven repair")
    store.add_argument("--tiers", default=None, metavar="T1,T2,...",
                       help="storage tiers to walk instead of disk + "
                            "replicas (comma list from: memory, disk, "
                            "fabric)")
    store.add_argument("--delta-depth", type=int, default=0,
                       help="delta-checkpoint chain depth (with --tiers)")
    store.add_argument("--tier-policy", default="write-through",
                       choices=["write-through", "write-back"],
                       help="tier promotion policy (with --tiers)")
    store.set_defaults(fn=cmd_store, store_cmd=None)
    store_sub = store.add_subparsers(dest="store_cmd", metavar="SECTION")
    for sname, shelp in (
            ("placement", "per-rank primary -> replica picks"),
            ("replica-map", "holder map, committed/restorable line, "
                            "deficit"),
            ("repair", "repair-service status counters"),
            ("tiers", "per-tier holder map and delta chains")):
        sp = store_sub.add_parser(sname, help=shelp)
        sp.add_argument("--app", default=None,
                        help="application id filter (default: the "
                             "workload just run)")
        sp.add_argument("--rank", type=int, default=None,
                        help="only this rank's records")
        sp.add_argument("--version", type=int, default=None,
                        help="only this checkpoint version")

    fleet = sub.add_parser(
        "fleet", help="the multi-tenant fleet control plane: churn "
                      "campaign or a real HTTP gateway over a simulated "
                      "cluster")
    fleet_sub = fleet.add_subparsers(dest="fleet_cmd", required=True,
                                     metavar="ACTION")
    churn = fleet_sub.add_parser(
        "churn", help="run the deterministic fleet churn scenario "
                      "(3 tenants, quotas, proactive migration) with the "
                      "FleetOracle as the gate")
    churn.add_argument("--nodes", type=int, default=16)
    churn.add_argument("--seed", type=int, default=0)
    churn.add_argument("--seeds", type=int, default=0, metavar="N",
                       help="also sweep perturbation seeds 1..N "
                            "(0 = single run)")
    churn.add_argument("--perturb-seed", type=int, default=None,
                       metavar="PSEED",
                       help="run once under this perturbation seed")
    churn.add_argument("--json", default=None, metavar="OUT.json",
                       help="write the report (or sweep summary) as JSON")
    churn.set_defaults(fn=cmd_fleet_churn)
    serve = fleet_sub.add_parser(
        "serve", help="serve the fleet ControlAPI over real HTTP "
                      "(simulated cluster behind it)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="0 = pick a free port")
    serve.add_argument("--nodes", type=int, default=8)
    serve.add_argument("--self-test", action="store_true",
                       help="start, exercise every endpoint via real "
                            "HTTP requests, shut down (CI smoke)")
    serve.set_defaults(fn=cmd_fleet_serve)

    rtt = sub.add_parser("rtt", help="quick Figure-5-style latency probe")
    rtt.add_argument("--transport", default="bip-myrinet",
                     choices=["bip-myrinet", "tcp-ethernet"])
    rtt.add_argument("--reps", type=int, default=20)
    rtt.set_defaults(fn=cmd_rtt)

    examples = sub.add_parser("examples", help="list bundled examples")
    examples.set_defaults(fn=cmd_examples)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
