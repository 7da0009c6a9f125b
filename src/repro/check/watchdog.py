"""Liveness watchdog: turn a hung campaign into a typed diagnosis.

When a perturbed schedule deadlocks a C/R wave, the symptom is a bare
``CampaignError: workload did not reach a terminal state`` — useless for
debugging.  :func:`diagnose_hang` dumps the protocol state of every rank
at the moment the timeout fired: which wave is open, which ranks' counts
or done-votes are missing, how many buddy acks are outstanding, and which
channel/event each module's main loop is parked on — and, per node, what
that daemon believes about the app: its main view, the app's status and
finished ranks, placement and replicas, the lightweight group's members
and epoch, the app authority those imply, and the completion reports and
``app-done`` cast it holds.  The result is plain JSON-able data that rides
the campaign report (and therefore replays byte-identically with the rest
of it).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.sim.events import Timeout
from repro.sim.process import Process


def _parked_on(proto) -> Optional[str]:
    """Human-readable description of what a module's main loop waits on."""
    proc: Optional[Process] = proto._proc
    if proc is None:
        return "not-started"
    if proc.triggered:
        return "dead"
    target = proc._target
    if target is None:
        return "runnable"
    inbox = proto.inbox
    if inbox is not None and target in inbox._getters:
        return f"channel:{inbox.name}"
    if isinstance(target, Timeout):
        return f"timeout:{target.delay:g}"
    return f"event:{target.name or type(target).__name__}"


def _rank_entry(rank: int, node_id: str, handle) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "rank": rank,
        "node": node_id,
        "steps_completed": handle.steps_completed,
        "at_safe_point": handle._at_safe_point,
        "pause_requests": handle._pause_req,
        "finished": handle.done.triggered,
    }
    proto = handle.protocol
    if proto is None:
        return entry
    entry["protocol"] = proto.name
    entry["wave"] = getattr(proto, "_active", None)
    entry["committed"] = proto.last_committed
    entry["inbox_depth"] = (len(proto.inbox)
                            if proto.inbox is not None else None)
    entry["parked_on"] = _parked_on(proto)
    # Coordinated wave bookkeeping, where present.
    counts = getattr(proto, "_counts", None)
    if counts is not None:
        entry["counts_from"] = sorted(counts)
    done = getattr(proto, "_done", None)
    if done is not None:
        entry["done_from"] = sorted(done)
    recording = getattr(proto, "_recording", None)
    if recording is not None:
        entry["recording_channels"] = sorted(recording)
    acks = getattr(proto, "_acks_pending", None)
    if acks is not None:
        entry["acks_pending"] = acks
    return entry


def _node_entry(node_id: str, daemon, app_id: str) -> Dict[str, Any]:
    """One daemon's view of the app: the completion path's state (DESIGN
    §21), where two daemons that disagree leave an app that never ends."""
    view = daemon.gm.view
    entry: Dict[str, Any] = {
        "node": node_id,
        "up": daemon.node.is_up,
        "view_epoch": view.epoch if view is not None else None,
        "view_members": ([m.node for m in view.members]
                         if view is not None else []),
    }
    record = daemon.registry.maybe(app_id)
    if record is not None:
        entry.update(
            status=record.status.value,
            restarts=record.restarts,
            done_ranks=sorted(record.done_ranks),
            placement={str(r): n for r, n in sorted(record.placement.items())},
            replicas={str(r): list(nodes)
                      for r, nodes in sorted(record.replicas.items())})
    group = daemon.lwg.groups.get(app_id)
    members = group.members if group is not None else ()
    entry.update(
        lwg_members=[m.node for m in members],
        lwg_epoch=group.epoch if group is not None else None,
        authority=min(members).node if members else None,
        early_reports=len(daemon._early_reports.get(app_id, ())),
        done_cast=daemon._done_cast.get(app_id))
    return entry


def diagnose_hang(sf, handle, exc) -> Dict[str, Any]:
    """Dump per-rank protocol state for a hung (or dying) campaign run.

    ``sf`` is the :class:`~repro.core.StarfishCluster`, ``handle`` the app
    handle of the workload, ``exc`` the typed error that ended the run.
    Returns a JSON-serializable dict; never raises (a watchdog that
    crashes while diagnosing a hang would mask the original failure).
    """
    ranks: List[Dict[str, Any]] = []
    try:
        app_id = handle.app_id
        for node_id in sorted(sf.daemons):
            daemon = sf.daemons[node_id]
            for (aid, rank), h in sorted(daemon.handles.items()):
                if aid != app_id:
                    continue
                try:
                    ranks.append(_rank_entry(rank, node_id, h))
                except Exception as entry_exc:   # pragma: no cover
                    ranks.append({"rank": rank, "node": node_id,
                                  "error": repr(entry_exc)})
    except Exception as walk_exc:                # pragma: no cover
        return {"error": f"watchdog failed: {walk_exc!r}"}

    nodes: List[Dict[str, Any]] = []
    for node_id in sorted(sf.daemons):
        try:
            nodes.append(_node_entry(node_id, sf.daemons[node_id], app_id))
        except Exception as entry_exc:           # pragma: no cover
            nodes.append({"node": node_id, "error": repr(entry_exc)})

    diagnosis: Dict[str, Any] = {"cause": type(exc).__name__, "ranks": ranks,
                                 "nodes": nodes}
    waves = {r["wave"] for r in ranks if r.get("wave") is not None}
    if waves:
        wave = max(waves)
        in_wave = [r for r in ranks if r.get("wave") == wave]
        present = {r["rank"] for r in in_wave}
        missing_counts = sorted(set().union(
            *(present - set(r.get("counts_from", present))
              for r in in_wave)) if in_wave else [])
        missing_done = sorted(set().union(
            *(present - set(r.get("done_from", present))
              for r in in_wave)) if in_wave else [])
        diagnosis["stalled_wave"] = {
            "version": wave,
            "ranks_in_wave": sorted(present),
            "missing_counts_from": missing_counts,
            "missing_done_from": missing_done,
        }
    return diagnosis


def format_diagnosis(diagnosis: Dict[str, Any]) -> str:
    """Render a diagnosis dict as indented text for CLI output."""
    lines = [f"cause: {diagnosis.get('cause')}"]
    stalled = diagnosis.get("stalled_wave")
    if stalled:
        lines.append(
            f"stalled wave v{stalled['version']} over ranks "
            f"{stalled['ranks_in_wave']}: missing counts from "
            f"{stalled['missing_counts_from']}, missing done from "
            f"{stalled['missing_done_from']}")
    for r in diagnosis.get("ranks", []):
        if "error" in r:
            lines.append(f"rank {r.get('rank')}: <{r['error']}>")
            continue
        bits = [f"rank {r['rank']}@{r['node']}"]
        if "protocol" in r:
            bits.append(f"{r['protocol']} wave={r['wave']} "
                        f"committed={r['committed']} "
                        f"parked_on={r['parked_on']} "
                        f"inbox={r['inbox_depth']}")
            if "acks_pending" in r:
                bits.append(f"acks_pending={r['acks_pending']}")
        bits.append(f"steps={r['steps_completed']} "
                    f"safe_point={r['at_safe_point']} "
                    f"pauses={r['pause_requests']} "
                    f"finished={r['finished']}")
        lines.append("  ".join(bits))
    for n in diagnosis.get("nodes", []):
        if "error" in n:
            lines.append(f"node {n.get('node')}: <{n['error']}>")
            continue
        bits = [f"node {n['node']} up={n['up']} "
                f"view={n['view_epoch']}:{','.join(n['view_members'])}"]
        if "status" in n:
            bits.append(f"app={n['status']} restarts={n['restarts']} "
                        f"done={n['done_ranks']} "
                        f"placement={n['placement']} "
                        f"replicas={n['replicas']}")
        bits.append(f"lwg={n['lwg_epoch']}:{','.join(n['lwg_members'])} "
                    f"authority={n['authority']} "
                    f"early_reports={n['early_reports']} "
                    f"done_cast={n['done_cast']}")
        lines.append("  ".join(bits))
    return "\n".join("  " + ln for ln in lines)
