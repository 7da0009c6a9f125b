"""Pluggable invariant checkers for fault campaigns.

A checker is a tiny object with a ``name``, a ``final_only`` flag and a
``check(ctx)`` method returning a list of violation strings (empty =
green).  ``ctx`` is the :class:`~repro.faults.campaign.CampaignContext`
(duck-typed here to keep this module import-light): it carries the
Starfish system, the submitted handle/spec, the injector, the golden-run
results and the current phase (``"mid"`` after each convergence point,
``"final"`` after the workload finished).

Checkers never raise on a violated property — they *report*; the runner
aggregates and decides (``repro chaos`` exits non-zero, the bench
asserts all-green).
"""

from __future__ import annotations

import math
from typing import List

from repro.errors import RecoveryLineError, UnknownApplication


class InvariantChecker:
    """Base class; subclasses set ``name`` and implement :meth:`check`."""

    name = "invariant"
    #: Only meaningful after the workload finished (e.g. result equality).
    final_only = False

    def check(self, ctx) -> List[str]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class ViewAgreement(InvariantChecker):
    """Virtual synchrony: all live daemons share one view whose member
    set is exactly the live daemon set.

    Skipped while a partition or a daemon pause is open — disagreement
    is then the *correct* behaviour (primary-partition-less GCS)."""

    name = "view-agreement"

    def check(self, ctx) -> List[str]:
        inj = ctx.injector
        if inj.partition_depth > 0 or inj.paused_nodes:
            return []
        live = ctx.sf.live_daemons()
        if not live:
            return ["no live daemons"]
        views = {tuple(d.gm.view.members) if d.gm.view else None
                 for d in live}
        if None in views:
            stuck = sorted(d.node.node_id for d in live if d.gm.view is None)
            return [f"daemons without a view: {','.join(stuck)}"]
        if len(views) > 1:
            return [f"{len(views)} distinct views among live daemons"]
        member_nodes = {m.node for m in views.pop()}
        live_nodes = {d.node.node_id for d in live}
        if member_nodes != live_nodes:
            return [f"view covers {sorted(member_nodes)} but live daemons "
                    f"are {sorted(live_nodes)}"]
        return []


class RecoveryLineConsistent(InvariantChecker):
    """The checkpoint store can always answer 'where would a restart go'
    without contradiction: the latest restorable version is committed and
    complete (every rank has a record at it)."""

    name = "recovery-line"

    def check(self, ctx) -> List[str]:
        protocol = ctx.spec.checkpoint.protocol
        if protocol is None:
            return []
        store = ctx.sf.store
        app_id = ctx.handle.app_id
        ranks = range(ctx.spec.nprocs)
        try:
            version = store.latest_restorable(app_id, ranks)
        except RecoveryLineError as exc:
            return [f"latest_restorable raised: {exc}"]
        if version is None:
            return []       # nothing restorable yet (or volatile lost) — legal
        out = []
        if version not in store.committed_versions(app_id):
            out.append(f"restorable version {version} is not committed")
        missing = [r for r in ranks if not store.has(app_id, r, version)]
        if missing:
            out.append(f"restorable version {version} missing ranks "
                       f"{missing}")
        return out


class NoLostResult(InvariantChecker):
    """Fault-policy-aware result check against the fault-free golden run.

    * ``restart``: the app must finish with exactly the golden results;
    * ``view-notify``: every rank that reported must match its golden
      value (survivor subset semantics), and someone must have reported;
    * ``kill``: if a crash hit a node hosting the app, the failure must
      have surfaced cleanly (FAILED/KILLED status, no hang); otherwise
      the app is unaffected and must match the golden run.
    """

    name = "no-lost-result"
    final_only = True

    def check(self, ctx) -> List[str]:
        if ctx.golden is None:
            return []
        try:
            record = ctx.handle._record()
        except UnknownApplication:
            return [f"app {ctx.handle.app_id} unknown to every live daemon"]
        status = record.status.value
        results = dict(record.results)
        policy = ctx.policy_value          # "kill"|"view-notify"|"restart"

        if policy == "kill":
            if ctx.app_was_hit:
                if status not in ("failed", "killed"):
                    return [f"kill policy after a hit: status {status!r}, "
                            "expected failed/killed"]
                return []
            # not hit: fall through to exact-match semantics
            policy = "restart"

        if policy == "restart":
            if status != "done":
                return [f"status {status!r}, expected done"]
            if results != ctx.golden:
                return [f"results diverge from golden run: got "
                        f"{_summ(results)}, want {_summ(ctx.golden)}"]
            return []

        # view-notify: survivors must agree with golden, losses allowed.
        if status != "done":
            return [f"status {status!r}, expected done"]
        if not results:
            return ["no rank reported a result"]
        bad = {r: v for r, v in results.items()
               if r in ctx.golden and v != ctx.golden[r]}
        if bad:
            return [f"surviving ranks diverge from golden run: {_summ(bad)}"]
        return []


class CheckpointSurvivability(InvariantChecker):
    """The checkpoint store's availability contract: while at most
    ``k - 1`` nodes are down, the latest committed recovery line must
    still be restorable — crashing any k-1 replica holders between a
    commit and the restart may never lose the line.

    Vacuous when the store has no replication factor (``store.k is
    None``: stable storage can't lose copies) and whenever >= k nodes
    are down at check time (beyond the contract; ``latest_restorable``
    falling back is then the *correct* behaviour, which the k=1 guard
    test relies on).  ``k=None`` reads the store's configured factor.
    """

    name = "checkpoint-survivability"

    def __init__(self, k=None):
        self.k = k

    def check(self, ctx) -> List[str]:
        from repro.cluster.node import NodeState
        store = ctx.sf.store
        if store.k is None:
            return []                      # stable storage: no contract
        k = self.k if self.k is not None else store.k
        app_id = ctx.handle.app_id
        committed = store.latest_committed(app_id)
        if committed is None:
            return []                      # nothing committed yet
        down = [nid for nid, node in sorted(ctx.sf.cluster.nodes.items())
                if node.state is NodeState.DOWN]
        if len(down) >= k:
            return []                      # beyond the k-1 contract
        out = []
        restorable = store.latest_restorable(app_id,
                                             range(ctx.spec.nprocs))
        if restorable != committed:
            out.append(f"committed version {committed} not restorable with "
                       f"{len(down)} node(s) down ({','.join(down) or '-'}): "
                       f"k={k}, latest_restorable={restorable}")
        # Point-in-time reads miss losses that a restart has since papered
        # over; the store logs those at the membership change itself.  The
        # log is scanned once per run, at the final check, so a breach is
        # reported exactly once (the checker instance carries no state).
        if getattr(ctx, "phase", "final") == "final":
            for breach in store.breaches:
                if breach["app_id"] != app_id or len(breach["down"]) >= k:
                    continue
                out.append(
                    f"committed version {breach['committed']} not "
                    f"restorable at t={breach['time']:.3f} with "
                    f"{len(breach['down'])} node(s) down "
                    f"({','.join(breach['down']) or '-'}): k={k}, "
                    f"latest_restorable={breach['restorable']}")
        return out


class MetricsSane(InvariantChecker):
    """Telemetry self-consistency: every collected value is finite,
    frame drops never exceed frames sent, every live daemon installed at
    least one view, and restarts only happen under the restart policy."""

    name = "metrics-sane"

    def check(self, ctx) -> List[str]:
        sf = ctx.sf
        reg = sf.engine.metrics
        out: List[str] = []
        for name, value in reg.collect().items():
            if not math.isfinite(value):
                out.append(f"non-finite metric {name}")
        sent = reg.group_by("net.frames_sent", "fabric")
        for fabric, dropped in reg.group_by("net.frames_dropped",
                                            "fabric").items():
            if dropped > sent.get(fabric, 0):
                out.append(f"{fabric}: dropped {dropped:g} > sent "
                           f"{sent.get(fabric, 0):g}")
        for daemon in sf.live_daemons():
            if daemon.gm.view is not None and \
                    int(daemon.gm._m["views"].value) < 1:
                out.append(f"{daemon.node.node_id}: has a view but zero "
                           "gcs.views increments")
        try:
            restarts = ctx.handle.restarts
        except UnknownApplication:
            restarts = None
        if restarts is not None and restarts < 0:
            out.append(f"negative restart count {restarts}")
        if (restarts and ctx.policy_value != "restart"):
            out.append(f"{restarts} restarts under policy "
                       f"{ctx.policy_value!r}")
        return out


def _summ(results) -> str:
    return "{" + ", ".join(f"{r}: {results[r]!r}"
                           for r in sorted(results)) + "}"


#: The default checker suite, in run order.
ALL_CHECKERS = (ViewAgreement(), RecoveryLineConsistent(), MetricsSane(),
                NoLostResult())
