"""Fault plans: triggers + actions, scheduled through one injector.

A :class:`FaultPlan` is an ordered list of ``(trigger, action)`` steps.
Triggers expand to absolute virtual times when the plan is applied;
:class:`Randomly` draws its times from the engine's seeded RNG streams,
so the whole schedule — and therefore the whole campaign — is a pure
function of the engine seed.

The :class:`FaultInjector` is the single execution point: it resolves
symbolic targets, applies the mechanism, appends to a deterministic
action log (byte-identical across same-seed runs), bumps the
``faults.injected`` counter and emits a ``fault.inject`` event per
action through ``repro.obs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import CampaignError
from repro.faults.actions import FaultAction
from repro.obs.registry import get_registry

# ---------------------------------------------------------------------------
# triggers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class At:
    """Fire once at an absolute virtual time (campaign-relative when the
    plan is applied with an offset)."""

    time: float

    def times(self, engine) -> Tuple[float, ...]:
        return (self.time,)


@dataclass(frozen=True)
class Every:
    """Fire ``count`` times, ``period`` apart, starting at ``start``."""

    period: float
    count: int
    start: float = 0.0

    def times(self, engine) -> Tuple[float, ...]:
        return tuple(self.start + i * self.period for i in range(self.count))


@dataclass(frozen=True)
class Randomly:
    """``count`` seeded-uniform times in ``[start, end)``.

    Drawn from the engine's ``faults.times`` stream when the plan is
    applied — same seed, same schedule.
    """

    count: int
    start: float
    end: float

    def times(self, engine) -> Tuple[float, ...]:
        rng = engine.rng.stream("faults.times")
        span = self.end - self.start
        return tuple(sorted(self.start + span * float(u)
                            for u in rng.random(self.count)))


# ---------------------------------------------------------------------------
# the injector
# ---------------------------------------------------------------------------


class FaultInjector:
    """Owns all fault injection against one cluster.

    Obtained via ``cluster.faults`` / ``sf.faults`` (one per cluster, so
    the action log is complete) — not constructed directly.
    """

    def __init__(self, cluster, starfish=None):
        self.cluster = cluster
        self.engine = cluster.engine
        self.starfish = starfish
        #: Deterministic fire log: (virtual time, action name, detail).
        self.log: List[Tuple[float, str, Dict[str, Any]]] = []
        #: Currently-open partition windows (invariant checkers skip view
        #: agreement while a partition is active).
        self.partition_depth = 0
        #: Currently-open frame-loss windows.
        self.loss_depth = 0
        self.paused_nodes: Set[str] = set()
        #: Absolute times of every scheduled (not yet necessarily fired)
        #: action, including windowed reverts as they get scheduled.  The
        #: campaign runner uses this to place its convergence points.
        self.scheduled: List[float] = []
        self._crashed: List[str] = []
        self._registry = get_registry(self.engine)

    # -- scheduling --------------------------------------------------------

    def at(self, time: float, action: FaultAction) -> "FaultInjector":
        """Schedule ``action`` at absolute virtual ``time`` (chainable)."""
        time = max(time, self.engine.now)
        delay = time - self.engine.now
        self.scheduled.append(time)
        ev = self.engine.timeout(delay, name=f"fault:{action.name}")
        ev.callbacks.append(lambda _e: self.fire(action))
        return self

    def fire(self, action: FaultAction) -> Dict[str, Any]:
        """Execute ``action`` now; log it; return its detail dict."""
        detail = action.apply(self)
        self._log(action.name, detail)
        return detail

    def schedule_revert(self, delay: float, action: FaultAction) -> None:
        """Used by windowed actions to schedule their own end."""
        self.at(self.engine.now + delay, action)

    # -- log & telemetry ---------------------------------------------------

    def _log(self, name: str, detail: Dict[str, Any]) -> None:
        self.log.append((self.engine.now, name, dict(detail)))
        self._registry.counter(
            "faults.injected", action=name,
            help="fault actions fired, by action type").inc()
        self._registry.events.emit(self.engine.now, "fault.inject",
                                   action=name, **detail)

    def log_lines(self) -> List[str]:
        """The action log as stable text lines (same seed = same bytes)."""
        out = []
        for t, name, detail in self.log:
            fields = " ".join(f"{k}={detail[k]}" for k in sorted(detail))
            out.append(f"t={t:.9f} {name}" + (f" {fields}" if fields else ""))
        return out

    # -- target resolution -------------------------------------------------

    def app_nodes(self, app_id: str) -> Set[str]:
        """Nodes currently hosting ranks of ``app_id`` (empty if unknown)."""
        if self.starfish is None:
            return set()
        for daemon in self.starfish.live_daemons():
            record = daemon.registry.maybe(app_id)
            if record is not None:
                return set(record.placement.values())
        return set()

    def resolve_node(self, node: Optional[str], pick: str,
                     app_id: Optional[str]) -> str:
        if node is not None:
            if node not in self.cluster.nodes:
                raise CampaignError(f"unknown node {node!r}")
            return node
        candidates = sorted(n.node_id for n in self.cluster.schedulable_nodes())
        if not candidates:
            raise CampaignError("no schedulable node to target")
        if pick == "random":
            rng = self.engine.rng.stream("faults.pick")
            return candidates[int(rng.integers(len(candidates)))]
        if pick in ("app-host", "spare"):
            if app_id is None:
                raise CampaignError(f"pick={pick!r} needs app_id")
            hosting = self.app_nodes(app_id)
            pool = [n for n in candidates
                    if (n in hosting) == (pick == "app-host")]
            if not pool:
                raise CampaignError(
                    f"pick={pick!r}: no matching node for app {app_id!r} "
                    f"(hosting={sorted(hosting)})")
            return pool[-1]
        raise CampaignError(f"unknown pick spec {pick!r}")

    def note_crash(self, node_id: str) -> None:
        self._crashed.append(node_id)

    def pop_crashed(self) -> Optional[str]:
        return self._crashed.pop() if self._crashed else None

    def __repr__(self) -> str:
        return (f"<FaultInjector fired={len(self.log)} "
                f"partitions={self.partition_depth} loss={self.loss_depth}>")


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------


class FaultPlan:
    """A declarative schedule of fault actions."""

    def __init__(self, steps: Optional[List[Tuple[Any, FaultAction]]] = None):
        self.steps: List[Tuple[Any, FaultAction]] = list(steps or [])

    # builder helpers (each returns self for chaining)

    def add(self, trigger, action: FaultAction) -> "FaultPlan":
        self.steps.append((trigger, action))
        return self

    def at(self, time: float, action: FaultAction) -> "FaultPlan":
        return self.add(At(time), action)

    def every(self, period: float, count: int, action: FaultAction,
              start: float = 0.0) -> "FaultPlan":
        return self.add(Every(period=period, count=count, start=start), action)

    def randomly(self, count: int, start: float, end: float,
                 action: FaultAction) -> "FaultPlan":
        return self.add(Randomly(count=count, start=start, end=end), action)

    # execution

    def apply_to(self, target, offset: float = 0.0) -> FaultInjector:
        """Schedule every step onto ``target`` (a ``Cluster`` or a
        ``StarfishCluster``); returns the target's injector.

        ``offset`` shifts all trigger times (campaign-relative plans).
        NOTE: trigger times are expanded *now*; Randomly draws from the
        engine RNG at this point.
        """
        inj = target.faults
        for trigger, action in self.steps:
            for t in trigger.times(inj.engine):
                inj.at(offset + t, action)
        return inj

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:
        return f"<FaultPlan {len(self.steps)} steps>"
