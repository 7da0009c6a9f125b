"""The ControlAPI: the fleet's JSON request/response surface.

One dict in, one dict out — the same surface serves in-sim callers
(campaigns, tests) and the real HTTP gateway
(:mod:`repro.fleet.http` / ``repro fleet serve``).  Every response
carries ``ok``; failures carry the *typed* error class name and message
instead of a traceback::

    api.handle({"op": "submit", "tenant": "acme",
                "program": "computesleep", "nprocs": 3})
    -> {"ok": True, "job": {...}}

Ops: ``submit``, ``status``, ``jobs``, ``nodes``, ``migrate``,
``drain``, ``uncordon``, ``metrics`` (Prometheus text, per-tenant via a
label-filtered :class:`~repro.obs.RegistryView`), and ``step`` (advance
the simulation — the gateway's only way to make time pass).
"""

from __future__ import annotations

import math
from typing import Any, Dict

from repro.core.appspec import AppSpec, CheckpointConfig
from repro.core.starfish import AppHandle
from repro.errors import ReproError
from repro.fleet.controller import FleetController
from repro.obs import to_prometheus


def _integer(key: str, value: Any) -> int:
    """``value`` if it is a JSON integer.  A float, a string or a boolean
    is a ``TypeError`` (``BadRequest``), never rounded or coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key} must be a JSON integer, got {value!r}")
    return value


def _string(key: str, value: Any) -> str:
    """``value`` if it is a JSON string; anything else is a ``TypeError``
    (``BadRequest``), never coerced."""
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a JSON string, got {value!r}")
    return value


class ControlAPI:
    """Dispatches JSON requests against one :class:`FleetController`."""

    def __init__(self, controller: FleetController):
        self.controller = controller
        self.sf = controller.sf

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = str(request.get("op", ""))
        handler = getattr(self, "_op_" + op, None)
        if handler is None:
            return {"ok": False, "error": "UnknownOp",
                    "message": f"unknown op {op!r}"}
        try:
            return {"ok": True, **handler(request)}
        except ReproError as exc:
            return {"ok": False, "error": type(exc).__name__,
                    "message": str(exc)}
        except (KeyError, TypeError, ValueError) as exc:
            return {"ok": False, "error": "BadRequest",
                    "message": f"{type(exc).__name__}: {exc}"}

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------

    def _op_submit(self, req: Dict[str, Any]) -> Dict[str, Any]:
        program_name = str(req["program"])
        program = self.sf.program_registry.get(program_name)
        if program is None:
            raise KeyError(
                f"unknown program {program_name!r}; known: "
                f"{sorted(self.sf.program_registry)}")
        tenant = req.get("tenant")
        if tenant is not None:
            _string("tenant", tenant)
        checkpoint = CheckpointConfig(
            protocol=req.get("ckpt"),
            level=str(req.get("level", "vm")),
            interval=(float(req["interval"]) if req.get("interval")
                      is not None else None),
            replicas=_integer("replicas", req.get("replicas", 1)))
        spec = AppSpec(
            program=program, nprocs=_integer("nprocs", req["nprocs"]),
            params=dict(req.get("params", {})),
            ft_policy=str(req.get("ft", "kill")),
            checkpoint=checkpoint,
            owner="local" if tenant is None else tenant,
            tenant=tenant,
            priority=_integer("priority", req.get("priority", 0)))
        job = self.controller.submit(spec)
        return {"job": job.snapshot()}

    def _op_status(self, req: Dict[str, Any]) -> Dict[str, Any]:
        job_id = str(req["job_id"])
        job = self.controller.scheduler.jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return {"job": job.snapshot()}

    def _op_jobs(self, req: Dict[str, Any]) -> Dict[str, Any]:
        return {"jobs": self.controller.scheduler.snapshot()}

    def _op_nodes(self, req: Dict[str, Any]) -> Dict[str, Any]:
        return {"time": self.controller.engine.now,
                "nodes": self.controller.view.snapshot()}

    def _op_migrate(self, req: Dict[str, Any]) -> Dict[str, Any]:
        app_id = str(req.get("app_id") or req["job_id"])
        rank = _integer("rank", req["rank"])
        self.sf.migrate(AppHandle(self.sf, app_id), rank, str(req["target"]))
        return {"app_id": app_id, "rank": rank, "target": str(req["target"])}

    def _op_drain(self, req: Dict[str, Any]) -> Dict[str, Any]:
        node = str(req["node"])
        if node not in self.sf.cluster.nodes:
            raise KeyError(f"unknown node {node!r}")
        self.controller.drain(node)
        return {"node": node, "health":
                self.controller.view.row(node).health.value}

    def _op_uncordon(self, req: Dict[str, Any]) -> Dict[str, Any]:
        node = str(req["node"])
        if node not in self.sf.cluster.nodes:
            raise KeyError(f"unknown node {node!r}")
        self.controller.uncordon(node)
        return {"node": node, "health":
                self.controller.view.row(node).health.value}

    def _op_metrics(self, req: Dict[str, Any]) -> Dict[str, Any]:
        registry = self.controller.registry
        tenant = req.get("tenant")
        if tenant is not None:
            registry = registry.view(tenant=_string("tenant", tenant))
        return {"text": to_prometheus(registry)}

    def _op_step(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """Advance the simulation by ``dt`` seconds (gateway clock)."""
        dt = float(req.get("dt", 1.0))
        if not (math.isfinite(dt) and dt >= 0):
            raise ValueError(f"dt must be a finite number >= 0, got {dt!r}")
        engine = self.controller.engine
        try:
            engine.run(until=engine.now + dt)
        finally:
            # A dead control loop is the answer, whether it died in this
            # run (its error propagates out of ``run``) or before it.
            self.controller.check_running()
        return {"time": engine.now}
