"""Master/worker bag-of-tasks.

Rank 0 is the master; everyone else pulls tasks.  Demonstrates the
dynamic-application features of the paper:

* under ``VIEW_NOTIFY``, the master's ``on_view_change`` re-queues tasks
  that were assigned to lost workers, so the job survives worker deaths
  with no rollback at all;
* with ``grow_after`` set, the master calls the MPI-2 dynamic process
  management downcall (``ctx.spawn``) once that many tasks have finished,
  and newly spawned workers join the pull loop.

Parameters
----------
tasks : int
    Number of tasks (default 32).
task_time : float
    Simulated seconds of computation per task (default 0.02).
grow_after : int
    Spawn ``grow_by`` extra workers after this many completed tasks
    (default: never).
grow_by : int
    How many workers to spawn (default 2).

Result (rank 0): sorted list of completed task ids (each exactly once).
"""

from __future__ import annotations

from repro.core.program import ProgramContext, StarfishProgram
from repro.mpi import ANY_SOURCE

TAG_READY = 1
TAG_TASK = 2
TAG_RESULT = 3
TAG_STOP = 4


class BagOfTasks(StarfishProgram):
    """Pull-model task farm with failure re-queueing and dynamic growth."""

    def setup(self, ctx: ProgramContext) -> None:
        if ctx.rank == 0:
            self.state.update(
                role="master",
                todo=list(range(int(ctx.params.get("tasks", 32)))),
                assigned={},        # str(world_rank) -> task id
                results=[],
                stops_sent=0,
                grew=False,
            )
        else:
            self.state.update(role="worker", stopped=False, computed=0)

    # ------------------------------------------------------------------

    def step(self, ctx: ProgramContext):
        if self.state["role"] == "master":
            yield from self._master_step(ctx)
        else:
            yield from self._worker_step(ctx)

    def _master_step(self, ctx: ProgramContext):
        mpi = ctx.mpi
        state = self.state
        ntasks = int(ctx.params.get("tasks", 32))
        grow_after = int(ctx.params.get("grow_after", -1))
        if (not state["grew"] and grow_after >= 0
                and len(state["results"]) >= grow_after):
            state["grew"] = True
            yield from ctx.spawn(int(ctx.params.get("grow_by", 2)))
            return
        msg, status = yield from mpi.recv(source=ANY_SOURCE,
                                          with_status=True)
        kind = msg[0]
        worker = status.source            # comm rank of the worker
        worker_world = mpi.group[worker]
        if kind == "ready":
            # A worker whose step was aborted re-sends "ready"; whatever it
            # held goes back in the bag (results are de-duplicated anyway).
            stale = state["assigned"].pop(str(worker_world), None)
            if stale is not None and \
                    stale not in [t for t, _v in state["results"]]:
                state["todo"].insert(0, stale)
            if state["todo"]:
                task = state["todo"].pop(0)
                state["assigned"][str(worker_world)] = task
                yield from mpi.send(("task", task), dest=worker,
                                    tag=TAG_TASK)
            else:
                yield from mpi.send(("stop",), dest=worker, tag=TAG_TASK)
                state["stops_sent"] += 1
        elif kind == "result":
            _, task, value = msg
            state["assigned"].pop(str(worker_world), None)
            if task not in [t for t, _v in state["results"]]:
                state["results"].append((task, value))

    def _worker_step(self, ctx: ProgramContext):
        mpi = ctx.mpi
        yield from mpi.send(("ready",), dest=0, tag=TAG_READY)
        msg = yield from mpi.recv(source=0, tag=TAG_TASK)
        if msg[0] == "stop":
            self.state["stopped"] = True
            return
        _, task = msg
        yield from ctx.sleep(float(ctx.params.get("task_time", 0.02)))
        self.state["computed"] += 1
        yield from mpi.send(("result", task, task * task), dest=0,
                            tag=TAG_RESULT)

    # ------------------------------------------------------------------

    def is_done(self, ctx: ProgramContext) -> bool:
        if self.state["role"] == "master":
            ntasks = int(ctx.params.get("tasks", 32))
            return (len(self.state["results"]) >= ntasks
                    and self.state["stops_sent"] >= ctx.size - 1)
        return self.state["stopped"]

    def finalize(self, ctx: ProgramContext):
        if self.state["role"] == "master":
            return sorted(t for t, _v in self.state["results"])
        return self.state["computed"]

    # ------------------------------------------------------------------

    def on_view_change(self, ctx: ProgramContext, info) -> None:
        if self.state["role"] != "master":
            return
        # Re-queue tasks that were in the hands of lost workers.
        for dead in info.lost:
            task = self.state["assigned"].pop(str(dead), None)
            if task is not None and \
                    task not in [t for t, _v in self.state["results"]]:
                self.state["todo"].insert(0, task)
        # Stops owed shrink/grow with the world.
        self.state["stops_sent"] = min(self.state["stops_sent"],
                                       ctx.size - 1)
