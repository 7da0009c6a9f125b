"""Benchmark-local application and reference code.

``DirtyBlocks`` is the ``ckpt_waves`` application: none of the programs in
``repro.apps`` holds megabytes of state *and* changes a known share of it
between checkpoints, which is what makes the hetero encoder, the
checkpoint protocol and the delta codec do real host work.

``jacobi_reference`` is the plain single-process solve that
``scale_jacobi256`` is checked against.
"""

from __future__ import annotations

import numpy as np

from repro.core.program import ProgramContext, StarfishProgram

#: Same granularity as ``repro.store.delta.BLOCK``: one dirtied byte makes
#: exactly one delta block dirty.
BLOCK = 4096


class DirtyBlocks(StarfishProgram):
    """Holds ``state_bytes`` per rank and dirties 1/8 of its 4 KB blocks
    every step.  Never finishes on its own: the workload drives explicit
    checkpoint waves against it and then crashes a host.

    Parameters: ``state_bytes``, ``step_time`` (simulated seconds per
    step) and ``seed`` (block contents and which blocks get dirtied).
    """

    def setup(self, ctx: ProgramContext) -> None:
        nblocks = int(ctx.params["state_bytes"]) // BLOCK
        rng = np.random.default_rng([int(ctx.params["seed"]), ctx.rank])
        self.state.update(
            done=0,
            buf=rng.integers(0, 256, size=nblocks * BLOCK, dtype=np.uint8))

    def step(self, ctx: ProgramContext):
        yield from ctx.sleep(float(ctx.params["step_time"]))
        # No communication in this step, so mutating after the only yield
        # keeps the at-least-once step semantics.
        buf = self.state["buf"]
        nblocks = buf.size // BLOCK
        rng = np.random.default_rng(
            [int(ctx.params["seed"]), ctx.rank, self.state["done"]])
        dirty = rng.choice(nblocks, size=max(1, nblocks // 8), replace=False)
        buf[dirty * BLOCK] += np.uint8(1)
        self.state["done"] += 1

    def is_done(self, ctx: ProgramContext) -> bool:
        return False

    def finalize(self, ctx: ProgramContext):
        return self.state["done"]


def jacobi_reference(n: int, ranks: int, iterations: int):
    """What ``repro.apps.Jacobi1D`` must return on rank 0, computed on one
    whole rod without any message passing: ``(iterations, residual,
    total)``.  The residual is the app's: the last sweep's largest change
    inside each rank's block, summed over the ranks."""
    u = np.zeros(n + 2)
    u[0] = 1.0
    new_inner = u[1:-1]
    change = np.zeros(n)
    for _ in range(iterations):
        new_inner = 0.5 * (u[:-2] + u[2:])
        change = np.abs(new_inner - u[1:-1])
        u[1:-1] = new_inner
    residual = float(change.reshape(ranks, n // ranks).max(axis=1).sum())
    return iterations, residual, float(new_inner.sum())
