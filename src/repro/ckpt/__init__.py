"""Checkpoint/restart framework (system S11).

The paper's signature capability: multiple distributed C/R protocols —
coordinated *and* uncoordinated — implemented over one architecture and
runnable side by side (even for the same application), with the local
checkpoint taken either at the native process level (homogeneous) or at the
virtual-machine level (heterogeneous, §4).

Contents:

* the records the checkpointers build are kept by the one checkpoint
  store, :class:`repro.store.CheckpointStore`, written through the
  per-node disk devices (the timing of Figures 3/4);
* :mod:`repro.ckpt.local` — the two local checkpointers: ``native``
  (process image: VM + heap, same-representation restore only) and ``vm``
  (portable encoding via :mod:`repro.hetero`, restores anywhere);
* :mod:`repro.ckpt.protocols` — the distributed protocols:
  **stop-and-sync** (the paper's measured protocol: stop, drain channels,
  dump, commit), **Chandy–Lamport** (non-blocking markers + channel
  recording), and **uncoordinated** (independent checkpoints + dependency
  tracking);
* :mod:`repro.ckpt.recovery_line` — consistent-cut computation on the
  rollback-dependency graph, including domino-effect detection.
"""

from repro.ckpt.local import (LocalCheckpointer, NativeCheckpointer,
                              VmCheckpointer, make_checkpointer)
from repro.ckpt.recovery_line import (DependencyGraph, RecoveryLine,
                                      compute_recovery_line)

__all__ = [
    "DependencyGraph",
    "LocalCheckpointer",
    "NativeCheckpointer",
    "RecoveryLine",
    "VmCheckpointer",
    "compute_recovery_line",
    "make_checkpointer",
]
