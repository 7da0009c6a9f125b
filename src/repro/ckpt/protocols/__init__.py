"""Distributed checkpoint, message-logging, and replication protocols.

All protocols implement :class:`~repro.ckpt.protocols.base.CrProtocol`
against the narrow :class:`~repro.ckpt.protocols.base.CrContext` interface,
which the Starfish runtime (and the test harness) provide — this is what
the paper means by the architecture making it possible to "implement
several different distributed C/R protocols, both coordinated and
uncoordinated, and to run them side by side".

Each protocol is a composition of three pluggable roles (see
:mod:`repro.ckpt.protocols.roles`): a :class:`WaveScheduler` decides *when*
to snapshot, a :class:`StateCapturer` decides *what to save*, and a
:class:`DeliveryTap` intercepts the message path (piggyback, log, record,
suppress).  Its ``restart_mode`` (:class:`~repro.ckpt.restart.RestartMode`)
says *who rolls back to which version* after a failure;
:func:`~repro.ckpt.restart.plan_restart` decides it.

:data:`PROTOCOLS` is the single registry: the CLI, the fault campaigns,
the check harness, and the benchmarks all enumerate protocols from here.
"""

from repro.ckpt.protocols.base import CrContext, CrProtocol
from repro.ckpt.protocols.roles import (CoordinatedWaveScheduler,
                                        DeliveryTap, SelfPacedWaveScheduler,
                                        StateCapturer, WaveScheduler)
from repro.ckpt.protocols.stop_and_sync import StopAndSyncProtocol
from repro.ckpt.protocols.chandy_lamport import ChandyLamportProtocol
from repro.ckpt.protocols.uncoordinated import UncoordinatedProtocol
from repro.ckpt.protocols.diskless import DisklessProtocol
from repro.ckpt.protocols.msg_logging import (CausalLoggingProtocol,
                                              SenderLoggingProtocol)
from repro.ckpt.protocols.replication import ReplicationProtocol

PROTOCOLS = {
    "stop-and-sync": StopAndSyncProtocol,
    "chandy-lamport": ChandyLamportProtocol,
    "uncoordinated": UncoordinatedProtocol,
    "diskless": DisklessProtocol,
    "sender-logging": SenderLoggingProtocol,
    "causal-logging": CausalLoggingProtocol,
    "replication": ReplicationProtocol,
}


def make_protocol(name: str, **kwargs) -> CrProtocol:
    """Factory over the :data:`PROTOCOLS` registry."""
    from repro.errors import CheckpointError
    cls = PROTOCOLS.get(name)
    if cls is None:
        raise CheckpointError(f"unknown C/R protocol {name!r}")
    return cls(**kwargs)


__all__ = [
    "CausalLoggingProtocol",
    "ChandyLamportProtocol",
    "CoordinatedWaveScheduler",
    "CrContext",
    "CrProtocol",
    "DeliveryTap",
    "DisklessProtocol",
    "PROTOCOLS",
    "ReplicationProtocol",
    "SelfPacedWaveScheduler",
    "SenderLoggingProtocol",
    "StateCapturer",
    "StopAndSyncProtocol",
    "UncoordinatedProtocol",
    "WaveScheduler",
    "make_protocol",
]
