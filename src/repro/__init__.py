"""Starfish — fault-tolerant dynamic MPI programs on clusters of workstations.

A full reproduction of Agbaria & Friedman's Starfish system (HPDC 1999) as a
Python library.  The cluster, its networks (TCP/IP over Ethernet and
BIP/Myrinet) and its disks are deterministic discrete-event models; the
Starfish system itself — daemons in an Ensemble-style process group,
lightweight per-application groups, the application-process runtime, the
MPI-2 module with Starfish's fault-tolerance extensions, and the
checkpoint/restart protocols (coordinated and uncoordinated, homogeneous and
heterogeneous) — is implemented in full above that substrate.

Quickstart::

    from repro import StarfishCluster, AppSpec
    from repro.apps import MonteCarloPi

    cluster = StarfishCluster.build(nodes=4)
    result = cluster.run(AppSpec(program=MonteCarloPi, nprocs=4,
                                 params={"shots": 40_000}))
    print(result.value)

See ``examples/`` for fault injection, protocol comparison, heterogeneous
migration, and dynamic repartitioning scenarios.
"""

from repro._version import __version__

# Re-exported lazily to keep `import repro` cheap and avoid import cycles
# during partial builds; the full public surface lives in repro.core.
_LAZY = {
    "StarfishCluster": "repro.core.starfish",
    "AppHandle": "repro.core.starfish",
    "AppSpec": "repro.core.appspec",
    "StarfishProgram": "repro.core.program",
    "FaultPolicy": "repro.core.policies",
    "CheckpointConfig": "repro.core.appspec",
    "ClusterMetrics": "repro.core.metrics",
    "ClusterSpec": "repro.cluster.spec",
    "Engine": "repro.sim.engine",
    "FaultPlan": "repro.faults",
    "CampaignRunner": "repro.faults",
}


def __getattr__(name):
    mod = _LAZY.get(name)
    if mod is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib
    return getattr(importlib.import_module(mod), name)


def __dir__():
    return sorted(list(globals()) + list(_LAZY))
