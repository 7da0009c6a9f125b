"""A restart when the main-group coordinator hosts no rank.

With placement {0: n1, 1: n2, 2: n3} on four nodes, n0 — the main-group
coordinator, which sequences every cast of the restart — hosts none of the
application.  Red cell (b) in ROADMAP.md is this placement with a crash
before any line commits.  Here the crash comes right after rank 1's first
committed version, so there is a line to restart from, and every protocol
must end with the failure-free results.  ``uncoordinated`` hangs on this
setup even with a committed line: it is filed with red cell (b) and left
out here.
"""

import pytest

from repro.apps import Jacobi1D
from repro.core import AppSpec, CheckpointConfig, FaultPolicy, StarfishCluster

#: n0, the main-group coordinator, hosts no rank.
PLACEMENT = {0: "n1", 1: "n2", 2: "n3"}
PARAMS = {"n": 96, "iterations": 60, "iters_per_step": 10,
          "compute_ns_per_cell": 200_000}


def _run(protocol, crash):
    sf = StarfishCluster.build(nodes=4)
    handle = sf.submit(AppSpec(
        program=Jacobi1D, nprocs=3, params=dict(PARAMS),
        placement=dict(PLACEMENT), ft_policy=FaultPolicy.RESTART,
        checkpoint=CheckpointConfig(protocol=protocol, level="vm",
                                    interval=0.15)))
    if crash:
        # Right after rank 1's first committed version, as recovery_modes.
        while not sf.store.versions_of(handle.app_id, 1):
            sf.engine.run(until=sf.engine.now + 0.05)
            assert sf.engine.now < 10.0, "no rank-1 checkpoint"
        sf.crash_node(PLACEMENT[1])
    return sf.run_to_completion(handle, timeout=60.0)


@pytest.mark.parametrize("protocol", ["chandy-lamport", "diskless",
                                      "stop-and-sync", "sender-logging",
                                      "causal-logging"])
def test_a_rank_free_coordinator_restarts_from_a_committed_line(protocol):
    assert _run(protocol, crash=True) == _run(protocol, crash=False)
