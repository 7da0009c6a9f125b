"""A workstation node.

A node bundles an architecture descriptor, a disk, one NIC per attached
fabric, and a registry of the simulated processes currently running on it.
Crashing a node interrupts every registered process, shuts down its NICs
(pending frames are lost), and invalidates its volatile state — exactly the
fail-stop model the paper's recovery protocols assume.  Checkpoints written
through :mod:`repro.store.checkpoint` live on *stable storage* and survive.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro.cluster.arch import Architecture, DEFAULT_ARCH
from repro.cluster.disk import Disk
from repro.errors import ClusterError, NodeDown
from repro.net.fabric import Fabric
from repro.net.nic import Nic
from repro.sim.process import Process


class NodeState(enum.Enum):
    UP = "up"
    DOWN = "down"            # crashed or administratively stopped
    DISABLED = "disabled"    # up, but may not accept new work (paper §3.1.1)


class Node:
    """One workstation in the cluster."""

    def __init__(self, engine, node_id: str,
                 arch: Architecture = DEFAULT_ARCH):
        self.engine = engine
        self.node_id = node_id
        self.arch = arch
        self.disk = Disk(engine, node_id)
        self.state = NodeState.UP
        self.nics: Dict[str, Nic] = {}     # fabric name -> Nic
        self._procs: List[Process] = []
        #: ``len(_procs)`` that triggers the next prune of dead processes.
        self._prune_at = 64
        #: Incremented on every crash; lets late messages from a previous
        #: incarnation be recognized and discarded.
        self.incarnation = 0

    # -- fabric attachment ----------------------------------------------------

    def attach(self, fabric: Fabric) -> Nic:
        """Attach this node to ``fabric`` (idempotent); returns the NIC."""
        nic = self.nics.get(fabric.spec.name)
        if nic is None or not nic.is_up:
            nic = Nic(self.engine, self.node_id, fabric)
            self.nics[fabric.spec.name] = nic
        return nic

    def nic(self, fabric_name: str) -> Nic:
        try:
            return self.nics[fabric_name]
        except KeyError:
            raise ClusterError(
                f"{self.node_id} not attached to {fabric_name!r}") from None

    # -- process hosting ---------------------------------------------------------

    def host(self, process: Process) -> Process:
        """Register a simulated process as running on this node.

        Registered processes are interrupted with :class:`NodeDown` when the
        node crashes.
        """
        if self.state is NodeState.DOWN:
            raise NodeDown(f"cannot start process on {self.node_id} "
                           f"({self.state.value})")
        procs = self._procs
        procs.append(process)
        if len(procs) >= self._prune_at:
            # Amortised: forget the dead once the list has doubled since the
            # last prune (order kept — crash() interrupts in this order).
            procs[:] = [p for p in procs if p.is_alive]
            self._prune_at = max(64, 2 * len(procs))
        return process

    def spawn(self, generator, name: Optional[str] = None) -> Process:
        """Create a process from ``generator`` and host it here."""
        if self.state is NodeState.DOWN:
            raise NodeDown(f"cannot start process on {self.node_id} (down)")
        return self.host(self.engine.process(generator, name=name))

    @property
    def live_processes(self) -> List[Process]:
        self._procs = [p for p in self._procs if p.is_alive]
        return list(self._procs)

    # -- lifecycle -----------------------------------------------------------------

    @property
    def is_up(self) -> bool:
        return self.state is NodeState.UP

    def crash(self, cause: str = "crash") -> None:
        """Fail-stop the node: kill processes, drop network, lose RAM."""
        if self.state is NodeState.DOWN:
            raise ClusterError(f"{self.node_id} is already down")
        self.state = NodeState.DOWN
        for nic in self.nics.values():
            nic.shutdown(NodeDown(f"{self.node_id}: {cause}"))
        self.nics.clear()
        for proc in self._procs:
            if proc.is_alive:
                proc.interrupt(NodeDown(f"{self.node_id}: {cause}"))
        self._procs.clear()

    def recover(self) -> None:
        """Bring a crashed node back up (empty, new incarnation).

        The caller re-attaches fabrics; the disk's contents survive.
        """
        if self.state is not NodeState.DOWN:
            raise ClusterError(f"recover() on {self.node_id} which is "
                               f"{self.state.value}")
        self.state = NodeState.UP
        self.incarnation += 1

    def disable(self) -> None:
        """Administratively exclude from new placements (stays up)."""
        if self.state is not NodeState.UP:
            raise ClusterError(f"disable() on {self.state.value} node")
        self.state = NodeState.DISABLED

    def enable(self) -> None:
        if self.state is not NodeState.DISABLED:
            raise ClusterError(f"enable() on {self.state.value} node")
        self.state = NodeState.UP

    def __repr__(self) -> str:
        return (f"<Node {self.node_id} {self.state.value} arch="
                f"{self.arch.endianness}/{self.arch.word_bits} "
                f"procs={len(self._procs)}>")
