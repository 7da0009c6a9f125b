"""The cluster: nodes + the two fabrics, built from a ClusterSpec."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cluster.arch import DEFAULT_ARCH, Architecture
from repro.cluster.node import Node, NodeState
from repro.cluster.spec import ClusterSpec
from repro.errors import ClusterError
from repro.net.fabric import BIP_MYRINET, Fabric, TCP_ETHERNET
from repro.sim.engine import Engine


class Cluster:
    """A cluster of workstations connected by Ethernet and Myrinet.

    This is the hardware substrate only; the Starfish *system* on top of it
    lives in :mod:`repro.core.starfish`.  All construction paths funnel
    through one :class:`~repro.cluster.spec.ClusterSpec`; all fault
    injection funnels through one :class:`~repro.faults.plan.FaultInjector`
    (the :attr:`faults` property).
    """

    def __init__(self, spec: ClusterSpec):
        self.spec = spec
        self.engine = Engine.from_spec(spec)
        self.ethernet = Fabric(self.engine, TCP_ETHERNET)
        self.myrinet = Fabric(self.engine, BIP_MYRINET)
        self.nodes: Dict[str, Node] = {}
        #: Callbacks invoked with (node_id, event) on crash/recover/add/remove;
        #: the Starfish daemons' failure detector confirms these through
        #: heartbeats — the callbacks exist for tests and metrics.
        self.watchers: List[Callable[[str, str], None]] = []
        self._faults = None
        if spec.loss_prob:
            # The builder's ambient loss is just an open-ended loss window,
            # logged like any other fault action.
            from repro.faults.actions import FrameLossWindow
            self.faults.fire(FrameLossWindow(prob=spec.loss_prob,
                                             duration=None, fabric="both"))

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, spec: Optional[ClusterSpec] = None,
              **fields) -> "Cluster":
        """A cluster of ``spec.nodes`` homogeneous (or ``spec.archs``-cycled)
        nodes.  ``ClusterSpec`` field keywords are folded into a spec."""
        spec = ClusterSpec.coalesce(spec, **fields)
        cluster = cls(spec)
        for i in range(spec.nodes):
            arch = spec.archs[i % len(spec.archs)] if spec.archs \
                else DEFAULT_ARCH
            cluster.add_node(f"n{i}", arch=arch)
        return cluster

    # -- fault injection ------------------------------------------------------

    @property
    def faults(self):
        """The cluster's single :class:`~repro.faults.plan.FaultInjector`."""
        if self._faults is None:
            from repro.faults.plan import FaultInjector
            self._faults = FaultInjector(self)
        return self._faults

    def add_node(self, node_id: str,
                 arch: Architecture = DEFAULT_ARCH) -> Node:
        """Add a workstation and wire it to both fabrics."""
        if node_id in self.nodes:
            raise ClusterError(f"duplicate node id {node_id!r}")
        node = Node(self.engine, node_id, arch=arch)
        node.attach(self.ethernet)
        node.attach(self.myrinet)
        self.nodes[node_id] = node
        self._notify(node_id, "add")
        return node

    def remove_node(self, node_id: str) -> None:
        """Administratively remove a node (it is crashed first if up).

        The crash is notified as a "crash" event *before* the "remove",
        in the same sim instant — watchers that invalidate volatile
        state on crashes (e.g. the checkpoint store dropping in-memory
        copies) must never observe a removed-but-never-crashed node.
        """
        node = self.node(node_id)
        if node.is_up or node.state is NodeState.DISABLED:
            node.crash(cause="removed from cluster")
            self._notify(node_id, "crash")
        del self.nodes[node_id]
        self._notify(node_id, "remove")

    # -- access ---------------------------------------------------------------

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ClusterError(f"unknown node {node_id!r}") from None

    def up_nodes(self) -> List[Node]:
        return [n for n in self.nodes.values() if n.is_up]

    def schedulable_nodes(self) -> List[Node]:
        """Nodes eligible for new application processes."""
        return [n for n in self.nodes.values() if n.state is NodeState.UP]

    # -- fault mechanisms (used by repro.faults actions) ----------------------

    def crash_node(self, node_id: str, cause: str = "fault-injection") -> None:
        self.node(node_id).crash(cause=cause)
        self._notify(node_id, "crash")

    def recover_node(self, node_id: str) -> Node:
        node = self.node(node_id)
        node.recover()
        node.attach(self.ethernet)
        node.attach(self.myrinet)
        self._notify(node_id, "recover")
        return node

    def _notify(self, node_id: str, event: str) -> None:
        for cb in self.watchers:
            cb(node_id, event)

    def __repr__(self) -> str:
        up = sum(1 for n in self.nodes.values() if n.is_up)
        return f"<Cluster {up}/{len(self.nodes)} nodes up t={self.engine.now:.6g}>"
