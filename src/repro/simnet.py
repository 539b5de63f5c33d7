"""Helpers for assembling simulated PIER overlays.

These builders wire a :class:`~repro.runtime.simulation.SimulationEnvironment`
to a set of joined :class:`~repro.overlay.wrapper.OverlayNode` instances
(and, optionally, their distribution trees), an overlay without the query
processor above it.  Tests and benchmarks use them; nothing in the package
does (:class:`repro.api.PIERNetwork` builds its own nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.overlay.distribution_tree import DistributionTree
from repro.overlay.router import BootstrapDirectory, ChordRouter, NodeContact, Router
from repro.overlay.wrapper import OverlayNode
from repro.runtime.congestion import CongestionModel
from repro.runtime.simulation import SimulationEnvironment
from repro.runtime.topology import Topology


@dataclass
class OverlayDeployment:
    """A simulated overlay: the environment plus one overlay node per address."""

    environment: SimulationEnvironment
    directory: BootstrapDirectory
    nodes: List[OverlayNode]
    trees: List[DistributionTree]

    def node(self, address: int) -> OverlayNode:
        return self.nodes[address]

    def tree(self, address: int) -> DistributionTree:
        return self.trees[address]

    def run(self, duration: float) -> int:
        return self.environment.run(duration)

    @property
    def now(self) -> float:
        return self.environment.now


def build_overlay(
    node_count: int,
    topology: Optional[Topology] = None,
    congestion_model: Optional[CongestionModel] = None,
    router_factory: Callable[[NodeContact], Router] = ChordRouter,
    with_trees: bool = False,
    seed: int = 0,
    settle_time: float = 1.0,
) -> OverlayDeployment:
    """Build a simulated overlay of ``node_count`` joined nodes.

    With ``with_trees=True`` every node also starts its distribution-tree
    component and the deployment is run for ``settle_time`` virtual seconds
    so that initial tree advertisements are delivered.
    """
    environment = SimulationEnvironment(
        node_count, topology=topology, congestion_model=congestion_model, seed=seed
    )
    directory = BootstrapDirectory()
    nodes = [
        OverlayNode(environment.runtime(address), directory, router_factory=router_factory)
        for address in range(node_count)
    ]
    for node in nodes:
        node.join()
    # A second refresh pass: the first joiners built tables before later
    # joiners registered (exactly what stabilization would eventually fix).
    for node in nodes:
        node.router.sync(directory)
    trees: List[DistributionTree] = []
    if with_trees:
        trees = [DistributionTree(node) for node in nodes]
        for tree in trees:
            tree.start()
        environment.run(settle_time)
    return OverlayDeployment(
        environment=environment, directory=directory, nodes=nodes, trees=trees
    )
