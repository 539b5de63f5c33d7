"""Shared-plan lifecycle under churn: the resilience machinery of PR 3
treats the shared plan as one query, so an aggregation-tree root failure
and a node rejoin must keep *every* attached subscriber exact — even when
the subscribers consume the one shared pane stream at different slides.
"""

from __future__ import annotations

import pytest

from repro import PIERNetwork
from repro.overlay.identifiers import ID_SPACE, object_identifier
from repro.qp.resilience import ResiliencePolicy
from repro.qp.tuples import Tuple


def _root_ring(network: PIERNetwork, plan):
    """All nodes ordered by clockwise distance from the plan's
    aggregation-tree root identifier: index 0 is the current owner, index
    1 the handoff successor that takes over if the owner dies."""
    namespace = f"{plan.query_id}:__hierarchical_aggregate__"
    root_identifier = object_identifier(namespace, "root")
    ring = sorted(
        network.nodes,
        key=lambda node: (node.overlay.identifier - root_identifier) % ID_SPACE,
    )
    assert network.nodes[ring[0].address].overlay.router.is_responsible(
        root_identifier
    ), "clockwise successor must match the routers' ownership view"
    return [node.address for node in ring]


def _assert_exact(epochs, log):
    assert epochs, "the subscriber must deliver at least one epoch"
    for epoch in epochs:
        truth = sum(1 for t in log if epoch.start <= t < epoch.end)
        counts = {t.get("src"): t.get("n") for t in epoch.tuples}
        assert counts == {"s": truth}, (
            f"epoch {epoch.index} [{epoch.start}, {epoch.end}) must stay exact "
            f"across the churn"
        )


def test_shared_plan_survives_root_failure_and_rejoin_for_both_slides():
    """Two subscribers at different slides share one hierarchical plan;
    the shared pane stream survives the aggregation-tree root dying and
    a participant rejoining, with exact epochs for both subscribers."""
    network = PIERNetwork(16, seed=52)
    network.create_table("events", source="local")
    for address in range(16):
        network.register_local_table(address, "events", [])
    policy = ResiliencePolicy.enabled(liveness_interval=1.0, root_monitor_interval=0.5)
    fine = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 5 LIFETIME 40 GROUP BY src",
        aggregation_strategy="hierarchical",
        resilience=policy,
    )
    assert fine.shared is not None
    # The installed query is the shared plan, so the aggregation-tree
    # root belongs to *its* query id, not either subscriber handle's.
    # Place the remaining roles off the ring's head: the owner dies (so
    # it must not host a proxy — the paper's churn experiments never kill
    # a client's proxy), and the rejoining victim must be neither proxy
    # nor the handoff successor that is acting root while the owner is
    # down (recovering the *acting root* mid-epoch is a different, harder
    # scenario than a participant rejoining).
    ring = _root_ring(network, fine.shared.plan)
    owner, handoff = ring[0], ring[1]
    assert owner != fine.proxy, "seed must keep the first proxy off the root"
    coarse_proxy = next(a for a in range(16) if a not in (owner, fine.proxy))
    victim = next(
        a for a in ring[2:] if a not in (owner, handoff, fine.proxy, coarse_proxy)
    )
    coarse = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 10 LIFETIME 40 GROUP BY src",
        aggregation_strategy="hierarchical",
        resilience=policy,
        proxy=coarse_proxy,
    )
    assert coarse.shared is fine.shared
    assert network.sharing.shared_installs == 1

    log = []

    def tick(_data):
        now = network.now
        # Neither churned node holds data, so totals stay exact even for
        # the panes in which they die (the root's unshipped in-flight
        # state dies with it; a data-holding victim would instead lose
        # its not-yet-shipped rows mid-pane, which is not what this test
        # is about).
        for address in range(16):
            if address not in (owner, victim) and network.environment.is_alive(address):
                network.append_local_rows(
                    address, "events", [Tuple.make("events", src="s")]
                )
                log.append(now)
        if now < 36.0:
            network.nodes[0].runtime.schedule_event(1.0, None, tick)

    network.nodes[0].runtime.schedule_event(0.4, None, tick)
    fine_epochs, coarse_epochs = [], []
    fine.on_epoch(fine_epochs.append)
    coarse.on_epoch(coarse_epochs.append)

    network.run(8.0)  # the original root has emitted at least one pane
    network.fail_node(owner)  # dies holding in-flight pane state
    network.run(4.0)
    network.fail_node(victim)  # a second participant drops mid-query
    network.run(8.0)  # the handoff root keeps the pane stream flowing
    assert owner in fine.down_nodes and owner in coarse.down_nodes
    assert fine.coverage == pytest.approx(14 / 16)
    network.recover_node(victim)  # rejoin while both subscribers attached
    network.run(1.0)
    # Rejoin re-dissemination re-installed the *shared* plan on the
    # recovered node (both subscribers ride it; nothing else runs there).
    reinstalled = {
        graph.query_id for graph in network.node(victim).executor.running_graphs()
    }
    assert fine.shared.query_id in reinstalled
    network.run(33.0)

    assert fine.finished and coarse.finished
    assert len(fine_epochs) >= 6
    assert len(coarse_epochs) >= 3
    _assert_exact(fine_epochs, log)
    _assert_exact(coarse_epochs, log)
    for epoch in fine_epochs:
        assert epoch.end - epoch.start == pytest.approx(5.0)
    for epoch in coarse_epochs:
        assert epoch.end - epoch.start == pytest.approx(10.0)
    # The rejoined participant counts as covered again; the dead root
    # stays down.
    assert fine.coverage == pytest.approx(15 / 16)
    assert victim not in fine.down_nodes
    # Last detach tore the shared plan down everywhere.
    assert network.sharing.active_plans == []
    assert not any(node._pane_listeners for node in network.nodes)
