"""One deadline for a query on every node.

The proxy stamps its absolute deadline (submission time + the plan's
timeout) into the query envelope, and every node runs the query's opgraphs
until then — not for a full timeout from whenever the envelope reached it.
On a deep distribution tree the envelope reaches the last nodes a second or
more after submission; with a per-node timeout they flushed their rows after
the proxy had stopped listening.
"""

from __future__ import annotations

import pytest

from repro import PIERNetwork
from repro.qp.dissemination import query_envelope
from repro.qp.plans import flat_aggregation_plan
from repro.qp.resilience import ResiliencePolicy
from repro.qp.tuples import Tuple

SCAN_ROWS = 286


def test_a_512_node_scan_returns_every_row():
    """At 512 nodes the tree is deep enough that, with each node timing the
    query from its own install, 9 of these rows arrived after the proxy
    stopped listening (277 of 286)."""
    net = PIERNetwork(512, seed=1)
    net.create_table("t", partitioning=["id"])
    net.publish("t", [Tuple.make("t", id=i, v=i % 7) for i in range(SCAN_ROWS)])
    net.run(2.0)
    result = net.query("SELECT id FROM t TIMEOUT 10")
    assert sorted(row["id"] for row in result.rows()) == list(range(SCAN_ROWS))


def _local_events(net: PIERNetwork) -> None:
    net.create_table("events", source="local")
    for address in range(len(net.nodes)):
        net.register_local_table(
            address, "events", [Tuple.make("events", src=f"s{address % 3}")]
        )


def test_every_node_ends_the_query_at_the_proxy_deadline():
    net = PIERNetwork(24, seed=5)
    _local_events(net)
    plan = flat_aggregation_plan("events", ["src"], [("count", None, "n")], timeout=6.0)
    handle = net.submit(plan, proxy=3)
    net.run(2.0)
    deadlines = [
        graph.deadline
        for node in net.nodes
        for graph in node.executor.running_graphs()
        if graph.query_id == plan.query_id
    ]
    assert len(deadlines) == len(net.nodes) * len(plan.opgraphs)
    assert deadlines == pytest.approx([handle.submitted_at + 6.0] * len(deadlines), abs=1e-9)


def test_an_envelope_that_arrives_after_the_deadline_installs_nothing():
    net = PIERNetwork(8, seed=5)
    _local_events(net)
    plan = flat_aggregation_plan("events", ["src"], [("count", None, "n")], timeout=6.0)
    node = net.nodes[2]
    late = query_envelope(plan, plan.opgraphs, proxy_address=0, deadline=net.now)
    node._install_envelope(late)
    assert node.executor.graphs_installed == 0
    live = query_envelope(plan, plan.opgraphs, proxy_address=0, deadline=net.now + 1.0)
    node._install_envelope(live)
    assert node.executor.graphs_installed == len(plan.opgraphs)


def test_a_rejoining_node_gets_the_renewed_deadline_and_ends_with_the_query():
    """Rejoin re-dissemination after a lifetime renewal ships the renewed
    deadline — the envelope is built from the plan when it is sent — and
    the re-installed graph tears down when the query does."""
    net = PIERNetwork(12, seed=53)
    net.create_table("events", source="local")
    for address in range(12):
        net.register_local_table(address, "events", [])
    cq = net.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 4 LIFETIME 10 GROUP BY src",
        resilience=ResiliencePolicy.enabled(liveness_interval=1.0),
        shared=False,
    )
    submitted_at = cq.stream.handle.submitted_at
    victim = 5
    net.run(2.0)
    cq.renew(16.0)
    net.run(1.0)
    net.fail_node(victim)
    net.run(4.0)
    net.recover_node(victim)
    net.run(0.5)
    assert cq.stream.handle.redisseminations >= 1
    reinstalled = [
        graph
        for graph in net.node(victim).executor.running_graphs()
        if graph.query_id == cq.query_id
    ]
    assert reinstalled
    for graph in reinstalled:
        assert graph.deadline == pytest.approx(submitted_at + 26.0, abs=1e-9)
    net.run(submitted_at + 26.0 - net.now + 2.0)
    assert cq.finished
    assert not [
        graph
        for graph in net.node(victim).executor.running_graphs()
        if graph.query_id == cq.query_id
    ]


def test_an_envelope_is_decoded_once_for_every_node_it_reaches():
    """The simulator hands one envelope object to every node: its opgraphs
    are decoded and ordered once, and every node's install record shares
    the decoded graph, read-only."""
    net = PIERNetwork(8, seed=5)
    _local_events(net)
    plan = flat_aggregation_plan("events", ["src"], [("count", None, "n")], timeout=6.0)
    net.submit(plan, proxy=0)
    net.run(2.0)
    graphs = {
        address: [graph.graph for graph in net.nodes[address].executor.running_graphs()]
        for address in (2, 5)
    }
    assert graphs[2] and len(graphs[2]) == len(plan.opgraphs)
    assert all(first is second for first, second in zip(graphs[2], graphs[5]))
