"""Integration tests for hierarchical operators, dissemination strategies,
and query execution under churn / malformed data."""

import pytest

from repro import PIERNetwork
from repro.qp.opgraph import DisseminationSpec, QueryPlan
from repro.qp.plans import flat_aggregation_plan, hierarchical_aggregation_plan
from repro.qp.tuples import Tuple
from repro.runtime.churn import ChurnProcess


def _load_events(network, rows_per_node=3, groups=4):
    network.create_table("events", source="local")
    for address in range(len(network)):
        network.register_local_table(
            address,
            "events",
            [Tuple.make("events", src=f"s{address % groups}", n=1) for _ in range(rows_per_node)],
        )


def test_hierarchical_join_produces_each_result_once():
    network = PIERNetwork(16, seed=31)
    left = [Tuple.make("left", k=i % 4, a=i) for i in range(12)]
    right = [Tuple.make("right", k=i % 4, b=i) for i in range(8)]
    network.create_table("left", source="local")
    network.create_table("right", source="local")
    for index, tup in enumerate(left):
        network.register_local_table(index % 16, "left", [])
    # Place tuples as node-local tables spread over the network.
    per_node_left = [[] for _ in range(16)]
    per_node_right = [[] for _ in range(16)]
    for index, tup in enumerate(left):
        per_node_left[index % 16].append(tup)
    for index, tup in enumerate(right):
        per_node_right[(index * 3) % 16].append(tup)
    network.distribute_local_table("left", per_node_left)
    network.distribute_local_table("right", per_node_right)

    plan = QueryPlan(timeout=15.0)
    graph = plan.new_graph(dissemination=DisseminationSpec(strategy="broadcast"))
    graph.add_operator("scan_left", "local_table", {"table": "left"})
    graph.add_operator("scan_right", "local_table", {"table": "right"})
    graph.add_operator(
        "hier_join",
        "hierarchical_join",
        {"namespace": "hj", "left_columns": ["k"], "right_columns": ["k"], "output_table": "j"},
        inputs=["scan_left", "scan_right"],
    )
    graph.add_operator("results", "result_handler", {"batch": 8}, inputs=["hier_join"])
    result = network.execute(plan, proxy=0)

    expected_pairs = {(l["a"], r["b"]) for l in left for r in right if l["k"] == r["k"]}
    produced = [(row["a"], row["b"]) for row in result.rows()]
    assert len(produced) == len(set(produced)), "no duplicate join results"
    assert set(produced) == expected_pairs


def test_equality_dissemination_installs_on_few_nodes():
    network = PIERNetwork(16, seed=32)
    rows = [Tuple.make("inverted", keyword="solo", file_id=i) for i in range(3)]
    network.create_table("inverted", partitioning=["keyword"])
    network.publish("inverted", rows)
    network.run(3.0)
    from repro.qp.plans import equality_lookup_plan

    plan = equality_lookup_plan("inverted", "solo", timeout=8)
    network.execute(plan, proxy=4)
    installed_on = [
        node
        for node in network.nodes
        if any(g.query_id == plan.query_id for g in node.executor.installed_graphs())
    ]
    assert 1 <= len(installed_on) <= 3  # owner (plus possibly the proxy), never a broadcast


def test_malformed_rows_are_dropped_without_breaking_the_query():
    network = PIERNetwork(10, seed=33)
    _load_events(network)
    # One node publishes junk rows that do not match the query's schema.
    network.register_local_table(
        3, "events",
        [Tuple.make("events", completely="different", schema=1),
         Tuple.make("events", src="s1", n=1)],
    )
    plan = flat_aggregation_plan("events", ["src"], [("sum", "n", "total")], timeout=12)
    result = network.execute(plan)
    totals = {row["src"]: row["total"] for row in result.rows()}
    # 9 normal nodes x 3 rows + 1 valid row on node 3 = 28 rows in total.
    assert sum(totals.values()) == 28


def test_continuous_query_sees_newly_published_tuples():
    network = PIERNetwork(12, seed=34)
    plan = QueryPlan(timeout=14)
    graph = plan.new_graph()
    graph.add_operator("scan", "dht_scan", {"namespace": "live_table"})
    # A per-node limit holds state until the deadline, so the query runs to
    # its timeout (a plain scan of an empty table ends with its data).
    graph.add_operator("limit", "limit", {"count": 100}, inputs=["scan"])
    graph.add_operator("results", "result_handler", {}, inputs=["limit"])
    handle = network.submit(plan, proxy=0)
    network.run(2.0)
    rows = [Tuple.make("live_table", seq=i) for i in range(6)]
    network.create_table("live_table", partitioning=["seq"])
    network.publish("live_table", rows)
    network.run(16.0)
    assert {row["seq"] for row in (t.as_mapping() for t in handle.results)} == set(range(6))


def test_aggregation_under_churn_remains_close_to_truth():
    """Publisher churn only: the proxy and the aggregation-tree root are
    shielded, so the assertion is about losing *publishers'* data
    gracefully.  (Without resilience the result is a seed lottery when the
    root itself is churned away mid-query — it dies holding every merged
    partial; root failure with handoff is covered by
    tests/runtime/test_churn_queries.py.)"""
    network = PIERNetwork(24, seed=35)
    _load_events(network, rows_per_node=2, groups=3)
    plan = hierarchical_aggregation_plan(
        "events", ["src"], [("count", None, "n")], timeout=16
    )
    from repro.overlay.identifiers import object_identifier

    root_identifier = object_identifier(
        f"{plan.query_id}:__hierarchical_aggregate__", "root"
    )
    root_owner = next(
        node.address
        for node in network.nodes
        if node.overlay.router.is_responsible(root_identifier)
    )
    churn = ChurnProcess(
        network.environment, interval=2.0, session_time=60.0,
        protected=[0, root_owner], seed=35, recover=False,
    )
    churn.start()
    result = network.execute(plan, proxy=0)
    churn.stop()
    total_counted = sum(row["n"] for row in result.rows())
    total_truth = 24 * 2
    assert 0 < total_counted <= total_truth
    assert total_counted >= total_truth * 0.5  # most data still aggregated under churn


def test_bamboo_router_deployment_answers_queries():
    network = PIERNetwork(14, router="bamboo", seed=36)
    _load_events(network)
    plan = flat_aggregation_plan("events", ["src"], [("count", None, "n")], timeout=12)
    result = network.execute(plan)
    assert sum(row["n"] for row in result.rows()) == 14 * 3


def test_unknown_router_name_rejected():
    with pytest.raises(ValueError):
        PIERNetwork(4, router="pastry-deluxe")


def test_hierarchical_merge_functions_built_once(monkeypatch):
    """Regression: _merge_into rebuilt [spec.build() ...] for every merged
    partial — hot-path waste that also broke stateful build() aggregates."""
    from operator_harness import OperatorHarness
    from repro.qp.aggregates import AggregateSpec

    calls = {"n": 0}
    original = AggregateSpec.build

    def counting(self):
        calls["n"] += 1
        return original(self)

    monkeypatch.setattr(AggregateSpec, "build", counting)
    harness = OperatorHarness(node_count=1, seed=41)
    operator = harness.build(
        "hierarchical_aggregate",
        {"aggregates": [("sum", "n", "total")], "group_columns": ["g"]},
    )
    operator.start()
    built_before_merges = calls["n"]
    for index in range(10):
        operator._merge_into(operator._root_states, ("g1",), [index])
    assert calls["n"] == built_before_merges, "merges must reuse the functions"


def test_hierarchical_root_ownership_captured_at_start():
    """Regression: _is_root() was evaluated per enqueue, so partials enqueued
    before and after an ownership change split across two 'roots'."""
    from operator_harness import OperatorHarness

    harness = OperatorHarness(node_count=1, seed=42)
    operator = harness.build(
        "hierarchical_aggregate", {"aggregates": [("count", None, "n")]}
    )
    operator.start()
    assert operator._is_root_owner  # single node owns everything
    # Even if the router's view flips mid-query, enqueues keep using the
    # captured ownership instead of splitting across two buckets.
    harness.context.overlay.router.is_responsible = lambda target: False
    operator._hold_partials([((), [3])])
    assert operator._root_states and not operator._held
