"""Integration tests: full queries over a simulated PIER deployment
(the "life of a query" of Section 3.3.2)."""

import pytest

from repro import PIERNetwork
from repro.qp.opgraph import DisseminationSpec, QueryPlan
from repro.qp.plans import (
    broadcast_scan_plan,
    equality_lookup_plan,
    fetch_matches_join_plan,
    flat_aggregation_plan,
    hierarchical_aggregation_plan,
    symmetric_hash_join_plan,
)
from repro.qp.rewrites import bloom_join_plan, semi_join_plan
from repro.qp.tuples import Tuple


@pytest.fixture(scope="module")
def network():
    """One shared 20-node deployment for the execution tests (queries are
    independent; each uses its own query-scoped namespaces)."""
    net = PIERNetwork(20, seed=11)
    net.create_table("events", source="local")
    for address in range(len(net)):
        net.register_local_table(
            address,
            "events",
            [
                Tuple.make("events", src=f"10.0.0.{address % 4}", bytes=10 * (address + 1))
                for _ in range(3)
            ],
        )
    inverted = [
        Tuple.make("inverted", keyword=f"kw{i % 5}", file_id=i, filename=f"f{i}.mp3")
        for i in range(30)
    ]
    files = [Tuple.make("files", file_id=i, size_kb=i * 7) for i in range(30)]
    net.create_table("inverted", partitioning=["keyword"])
    net.create_table("files", partitioning=["file_id"])
    net.publish("inverted", inverted)
    net.publish("files", files)
    net.run(4.0)
    return net


def test_equality_lookup_touches_one_partition(network):
    result = network.execute(equality_lookup_plan("inverted", "kw2", timeout=8), proxy=3)
    assert len(result) == 6
    assert all(row["keyword"] == "kw2" for row in result.rows())
    assert result.first_result_latency is not None and result.first_result_latency < 5.0


def test_equality_lookup_missing_key_returns_nothing(network):
    result = network.execute(equality_lookup_plan("inverted", "no-such-keyword", timeout=6))
    assert len(result) == 0
    assert result.completed


def test_broadcast_scan_collects_every_nodes_rows(network):
    plan = broadcast_scan_plan(
        "events", predicate=["eq", ["col", "src"], ["lit", "10.0.0.1"]], timeout=10
    )
    result = network.execute(plan, proxy=5)
    expected_nodes = [address for address in range(20) if address % 4 == 1]
    assert len(result) == 3 * len(expected_nodes)
    assert set(result.column("src")) == {"10.0.0.1"}


def test_projection_limits_result_columns(network):
    plan = broadcast_scan_plan("events", columns=["src"], timeout=10)
    result = network.execute(plan, proxy=2)
    assert result.tuples and all(set(t.columns) == {"src"} for t in result.tuples)


def test_flat_and_hierarchical_aggregation_agree(network):
    aggregates = [("count", None, "n"), ("sum", "bytes", "total")]
    flat = network.execute(
        flat_aggregation_plan("events", ["src"], aggregates, timeout=14), proxy=1
    )
    hierarchical = network.execute(
        hierarchical_aggregation_plan("events", ["src"], aggregates, timeout=14), proxy=1
    )
    flat_rows = {row["src"]: (row["n"], row["total"]) for row in flat.rows()}
    hier_rows = {row["src"]: (row["n"], row["total"]) for row in hierarchical.rows()}
    assert flat_rows == hier_rows
    assert sum(n for n, _ in flat_rows.values()) == 60  # 20 nodes x 3 rows


def test_fetch_matches_join_enriches_outer_tuples(network):
    plan = fetch_matches_join_plan(
        outer_table="inverted",
        inner_namespace="files",
        outer_columns=["file_id"],
        outer_predicate=["eq", ["col", "keyword"], ["lit", "kw1"]],
        timeout=12,
    )
    result = network.execute(plan, proxy=4)
    assert len(result) == 6
    assert all("size_kb" in row and row["keyword"] == "kw1" for row in result.rows())


def test_symmetric_hash_join_matches_reference(network):
    plan = symmetric_hash_join_plan(
        "inverted", "files", ["file_id"], ["file_id"], timeout=16
    )
    result = network.execute(plan, proxy=6)
    assert len(result) == 30
    for row in result.rows():
        assert row["size_kb"] == row["file_id"] * 7


def test_bloom_join_produces_same_rows_as_plain_join(network):
    plan = bloom_join_plan("inverted", "files", ["file_id"], ["file_id"], timeout=18)
    result = network.execute(plan, proxy=7)
    assert len(result) == 30


def test_semi_join_over_secondary_index(network):
    # Build a secondary index: size_kb -> file_id pointers into "files".
    for file_id in range(30):
        network.node(file_id % len(network)).publish_secondary_index(
            index_namespace="files_by_size",
            index_columns=["size_kb"],
            base_namespace="files",
            base_key=file_id,
            tup=Tuple.make("files", file_id=file_id, size_kb=file_id * 7),
        )
    network.run(3.0)
    plan = semi_join_plan(
        outer_table="inverted",
        index_namespace="files_by_size",
        inner_namespace="files",
        outer_columns=["size_kb"],
        outer_predicate=None,
        timeout=16,
    )
    # Outer tuples lack size_kb, so instead drive the semi-join from a small
    # local probe table containing the sizes we are interested in.
    probe_rows = [Tuple.make("probe", size_kb=size) for size in (7, 14)]
    network.create_table("probe", source="local")
    network.register_local_table(0, "probe", probe_rows)
    plan = semi_join_plan(
        outer_table="probe",
        index_namespace="files_by_size",
        inner_namespace="files",
        outer_columns=["size_kb"],
        source="local_table",
        timeout=16,
    )
    result = network.execute(plan, proxy=0)
    assert {row["file_id"] for row in result.rows() if "file_id" in row} == {1, 2}


def test_query_timeout_tears_down_operators(network):
    plan = broadcast_scan_plan("events", timeout=6)
    network.execute(plan, proxy=0)
    network.run(3.0)
    for node in network.nodes:
        for installed in node.executor.installed_graphs():
            if installed.query_id == plan.query_id:
                assert installed.finished
    # Query-scoped DHT state is gone.
    prefix = f"{plan.query_id}:"
    for node in network.nodes:
        assert not [ns for ns in node.overlay.object_manager.namespaces() if ns.startswith(prefix)]


def test_queries_from_different_proxies_are_isolated(network):
    plan_a = broadcast_scan_plan("events", timeout=8)
    plan_b = broadcast_scan_plan("events", timeout=8)
    handle_a = network.submit(plan_a, proxy=2)
    handle_b = network.submit(plan_b, proxy=9)
    network.run(12.0)
    assert len(handle_a.results) == 60
    assert len(handle_b.results) == 60
    assert handle_a.query_id != handle_b.query_id


def test_local_dissemination_runs_only_on_proxy(network):
    plan = QueryPlan(timeout=5.0)
    graph = plan.new_graph(dissemination=DisseminationSpec(strategy="local"))
    graph.add_operator("scan", "local_table", {"table": "events"})
    graph.add_operator("results", "result_handler", {}, inputs=["scan"])
    result = network.execute(plan, proxy=3)
    assert len(result) == 3  # only the proxy's own rows


def test_envelope_ships_the_execution_settings_and_nothing_else(network):
    """The dissemination envelope goes to every node for every opgraph:
    it carries the plan metadata an executor acts on, not the SQL text,
    the planner's decisions or the proxy-side result clauses."""
    from repro.qp.dissemination import ENVELOPE_METADATA_KEYS, query_envelope

    plan = network.plan_sql("SELECT src FROM events ORDER BY src LIMIT 2 TIMEOUT 5")
    assert {"sql", "planner", "sql_order_by", "sql_limit", "sql_select"} <= set(plan.metadata)
    settings = {
        "exchange_batch_size": 4,
        "exchange_flush_interval": 0.5,
        "result_flush_interval": 0.5,
        "resilience": {"handoff": False},
        "trace": {"trace_id": "t-x", "span": "s-x"},
        "integrity": {"spot_check_rate": 0.0},
    }
    assert set(settings) == set(ENVELOPE_METADATA_KEYS)
    plan.metadata.update(settings)
    envelope = query_envelope(plan, plan.opgraphs, proxy_address=0, deadline=plan.timeout)
    assert envelope.metadata == settings
    # Every one of them reaches the operators of a node that is not the proxy.
    result = network.execute(plan, proxy=0)
    (installed,) = [
        graph for graph in network.nodes[7].executor.installed_graphs()
        if graph.query_id == result.query_id
    ]
    assert {key: installed.context.extras[key] for key in settings} == settings


def test_submit_refuses_an_unknown_operator_type_before_sending(network):
    plan = QueryPlan(timeout=5.0)
    graph = plan.new_graph()
    graph.add_operator("scan", "teleport_scan", {"table": "events"})
    graph.add_operator("results", "result_handler", {}, inputs=["scan"])
    messages = network.environment.stats.messages_sent
    with pytest.raises(ValueError, match="teleport_scan"):
        network.submit(plan, proxy=2)
    assert network.environment.stats.messages_sent == messages
    assert network.nodes[2].proxy.query(plan.query_id) is None
