"""Tests for the deployment catalog and the query-session API:
catalog round-trips, the one way into the catalog, the one-call ``query()`` path,
``StreamingQuery`` iteration/cancel, ``explain()``, and the early-stop
``execute()`` loop."""

import pytest

from repro import Catalog, CatalogError, PIERNetwork
from repro.qp.tuples import Tuple
from repro.sql.explain import render_explain
from repro.sql.planner import NaivePlanner


# -- catalog round-trips -------------------------------------------------------- #

def test_register_publish_plan_query_agree_on_partitioning():
    """create_table -> publish -> plan -> query all read the same catalog."""
    net = PIERNetwork(16, seed=3)
    net.create_table("inv", partitioning=["keyword"])
    rows = [Tuple.make("inv", keyword=f"kw{i % 3}", file_id=i) for i in range(9)]
    net.publish("inv", rows)  # no placement metadata at the call site
    net.run(2.0)

    plan = net.plan_sql("SELECT file_id FROM inv WHERE keyword = 'kw1' TIMEOUT 8")
    # The planner saw the catalog's partitioning: equality dissemination.
    assert plan.opgraphs[0].dissemination.strategy == "equality"
    assert plan.opgraphs[0].dissemination.key == "kw1"

    # And the publisher used the same partitioning, so the single-partition
    # lookup finds every matching row.
    result = net.query("SELECT file_id FROM inv WHERE keyword = 'kw1' TIMEOUT 8")
    assert sorted(result.column("file_id")) == [1, 4, 7]
    assert result.completed


def test_publish_requires_catalog_entry_or_explicit_columns():
    net = PIERNetwork(4, seed=4)
    with pytest.raises(CatalogError):
        net.publish("never_declared", [Tuple.make("never_declared", a=1)])


def test_publish_accepts_mapping_rows_and_rejects_other_shapes():
    """A dict row becomes a row of the published table, as it does when a
    scan reads one out of the DHT; anything else fails at the call, before
    a row is sent."""
    net = PIERNetwork(6, seed=4)
    net.create_table("inv", partitioning=["keyword"])
    assert net.publish("inv", [{"keyword": "kw1", "file_id": 1}, Tuple.make("inv", keyword="kw2", file_id=2)]) == 2
    net.run(2.0)
    result = net.query("SELECT file_id FROM inv TIMEOUT 5")
    assert sorted(result.column("file_id")) == [1, 2]
    messages = net.environment.stats.messages_sent
    with pytest.raises(TypeError, match="list"):
        net.publish("inv", [{"keyword": "kw3", "file_id": 3}, ["kw4", 4]])
    assert net.environment.stats.messages_sent == messages


@pytest.mark.parametrize("call", ["publish", "register_local_table", "append_local_rows"])
def test_a_table_used_the_wrong_way_raises_catalog_error_before_sending(call):
    """Each way in names the declaration it needs, and refuses an
    undeclared table or one of the other source before it stores a row or
    sends a message."""
    net = PIERNetwork(4, seed=6)
    net.create_table("inv", partitioning=["k"])
    net.create_table("logs", source="local")
    rows = [Tuple.make("t", k=1)]
    calls = {
        "publish": lambda table: net.publish(table, rows),
        "register_local_table": lambda table: net.register_local_table(0, table, rows),
        "append_local_rows": lambda table: net.append_local_rows(0, table, rows),
    }
    wrong_source = "logs" if call == "publish" else "inv"
    messages = net.environment.stats.messages_sent
    with pytest.raises(CatalogError, match=r"create_table\('ghost', source="):
        calls[call]("ghost")
    with pytest.raises(CatalogError, match=rf"create_table\('{wrong_source}', source="):
        calls[call](wrong_source)
    assert net.environment.stats.messages_sent == messages
    assert all(not node.executor.local_tables for node in net.nodes)
    assert all(net.statistics.cardinality(table) is None for table in ("ghost", "inv", "logs"))


def test_replacing_a_local_table_keeps_statistics_to_the_rows_held():
    net = PIERNetwork(4, seed=6)
    net.create_table("logs", source="local")
    rows = [Tuple.make("logs", src=f"s{i}") for i in range(10)]
    net.register_local_table(0, "logs", rows)
    net.register_local_table(1, "logs", rows[:3])
    net.append_local_rows(1, "logs", rows[:2])
    net.register_local_table(0, "logs", rows)  # replaces node 0's rows
    held = sum(len(node.executor.local_tables.get("logs", ())) for node in net.nodes)
    assert held == 15
    assert net.statistics.cardinality("logs") == held
    net.register_local_table(1, "logs", [])
    assert net.statistics.cardinality("logs") == 10


def test_catalog_validates_descriptors():
    catalog = Catalog()
    with pytest.raises(CatalogError):
        catalog.create_table("t", source="martian")
    with pytest.raises(CatalogError):
        catalog.create_table("t", source="local", partitioning=["a"])
    catalog.create_table("t", partitioning=["a"])
    with pytest.raises(CatalogError):
        catalog.create_table("t", partitioning=["b"])  # duplicate, no replace
    replaced = catalog.create_table("t", partitioning=["b"], replace=True)
    assert replaced.partitioning == ["b"]
    catalog.drop_table("t")
    assert "t" not in catalog


# -- the one-call query path -------------------------------------------------------- #

@pytest.fixture(scope="module")
def machines_network():
    net = PIERNetwork(25, seed=13)
    net.create_table("machines", partitioning=["node"])
    net.publish(
        "machines", [Tuple.make("machines", node=i, site=f"site{i % 5}") for i in range(25)]
    )
    net.run(2.0)
    return net


def test_query_group_order_limit_one_call(machines_network):
    """The acceptance-criteria query: ordered, limited rows, one call."""
    sql = (
        "SELECT site, COUNT(*) AS n FROM machines GROUP BY site "
        "ORDER BY n DESC LIMIT 3 TIMEOUT 8"
    )
    result = machines_network.query(sql)
    rows = result.rows()
    assert len(rows) == 3
    assert all(row["n"] == 5 for row in rows)  # 25 nodes over 5 sites
    assert result.sql == sql
    assert result.completed


def test_query_result_carries_explain_and_message_counts(machines_network):
    result = machines_network.query(
        "SELECT site FROM machines WHERE node = 7 TIMEOUT 6"
    )
    assert result.rows() == [{"site": "site2"}]
    assert "equality" in result.explain
    assert result.messages_sent is not None and result.messages_sent >= 0
    assert result.bytes_sent is not None


# -- explain ------------------------------------------------------------------------- #

def test_explain_names_each_join_strategy():
    net = PIERNetwork(8, seed=14)
    net.create_table("orders", partitioning=["order_id"])
    net.create_table("users", partitioning=["user_id"])
    net.create_table("items", partitioning=["item_id"])
    report = net.explain(
        "SELECT name FROM orders "
        "JOIN users ON user_id = user_id "
        "JOIN items ON price = price"
    )
    # users is partitioned on its join key -> fetch; items is not -> rehash.
    assert "fetch-matches" in report
    assert "rehash" in report
    assert "JOIN users" in report and "JOIN items" in report
    # Each edge says what its rows carry: the select list and the join
    # keys still to come — or everything, when nothing can be pruned
    # (nothing was published, so the catalog cannot expand the star).
    assert "     ships: name, user_id, price\n" in report
    assert "     ships: name, price\n" in report
    whole = net.explain("SELECT * FROM orders JOIN items ON price = price")
    assert "     ships: *\n" in whole


def test_explain_names_bloom_strategy_from_statistics():
    catalog = Catalog()
    catalog.create_table("tiny", partitioning=["id"])
    catalog.create_table("big", partitioning=["id"])
    for index in range(10):
        catalog.record("tiny", {"id": index, "x": index})
    for index in range(1000):
        catalog.record("big", {"id": index, "x": index % 400})
    planner = NaivePlanner(catalog)
    plan = planner.plan_sql("SELECT x FROM tiny JOIN big ON x = x")
    report = render_explain(plan)
    assert "bloom" in report
    assert "prune" in report


def test_explain_renders_plans_without_planner_metadata():
    from repro.qp.plans import broadcast_scan_plan

    report = render_explain(broadcast_scan_plan("events", timeout=5.0))
    assert "broadcast" in report and "result_handler" in report


# -- streaming ------------------------------------------------------------------------ #

@pytest.fixture
def events_network():
    net = PIERNetwork(12, seed=15)
    net.create_table("events", source="local")
    for address in range(len(net)):
        net.register_local_table(
            address, "events", [Tuple.make("events", node=address, level="info")] * 2
        )
    return net


def test_stream_yields_tuples_before_completion(events_network):
    stream = events_network.stream("SELECT node FROM events TIMEOUT 8")
    seen_unfinished = False
    tuples = []
    for tup in stream:
        if not stream.finished:
            seen_unfinished = True
        tuples.append(tup)
    assert len(tuples) == 24
    assert seen_unfinished, "iteration must interleave execution with delivery"
    assert stream.finished
    assert stream.first_result_latency is not None
    assert stream.first_result_latency < 8.0  # well before the timeout


def test_stream_callbacks_fire_and_replay(events_network):
    stream = events_network.stream("SELECT node FROM events TIMEOUT 8")
    received = []
    done = []
    stream.on_result(received.append).on_done(lambda s: done.append(s.query_id))
    events_network.run(10.0)
    assert len(received) == 24
    assert done == [stream.query_id]
    # Late registration replays history instead of missing it.
    late = []
    stream.on_result(late.append)
    assert len(late) == 24


def test_stream_result_applies_order_and_limit(events_network):
    stream = events_network.stream(
        "SELECT node FROM events ORDER BY node DESC LIMIT 4 TIMEOUT 8"
    )
    result = stream.result()
    assert result.completed
    assert [row["node"] for row in result.rows()] == [11, 11, 10, 10]
    # Same contract as network.query(): traffic counts and explain attached.
    assert result.messages_sent is not None and result.messages_sent > 0
    assert result.bytes_sent is not None
    assert "broadcast" in result.explain


def test_query_unknown_table_raises_instead_of_empty_success(events_network):
    from repro.sql.planner import PlanningError

    with pytest.raises(PlanningError, match="unknown table"):
        events_network.query("SELECT x FROM evnts TIMEOUT 5")  # typo'd name


def test_cancel_refuses_in_flight_opgraph_installs(events_network):
    """Cancelling while dissemination envelopes are still in flight must
    prevent late installs — the query stops producing traffic for good."""
    net = events_network
    stream = net.stream("SELECT node FROM events TIMEOUT 60")
    stream.cancel()  # before the envelopes reach any node
    net.run(5.0)
    for node in net.nodes:
        for installed in node.executor.installed_graphs():
            assert installed.query_id != stream.query_id or installed.finished
    assert stream.results == []


def test_stream_cancel_stops_the_query_everywhere(events_network):
    net = events_network
    stream = net.stream("SELECT node FROM events TIMEOUT 60")
    net.run(0.3)  # mid-query: a scan's data is done about half a second in
    assert not stream.finished
    count_at_cancel = len(stream.results)
    assert stream.cancel()
    assert stream.finished and stream.handle.cancelled
    # The opgraphs are torn down across the deployment...
    for node in net.nodes:
        for installed in node.executor.installed_graphs():
            if installed.query_id == stream.query_id:
                assert installed.finished
    # ...and no further results arrive.
    net.run(10.0)
    assert len(stream.results) == count_at_cancel
    # Cancelling twice is a no-op.
    assert not stream.cancel()



def test_a_query_cancelled_from_its_first_local_result_stops_cleanly():
    """On a one-node deployment every row is the proxy's own: it reaches
    the client while the proxy's graph is still starting, and a client
    that cancels right there tears that graph down before its teardown
    timer was ever armed."""
    net = PIERNetwork(1, seed=3)
    net.create_table("t", partitioning=["id"])
    net.publish("t", [Tuple.make("t", id=i) for i in range(100)])
    net.run(1.0)
    plan = net.plan_sql("SELECT id FROM t TIMEOUT 10")
    seen = []

    def on_result(tup):
        seen.append(tup)
        if len(seen) == 1:
            assert net.cancel(plan.query_id)

    handle = net.submit(plan, result_callback=on_result)
    net.run(12.0)
    assert handle.cancelled and handle.completed_by == "cancel"
    assert len(seen) == 1 and len(handle.results) == 1
    executor = net.nodes[0].executor
    assert not executor.running_graphs()
    assert [graph.timer for graph in executor.installed_graphs()] == [None]

def test_stream_iteration_terminates_when_deployment_dies(events_network):
    """If every node fails mid-query the event queue can drain without the
    proxy ever reporting completion; iteration must stop, not spin."""
    net = events_network
    stream = net.stream("SELECT node FROM events TIMEOUT 30")
    for address in range(len(net)):
        net.fail_node(address)
    consumed = list(stream)
    assert consumed == []  # nothing arrived, and — crucially — we returned


def test_stream_done_callback_fires_on_cancel(events_network):
    stream = events_network.stream("SELECT node FROM events TIMEOUT 60")
    done = []
    stream.on_done(lambda s: done.append(True))
    stream.cancel()
    assert done == [True]


# -- execute() early stop --------------------------------------------------------------- #

def test_execute_stops_stepping_once_query_finishes(events_network):
    from repro.qp.plans import broadcast_scan_plan

    net = events_network
    plan = broadcast_scan_plan("events", timeout=6.0)
    started = net.now
    result = net.execute(plan, extra_time=30.0)
    assert result.completed
    # The proxy reports completion at timeout + 1s; the simulator must stop
    # there instead of burning the remaining extra_time.
    assert net.now - started <= 6.0 + 1.0 + 0.5
