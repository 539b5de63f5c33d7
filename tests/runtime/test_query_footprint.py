"""A query's footprint ends with the query.

What a node holds for a query — overlay registrations, install records,
proxy handles, the operators behind them — is owned and released: handlers
go when the operators stop, records and handles one retention later, and
all of it by reference count, with the cyclic collector switched off.  The
deployments are smoke-sized (8 nodes) and every check compares a census
taken before the first query with one taken after the last.
"""

from __future__ import annotations

import gc
from collections import Counter
from typing import Any, Callable, Dict, List, Tuple as PyTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import PIERNetwork
from repro.qp.dissemination import query_envelope
from repro.qp.executor import FINISHED_RETENTION, TOMBSTONE_LIFETIME
from repro.qp.opgraph import OpGraph
from repro.qp.operators.base import ExecutionContext, PhysicalOperator
from repro.qp.plans import (
    JoinStep,
    broadcast_scan_plan,
    fetch_matches_join_plan,
    multi_join_plan,
)
from repro.qp.tuples import Tuple

NODES = 8
# A finished record goes on the first stabilization tick after its retention.
RELEASED_AFTER = FINISHED_RETENTION + 10.0 + 1.0


def make_network(seed: int = 5) -> PIERNetwork:
    net = PIERNetwork(NODES, seed=seed)
    # Nothing renews published rows yet (ROADMAP item 2's other half), and
    # these deployments run for virtual hours.
    net.create_table("fact", partitioning=["id"], lifetime=1e6)
    net.create_table("dim_k", partitioning=["k"], lifetime=1e6)
    net.create_table("dim_j", partitioning=["j"], lifetime=1e6)
    net.create_table("events", source="local")
    net.publish("fact", [Tuple.make("fact", id=i, k=i % 3, j=i % 4) for i in range(12)])
    net.publish("dim_k", [Tuple.make("dim_k", k=i, kn=f"k{i}") for i in range(3)])
    net.publish("dim_j", [Tuple.make("dim_j", j=i, jn=f"j{i}") for i in range(4)])
    for address in range(NODES):
        net.register_local_table(
            address, "events", [Tuple.make("events", src=f"s{address % 3}") for _ in range(2)]
        )
    net.run(3.0)
    return net


def handler_census(net: PIERNetwork) -> PyTuple[int, int]:
    """(registered handlers, namespaces with a handler), summed over the
    three handler maps of every node."""
    handlers = namespaces = 0
    for node in net.nodes:
        overlay = node.overlay
        for registered in (
            overlay._new_data_handlers,
            overlay._new_batch_handlers,
            overlay._upcall_handlers,
        ):
            namespaces += len(registered)
            handlers += sum(len(callbacks) for callbacks in registered.values())
    return handlers, namespaces


def record_census(net: PIERNetwork) -> Dict[str, int]:
    return {
        "installed": sum(len(node.executor._installed) for node in net.nodes),
        "finished": sum(len(node.executor._finished) for node in net.nodes),
        "queries": sum(len(node.proxy._queries) for node in net.nodes),
        "templates": sum(len(node.templates) for node in net.nodes),
        "listeners": sum(
            len(listeners)
            for node in net.nodes
            for listeners in node.executor._table_listeners.values()
        ),
    }


def tombstones(net: PIERNetwork) -> int:
    return sum(len(node.executor._refused) for node in net.nodes)


EMPTY = {"installed": 0, "finished": 0, "queries": 0, "templates": 0, "listeners": 0}


# -- the query shapes ---------------------------------------------------------------------- #
def scan(net: PIERNetwork, proxy: int) -> None:
    assert len(net.query("SELECT id FROM fact TIMEOUT 3", proxy=proxy)) == 12


def rehash_join(net: PIERNetwork, proxy: int) -> None:
    plan = multi_join_plan(
        "fact", [JoinStep("dim_k", "k", "k"), JoinStep("dim_j", "j", "j")], timeout=5.0
    )
    assert len(net.execute(plan, proxy=proxy)) == 12


def bloom_join(net: PIERNetwork, proxy: int) -> None:
    plan = multi_join_plan("fact", [JoinStep("dim_k", "k", "k", strategy="bloom")], timeout=6.0)
    assert len(net.execute(plan, proxy=proxy)) == 12


def fetch_join(net: PIERNetwork, proxy: int) -> None:
    plan = fetch_matches_join_plan("fact", "dim_k", ["k"], timeout=4.0)
    assert len(net.execute(plan, proxy=proxy)) == 12


def flat_group_by(net: PIERNetwork, proxy: int) -> None:
    result = net.query("SELECT src, COUNT(*) AS n FROM events GROUP BY src TIMEOUT 5", proxy=proxy)
    assert sum(row["n"] for row in result.rows()) == 2 * NODES


def hierarchical_group_by(net: PIERNetwork, proxy: int) -> None:
    for resilience in (None, True):
        result = net.query(
            "SELECT src, COUNT(*) AS n FROM events GROUP BY src TIMEOUT 8",
            proxy=proxy,
            resilience=resilience,
            aggregation_strategy="hierarchical",
        )
        assert sum(row["n"] for row in result.rows()) == 2 * NODES


def cancelled_mid_flight(net: PIERNetwork, proxy: int) -> None:
    stream = net.stream("SELECT id FROM fact JOIN dim_k ON k = k TIMEOUT 30", proxy=proxy)
    net.run(1.5)
    assert stream.cancel()


def cancelled_before_install(net: PIERNetwork, proxy: int) -> None:
    stream = net.stream("SELECT src FROM events TIMEOUT 30", proxy=proxy)
    # No node installs before submit returns, the proxy's own included.
    assert stream.cancel()
    net.run(1.0)
    assert stream.results == []


def standing_past_lifetime(net: PIERNetwork, proxy: int) -> None:
    cq = net.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 2 LIFETIME 5 GROUP BY src",
        proxy=proxy,
        shared=proxy % 2 == 0,  # one shared plan, one private install, in turn
    )
    net.run(12.0)
    assert cq.finished


SHAPES: List[Callable[[PIERNetwork, int], None]] = [
    scan,
    rehash_join,
    bloom_join,
    fetch_join,
    flat_group_by,
    hierarchical_group_by,
    cancelled_mid_flight,
    cancelled_before_install,
    standing_past_lifetime,
]


@pytest.fixture(scope="module")
def network() -> PIERNetwork:
    return make_network()


# -- (a) handler census -------------------------------------------------------------------- #
@pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: shape.__name__)
def test_handlers_and_records_return_to_baseline(network, shape):
    """Twenty queries of one shape leave no handler, namespace key, install
    record, proxy handle or local-table listener behind."""
    network.run(RELEASED_AFTER)
    before = handler_census(network)
    assert record_census(network) == EMPTY
    for index in range(20):
        shape(network, index % NODES)
    # Handlers go with stop(), not with the record.
    network.run(1.0 if shape is not cancelled_mid_flight else 0.0)
    assert handler_census(network) == before
    network.run(RELEASED_AFTER)
    assert handler_census(network) == before
    assert record_census(network) == EMPTY


# -- (b) bounded records -------------------------------------------------------------------- #
def test_records_handles_and_tombstones_are_bounded():
    """What is retained depends on the retention, not on how many queries
    ran: the same bound holds after 20 queries and after 60."""
    net = make_network(seed=9)
    # One query per 4-second slot (a scan ends with its data, well inside
    # the slot): at most ceil((30 + 10) / 4) + 1 of them are within the
    # retention plus a stabilization tick, each with one record per node.
    per_query = 11
    bound = {"installed": per_query * NODES, "finished": per_query * NODES, "queries": per_query}
    worst = Counter()
    for index in range(60):
        slot_ends = net.now + 4.0
        scan(net, index % NODES)
        net.run(slot_ends - net.now)
        census = record_census(net)
        worst |= Counter(census)
        if index in (19, 59):
            assert all(worst[name] <= bound[name] for name in bound), (index, worst)
    assert worst["installed"] > NODES  # the bound is not vacuous: records are retained
    assert 0 < tombstones(net) <= 60 * NODES
    # Tombstones outlive the records by TOMBSTONE_LIFETIME and then go too.
    net.run(RELEASED_AFTER + TOMBSTONE_LIFETIME)
    scan(net, 0)
    net.run(RELEASED_AFTER)
    assert record_census(net) == EMPTY
    assert tombstones(net) <= NODES


# -- (c) object census, collector off --------------------------------------------------------- #
def live_objects() -> Counter:
    census: Counter = Counter()
    for candidate in gc.get_objects():
        for cls in (PhysicalOperator, OpGraph, ExecutionContext):
            if isinstance(candidate, cls):
                census[cls.__name__] += 1
    return census


def test_release_is_by_reference_count():
    """With the cyclic collector off, the operators, opgraphs and execution
    contexts of every query shape are gone one retention after the queries
    are done — nothing waits for a collector pass."""
    net = make_network(seed=13)
    for shape in SHAPES:  # warm every lazily built cache
        shape(net, 0)
    net.run(RELEASED_AFTER)
    gc.collect()
    gc.disable()
    try:
        before = live_objects()
        for index, shape in enumerate(SHAPES * 2):
            shape(net, index % NODES)
        assert live_objects() != before
        net.run(RELEASED_AFTER)
        assert live_objects() == before
    finally:
        gc.enable()
    assert gc.collect() == 0


# -- (d) duplicate envelopes and rejoin ------------------------------------------------------------ #
def test_duplicate_envelope_is_refused_after_the_record_is_dropped():
    net = make_network(seed=17)
    plan = broadcast_scan_plan("fact", source="dht_scan", timeout=3.0)
    assert len(net.execute(plan)) == 12
    # A deadline past both installs below: only the install record and then
    # its tombstone stand between the envelope and the executor.
    envelope = query_envelope(
        plan, plan.opgraphs, proxy_address=net.nodes[0].address,
        deadline=net.now + 2 * RELEASED_AFTER,
    )
    node = net.nodes[3]
    installs = node.executor.graphs_installed
    node._install_envelope(envelope)  # the record is still there: a duplicate
    net.run(RELEASED_AFTER)
    assert not node.executor.installed_graphs()
    assert node.executor.released(plan.query_id)
    node._install_envelope(envelope)  # the record is gone: its tombstone refuses
    assert node.executor.graphs_installed == installs
    assert not node.executor.installed_graphs()


def test_a_running_query_is_reinstalled_on_a_recovered_node():
    """Release does not get in the way of rejoin re-dissemination: the
    purge on recovery leaves no tombstone behind."""
    net = make_network(seed=19)
    # A GROUP BY holds its groups until the deadline, so it is still
    # running when the victim comes back (a plain scan ends with its data).
    stream = net.stream(
        "SELECT src, COUNT(*) AS n FROM events GROUP BY src TIMEOUT 30", resilience=True
    )
    victim = 5
    net.run(2.0)
    net.fail_node(victim)
    net.run(3.0)
    installs = net.node(victim).executor.graphs_installed
    net.recover_node(victim)
    net.run(1.0)
    assert stream.handle.redisseminations >= 1
    assert net.node(victim).executor.graphs_installed > installs
    assert {
        graph.query_id for graph in net.node(victim).executor.running_graphs()
    } == {stream.query_id}
    stream.cancel()


# -- (e) unregistering from inside a delivery ---------------------------------------------------------- #
def test_unregistering_inside_a_delivery_neither_skips_nor_repeats_neighbours(network):
    overlay = network.nodes[2].overlay
    calls: List[str] = []
    undo: Dict[str, Callable[[], None]] = {}

    def handler(name: str, also_remove: str = "") -> Callable[[str, object, Any], None]:
        def on_data(_namespace: str, _key: object, _value: Any) -> None:
            calls.append(name)
            if also_remove:
                undo[also_remove]()

        return on_data

    undo["a"] = overlay.new_data("probe", handler("a"))
    undo["b"] = overlay.new_data("probe", handler("b", also_remove="b"))
    undo["c"] = overlay.new_data("probe", handler("c", also_remove="a"))
    undo["d"] = overlay.new_data("probe", handler("d"))
    overlay._notify_new_data("probe", "key", [1])
    assert calls == ["a", "b", "c", "d"]
    del calls[:]
    overlay._notify_new_data("probe", "key", [1])
    assert calls == ["c", "d"]
    for name in "abcd":
        undo[name]()  # a second call is a no-op
    assert "probe" not in overlay._new_data_handlers


# -- (f) dead scans are not called ------------------------------------------------------------------------ #
def test_a_published_row_reaches_no_finished_scan():
    net = make_network(seed=23)
    for index in range(30):
        scan(net, index % NODES)
    net.run(1.0)  # the last scan's end is still crossing the tree
    called: List[Any] = []
    original = PhysicalOperator.receive

    def counting(self, batch, slot=0, tag="main"):  # noqa: ANN001
        called.append(self)
        original(self, batch, slot, tag)

    assert all(
        "fact" not in node.overlay._new_batch_handlers for node in net.nodes
    ), "30 finished scans of fact left a callback registered"
    PhysicalOperator.receive = counting
    try:
        net.publish("fact", [Tuple.make("fact", id=100, k=0, j=0)])
        net.run(2.0)
    finally:
        PhysicalOperator.receive = original
    assert called == []


# -- churn notifications walk live queries only -------------------------------------------------------------- #
def test_churn_notifications_walk_live_queries_only():
    net = make_network(seed=29)
    proxy = net.nodes[0].proxy
    finished = [net.query("SELECT id FROM fact TIMEOUT 2").query_id for _ in range(50)]
    net.run(RELEASED_AFTER)
    running = net.stream("SELECT src FROM events TIMEOUT 30")
    assert list(proxy._queries) == [running.query_id]
    assert proxy.active_query_count() == 1
    proxy.note_failure(net.nodes[4].address)
    assert running.handle.down_nodes == {net.nodes[4].address}
    released = finished[0]
    assert proxy.query(released) is None
    assert proxy.cancel(released) is False and proxy.renew(released) is False
    assert proxy.cancel("q-never-submitted") is False and proxy.renew("q-never-submitted") is False
    running.cancel()


def test_the_clients_result_outlives_the_proxys_handle():
    net = make_network(seed=31)
    result = net.query("SELECT id FROM fact TIMEOUT 2")
    stream = net.stream("SELECT id FROM fact TIMEOUT 2")
    stream.run_to_completion()
    net.run(RELEASED_AFTER)
    assert net.nodes[0].proxy.query(stream.query_id) is None
    assert sorted(result.column("id")) == list(range(12))
    assert sorted(tup["id"] for tup in stream.results) == list(range(12))
    assert stream.finished and stream.handle.result_callback is None


def test_explain_analyze_says_when_the_actuals_are_gone():
    net = make_network(seed=37)
    stream = net.stream("SELECT id FROM fact JOIN dim_k ON k = k TIMEOUT 3")
    stream.run_to_completion()
    fresh = net.explain_analyze(stream.handle)
    assert "actuals released" not in fresh and "rows" in fresh
    net.run(RELEASED_AFTER)
    stale = net.explain_analyze(stream.handle)
    assert f"actuals released: query finished more than {FINISHED_RETENTION:g} s ago" in stale
    with pytest.raises(ValueError, match="forgets"):
        net.explain_analyze(stream.query_id)


# -- (g) random interleavings against a plain-Python reference ---------------------------------------------------- #
TABLES = ("t0", "t1", "t2")
TIMEOUT = 4.0
# A row published this long before a scan's proxy closed it (when its data
# was done, or at its deadline) has reached its owner and, through the
# scan, the proxy; one published after the proxy closed cannot have.
SETTLED = 2.0

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("publish"), st.integers(0, 2), st.integers(1, 3)),
        st.tuples(st.just("submit"), st.integers(0, 2), st.integers(0, NODES - 1)),
        st.tuples(st.just("cancel"), st.integers(0, 7), st.just(0)),
        st.tuples(st.just("run"), st.sampled_from([0.5, 1.0, 2.0, 5.0]), st.just(0)),
    ),
    min_size=4,
    max_size=14,
)


@settings(max_examples=40, deadline=None)
@given(operations=OPERATIONS)
# A row published at the instant a query is submitted on its own proxy node
# and cancelled: nothing of the query may arrive inside submit().
@example(operations=[("publish", 2, 2), ("cancel", 0, 0), ("submit", 2, 1), ("cancel", 0, 0)])
def test_random_interleavings_answer_right_and_release_everything(operations):
    net = PIERNetwork(NODES, seed=41)
    for table in TABLES:
        net.create_table(table, partitioning=["v"])
    net.run(2.0)
    baseline = handler_census(net)
    published: Dict[str, List[PyTuple[float, int]]] = {table: [] for table in TABLES}
    counter = 0
    queries = []  # (stream, table, submitted_at, cancelled_at)
    for name, first, second in operations:
        if name == "publish":
            table = TABLES[first]
            rows = [Tuple.make(table, v=counter + offset) for offset in range(second)]
            published[table] += [(net.now, counter + offset) for offset in range(second)]
            counter += second
            net.publish(table, rows)
        elif name == "submit":
            table = TABLES[first]
            stream = net.stream(f"SELECT v FROM {table} TIMEOUT {TIMEOUT:g}", proxy=second)
            queries.append([stream, table, net.now, None])
        elif name == "cancel":
            if first < len(queries) and not queries[first][0].finished:
                queries[first][0].cancel()
                queries[first][3] = net.now
        else:
            net.run(first)
    net.run(TIMEOUT + 1.5)
    for stream, table, submitted_at, cancelled_at in queries:
        assert stream.finished
        answer = Counter(tup["v"] for tup in stream.results)
        assert not [v for v, copies in answer.items() if copies > 1], "a row answered twice"
        closed = stream.handle.finished_at
        may = {v for at, v in published[table] if at < closed}
        assert set(answer) <= may
        if cancelled_at is None:
            settled = min(submitted_at + TIMEOUT, closed) - SETTLED
            must = {v for at, v in published[table] if at <= settled}
            assert must <= set(answer)
    net.run(RELEASED_AFTER)
    assert handler_census(net) == baseline
    assert record_census(net) == EMPTY
