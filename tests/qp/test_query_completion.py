"""A streaming one-shot query ends when its data does.

Every node counts, per rendezvous namespace of a streaming query, the
tuples its exchanges shipped and its scans took in, plus the result rows
it shipped, and reports those counts to the proxy once it has been quiet
for an exchange flush interval.  The proxy completes the query when every
participant has reported and every count balances, then moves the query's
deadline to now on every node.  Anything that leaves a count unbalanced —
a lost batch, a participant that never reports — and every plan that holds
state until its deadline end at ``TIMEOUT + 1`` exactly as before.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Tuple as PyTuple

from hypothesis import given, settings, strategies as st

from repro import PIERNetwork
from repro.overlay import naming
from repro.qp import opgraph
from repro.qp.completion import ProgressReporter
from repro.qp.executor import FINISHED_RETENTION
from repro.qp.operators.access import DHTScanAccess, _AccessMethod
from repro.qp.operators.exchange import RESULT_NAMESPACE, PutExchange, ResultHandler
from repro.qp.plans import equality_lookup_plan
from repro.qp.proxy import ProxyService
from repro.qp.tuples import Tuple
from repro.runtime.rand import derive_rng
from repro.runtime.topology import StarTopology

TIMEOUT = 10.0
JOINS = "hp_fact JOIN hp_dim_k ON k = k JOIN hp_dim_j ON j = j"
RELEASED_AFTER = FINISHED_RETENTION + 10.0 + 1.0


# -- the deployment of tests/sql/test_join_wire_budget.py ------------------------------------ #
def join_deployment(monkeypatch) -> PyTuple[PIERNetwork, List[Tuple], List[Tuple], List[Tuple]]:
    """12 nodes, seed 1, batched exchanges: 120 wide fact rows and two
    small dimension tables, each partitioned on its own id so that a join
    rehashes both sides."""
    monkeypatch.setattr(opgraph, "_query_counter", itertools.count(1))
    monkeypatch.setattr(naming, "_suffix_rng", derive_rng(1))
    rng = random.Random(1)
    net = PIERNetwork(12, seed=1, exchange_batch_size=8)
    facts = [
        Tuple.make(
            "hp_fact",
            f_id=index,
            k=rng.randrange(9),
            j=rng.randrange(44),
            src=f"10.0.{rng.randrange(256)}.{rng.randrange(256)}",
            label=f"evt-{rng.randrange(97)}",
        )
        for index in range(120)
    ]
    dim_k = [Tuple.make("hp_dim_k", dk_id=i, k=i, k_name=f"class-{i}") for i in range(8)]
    dim_j = [Tuple.make("hp_dim_j", dj_id=i, j=i, j_name=f"site-{i}") for i in range(40)]
    for table, key, rows in (("hp_fact", "f_id", facts), ("hp_dim_k", "dk_id", dim_k), ("hp_dim_j", "dj_id", dim_j)):
        net.create_table(table, partitioning=[key])
        net.publish(table, rows)
    net.run(4.0)
    return net, facts, dim_k, dim_j


def test_a_three_way_join_ends_with_its_last_row(monkeypatch):
    net, facts, dim_k, dim_j = join_deployment(monkeypatch)
    result = net.query(f"SELECT k FROM {JOINS} TIMEOUT {TIMEOUT:g}")
    assert result.completed_by == "data"
    assert result.finished_at - result.submitted_at <= 0.3 * TIMEOUT
    keys_k = {row["k"] for row in dim_k}
    keys_j = {row["j"] for row in dim_j}
    expected = Counter(
        fact["k"] for fact in facts if fact["k"] in keys_k and fact["j"] in keys_j
    )
    assert Counter(result.column("k")) == expected


def test_a_broadcast_scan_ends_with_its_last_row(monkeypatch):
    net, facts, _dim_k, _dim_j = join_deployment(monkeypatch)
    result = net.query(f"SELECT f_id FROM hp_fact TIMEOUT {TIMEOUT:g}")
    assert result.completed_by == "data"
    assert result.finished_at - result.submitted_at <= 0.3 * TIMEOUT
    assert sorted(result.column("f_id")) == [fact["f_id"] for fact in facts]


def test_a_node_reports_one_interval_after_its_last_activity(monkeypatch):
    """A node checks for quiet one flush interval after its last activity
    — a scan taking rows in, the install — and reports then: no clock
    but that one decides when."""
    net, _facts, _dim_k, _dim_j = join_deployment(monkeypatch)
    sent: List[PyTuple[float, float, float]] = []
    send = ProgressReporter.send

    def noting(self, counts):  # noqa: ANN001
        sent.append((self._clock(), self._last_activity, self.interval))
        send(self, counts)

    monkeypatch.setattr(ProgressReporter, "send", noting)
    result = net.query(f"SELECT k FROM {JOINS} TIMEOUT {TIMEOUT:g}")
    assert result.completed_by == "data"
    assert len(sent) >= len(net.nodes)
    for at, last_activity, interval in sent:
        assert abs(at - (last_activity + interval)) < 1e-9


# -- after completion, every node lets go of the query ------------------------------------------ #
def handler_census(net: PIERNetwork) -> int:
    return sum(1 for node in net.nodes for _registration in node.overlay.registrations())


def test_the_end_reaches_every_node_within_one_tree_traversal(monkeypatch):
    net, _facts, _dim_k, _dim_j = join_deployment(monkeypatch)
    net.run(RELEASED_AFTER)
    handlers = handler_census(net)
    stream = net.stream(f"SELECT k FROM {JOINS} TIMEOUT {TIMEOUT:g}")
    stream.run_to_completion()
    assert stream.handle.completed_by == "data"
    net.run(1.0)  # one traversal of the distribution tree, with room to spare
    assert not [
        graph
        for node in net.nodes
        for graph in node.executor.installed_graphs()
        if graph.query_id == stream.query_id and not graph.finished
    ]
    assert not [node for node in net.nodes if stream.query_id in node.executor._progress]
    assert handler_census(net) == handlers
    net.run(RELEASED_AFTER)
    assert handler_census(net) == handlers
    assert not [node for node in net.nodes if node.executor._installed or node.executor._finished]
    assert all(node.executor.released(stream.query_id) for node in net.nodes)
    assert not [node for node in net.nodes if node.proxy._queries]


# -- the fallback: whatever leaves a count unbalanced ends at the deadline ------------------------ #
def test_a_participant_down_at_submit_leaves_the_query_to_its_deadline(monkeypatch):
    net, _facts, _dim_k, _dim_j = join_deployment(monkeypatch)
    net.fail_node(5)
    net.run(1.0)
    # Liveness probing tells the proxy who is down: the coverage says so.
    result = net.query(f"SELECT k FROM {JOINS} TIMEOUT {TIMEOUT:g}", resilience=True)
    assert result.completed_by == "deadline"
    assert result.finished_at - result.submitted_at == TIMEOUT + 1.0
    assert result.coverage == (len(net.nodes) - 1) / len(net.nodes)
    assert result.down_nodes == [net.nodes[5].address]


def test_a_batch_lost_in_flight_leaves_the_query_to_its_deadline(monkeypatch):
    net, _facts, _dim_k, _dim_j = join_deployment(monkeypatch)
    lost: List[int] = []
    transmit = net.environment.transmit

    def losing(source, source_port, destination, payload, ack):  # noqa: ANN001
        if (
            not lost
            and isinstance(payload, dict)
            and payload.get("kind") == "put_batch"
            and str(payload.get("namespace", "")).endswith("join_rehash_0")
            and payload["values"]
        ):
            # The message arrives without its tuples.
            lost.append(len(payload["values"]))
            payload = {**payload, "values": []}
        transmit(source, source_port, destination, payload, ack)

    net.environment.transmit = losing
    try:
        result = net.query(f"SELECT k FROM {JOINS} TIMEOUT {TIMEOUT:g}")
    finally:
        del net.environment.transmit
    assert lost
    assert result.completed_by == "deadline"
    assert result.finished_at - result.submitted_at == TIMEOUT + 1.0
    assert result.coverage == 1.0


# -- plans that hold state until the deadline keep today's end and report nothing ------------------ #
@contextmanager
def reports_sent(net: PIERNetwork) -> Iterator[List[Any]]:
    """Every progress report put on the simulated wire meanwhile."""
    reports: List[Any] = []
    transmit = net.environment.transmit

    def watching(source, source_port, destination, payload, ack):  # noqa: ANN001
        if (
            isinstance(payload, dict)
            and payload.get("namespace") == RESULT_NAMESPACE
            and isinstance(payload.get("value"), tuple)
        ):
            reports.append(payload["value"])
        transmit(source, source_port, destination, payload, ack)

    net.environment.transmit = watching
    try:
        yield reports
    finally:
        del net.environment.transmit


def events_network() -> PIERNetwork:
    net = PIERNetwork(12, seed=3)
    net.create_table("events", source="local")
    for address in range(len(net.nodes)):
        net.register_local_table(
            address, "events", [Tuple.make("events", src=f"s{address % 3}", n=address)]
        )
    net.create_table("fact", partitioning=["id"])
    net.publish("fact", [Tuple.make("fact", id=i, k=i % 4) for i in range(30)])
    net.run(2.0)
    return net


def test_blocking_plans_end_at_the_deadline_and_report_nothing():
    net = events_network()
    with reports_sent(net) as reports:
        for strategy in ("flat", "hierarchical"):
            result = net.query(
                "SELECT src, COUNT(*) AS n FROM events GROUP BY src TIMEOUT 6",
                aggregation_strategy=strategy,
            )
            assert result.completed_by == "deadline"
            assert result.finished_at - result.submitted_at == 6.0 + 1.0
            assert result.rows()
        equality = net.execute(
            equality_lookup_plan("fact", 3, timeout=6.0, predicate=["eq", ["col", "id"], ["lit", 3]])
        )
        assert equality.completed_by == "deadline"
        assert equality.finished_at - equality.submitted_at == 6.0 + 1.0
        assert [row["id"] for row in equality.rows()] == [3]
        cq = net.subscribe(
            "SELECT src, COUNT(*) AS n FROM events WINDOW 2 LIFETIME 6 GROUP BY src", shared=False
        )
        net.run(8.0)
        assert cq.finished and cq.stream.handle.completed_by == "deadline"
        assert all(not node.executor._progress for node in net.nodes)
    assert reports == []


# -- nothing of a query moves after it completes -------------------------------------------------- #
class MovementLog:
    """Everything a query's tuples do, in the order the simulator does it:
    scans taking rows in, exchanges accepting them, result handlers
    shipping them, the proxy receiving them, and the reports."""

    def __init__(self) -> None:
        self.events: List[PyTuple[Any, ...]] = []
        self.completed: Dict[str, int] = {}  # query id -> position of its completion

    def note(self, *event: Any) -> None:
        self.events.append(event)


def values_of(rows: Any) -> List[Any]:
    return [row.get("v") for row in rows if isinstance(row, Tuple)]


@contextmanager
def logging_movements() -> Iterator[MovementLog]:
    log = MovementLog()
    originals = {
        (_AccessMethod, "_inject"): _AccessMethod._inject,
        (PutExchange, "on_receive"): PutExchange.on_receive,
        (ResultHandler, "_ship"): ResultHandler._ship,
        (ProxyService, "_record_result"): ProxyService._record_result,
        (ProxyService, "note_progress"): ProxyService.note_progress,
        (ProxyService, "_on_data_done"): ProxyService._on_data_done,
        (ProgressReporter, "send"): ProgressReporter.send,
    }

    def inject(self, values, tag):  # noqa: ANN001
        values = list(values)
        scoped = isinstance(self, DHTScanAccess) and self.namespace.startswith(self.context.query_id)
        kind = "received" if scoped else "scanned"
        log.note(kind, self.context.query_id, self.context.overlay.address, values_of(values))
        originals[(_AccessMethod, "_inject")](self, values, tag)

    def accept(self, tup, slot, tag):  # noqa: ANN001
        log.note("shipped", self.context.query_id, self.context.overlay.address, values_of([tup]))
        originals[(PutExchange, "on_receive")](self, tup, slot, tag)

    def ship(self):  # noqa: ANN001
        if self._pending and not self._stopped:
            log.note("delivered", self.context.query_id, self.context.overlay.address, values_of(self._pending))
        originals[(ResultHandler, "_ship")](self)

    def arrive(self, query_id, tup):  # noqa: ANN001
        log.note("proxy", query_id, None, values_of([tup]))
        originals[(ProxyService, "_record_result")](self, query_id, tup)

    def report(self, query_id, node, counts):  # noqa: ANN001
        log.note("report", query_id, node, tuple(counts))
        originals[(ProxyService, "note_progress")](self, query_id, node, counts)

    def done(self, query_id):  # noqa: ANN001
        originals[(ProxyService, "_on_data_done")](self, query_id)
        handle = self._queries.get(query_id)
        if handle is not None and handle.completed_by == "data":
            log.completed.setdefault(query_id, len(log.events))

    def send(self, counts):  # noqa: ANN001
        log.note("counted", self.query_id, self.overlay.address, counts)
        originals[(ProgressReporter, "send")](self, counts)

    patched = {
        (_AccessMethod, "_inject"): inject,
        (PutExchange, "on_receive"): accept,
        (ResultHandler, "_ship"): ship,
        (ProxyService, "_record_result"): arrive,
        (ProxyService, "note_progress"): report,
        (ProxyService, "_on_data_done"): done,
        (ProgressReporter, "send"): send,
    }
    for (owner, name), function in patched.items():
        setattr(owner, name, function)
    try:
        yield log
    finally:
        for (owner, name), function in originals.items():
            setattr(owner, name, function)


def late_values(log: MovementLog, query_id: str) -> set:
    """The rows outside the query's cut: scanned at a node after the last
    report of that node the proxy had counted when it completed the query."""
    end = log.completed[query_id]
    counted_at: Dict[Any, int] = {}  # node -> position of its last counted report
    taken: Dict[PyTuple[Any, Any], int] = {}  # (node, counts) -> position taken
    for position, (kind, qid, node, payload) in enumerate(log.events[:end]):
        if qid != query_id:
            continue
        if kind == "counted":
            taken[(node, payload)] = position
        elif kind == "report":
            counted_at[node] = max(counted_at.get(node, -1), taken[(node, payload)])
    return {
        value
        for position, (kind, qid, node, values) in enumerate(log.events)
        if qid == query_id and kind == "scanned" and position > counted_at.get(node, -1)
        for value in values
    }


@settings(max_examples=25, deadline=None)
@given(
    nodes=st.integers(4, 24),
    max_latency=st.sampled_from([0.01, 0.05, 0.15]),
    batch_size=st.sampled_from([1, 4, 8]),
    seed=st.integers(0, 2**16),
    publications=st.lists(
        st.tuples(st.floats(0.0, 2.0), st.integers(1, 3)), min_size=0, max_size=6
    ),
)
def test_nothing_of_a_query_moves_after_it_completes(nodes, max_latency, batch_size, seed, publications):
    """After a query completes, no tuple of its cut is shipped, received or
    delivered anywhere, no count a node reported changes, and the proxy
    receives none of its rows.  Rows published while the query runs are in
    its cut if they reached their owner before the owner's counted report;
    the ones that arrive later may still be moving when the end reaches
    their node, and nothing else may."""
    topology = StarTopology(nodes, min_access_latency=0.005, max_access_latency=max_latency, seed=seed)
    net = PIERNetwork(nodes, seed=seed, topology=topology, exchange_batch_size=batch_size)
    net.create_table("t", partitioning=["v"])
    net.create_table("d", partitioning=["d_id"])
    net.publish("t", [Tuple.make("t", v=v, k=v % 5) for v in range(20)])
    net.publish("d", [Tuple.make("d", d_id=k, k=k) for k in range(4)])
    net.run(2.0)
    counter = itertools.count(100)
    published: List[int] = []

    def publish(count: int) -> None:
        rows = [Tuple.make("t", v=next(counter), k=0) for _ in range(count)]
        published.extend(row["v"] for row in rows)
        net.publish("t", rows)

    with logging_movements() as log:
        stream = net.stream(f"SELECT v FROM t JOIN d ON k = k TIMEOUT {TIMEOUT:g}")
        for delay, count in publications:
            net.environment.scheduler.schedule_callback(delay, lambda _data, count=count: publish(count))
        stream.run_to_completion()
        net.run(stream.handle.submitted_at + TIMEOUT + 2.0 - net.now)
    handle = stream.handle
    assert handle.completed_by == "data"
    query_id = handle.query_id
    late = late_values(log, query_id)
    assert set(log.completed) == {query_id}
    moved_after = [
        event
        for event in log.events[log.completed[query_id]:]
        if event[1] == query_id and event[0] in ("shipped", "received", "delivered", "proxy")
    ]
    assert all(values and set(values) <= late for _kind, _qid, _node, values in moved_after), moved_after
    # The answer: every early row that joins, each once; late rows at most once.
    answer = Counter(tup["v"] for tup in stream.results)
    assert max(answer.values(), default=1) == 1
    assert {v for v in range(20) if v % 5 < 4} <= set(answer) <= set(range(20)) | set(published)
