"""Sources punctuate their snapshots.

A source whose hand-over is all it has — a base table's ``localScan``, a
node-local table — follows it with
``PhysicalOperator.drained()``.  Streaming operators pass the punctuation
on once every input has drained, an exchange or result handler ships
what it holds first, and a blocking operator keeps it.  Input that may
still grow — a query's rendezvous namespace, ``newData``, appended rows —
is not punctuated and leaves buffering operators on their straggler timers.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Tuple as PyTuple

import pytest

from operator_harness import Collector, OperatorHarness, accept_rows
from repro import PIERNetwork
from repro.overlay.wrapper import OverlayNode
from repro.qp.operators.access import DHTScanAccess
from repro.qp.operators.base import PhysicalOperator, build_operator
from repro.qp.opgraph import OperatorSpec
from repro.qp.operators.exchange import ResultHandler
from repro.qp.tuples import Tuple

FLUSH = 0.25
JOIN = "SELECT k FROM p_fact JOIN p_dim ON k = k TIMEOUT 10"


class DrainRecorder(Collector):
    """A collector that also notes, at each punctuation, how many rows it
    had collected by then."""

    def __init__(self, context=None) -> None:  # noqa: ANN001
        super().__init__(context=context)
        self.drained_at: List[int] = []

    def on_drained(self, slot: int) -> None:
        self.drained_at.append(len(self.collected))


def recorded(
    harness: OperatorHarness, op_type: str, params: Dict[str, Any], inputs: PyTuple[str, ...] = ()
) -> PyTuple[PhysicalOperator, DrainRecorder]:
    spec = OperatorSpec("under_test", op_type, params, inputs)
    operator = accept_rows(build_operator(spec, harness.context))
    recorder = DrainRecorder(context=harness.context)
    operator.add_parent(recorder, 0)
    return operator, recorder


def rows(count: int) -> List[Tuple]:
    return [Tuple.make("t", src=f"s{i % 3}", bytes=i) for i in range(count)]


# -- one operator at a time ---------------------------------------------------------------------- #
def test_a_streaming_operator_passes_the_punctuation_on():
    harness = OperatorHarness()
    selection, recorder = recorded(harness, "selection", {"predicate": ["true"]})
    selection.receive(rows(3))
    selection.on_drained(0)
    assert recorder.drained_at == [3]


@pytest.mark.parametrize(
    "op_type", ["merge_aggregate", "partial_aggregate", "hierarchical_aggregate"]
)
def test_a_blocking_operator_absorbs_the_punctuation(op_type):
    harness = OperatorHarness()
    params = {"group_columns": ["src"], "aggregates": [("count", None, "n")]}
    operator, recorder = recorded(harness, op_type, params)
    operator.start()
    operator.receive(rows(5))
    operator.on_drained(0)
    harness.run(0.5)
    assert recorder.drained_at == []
    assert recorder.collected == []  # its state still waits for the flush


def test_a_join_is_drained_once_both_inputs_are():
    harness = OperatorHarness()
    join, recorder = recorded(
        harness,
        "symmetric_hash_join",
        {"left_columns": ["src"], "right_columns": ["src"]},
        inputs=("left", "right"),
    )
    join.on_drained(0)
    assert recorder.drained_at == []
    join.on_drained(1)
    assert recorder.drained_at == [0]


def test_a_scan_of_a_rendezvous_namespace_does_not_punctuate():
    harness = OperatorHarness()
    base, base_recorder = recorded(harness, "dht_scan", {"namespace": "t"})
    scoped, scoped_recorder = recorded(harness, "dht_scan", {"namespace": "t", "scoped": True})
    for scan in (base, scoped):
        scan.start()
        scan.probe()
    assert base_recorder.drained_at == [0]
    assert scoped_recorder.drained_at == []


def test_a_node_local_table_punctuates_its_snapshot_but_not_appended_rows():
    harness = OperatorHarness()
    harness.extras["local_tables"]["t"] = rows(4)
    appended = []

    def subscribe(_table, callback):  # noqa: ANN001
        appended.append(callback)
        return lambda: None

    harness.extras["subscribe_local_table"] = subscribe
    scan, recorder = recorded(harness, "local_table", {"table": "t"})
    scan.start()
    scan.probe()
    assert recorder.drained_at == [4]
    appended[0](rows(2))
    assert len(recorder.collected) == 6 and recorder.drained_at == [4]


# -- on the simulator ----------------------------------------------------------------------------- #
def join_network() -> PIERNetwork:
    net = PIERNetwork(8, seed=3, exchange_batch_size=8)
    net.create_table("p_fact", partitioning=["f_id"])
    net.create_table("p_dim", partitioning=["d_id"])
    net.publish("p_fact", [Tuple.make("p_fact", f_id=i, k=i % 6, pad=f"x{i}") for i in range(90)])
    net.publish("p_dim", [Tuple.make("p_dim", d_id=i, k=i) for i in range(6)])
    net.run(3.0)
    return net


def watch(monkeypatch, net: PIERNetwork):
    """Record each node's base-table snapshot instant and every
    ``put_batch`` it issues: (namespace, rows, node, time)."""
    snapshots: Dict[Any, List[float]] = defaultdict(list)
    batches: List[PyTuple[str, int, Any, float]] = []
    probe = DHTScanAccess.probe
    put_batch = OverlayNode.put_batch

    def probing(self, tag="main"):  # noqa: ANN001
        if not self.scoped:
            snapshots[self.context.overlay.address].append(self.context.now)
        probe(self, tag)

    def putting(self, namespace, key, values, lifetime, callback=None):  # noqa: ANN001
        batches.append((namespace, len(values), self.address, net.now))
        put_batch(self, namespace, key, values, lifetime, callback)

    monkeypatch.setattr(DHTScanAccess, "probe", probing)
    monkeypatch.setattr(OverlayNode, "put_batch", putting)
    return snapshots, batches


def test_a_base_table_scan_ships_its_straggler_partitions_at_the_snapshot(monkeypatch):
    net = join_network()
    snapshots, batches = watch(monkeypatch, net)
    result = net.query(JOIN)
    assert result.completed_by == "data" and len(result) == 90
    fed = [batch for batch in batches if batch[0].endswith(":join_rehash")]
    assert any(size < 8 for _ns, size, _node, _at in fed)  # stragglers there are
    for _namespace, _size, node, at in fed:
        assert at in snapshots[node]  # not one flush interval later


def test_a_rendezvous_fed_exchange_still_batches_on_its_timer(monkeypatch):
    """A three-way join's second rehash is fed by the first join, from a
    rendezvous scan, and by a base-table scan.  Its first input never
    drains, so the exchange is not drained either: its partly filled
    batches leave a flush interval after they began to fill, never before
    one interval past the node's snapshot."""
    net = join_network()
    net.create_table("p_site", partitioning=["s_id"])
    net.publish("p_site", [Tuple.make("p_site", s_id=i, pad=f"x{3 * i}") for i in range(30)])
    net.run(3.0)
    snapshots, batches = watch(monkeypatch, net)
    result = net.query(
        "SELECT k FROM p_fact JOIN p_dim ON k = k JOIN p_site ON pad = pad TIMEOUT 10"
    )
    assert result.completed_by == "data" and len(result) == 30
    second = [batch for batch in batches if batch[0].endswith(":join_rehash_1")]
    stragglers = [batch for batch in second if batch[1] < 8]
    assert stragglers
    for _namespace, _size, node, at in stragglers:
        assert at >= min(snapshots[node]) + FLUSH - 1e-9


def test_a_select_from_a_base_table_ships_its_snapshot_at_once(monkeypatch):
    net = join_network()
    shipped: List[PyTuple[Any, float, int]] = []
    ship = ResultHandler._ship

    def noting(self):  # noqa: ANN001
        if self._pending:
            shipped.append((self.context.overlay.address, self.context.now, len(self._pending)))
        ship(self)

    monkeypatch.setattr(ResultHandler, "_ship", noting)
    snapshots, _batches = watch(monkeypatch, net)
    stream = net.stream("SELECT f_id FROM p_fact TIMEOUT 10")  # results batch on a 0.25-s timer
    assert stream.result().completed_by == "data"
    assert sorted(stream.result().column("f_id")) == list(range(90))
    assert shipped and any(count < 16 for _node, _at, count in shipped)
    for node, at, _count in shipped:
        assert at in snapshots[node]
