"""The batch contract of the operator data channel.

However a producer cuts a sequence of rows into batches — one batch, one
row per batch, or any split in between — the consumer ends in the same
state, emits the same rows in the same order, and counts the same
``tuples_in`` / ``tuples_out`` / ``tuples_dropped``.  Dropping stays per
row: one row that does not fit the query never takes its neighbours along.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple as PyTuple

from hypothesis import given, settings, strategies as st

from operator_harness import OperatorHarness
from repro.qp.tuples import Tuple

AGGREGATES = [
    ("count", None, "n"),
    ("sum", "bytes", "total"),
    ("min", "bytes", "low"),
    ("max", "bytes", "high"),
    ("avg", "bytes", "mean"),
]
WINDOW_SPEC = {"window": 2.0, "slide": 1.0, "lifetime": 60.0, "grace": 0.5}

# (op_type, extra params, how long to run before flushing)
VARIANTS = {
    "flat": ("groupby_hash", {}, 0.0),
    "hierarchical": ("hierarchical_aggregate", {"local_wait": 0.5}, 1.0),
    "windowed": ("groupby_hash", {"window_spec": WINDOW_SPEC}, 2.5),
}


def _row(shape: str, src: str, size: Any) -> Tuple:
    """One input row; ``shape`` picks among schemas of the same table."""
    if shape == "plain":
        return Tuple.make("t", src=src, bytes=size)
    if shape == "reordered":  # same columns at other positions
        return Tuple.make("t", bytes=size, note="x", src=src)
    if shape == "no_group":
        return Tuple.make("t", bytes=size)
    if shape == "no_value":
        return Tuple.make("t", src=src)
    raise AssertionError(shape)


rows_strategy = st.lists(
    st.builds(
        _row,
        st.sampled_from(["plain", "plain", "reordered", "no_group", "no_value"]),
        st.sampled_from(["a", "b", "c"]),
        st.one_of(st.integers(-50, 50), st.floats(-50, 50, allow_nan=False), st.just("text")),
    ),
    max_size=24,
)


def _split(rows: List[Tuple], cuts: List[int]) -> List[List[Tuple]]:
    bounds = sorted({min(cut, len(rows)) for cut in cuts} | {0, len(rows)})
    return [rows[low:high] for low, high in zip(bounds, bounds[1:])]


def _fold(variant: str, aggregates: List[Any], batches: List[List[Tuple]]) -> Dict[str, Any]:
    """Push ``batches`` into a fresh operator; report what the contract
    says must not depend on how the rows were cut."""
    op_type, extra, settle = VARIANTS[variant]
    harness = OperatorHarness(seed=3)
    operator = harness.build(
        op_type, {"group_columns": ["src"], "aggregates": aggregates, **extra}
    )
    operator.start()
    for batch in batches:
        operator.receive(batch)
    states = {
        "groups": {key: list(states) for key, states in operator._groups.items()},
        "panes": {
            index: {key: list(states) for key, states in pane.items()}
            for index, pane in operator._panes.items()
        },
    }
    harness.run(settle)
    operator.flush()
    stats = operator.stats
    return {
        "states": states,
        "emitted": [(tup.columns, tup.values()) for tup in harness.results],
        "stats": (stats.tuples_in, stats.tuples_out, stats.tuples_dropped),
    }


@given(
    variant=st.sampled_from(sorted(VARIANTS)),
    aggregates=st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=3, unique=True),
    rows=rows_strategy,
    cuts=st.lists(st.integers(0, 24), max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_fold_does_not_depend_on_how_rows_are_batched(variant, aggregates, rows, cuts):
    whole = _fold(variant, aggregates, [rows])
    assert _fold(variant, aggregates, [[row] for row in rows]) == whole
    assert _fold(variant, aggregates, _split(rows, cuts)) == whole
    assert whole["stats"][0] == len(rows)


def _flat_groupby(harness: OperatorHarness, aggregates: List[Any]):
    return harness.build("groupby_hash", {"group_columns": ["src"], "aggregates": aggregates})


def _results(harness: OperatorHarness, column: str) -> Dict[str, Any]:
    return {tup["src"]: tup[column] for tup in harness.results}


def test_malformed_row_mid_batch_is_dropped_once_and_neighbours_fold():
    harness = OperatorHarness()
    operator = _flat_groupby(harness, [("count", None, "n"), ("sum", "bytes", "total")])
    operator.receive(
        [
            _row("plain", "a", 10),
            _row("no_group", "a", 99),  # no group column
            _row("plain", "a", 5),
            _row("no_value", "b", None),  # no aggregate input
            _row("plain", "b", "text"),  # SUM cannot take it
            _row("plain", "b", 7),
        ]
    )
    operator.flush()
    assert (operator.stats.tuples_in, operator.stats.tuples_dropped) == (6, 3)
    assert _results(harness, "n") == {"a": 2, "b": 1}
    assert _results(harness, "total") == {"a": 15, "b": 7}


def test_batch_mixing_schemas_resolves_positions_per_schema():
    harness = OperatorHarness()
    operator = _flat_groupby(harness, [("sum", "bytes", "total")])
    shapes = ["plain", "reordered", "plain", "reordered", "reordered", "plain"]
    operator.receive([_row(shape, "a", index + 1) for index, shape in enumerate(shapes)])
    operator.flush()
    assert operator.stats.tuples_dropped == 0
    assert _results(harness, "total") == {"a": 21}
    resolved = {_row(shape, "a", 0).schema.positions(("src", "bytes")) for shape in shapes}
    assert resolved == {(0, 1), (2, 0)}


def test_per_row_operators_keep_their_drop_policy_inside_a_batch():
    harness = OperatorHarness()
    selection = harness.build("selection", {"predicate": [">", ["col", "bytes"], ["lit", 4]]})
    selection.receive([_row("plain", "a", 5), _row("no_value", "a", None), _row("plain", "a", 9)])
    assert harness.result_values("bytes") == [5, 9]
    stats = selection.stats
    assert (stats.tuples_in, stats.tuples_out, stats.tuples_dropped) == (3, 2, 1)


def test_sources_hand_over_one_batch_per_arrival():
    """A local-table scan emits its snapshot, and each live append, as one
    batch; what is not a tuple is dropped, counted, and leaves the rest."""
    harness = OperatorHarness()
    received: List[PyTuple[int, int]] = []
    rows = [Tuple.make("log", n=index) for index in range(5)]
    harness.extras["local_tables"]["log"] = rows + [object()]
    listeners = []
    harness.extras["subscribe_local_table"] = lambda _table, listener: (
        listeners.append(listener) or (lambda: None)
    )
    scan = harness.build("local_table", {"table": "log"})
    original = harness.collector.on_batch
    harness.collector.on_batch = lambda batch, slot, tag: (
        received.append(len(batch)) or original(batch, slot, tag)
    )
    scan.start()
    scan.probe()
    listeners[0]([Tuple.make("log", n=5), Tuple.make("log", n=6)])
    assert received == [5, 2]
    assert harness.result_values("n") == list(range(7))
    assert (scan.stats.tuples_out, scan.stats.tuples_dropped) == (7, 1)
