"""Unit tests for selection, projection, tee, union, dup-elim, rename, limit,
materializer, queue and the best-effort malformed-tuple policy."""

from hypothesis import given, settings, strategies as st

from operator_harness import OperatorHarness

from repro.qp.expressions import evaluate
from repro.qp.tuples import MalformedTupleError, Tuple


def _rows(*values):
    return [Tuple.make("t", value=v, parity=v % 2) for v in values]


def test_selection_filters_by_predicate():
    harness = OperatorHarness()
    op = harness.build("selection", {"predicate": ["eq", ["col", "parity"], ["lit", 0]]})
    for tup in _rows(1, 2, 3, 4):
        op.receive(tup)
    assert harness.result_values("value") == [2, 4]
    assert op.stats.tuples_in == 4 and op.stats.tuples_out == 2


def test_selection_drops_malformed_tuples_best_effort():
    harness = OperatorHarness()
    op = harness.build("selection", {"predicate": [">", ["col", "value"], ["lit", 2]]})
    op.receive(Tuple.make("t", value=5))
    op.receive(Tuple.make("t", other="no value column"))
    op.receive(Tuple.make("t", value="a string, not comparable"))
    assert harness.result_values("value") == [5]
    assert op.stats.tuples_dropped == 2


def test_projection_columns_computed_and_keep_all():
    harness = OperatorHarness()
    op = harness.build(
        "projection",
        {"columns": ["value"], "computed": {"double": ["*", ["col", "value"], ["lit", 2]]}},
    )
    op.receive(Tuple.make("t", value=3, noise="x"))
    (result,) = harness.results
    assert result.as_mapping() == {"value": 3, "double": 6}

    harness2 = OperatorHarness()
    keep = harness2.build("projection", {"keep_all": True, "computed": {"flag": ["lit", 1]}})
    keep.receive(Tuple.make("t", a=1, b=2))
    assert harness2.results[0].as_mapping() == {"a": 1, "b": 2, "flag": 1}


def test_projection_keep_is_lenient_and_columns_are_strict():
    harness = OperatorHarness()
    op = harness.build("projection", {"keep": ["b", "ghost", "a"], "computed": {"flag": ["lit", 1]}})
    op.receive([Tuple.make("t", a=1, b=2, c=3), Tuple.make("t", c=3)])
    assert [tup.as_mapping() for tup in harness.results] == [{"b": 2, "a": 1, "flag": 1}, {"flag": 1}]
    assert op.stats.tuples_dropped == 0

    strict = OperatorHarness()
    op = strict.build("projection", {"columns": ["a"], "keep": ["c"]})
    op.receive([Tuple.make("t", a=1, c=3), Tuple.make("t", c=3), Tuple.make("t", a=2)])
    assert [tup.as_mapping() for tup in strict.results] == [{"c": 3, "a": 1}, {"a": 2}]
    assert op.stats.tuples_dropped == 1  # the row without the strict column


def _reference_projection(params, rows):
    """The per-row definition of projection: build the output mapping
    column by column, drop the row best-effort if anything is missing or
    an expression cannot be evaluated."""
    out, dropped = [], 0
    for tup in rows:
        try:
            values = {}
            if params.get("keep_all"):
                values.update(tup.as_mapping())
            else:
                values.update({column: tup[column] for column in params.get("keep", ()) if column in tup})
            for column in params.get("columns", ()):
                values[column] = tup.require(column)
            for output, expression in params.get("computed", {}).items():
                values[output] = evaluate(expression, tup)
            if not values and "keep" not in params:
                values = tup.as_mapping()  # nothing asked for: the identity
            out.append(Tuple(params.get("table", tup.table), values))
        except (MalformedTupleError, TypeError, KeyError):
            dropped += 1
    return out, dropped


_COLUMNS = ["a", "b", "c", "d"]
_column = st.sampled_from(_COLUMNS + ["ghost"])
_expression = st.one_of(
    st.builds(lambda c: ["col", c], _column),
    st.builds(lambda v: ["lit", v], st.integers(0, 3)),
    st.builds(lambda c: ["+", ["col", c], ["lit", 1]], _column),  # raises on a string value
    st.builds(lambda c: ["/", ["lit", 6], ["col", c]], _column),  # raises on zero
    st.builds(lambda c, d: ["concat", ["col", c], ["lit", "-"], ["col", d]], _column, _column),
)
_params = st.fixed_dictionaries(
    {},
    optional={
        "keep_all": st.booleans(),
        "keep": st.lists(_column, max_size=4),
        "columns": st.lists(_column, max_size=3),
        "computed": st.dictionaries(st.sampled_from(["a", "x", "y"]), _expression, max_size=3),
        "table": st.just("out"),
    },
)
_rows_strategy = st.lists(
    st.builds(
        lambda table, values: Tuple(table, values),
        st.sampled_from(["t", "u"]),
        st.dictionaries(st.sampled_from(_COLUMNS), st.one_of(st.integers(0, 2), st.just("s")), max_size=4),
    ),
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(params=_params, rows=_rows_strategy)
def test_compiled_projection_equals_per_row_reference(params, rows):
    """Resolving the params once per input schema changes nothing a
    consumer can see: same rows (table, column order, values), same
    order, same ``tuples_dropped``, for any mix of schemas in a batch."""
    harness = OperatorHarness()
    op = harness.build("projection", params)
    op.receive(rows)
    expected, dropped = _reference_projection(params, rows)
    assert [_shape(tup) for tup in harness.results] == [_shape(tup) for tup in expected]
    assert op.stats.tuples_dropped == dropped
    assert op.stats.tuples_in == len(rows) and op.stats.tuples_out == len(expected)


def _shape(tup):
    return (tup.table, tup.columns, tup.values())


def _raises_on_u(tup):
    """A callable predicate that blows up on some rows."""
    if tup.table == "u":
        raise TypeError("cannot judge a row of u")
    return tup.get("a", 0) != 1


_predicate = st.one_of(
    st.builds(lambda c, v: ["eq", ["col", c], ["lit", v]], _column, st.integers(0, 2)),
    st.builds(lambda c: [">", ["col", c], ["lit", 0]], _column),  # raises on a string value
    st.builds(lambda c, d: ["or", ["eq", ["col", c], ["lit", 1]], ["lt", ["col", d], ["lit", 2]]], _column, _column),
    st.just(["true"]),
    st.just(_raises_on_u),
)


@settings(max_examples=150, deadline=None)
@given(predicate=_predicate, rows=_rows_strategy)
def test_selection_on_a_batch_equals_one_row_at_a_time(predicate, rows):
    """Filtering a whole batch changes nothing a consumer can see: same
    rows, same order, same ``tuples_dropped`` as feeding the rows one at a
    time — over mixed schemas, missing columns and a raising predicate."""
    batched, single = OperatorHarness(), OperatorHarness()
    batch_op = batched.build("selection", {"predicate": predicate})
    single_op = single.build("selection", {"predicate": predicate})
    batch_op.receive(rows)
    for tup in rows:
        single_op.receive(tup)
    assert [_shape(tup) for tup in batched.results] == [_shape(tup) for tup in single.results]
    assert batch_op.stats.tuples_dropped == single_op.stats.tuples_dropped
    assert batch_op.stats.tuples_in == single_op.stats.tuples_in == len(rows)
    assert batch_op.stats.tuples_out == single_op.stats.tuples_out == len(single.results)
    # The predicate decides, nothing else: every survivor matches it.
    survivors = [tup for tup in rows if _passes(predicate, tup)]
    assert [_shape(tup) for tup in batched.results] == [_shape(tup) for tup in survivors]


def _passes(predicate, tup):
    from repro.qp.expressions import matches

    try:
        return matches(predicate, tup)
    except (MalformedTupleError, TypeError, KeyError):
        return False


_JOIN_PARAMS = {"left_columns": ["a", "b"], "right_columns": ["c", "d"], "output_table": "out"}
_join_rows = st.lists(
    st.builds(
        lambda table, values: Tuple(table, values),
        st.sampled_from(["__left__", "r", "s"]),
        st.dictionaries(
            st.sampled_from(_COLUMNS), st.one_of(st.integers(0, 1), st.just("s"), st.just([])), max_size=4
        ),
    ),
    max_size=14,
)


@settings(max_examples=150, deadline=None)
@given(rows=_join_rows, cuts=st.lists(st.integers(0, 14), max_size=4))
def test_tagged_single_input_join_equals_the_two_slot_join(rows, cuts):
    """With ``left_table`` a row's side is its table name; without it, the
    slot it arrives on.  Same rows split by side, same arrival order:
    same output rows in the same order, same drops (a row lacking a key
    column, an unhashable key) — fed as one batch, as arbitrary batches,
    or one row at a time."""
    tagged, tagged_single, slotted = OperatorHarness(), OperatorHarness(), OperatorHarness()
    tagged_op = tagged.build("symmetric_hash_join", {**_JOIN_PARAMS, "left_table": "__left__"})
    single_op = tagged_single.build("symmetric_hash_join", {**_JOIN_PARAMS, "left_table": "__left__"})
    slotted_op = slotted.build("symmetric_hash_join", _JOIN_PARAMS)
    bounds = sorted({0, len(rows), *(cut for cut in cuts if cut < len(rows))})
    for start, end in zip(bounds, bounds[1:]):
        tagged_op.receive(rows[start:end])
    for tup in rows:
        single_op.receive(tup)
        slotted_op.receive(tup, slot=0 if tup.table == "__left__" else 1)
    expected = [_shape(tup) for tup in slotted.results]
    assert [_shape(tup) for tup in tagged.results] == expected
    assert [_shape(tup) for tup in tagged_single.results] == expected
    assert all(tup.table == "out" for tup in tagged.results)
    for op in (tagged_op, single_op):
        assert op.stats.tuples_dropped == slotted_op.stats.tuples_dropped
        assert op.stats.tuples_in == len(rows) and op.stats.tuples_out == len(expected)
        assert op.state_size == slotted_op.state_size


def test_join_emits_once_per_input_batch():
    harness = OperatorHarness()
    op = harness.build(
        "symmetric_hash_join",
        {"left_columns": ["k"], "right_columns": ["k"], "left_table": "__left__", "output_table": "o"},
    )
    batches = []
    harness.collector.on_batch = lambda batch, slot, tag: batches.append(list(batch))
    left = [Tuple.make("__left__", k=i % 2, v=i) for i in range(4)]
    right = [Tuple.make("dim", k=i, name=f"n{i}") for i in range(2)]
    op.receive(left)  # nothing to join yet: nothing emitted
    op.receive(right)
    assert [len(batch) for batch in batches] == [4]
    op.receive(left[:1] + right[:1])  # both sides in one batch, as a rendezvous scan delivers them
    assert [len(batch) for batch in batches] == [4, 1 + 3]


def test_tee_and_union_pass_everything():
    harness = OperatorHarness()
    tee = harness.build("tee")
    union = harness.build("union")
    for tup in _rows(1, 2):
        tee.receive(tup)
        union.receive(tup, slot=0)
        union.receive(tup, slot=1)
    assert len(harness.results) == 2 + 4


def test_dupelim_full_tuple_and_key_columns():
    harness = OperatorHarness()
    op = harness.build("dupelim")
    op.receive(Tuple.make("t", a=1))
    op.receive(Tuple.make("t", a=1))
    op.receive(Tuple.make("t", a=2))
    assert harness.result_values("a") == [1, 2]

    harness2 = OperatorHarness()
    keyed = harness2.build("dupelim", {"key_columns": ["a"]})
    keyed.receive(Tuple.make("t", a=1, b="first"))
    keyed.receive(Tuple.make("t", a=1, b="second"))
    assert harness2.result_values("b") == ["first"]


def test_dupelim_full_tuple_ignores_column_order():
    harness = OperatorHarness()
    op = harness.build("dupelim")
    op.receive(Tuple("t", {"a": 1, "b": 2}))
    op.receive(Tuple("t", {"b": 2, "a": 1}))  # the same row, columns swapped
    op.receive(Tuple("t", {"a": 2, "b": 1}))
    assert harness.result_values("a") == [1, 2]


def test_rename_table_and_columns():
    harness = OperatorHarness()
    op = harness.build("rename", {"table": "renamed", "columns": {"a": "alpha"}})
    op.receive(Tuple.make("t", a=1, b=2))
    (result,) = harness.results
    assert result.table == "renamed"
    assert result.as_mapping() == {"alpha": 1, "b": 2}


def test_limit_caps_output():
    harness = OperatorHarness()
    op = harness.build("limit", {"count": 2})
    for tup in _rows(1, 2, 3, 4):
        op.receive(tup)
    assert len(harness.results) == 2


def test_materializer_buffers_and_flushes():
    harness = OperatorHarness()
    op = harness.build("materializer", {"table": "buffered"})
    for tup in _rows(1, 2, 3):
        op.receive(tup)
    assert harness.results == []
    assert len(harness.extras["local_tables"]["buffered"]) == 3
    op.flush()
    assert len(harness.results) == 3


def test_queue_defers_delivery_to_a_scheduler_event():
    harness = OperatorHarness()
    op = harness.build("queue")
    op.receive(Tuple.make("t", value=1))
    assert harness.results == []  # nothing until the zero-delay timer fires
    harness.run(0.1)
    assert harness.result_values("value") == [1]


def test_queue_flush_drains_immediately():
    harness = OperatorHarness()
    op = harness.build("queue")
    for tup in _rows(1, 2, 3):
        op.receive(tup)
    op.flush()
    assert len(harness.results) == 3


def test_stopped_operator_ignores_input():
    harness = OperatorHarness()
    op = harness.build("tee")
    op.stop()
    op.receive(Tuple.make("t", a=1))
    assert harness.results == []


def test_eddy_routes_and_filters():
    harness = OperatorHarness()
    members = [
        {"name": "cheap_selective", "predicate": ["eq", ["col", "parity"], ["lit", 0]], "cost": 1.0},
        {"name": "expensive", "predicate": [">", ["col", "value"], ["lit", 0]], "cost": 10.0},
    ]
    op = harness.build("eddy", {"members": members, "policy": "lottery", "seed": 1})
    for tup in _rows(*range(1, 41)):
        op.receive(tup)
    # Only even values survive both predicates.
    assert all(value % 2 == 0 for value in harness.result_values("value"))
    assert len(harness.results) == 20
    stats = op.member_stats["cheap_selective"]
    assert stats.seen > 0 and 0.0 <= stats.selectivity <= 1.0


def test_eddy_fixed_policy_preserves_declared_order():
    harness = OperatorHarness()
    members = [
        {"name": "first", "predicate": ["true"]},
        {"name": "second", "predicate": ["true"]},
    ]
    op = harness.build("eddy", {"members": members, "policy": "fixed"})
    assert op._choose_order() == ["first", "second"]
