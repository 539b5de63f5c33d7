"""Tests for self-describing tuples and the expression/predicate language."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qp.expressions import column_references, evaluate, matches
from repro.qp.tuples import MalformedTupleError, Tuple, malformed_guard

scalars = st.one_of(
    st.integers(min_value=-10_000, max_value=10_000),
    st.text(max_size=8),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
column_names = st.text(alphabet="abcdefgh", min_size=1, max_size=4)


def test_tuple_is_self_describing():
    tup = Tuple.make("events", src="10.0.0.1", count=3)
    assert tup.table == "events"
    assert set(tup.columns) == {"src", "count"}
    assert tup["src"] == "10.0.0.1"
    assert "count" in tup and "missing" not in tup


def test_wire_roundtrip_preserves_tuple():
    tup = Tuple.make("t", a=1, b="x", c=[1, 2])
    assert Tuple.from_bytes(tup.to_bytes()) == tup


def test_from_dict_rejects_non_tuple_payloads():
    """There is no dict form of a tuple: a dict payload, even one shaped
    like ``{"table": ..., "values": ...}``, is malformed on both decode
    paths."""
    from repro.runtime import codec

    for payload in ({"not": "a tuple"}, {"table": "t", "values": {"a": 1}}):
        with pytest.raises(MalformedTupleError):
            Tuple.from_wire(payload)
        with pytest.raises(MalformedTupleError):
            Tuple.from_bytes(codec.encode(payload))


def test_missing_column_raises_malformed():
    tup = Tuple.make("t", a=1)
    with pytest.raises(MalformedTupleError):
        _ = tup["b"]
    assert tup.get("b", 99) == 99


def test_require_checks_type():
    tup = Tuple.make("t", a="text")
    with pytest.raises(MalformedTupleError):
        tup.require("a", int)
    assert tup.require("a", str) == "text"


def test_project_extend_rename_join():
    tup = Tuple.make("t", a=1, b=2)
    assert set(tup.project(["a"]).columns) == {"a"}
    extended = tup.extend(c=3)
    assert extended["c"] == 3 and extended["a"] == 1
    assert tup.rename("u").table == "u"
    other = Tuple.make("s", a=1, d=4)
    joined = tup.join(other)
    assert joined["d"] == 4 and joined["a"] == 1
    conflicting = Tuple.make("s", a=99)
    joined2 = tup.join(conflicting)
    assert joined2["a"] == 1 and joined2["s.a"] == 99


def test_tuple_hash_handles_unhashable_values():
    tup = Tuple.make("t", items=[1, 2], mapping={"k": "v"})
    assert isinstance(hash(tup), int)


@given(st.dictionaries(column_names, scalars, min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_property_wire_roundtrip(values):
    tup = Tuple("t", values)
    assert Tuple.from_bytes(tup.to_bytes()).as_mapping() == values


def test_malformed_guard_returns_none_on_bad_tuples():
    @malformed_guard
    def access(tup):
        return tup["missing"] + 1

    assert access(Tuple.make("t", a=1)) is None


# -- expressions -------------------------------------------------------------- #

def test_evaluate_columns_literals_and_arithmetic():
    tup = Tuple.make("t", x=10, y=4, name="pier")
    assert evaluate(["col", "x"], tup) == 10
    assert evaluate(["lit", 7], tup) == 7
    assert evaluate(["+", ["col", "x"], ["col", "y"]], tup) == 14
    assert evaluate(["*", ["col", "y"], ["lit", 3]], tup) == 12
    assert evaluate(["lower", ["lit", "ABC"]], tup) == "abc"
    assert evaluate(["concat", ["col", "name"], ["lit", "!"]], tup) == "pier!"


def test_evaluate_division_by_zero_is_malformed():
    tup = Tuple.make("t", x=1)
    with pytest.raises(MalformedTupleError):
        evaluate(["/", ["col", "x"], ["lit", 0]], tup)


def test_matches_comparisons_and_boolean_combinators():
    tup = Tuple.make("t", port=443, proto="tcp")
    assert matches(["eq", ["col", "proto"], ["lit", "tcp"]], tup)
    assert matches([">", ["col", "port"], ["lit", 80]], tup)
    assert matches(["and", ["eq", ["col", "proto"], ["lit", "tcp"]],
                    ["<=", ["col", "port"], ["lit", 443]]], tup)
    assert matches(["or", ["false"], ["not", ["false"]]], tup)
    assert matches(["between", ["col", "port"], ["lit", 1], ["lit", 1024]], tup)
    assert matches(["in", ["col", "port"], ["lit", [80, 443]]], tup)
    assert not matches(["ne", ["col", "proto"], ["lit", "tcp"]], tup)


def test_matches_none_predicate_is_true_and_callables_work():
    tup = Tuple.make("t", a=1)
    assert matches(None, tup)
    assert matches(lambda t: t["a"] == 1, tup)


def test_type_mismatch_in_comparison_is_malformed():
    tup = Tuple.make("t", a="text")
    with pytest.raises(MalformedTupleError):
        matches(["<", ["col", "a"], ["lit", 5]], tup)


def test_unknown_operators_are_malformed():
    tup = Tuple.make("t", a=1)
    with pytest.raises(MalformedTupleError):
        evaluate(["frobnicate", ["col", "a"]], tup)
    with pytest.raises(MalformedTupleError):
        matches(["approximately", ["col", "a"], ["lit", 2]], tup)


def test_column_references_are_collected():
    predicate = ["and", ["eq", ["col", "a"], ["lit", 1]], [">", ["col", "b"], ["col", "c"]]]
    assert sorted(column_references(predicate)) == ["a", "b", "c"]
