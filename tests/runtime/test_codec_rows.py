"""The codec's schema-once form for lists of rows.

A ``list`` of two or more exact ``Tuple`` objects sharing one interned
schema travels as one tag, a count, the schema header once and each row's
packed values; every other list keeps the plain form.  A property test
holds both forms to the codec's two contracts — ``encoded_size`` is the
encoding's length, and decoding gives back the payload — inside the
messages that carry rows: ``put_batch`` bodies, result batches and
``get_response`` replies.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qp.tuples import Schema, Tuple
from repro.runtime import codec


@pytest.fixture(autouse=True)
def _reset_fallback_counter():
    codec.FALLBACKS.reset()
    yield
    codec.FALLBACKS.reset()


class _Row(Tuple):
    """A ``Tuple`` subclass: rides the wire, never in the compact form."""

    __slots__ = ()


SCHEMAS = [("r", ("a", "b")), ("r", ("b", "a")), ("s", ("a",)), ("wide", ("k", "j", "label", "flags"))]

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.sampled_from(codec.WELLKNOWN_STRINGS),
    st.binary(max_size=8),
    st.lists(st.integers(), max_size=3),
)


@st.composite
def rows(draw, schema=None, subclass=None):
    table, columns = schema if schema is not None else draw(st.sampled_from(SCHEMAS))
    kind = draw(st.sampled_from([Tuple, _Row])) if subclass is None else subclass
    return kind(table, {column: draw(values) for column in columns})


@st.composite
def row_lists(draw):
    shape = draw(st.sampled_from(["one_schema", "several_schemas", "with_subclass", "short"]))
    if shape == "one_schema":
        schema = draw(st.sampled_from(SCHEMAS))
        return draw(st.lists(rows(schema, Tuple), min_size=2, max_size=6))
    if shape == "short":
        return draw(st.lists(rows(), max_size=1))
    return draw(st.lists(rows(subclass=Tuple if shape == "several_schemas" else None), max_size=6))


def _messages(batch):
    return [
        batch,
        {
            "kind": "put_batch", "namespace": "q1:join_rehash_0", "key": 4,
            "suffix": "00a1b2c3d4e5", "values": batch, "lifetime": 600.0,
            "request_id": 18, "origin": 3,
        },
        {"kind": "direct", "namespace": "__results__", "key": "q000001", "value": batch},
        {"kind": "get_response", "request_id": 9, "objects": batch},
    ]


def _compact(batch) -> bool:
    """The compact form's rule, restated: two or more exact tuples, one
    interned schema."""
    return (
        len(batch) >= 2
        and all(row.__class__ is Tuple for row in batch)
        and len({id(row.schema) for row in batch}) == 1
    )


def _carried(decoded):
    """The row list inside a decoded message of :func:`_messages`."""
    if isinstance(decoded, list):
        return decoded
    return decoded.get("values", decoded.get("value", decoded.get("objects")))


@given(row_lists())
@settings(max_examples=300, deadline=None)
def test_row_lists_size_and_roundtrip_in_every_message_that_carries_them(batch):
    assert (codec.encode(batch)[0] == codec.TAG_ROWS) == _compact(batch)
    for message in _messages(batch):
        encoded = codec.encode(message)
        assert len(encoded) == codec.encoded_size(message)
        decoded = codec.decode(encoded)
        assert decoded == message
        carried = _carried(decoded)
        assert all(row.__class__ is Tuple for row in carried)
        assert [row.schema for row in carried] == [row.schema for row in batch]
        if _compact(batch):
            assert all(row.schema is batch[0].schema for row in carried)
    assert codec.FALLBACKS.total() == 0


def test_the_header_travels_once():
    batch = [Tuple.make("wide", k=i, j=i % 7, label=f"evt-{i}", flags=i % 32) for i in range(8)]
    encoded = codec.encode(batch)
    header = batch[0].schema.packed_header
    assert encoded.count(header) == 1
    assert len(encoded) == 5 + len(header) + sum(len(row.packed_values()) for row in batch)
    # The plain form would repeat the tag and the header on every row.
    plain = 5 + sum(len(row.to_bytes()) for row in batch)
    assert plain - len(encoded) == 7 * len(header) + 8


def test_a_decoded_batch_interns_its_schema_once():
    batch = [Tuple.make("fresh_schema_once", a=i, b=str(i)) for i in range(3)]
    decoded = codec.decode(codec.encode(batch))
    assert decoded == batch
    assert all(row.schema is Schema.intern("fresh_schema_once", ("a", "b")) for row in decoded)


def test_equal_but_uninterned_schemas_keep_the_plain_form():
    interned = Tuple.make("r", a=1, b=2)
    private = Tuple._from_parts(Schema("r", ("a", "b")), (3, 4))
    batch = [interned, private]
    encoded = codec.encode(batch)
    assert encoded[0] == codec.TAG_LIST
    assert codec.decode(encoded) == batch
    assert len(encoded) == codec.encoded_size(batch)
