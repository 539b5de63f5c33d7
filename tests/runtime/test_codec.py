"""Tests for the binary wire codec (runtime/codec.py).

Round-trips every tag the format defines — scalars, containers,
schema-packed wire tuples, well-known strings, and the counted pickle
fallback — plus the datagram envelope the physical runtime frames
messages in, and the error paths for junk bytes.
"""

import math

import pytest

from repro.overlay.distribution_tree import BROADCAST_NAMESPACE, DEFAULT_ROOT_KEY
from repro.qp.dissemination import query_envelope
from repro.qp.operators.base import _OPERATOR_REGISTRY
from repro.qp.opgraph import QueryEnvelope
from repro.qp.plans import symmetric_hash_join_plan
from repro.qp.tuples import Schema, Tuple
from repro.runtime import codec
from repro.runtime.sizing import wire_size


@pytest.fixture(autouse=True)
def _reset_fallback_counter():
    codec.FALLBACKS.reset()
    yield
    codec.FALLBACKS.reset()


def roundtrip(value):
    return codec.decode(codec.encode(value))


# -- scalars ----------------------------------------------------------------- #

@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        -1,
        127,
        -128,
        128,
        2**31 - 1,
        -(2**31),
        2**31,
        2**63 - 1,
        -(2**63),
        2**63,          # bigint
        -(2**200),      # bigint, negative
        0.0,
        -2.5,
        1e300,
        float("inf"),
        "",
        "short",
        "x" * 255,
        "y" * 300,      # long-string form
        "naïve Ünicode ✓",
        b"",
        b"\x00\xff" * 10,
    ],
)
def test_scalar_roundtrip(value):
    decoded = roundtrip(value)
    assert decoded == value
    assert type(decoded) is type(value)
    assert codec.FALLBACKS.total() == 0


def test_nan_roundtrips():
    assert math.isnan(roundtrip(float("nan")))


def test_bool_is_not_confused_with_int():
    # bool is an int subclass; the codec must keep them distinct.
    assert roundtrip(True) is True
    assert roundtrip(1) == 1 and roundtrip(1) is not True


def test_int_width_selection():
    # One tag byte plus the narrowest struct that fits.
    assert len(codec.encode(7)) == 2
    assert len(codec.encode(1000)) == 5
    assert len(codec.encode(2**40)) == 9


# -- well-known strings ------------------------------------------------------- #

def test_wellknown_strings_collapse_to_two_bytes():
    for text in codec.WELLKNOWN_STRINGS:
        encoded = codec.encode(text)
        assert len(encoded) == 2, text
        assert encoded[0] == codec.TAG_WELLKNOWN
        assert codec.decode(encoded) == text


# The table as it stands; a later change may append to it, but the position
# of every string here is the wire format.
PINNED_WELLKNOWN = (
    "kind", "namespace", "key", "suffix", "value", "lifetime", "request_id",
    "origin", "target", "hops", "final", "entries", "lookup", "lookup_response",
    "put", "put_batch", "ack", "direct", "send", "get_request", "get_response",
    "renew", "ping", "hello", "contact", "found", "address", "identifier",
    "values", "query_id", "timeout", "proxy", "metadata", "graph", "control",
    "panes", "graph_id", "dissemination", "operators", "id", "type", "params",
    "inputs", "table", "action", "source", "port", "epoch", "pane", "watermark",
    "seq", "rows", "results", "status", "coverage", "count", "group", "window",
    "slide", "payload", "udpcc", "udpcc_id", "data", "trace", "trace_id", "span",
    "__dtree_broadcast__:pier-distribution-tree-root",
    "pier-distribution-tree-root", "broadcast_id", "graphs", "deadline",
    "__query_dissemination__", "exchange_batch_size", "exchange_flush_interval",
    "result_flush_interval", "resilience", "integrity", "dht_scan", "dht_get",
    "local_table", "stream_source", "selection", "projection", "rename", "tee",
    "union", "dupelim", "limit", "queue", "materializer", "symmetric_hash_join",
    "nested_loop_join", "fetch_matches_join", "bloom_build", "bloom_probe",
    "result_handler", "groupby_hash", "partial_aggregate", "merge_aggregate",
    "hierarchical_aggregate", "hierarchical_join", "eddy", "keep", "keep_all",
    "computed", "predicate", "columns", "key_columns", "left_columns",
    "right_columns", "outer_columns", "left_table", "inner_table",
    "inner_namespace", "filter_namespace", "output_table", "scoped", "batch",
    "batch_size", "flush_interval", "use_send", "group_columns", "aggregates",
    "emit_states", "emit_on_flush", "window_spec", "hold", "local_wait",
    "interval", "wait", "stream", "size_bits", "hash_count", "members", "policy",
    "follow", "replica", "count_all", "partials", "batches", "keys", "states",
    "inc", "inc_ts", "cumulative", "relays", "contributors",
)


def test_wellknown_strings_only_ever_grow_at_the_end():
    assert codec.WELLKNOWN_STRINGS[: len(PINNED_WELLKNOWN)] == PINNED_WELLKNOWN
    assert len(set(codec.WELLKNOWN_STRINGS)) == len(codec.WELLKNOWN_STRINGS) <= 256


def test_the_plan_vocabulary_is_wellknown():
    """Every operator type, and the tree namespace a plan broadcast travels
    in, costs two bytes on the wire."""
    types = {name for name, cls in _OPERATOR_REGISTRY.items() if cls.__module__.startswith("repro.")}
    assert types and types <= set(codec.WELLKNOWN_STRINGS)
    for text in (f"{BROADCAST_NAMESPACE}:{DEFAULT_ROOT_KEY}", DEFAULT_ROOT_KEY):
        assert len(codec.encode(text)) == 2


def test_non_wellknown_string_uses_inline_form():
    assert codec.encode("definitely-not-in-the-table")[0] == codec.TAG_SHORT_STR


# -- containers --------------------------------------------------------------- #

@pytest.mark.parametrize(
    "value",
    [
        [],
        [1, "two", 3.0, None, True],
        (1, (2, (3,))),
        {},
        {"kind": "put_batch", "entries": [{"key": 1}], "hops": 3},
        {1: "a", (2, 3): ["b"], None: {"nested": True}},
        set(),
        {3, 1, 2},
        frozenset({"a", "b"}),
        [{"rows": [(1, 2)], "seen": {7, 8}}],
    ],
)
def test_container_roundtrip(value):
    decoded = roundtrip(value)
    assert decoded == value
    assert type(decoded) is type(value)
    assert codec.FALLBACKS.total() == 0


def test_set_encoding_is_order_independent():
    forward = {f"s{i}" for i in range(20)}
    backward = {f"s{i}" for i in reversed(range(20))}
    assert codec.encode(forward) == codec.encode(backward)


# -- PIER tuples --------------------------------------------------------------- #

def test_wire_tuple_roundtrip_reinterns_schema():
    row = Tuple.make("firewall_events", source="10.0.0.1", count=4)
    decoded = roundtrip(row)
    assert isinstance(decoded, Tuple)
    assert decoded == row
    assert decoded.schema is row.schema  # Schema.intern gives the same object


def test_tuple_to_bytes_is_memoized():
    """What is memoized is the values' packing, shared by the lone-tuple
    form and the schema-once list form; the lone form is the tag and the
    schema's cached header in front of it."""
    row = Tuple.make("inv", keyword="kw1", file_id=9)
    packed = row.packed_values()
    first = row.to_bytes()
    assert row.packed_values() is packed
    assert first == bytes((codec.TAG_WIRE_TUPLE,)) + row.schema.packed_header + packed
    assert row.to_bytes() == first
    assert Tuple.from_bytes(first) == row


def test_schema_packed_header_is_cached():
    schema = Schema.intern("cache_check", ("a", "b"))
    assert schema.packed_header is schema.packed_header


def test_tuple_from_bytes_rejects_non_tuple_frames():
    from repro.qp.tuples import MalformedTupleError

    with pytest.raises(MalformedTupleError):
        Tuple.from_bytes(codec.encode({"not": "a tuple"}))


def test_tuples_nested_in_envelopes_roundtrip():
    rows = [Tuple.make("t", k=i, v=f"val{i}") for i in range(5)]
    envelope = {"kind": "put_batch", "namespace": "t", "suffix": "00a1b2c3d4e5", "values": rows}
    decoded = roundtrip(envelope)
    assert decoded == envelope
    assert all(isinstance(row, Tuple) for row in decoded["values"])
    assert codec.FALLBACKS.total() == 0


def _join_envelope() -> QueryEnvelope:
    plan = symmetric_hash_join_plan("r", "s", ["k"], ["k"], timeout=5.0)
    plan.metadata["exchange_batch_size"] = 8
    return query_envelope(plan, plan.opgraphs, proxy_address=3, deadline=12.5)


def test_query_envelope_roundtrips_and_is_sized_exactly():
    envelope = _join_envelope()
    encoded = codec.encode(envelope)
    assert encoded[0] == codec.TAG_QUERY_ENVELOPE
    assert codec.encoded_size(envelope) == len(encoded)
    assert wire_size({"kind": "direct", "value": envelope}) == len(
        codec.pack_datagram(codec.KIND_DATA, 1, 2, 3, {"kind": "direct", "value": envelope})
    )
    decoded = codec.decode(encoded)
    assert type(decoded) is QueryEnvelope
    assert decoded == envelope
    assert (decoded.query_id, decoded.deadline, decoded.proxy) == (envelope.query_id, 12.5, 3)
    assert decoded.metadata == {"exchange_batch_size": 8}
    # A node that forwards what it received sends the bytes it read.
    assert decoded.to_bytes() == encoded
    assert codec.FALLBACKS.total() == 0


def test_query_envelope_carries_every_graph_in_the_plans_vocabulary():
    plan = symmetric_hash_join_plan("r", "s", ["k"], ["k"], timeout=5.0)
    envelope = query_envelope(plan, plan.opgraphs, proxy_address=0, deadline=5.0)
    rebuilt = codec.decode(codec.encode(envelope)).opgraphs()
    assert [graph.graph_id for graph in rebuilt] == [graph.graph_id for graph in plan.opgraphs]
    for graph, original in zip(rebuilt, plan.opgraphs):
        assert graph.operators == original.operators
    # Inputs travel as positions, operator types and param keys as
    # well-known strings, and no dissemination spec travels at all.
    (_graph_id, operators), *_ = envelope.graphs
    assert all(isinstance(slot, int) for operator in operators for slot in operator[3])
    assert "dissemination" not in repr(envelope.graphs)


def test_query_envelope_is_immutable_and_its_memos_hold():
    envelope = _join_envelope()
    with pytest.raises(AttributeError):
        envelope.deadline = 99.0
    assert envelope.to_bytes() is envelope.to_bytes()
    size = codec.encoded_size(envelope)
    object.__setattr__(envelope, "_wire_size", size + 1000)
    assert codec.encoded_size(envelope) == size + 1000  # the memo, not a re-walk


# -- pickle fallback ------------------------------------------------------------ #

class SlottedPayload:
    """An application object the tagged format does not know."""

    __slots__ = ("label", "weight")

    def __init__(self, label, weight):
        self.label = label
        self.weight = weight

    def __eq__(self, other):
        return (
            isinstance(other, SlottedPayload)
            and (self.label, self.weight) == (other.label, other.weight)
        )


def test_slotted_payload_falls_back_to_counted_pickle():
    value = SlottedPayload("exotic", 2.5)
    encoded = codec.encode(value)
    assert encoded[0] == codec.TAG_PICKLE
    assert codec.FALLBACKS.encodes == 1
    assert codec.decode(encoded) == value
    assert codec.FALLBACKS.decodes == 1
    assert codec.FALLBACKS.total() == 2


def test_fallback_counter_resets():
    codec.encode(SlottedPayload("x", 1.0))
    assert codec.FALLBACKS.total() == 1
    codec.FALLBACKS.reset()
    assert codec.FALLBACKS.total() == 0


# -- datagram envelope ----------------------------------------------------------- #

def test_data_datagram_roundtrip():
    payload = {"udpcc": "data", "id": 7, "payload": Tuple.make("t", k=1)}
    wire = codec.pack_datagram(codec.KIND_DATA, 42, 5000, 6000, payload)
    kind, transport_id, source_port, dest_port, decoded = codec.unpack_datagram(wire)
    assert (kind, transport_id, source_port, dest_port) == (codec.KIND_DATA, 42, 5000, 6000)
    assert decoded == payload


def test_ack_datagram_is_header_only():
    wire = codec.pack_datagram(codec.KIND_ACK, 42, 6000, 5000)
    assert len(wire) == codec.ENVELOPE_BYTES
    kind, transport_id, _source, _dest, payload = codec.unpack_datagram(wire)
    assert (kind, transport_id, payload) == (codec.KIND_ACK, 42, None)


def test_wire_size_matches_actual_encoding():
    payload = {"kind": "lookup", "key": 123456, "entries": [Tuple.make("t", k=1)]}
    wire = codec.pack_datagram(codec.KIND_DATA, 1, 0, 0, payload)
    assert wire_size(payload) == len(wire)


# -- error paths ------------------------------------------------------------------ #

def test_decode_rejects_unknown_tag():
    with pytest.raises(codec.CodecError):
        codec.decode(b"\xfe")


def test_decode_rejects_truncated_frame():
    encoded = codec.encode("a string long enough to truncate meaningfully")
    with pytest.raises(codec.CodecError):
        codec.decode(encoded[: len(encoded) // 2])


def test_decode_rejects_trailing_garbage():
    with pytest.raises(codec.CodecError):
        codec.decode(codec.encode(1) + b"\x00")


def test_unpack_rejects_short_and_bad_magic_datagrams():
    with pytest.raises(codec.CodecError):
        codec.unpack_datagram(b"\x00" * 4)
    wire = bytearray(codec.pack_datagram(codec.KIND_DATA, 1, 0, 0, None))
    wire[0] = 0x00
    with pytest.raises(codec.CodecError):
        codec.unpack_datagram(bytes(wire))
