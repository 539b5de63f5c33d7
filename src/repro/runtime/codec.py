"""Binary wire codec of both runtimes (paper Section 3.1).

The physical runtime sends every message across a real socket in this
format; this module is the single place where PIER payloads become bytes
and back.  The simulator passes payload objects between virtual nodes by
reference, but it charges each message the bytes this format would send:
:func:`encoded_size` is ``len(encode(value))`` computed without building
any bytes, and :mod:`repro.runtime.sizing` adds the datagram envelope.

The encoding is a tagged, struct-packed format designed around the
interned-schema tuples from the hot-path overhaul:

* **Scalars** are one tag byte plus a fixed-width ``struct`` value
  (small ints collapse to a single signed byte; arbitrary-precision
  ints get a length-prefixed big-endian form).
* **Containers** (list/tuple/dict/set/frozenset) are a tag, a u32
  count, and their encoded children.  Set elements are sorted by their
  encoded bytes so equal sets encode identically.
* **Well-known strings** — the envelope keys and message kinds that
  dominate routed traffic (``"kind"``, ``"namespace"``, ``"put_batch"``,
  ...) — collapse to two bytes via a static table shared by every
  process.
* **PIER tuples** are encoded *by their schema*: the interned
  :class:`~repro.qp.tuples.Schema` contributes one cached header blob
  (table + column names) and the tuple contributes only its packed
  values, in column order.  ``Tuple.packed_values`` memoizes the values'
  encoding on the (immutable) tuple, and :func:`encoded_size` memoizes
  the tuple's size, so a tuple that crosses many hops or rides in many
  batches is packed, or sized, once.
* **Rows travel schema-once**: a ``list`` of two or more exact ``Tuple``
  objects that share one interned schema — a result batch, a
  ``put_batch`` body, a ``get_response`` reply — is one tag, a u32
  count, the schema's header once, then each row's packed values.  It
  decodes to the same list of tuples, the schema interned once.  Any
  other list (mixed schemas, a ``Tuple`` subclass, fewer than two rows)
  keeps the plain list form.  A :class:`SizedList` — a batch that
  :func:`repro.runtime.sizing.datagram_runs` already sized — encodes as
  the list it is and carries its size, so the message around it is sized
  without walking its rows again.
* **Query envelopes** (:class:`~repro.qp.opgraph.QueryEnvelope`) carry a
  query's opgraphs, in the plan's vocabulary (operator types and param
  keys are well-known strings), down the distribution tree.  An envelope
  is immutable and memoizes its encoding and its size like a tuple, so a
  tree node sizes or encodes it once for all of its children.  A header
  (a repeated statement's query sent by reference) is the same form with
  the opgraphs replaced by their digest, a bytes field.
* **Pickle is a declared fallback**, not the wire format.  Payload
  shapes the tagged encoding does not know (exotic application objects)
  fall back to a length-prefixed pickle frame, and the module counts
  every such frame in :data:`FALLBACKS` so tests — and the P06 lint
  scope — can assert the hot wire path never takes it.

On top of the value encoding this module defines the datagram envelope
used by the physical runtime: a fixed ``!BBIII`` header (magic, kind,
transport id, logical source port, logical destination port) followed by
the encoded payload.  DATA frames carry a payload; ACK frames are the
header alone — receiver-sent, so delivery callbacks reflect receipt.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Dict, List, Optional, Tuple as PyTuple

from repro.qp.opgraph import QueryEnvelope
from repro.qp.tuples import Schema, Tuple

# --------------------------------------------------------------------------- #
# value tags
# --------------------------------------------------------------------------- #

TAG_NONE = 0x00
TAG_TRUE = 0x01
TAG_FALSE = 0x02
TAG_INT8 = 0x03
TAG_INT32 = 0x04
TAG_INT64 = 0x05
TAG_BIGINT = 0x06
TAG_FLOAT = 0x07
TAG_SHORT_STR = 0x08
TAG_STR = 0x09
TAG_BYTES = 0x0A
TAG_LIST = 0x0B
TAG_TUPLE = 0x0C
TAG_DICT = 0x0D
TAG_SET = 0x0E
TAG_FROZENSET = 0x0F
TAG_WIRE_TUPLE = 0x10
TAG_WELLKNOWN = 0x11
TAG_PICKLE = 0x12
TAG_QUERY_ENVELOPE = 0x13
TAG_ROWS = 0x14

_TUPLE_TAG = bytes((TAG_WIRE_TUPLE,))

_INT8 = struct.Struct("!b")
_INT32 = struct.Struct("!i")
_INT64 = struct.Struct("!q")
_FLOAT = struct.Struct("!d")
_U8 = struct.Struct("!B")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")

# Envelope keys and message kinds that dominate routed messages, control
# traffic, and aggregate partials.  Appending is safe; reordering or
# removing entries changes the wire format.  An entry's index is one byte:
# the table holds at most 256.
WELLKNOWN_STRINGS: PyTuple[str, ...] = (
    # overlay message vocabulary (overlay/wrapper.py)
    "kind", "namespace", "key", "suffix", "value", "lifetime",
    "request_id", "origin", "target", "hops", "final", "entries",
    "lookup", "lookup_response", "put", "put_batch", "ack", "direct",
    "send", "get_request", "get_response", "renew", "ping", "hello",
    "contact", "found", "address", "identifier", "values",
    # query dissemination / control envelopes (qp/dissemination.py)
    "query_id", "timeout", "proxy", "metadata", "graph", "control",
    "panes", "graph_id", "dissemination", "operators", "id", "type",
    "params", "inputs", "table", "action", "source", "port",
    # continuous-query pane/epoch traffic
    "epoch", "pane", "watermark", "seq", "rows", "results", "status",
    "coverage", "count", "group", "window", "slide", "payload",
    # no message uses these three; they keep their slots so that every
    # later index, and so the wire format, stays the same
    "udpcc", "udpcc_id", "data",
    # causal tracing (repro/obs): the trace context rides in envelopes
    "trace", "trace_id", "span",
    # the plan's own vocabulary (qp/opgraph.py QueryEnvelope): the
    # distribution tree's broadcast namespace and root key, ...
    "__dtree_broadcast__:pier-distribution-tree-root",
    "pier-distribution-tree-root", "broadcast_id", "graphs", "deadline",
    "__query_dissemination__",
    # ... the execution settings an envelope carries ...
    "exchange_batch_size", "exchange_flush_interval",
    "result_flush_interval", "resilience", "integrity",
    # ... operator type names ...
    "dht_scan", "dht_get", "local_table", "stream_source", "selection",
    "projection", "rename", "tee", "union", "dupelim", "limit", "queue",
    "materializer", "symmetric_hash_join", "nested_loop_join",
    "fetch_matches_join", "bloom_build", "bloom_probe", "result_handler",
    "groupby_hash", "partial_aggregate", "merge_aggregate",
    "hierarchical_aggregate", "hierarchical_join", "eddy",
    # ... operator param keys, and COUNT(*)'s aggregate name
    "keep", "keep_all", "computed", "predicate", "columns", "key_columns",
    "left_columns", "right_columns", "outer_columns", "left_table",
    "inner_table", "inner_namespace", "filter_namespace", "output_table",
    "scoped", "batch", "batch_size", "flush_interval", "use_send",
    "group_columns", "aggregates", "emit_states", "emit_on_flush",
    "window_spec", "hold", "local_wait", "interval", "wait", "stream",
    "size_bits", "hash_count", "members", "policy", "follow", "replica",
    "count_all",
    # partial aggregate state (qp/ledger.py wire_partials): origin-accounted
    # batches and the column-wise blocks, also the pane fan-out's
    "partials", "batches", "keys", "states", "inc", "inc_ts", "cumulative",
    "relays", "contributors",
    # the hierarchical join's routed envelopes (qp/hierarchical.py)
    "envelope_id", "side", "path",
)

_WELLKNOWN_INDEX: Dict[str, int] = {
    text: position for position, text in enumerate(WELLKNOWN_STRINGS)
}


class SizedList(list):
    """A list that carries its :func:`encoded_size` in ``size``, set when
    it was cut to fit a datagram.  It is encoded, and decodes, as a plain
    list; like every payload it is not changed once built."""

    __slots__ = ("size",)


class CodecError(Exception):
    """Raised when a byte stream does not parse as a codec value."""


class _FallbackCounter:
    """Counts pickle-fallback frames so tests can pin them to zero."""

    __slots__ = ("encodes", "decodes")

    def __init__(self) -> None:
        self.encodes = 0
        self.decodes = 0

    def reset(self) -> None:
        self.encodes = 0
        self.decodes = 0

    def total(self) -> int:
        return self.encodes + self.decodes


FALLBACKS = _FallbackCounter()


# --------------------------------------------------------------------------- #
# encoding
# --------------------------------------------------------------------------- #

def encode(value: Any) -> bytes:
    """Encode one payload value to its tagged binary form."""
    parts: List[bytes] = []
    _encode_value(value, parts)
    return b"".join(parts)


def _encode_value(value: Any, parts: List[bytes]) -> None:
    if value is None:
        parts.append(b"\x00")
        return
    kind = value.__class__
    if kind is bool:
        parts.append(b"\x01" if value else b"\x02")
        return
    if kind is int:
        _encode_int(value, parts)
        return
    if kind is float:
        parts.append(_U8.pack(TAG_FLOAT) + _FLOAT.pack(value))
        return
    if kind is str:
        _encode_str(value, parts)
        return
    if kind is bytes:
        parts.append(_U8.pack(TAG_BYTES) + _U32.pack(len(value)))
        parts.append(value)
        return
    if kind is Tuple:
        parts.append(_TUPLE_TAG)
        parts.append(value.schema.packed_header)
        parts.append(value.packed_values())
        return
    if kind is SizedList:
        kind = list
    if kind is list and len(value) > 1 and _one_schema(value):
        parts.append(_U8.pack(TAG_ROWS) + _U32.pack(len(value)))
        parts.append(value[0].schema.packed_header)
        for row in value:
            parts.append(row.packed_values())
        return
    if kind is list or kind is tuple:
        parts.append(
            _U8.pack(TAG_LIST if kind is list else TAG_TUPLE)
            + _U32.pack(len(value))
        )
        for item in value:
            _encode_value(item, parts)
        return
    if kind is dict:
        parts.append(_U8.pack(TAG_DICT) + _U32.pack(len(value)))
        for key, item in value.items():
            _encode_value(key, parts)
            _encode_value(item, parts)
        return
    if kind is set or kind is frozenset:
        # Sets are unordered; sort the encoded elements so equal sets
        # produce identical bytes.
        encoded = sorted(encode(item) for item in value)
        parts.append(
            _U8.pack(TAG_SET if kind is set else TAG_FROZENSET)
            + _U32.pack(len(encoded))
        )
        parts.extend(encoded)
        return
    if kind is QueryEnvelope:
        parts.append(value.to_bytes())
        return
    if isinstance(value, Tuple):  # Tuple subclass
        parts.append(_TUPLE_TAG)
        parts.append(value.schema.packed_header)
        parts.append(value.packed_values())
        return
    _encode_fallback(value, parts)


def _one_schema(rows: List[Any]) -> bool:
    """Whether every element of ``rows`` is an exact ``Tuple`` of the
    first one's interned schema: the lists the schema-once form carries."""
    first = rows[0]
    if first.__class__ is not Tuple:
        return False
    schema = first.schema
    for row in rows:
        if row.__class__ is not Tuple or row.schema is not schema:
            return False
    return True


def _encode_int(value: int, parts: List[bytes]) -> None:
    if -128 <= value <= 127:
        parts.append(_U8.pack(TAG_INT8) + _INT8.pack(value))
    elif -(2 ** 31) <= value < 2 ** 31:
        parts.append(_U8.pack(TAG_INT32) + _INT32.pack(value))
    elif -(2 ** 63) <= value < 2 ** 63:
        parts.append(_U8.pack(TAG_INT64) + _INT64.pack(value))
    else:
        raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
        parts.append(_U8.pack(TAG_BIGINT) + _U32.pack(len(raw)))
        parts.append(raw)


def _encode_str(value: str, parts: List[bytes]) -> None:
    wellknown = _WELLKNOWN_INDEX.get(value)
    if wellknown is not None:
        parts.append(_U8.pack(TAG_WELLKNOWN) + _U8.pack(wellknown))
        return
    raw = value.encode("utf-8")
    if len(raw) < 256:
        parts.append(_U8.pack(TAG_SHORT_STR) + _U8.pack(len(raw)))
    else:
        parts.append(_U8.pack(TAG_STR) + _U32.pack(len(raw)))
    parts.append(raw)


def _encode_fallback(value: Any, parts: List[bytes]) -> None:
    FALLBACKS.encodes += 1
    raw = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    parts.append(_U8.pack(TAG_PICKLE) + _U32.pack(len(raw)))
    parts.append(raw)


def encoded_size(value: Any) -> int:
    """``len(encode(value))``, computed without building any bytes.

    Applies :func:`_encode_value`'s rules, one branch per type, tested in
    the order types occur in routed messages (strings first).  A tuple's
    size is memoized on the (immutable) tuple like its encoding.  A value
    the tagged format does not know is sized by encoding it, so its pickle
    frame is counted in :data:`FALLBACKS` exactly as sending it would be.
    """
    kind = value.__class__
    if kind is str:
        if value in _WELLKNOWN_INDEX:
            return 2
        length = len(value) if value.isascii() else len(value.encode("utf-8"))
        return (2 if length < 256 else 5) + length
    if kind is dict:
        total = 5
        wellknown = _WELLKNOWN_INDEX
        for key, item in value.items():
            # Message keys are nearly all well-known strings: two bytes,
            # without a call.
            if key.__class__ is str and key in wellknown:
                total += 2 + encoded_size(item)
            else:
                total += encoded_size(key) + encoded_size(item)
        return total
    if kind is list or kind is tuple:
        if kind is list and len(value) > 1:
            size = _rows_size(value)
            if size is not None:
                return size
        total = 5
        for item in value:
            total += encoded_size(item)
        return total
    if kind is int:
        if -128 <= value <= 127:
            return 2
        if -(2 ** 31) <= value < 2 ** 31:
            return 5
        if -(2 ** 63) <= value < 2 ** 63:
            return 9
        return 5 + (value.bit_length() + 8) // 8
    if kind is Tuple:
        return _tuple_size(value)
    if value is None or kind is bool:
        return 1
    if kind is float:
        return 9
    if kind is SizedList:
        return value.size
    if kind is bytes:
        return 5 + len(value)
    if kind is set or kind is frozenset:
        return 5 + sum(map(encoded_size, value))
    if kind is QueryEnvelope:
        return _envelope_size(value)
    if isinstance(value, Tuple):  # Tuple subclass
        return _tuple_size(value)
    return len(encode(value))


def _tuple_size(tup: Tuple) -> int:
    """Tag byte, the schema's cached header, then the values."""
    size = tup._wire_size
    if size is None:
        size = 1 + len(tup.schema.packed_header)
        for value in tup._values:
            size += encoded_size(value)
        tup._wire_size = size
    return size


def _rows_size(rows: List[Any]) -> Optional[int]:
    """The size of ``rows`` in the schema-once form — tag and count, the
    shared header once, then each row's memoized size less the tag and
    header it does not repeat — or None when the list does not take that
    form (the check of :func:`_one_schema`, made in the same pass)."""
    first = rows[0]
    if first.__class__ is not Tuple:
        return None
    schema = first.schema
    header = len(schema.packed_header)
    repeated = 1 + header
    total = 5 + header
    for row in rows:
        if row.__class__ is not Tuple or row.schema is not schema:
            return None
        size = row._wire_size
        total += (_tuple_size(row) if size is None else size) - repeated
    return total


def _envelope_size(envelope: QueryEnvelope) -> int:
    """Tag byte, then the fields in order; memoized on the envelope."""
    size = envelope._wire_size
    if size is None:
        size = 1 + sum(map(encoded_size, envelope.fields()))
        object.__setattr__(envelope, "_wire_size", size)
    return size


def pack_schema(schema: Schema) -> bytes:
    """The cached header blob for one interned schema: table + columns."""
    table = schema.table.encode("utf-8")
    out = [_U16.pack(len(table)), table, _U16.pack(len(schema.columns))]
    for column in schema.columns:
        raw = column.encode("utf-8")
        out.append(_U16.pack(len(raw)))
        out.append(raw)
    return b"".join(out)


# --------------------------------------------------------------------------- #
# decoding
# --------------------------------------------------------------------------- #

def decode(data: bytes) -> Any:
    """Decode one payload value; raises :class:`CodecError` on junk."""
    view = memoryview(data)
    try:
        value, offset = _decode_value(view, 0)
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise CodecError(f"truncated or corrupt frame: {exc}") from exc
    if offset != len(view):
        raise CodecError(
            f"trailing garbage: consumed {offset} of {len(view)} bytes"
        )
    return value


def _decode_value(view: memoryview, offset: int) -> PyTuple[Any, int]:
    tag = view[offset]
    offset += 1
    if tag == TAG_NONE:
        return None, offset
    if tag == TAG_TRUE:
        return True, offset
    if tag == TAG_FALSE:
        return False, offset
    if tag == TAG_INT8:
        return _INT8.unpack_from(view, offset)[0], offset + 1
    if tag == TAG_INT32:
        return _INT32.unpack_from(view, offset)[0], offset + 4
    if tag == TAG_INT64:
        return _INT64.unpack_from(view, offset)[0], offset + 8
    if tag == TAG_BIGINT:
        length = _U32.unpack_from(view, offset)[0]
        offset += 4
        raw = bytes(view[offset:offset + length])
        if len(raw) != length:
            raise CodecError("truncated bigint")
        return int.from_bytes(raw, "big", signed=True), offset + length
    if tag == TAG_FLOAT:
        return _FLOAT.unpack_from(view, offset)[0], offset + 8
    if tag == TAG_SHORT_STR:
        length = view[offset]
        offset += 1
        return str(view[offset:offset + length], "utf-8"), offset + length
    if tag == TAG_STR:
        length = _U32.unpack_from(view, offset)[0]
        offset += 4
        return str(view[offset:offset + length], "utf-8"), offset + length
    if tag == TAG_WELLKNOWN:
        return WELLKNOWN_STRINGS[view[offset]], offset + 1
    if tag == TAG_BYTES:
        length = _U32.unpack_from(view, offset)[0]
        offset += 4
        raw = bytes(view[offset:offset + length])
        if len(raw) != length:
            raise CodecError("truncated bytes value")
        return raw, offset + length
    if tag == TAG_LIST or tag == TAG_TUPLE:
        count = _U32.unpack_from(view, offset)[0]
        offset += 4
        items: List[Any] = []
        for _ in range(count):
            item, offset = _decode_value(view, offset)
            items.append(item)
        return (items if tag == TAG_LIST else tuple(items)), offset
    if tag == TAG_DICT:
        count = _U32.unpack_from(view, offset)[0]
        offset += 4
        out: Dict[Any, Any] = {}
        for _ in range(count):
            key, offset = _decode_value(view, offset)
            item, offset = _decode_value(view, offset)
            out[key] = item
        return out, offset
    if tag == TAG_SET or tag == TAG_FROZENSET:
        count = _U32.unpack_from(view, offset)[0]
        offset += 4
        members: List[Any] = []
        for _ in range(count):
            member, offset = _decode_value(view, offset)
            members.append(member)
        return (set(members) if tag == TAG_SET else frozenset(members)), offset
    if tag == TAG_WIRE_TUPLE:
        schema, offset = _decode_schema(view, offset)
        return _decode_values(view, offset, schema)
    if tag == TAG_ROWS:
        count = _U32.unpack_from(view, offset)[0]
        schema, offset = _decode_schema(view, offset + 4)
        rows: List[Tuple] = []
        for _ in range(count):
            row, offset = _decode_values(view, offset, schema)
            rows.append(row)
        return rows, offset
    if tag == TAG_QUERY_ENVELOPE:
        return _decode_envelope(view, offset)
    if tag == TAG_PICKLE:
        length = _U32.unpack_from(view, offset)[0]
        offset += 4
        FALLBACKS.decodes += 1
        raw = bytes(view[offset:offset + length])
        if len(raw) != length:
            raise CodecError("truncated pickle fallback frame")
        return pickle.loads(raw), offset + length
    raise CodecError(f"unknown tag byte 0x{tag:02x}")


def _decode_schema(view: memoryview, offset: int) -> PyTuple[Schema, int]:
    """A packed schema header, interned in this process."""
    table_len = _U16.unpack_from(view, offset)[0]
    offset += 2
    table = str(view[offset:offset + table_len], "utf-8")
    offset += table_len
    column_count = _U16.unpack_from(view, offset)[0]
    offset += 2
    columns: List[str] = []
    for _ in range(column_count):
        length = _U16.unpack_from(view, offset)[0]
        offset += 2
        columns.append(str(view[offset:offset + length], "utf-8"))
        offset += length
    return Schema.intern(table, tuple(columns)), offset


def _decode_values(view: memoryview, offset: int, schema: Schema) -> PyTuple[Tuple, int]:
    """One row of ``schema``: its values in column order."""
    values: List[Any] = []
    for _ in range(len(schema.columns)):
        value, offset = _decode_value(view, offset)
        values.append(value)
    return Tuple._from_parts(schema, tuple(values)), offset


def _decode_envelope(view: memoryview, offset: int) -> PyTuple[QueryEnvelope, int]:
    start = offset - 1
    fields: List[Any] = []
    for _ in range(5):
        value, offset = _decode_value(view, offset)
        fields.append(value)
    envelope = QueryEnvelope(*fields)
    # The bytes just read are the envelope's encoding: a node that forwards
    # it down the tree sends them as they are.
    encoded = bytes(view[start:offset])
    object.__setattr__(envelope, "_encoded", encoded)
    object.__setattr__(envelope, "_wire_size", len(encoded))
    return envelope, offset


# --------------------------------------------------------------------------- #
# datagram envelope
# --------------------------------------------------------------------------- #

MAGIC = 0xB7

KIND_DATA = 1
KIND_ACK = 2

_ENVELOPE = struct.Struct("!BBIII")
ENVELOPE_BYTES = _ENVELOPE.size

# The largest datagram the physical runtime sends (the UDP payload limit
# over IPv4); beyond it sendto() fails with EMSGSIZE and the frame is
# reported undeliverable to its callback.
MAX_DATAGRAM = 65507


def pack_datagram(
    kind: int,
    transport_id: int,
    source_port: int,
    dest_port: int,
    payload: Any = None,
) -> bytes:
    """One physical-wire datagram: envelope header plus encoded payload.

    ACK frames (``kind=KIND_ACK``) are the header alone.
    """
    header = _ENVELOPE.pack(MAGIC, kind, transport_id, source_port, dest_port)
    if kind == KIND_ACK:
        return header
    return header + encode(payload)


def unpack_datagram(data: bytes) -> PyTuple[int, int, int, int, Any]:
    """Parse a datagram into (kind, transport_id, source_port, dest_port,
    payload); the payload is ``None`` for ACK frames."""
    if len(data) < ENVELOPE_BYTES:
        raise CodecError(f"short datagram: {len(data)} bytes")
    magic, kind, transport_id, source_port, dest_port = _ENVELOPE.unpack_from(
        data, 0
    )
    if magic != MAGIC:
        raise CodecError(f"bad magic byte 0x{magic:02x}")
    if kind == KIND_ACK:
        return kind, transport_id, source_port, dest_port, None
    payload = decode(data[ENVELOPE_BYTES:])
    return kind, transport_id, source_port, dest_port, payload
