"""A message's size is the length of the datagram the codec would send.

The simulator charges ``sizing.wire_size(payload)`` to its congestion
models and byte counters; the physical runtime sends
``codec.pack_datagram(...)``.  These tests hold the two to the same
number for every payload shape the codec knows, pin what a few shapes
cost, check that sizing builds no bytes, and send the same messages
through both runtimes.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qp.opgraph import QueryEnvelope
from repro.qp.tuples import Tuple
from repro.runtime import codec
from repro.runtime.codec import ENVELOPE_BYTES
from repro.runtime.physical import PhysicalEnvironment
from repro.runtime.simulation import SimulationEnvironment
from repro.runtime.sizing import ROW_BATCH_BYTES, datagram_runs, wire_size


@pytest.fixture(autouse=True)
def _reset_fallback_counter():
    codec.FALLBACKS.reset()
    yield
    codec.FALLBACKS.reset()


def datagram_length(payload) -> int:
    return len(codec.pack_datagram(codec.KIND_DATA, 1, 2, 3, payload))


# -- agreement with the codec, for every shape it knows ---------------------------- #

INT_EDGES = [
    0, 127, 128, -128, -129,
    2 ** 31 - 1, 2 ** 31, -(2 ** 31), -(2 ** 31) - 1,
    2 ** 63 - 1, 2 ** 63, -(2 ** 63), -(2 ** 63) - 1,
    2 ** 200, -(2 ** 200),
]
# Short/long string forms switch at 256 *encoded* bytes: "é" * 128 is 128
# characters but 256 bytes.
STRING_EDGES = ["", "x" * 255, "x" * 256, "é" * 127, "é" * 128, "✓" * 86]

ints = st.one_of(st.sampled_from(INT_EDGES), st.integers())
strings = st.one_of(
    st.text(alphabet=string.ascii_letters, max_size=12),
    st.text(max_size=12),
    st.sampled_from(STRING_EDGES),
    st.integers(min_value=256, max_value=700).map(lambda n: "y" * n),
    st.sampled_from(codec.WELLKNOWN_STRINGS),
)
scalars = st.one_of(
    st.none(), st.booleans(), ints, st.floats(), strings, st.binary(max_size=40)
)
columns = st.text(alphabet="abcdef", min_size=1, max_size=3)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(scalars, children, max_size=4),
        st.sets(scalars, max_size=4),
        st.frozensets(scalars, max_size=4),
        st.builds(
            Tuple,
            st.sampled_from(["t", "events", "tablé"]),
            st.dictionaries(columns, children, min_size=1, max_size=4),
        ),
        st.builds(
            QueryEnvelope,
            strings,
            st.floats(),
            scalars,
            st.dictionaries(strings, children, max_size=3),
            st.lists(children, max_size=3).map(tuple),
        ),
    )


payloads = st.recursive(scalars, _containers, max_leaves=24)


@given(payloads)
@settings(max_examples=300, deadline=None)
def test_wire_size_is_the_datagram_length(payload):
    size = wire_size(payload)
    assert size == datagram_length(payload)
    assert codec.FALLBACKS.total() == 0


@pytest.mark.parametrize(
    "payload, expected",
    [
        (None, ENVELOPE_BYTES + 1),
        (7, ENVELOPE_BYTES + 2),
        (3.5, ENVELOPE_BYTES + 9),
        (True, ENVELOPE_BYTES + 1),
        ("abc", ENVELOPE_BYTES + 2 + 3),
        (b"abcd", ENVELOPE_BYTES + 5 + 4),
        ([1, 2, 3], ENVELOPE_BYTES + 5 + 3 * 2),
        ((1, "ab"), ENVELOPE_BYTES + 5 + 2 + 4),
        ({"k": 1}, ENVELOPE_BYTES + 5 + 3 + 2),
        ({1, 2}, ENVELOPE_BYTES + 5 + 2 * 2),
    ],
)
def test_scalar_and_container_sizes_are_pinned(payload, expected):
    assert wire_size(payload) == expected == datagram_length(payload)


def test_deep_nesting_is_charged_in_full():
    text = "deep string, charged"
    nested = [[[[[[[[text]]]]]]]]
    assert wire_size(nested) == ENVELOPE_BYTES + 8 * 5 + 2 + len(text)


# -- tuples: memoized, never packed to be sized --------------------------------------- #


def test_tuple_wire_size_is_memoized():
    tup = Tuple.make("t", a=1, b="xyz", c=[1, 2])
    assert tup._wire_size is None
    first = wire_size(tup)
    assert tup._packed is None  # sizing built no bytes
    assert first == ENVELOPE_BYTES + len(tup.to_bytes())
    tup._wire_size = 1000
    assert wire_size(tup) == ENVELOPE_BYTES + 1000  # the memo, not a re-walk


def test_tuple_size_does_not_depend_on_embedding_depth():
    tup = Tuple.make("t", k=1, tags=[["alpha", "beta"], ["gamma"]])
    for depth in range(9):
        payload = tup
        for _ in range(depth):
            payload = [payload]
        assert wire_size(payload) == ENVELOPE_BYTES + 5 * depth + len(tup.to_bytes())


def test_query_envelope_is_sized_once_without_building_bytes():
    """Every child of a tree node gets the same envelope: the first edge
    sizes it, the others read the memo."""
    envelope = QueryEnvelope(
        "q1", 10.0, 3, {"exchange_batch_size": 8},
        (("q1-g0", (("scan", "dht_scan", {"namespace": "t"}, ()),)),),
    )
    edges = [{"kind": "direct", "value": {"broadcast_id": "q1", "payload": envelope}} for _ in range(3)]
    first = wire_size(edges[0])
    assert envelope._encoded is None  # sizing built no bytes
    assert envelope._wire_size == len(envelope.to_bytes())
    assert [wire_size(edge) for edge in edges] == [first] * 3 == [datagram_length(edges[0])] * 3


def test_put_batch_size_is_envelope_plus_cached_elements():
    tuples = [Tuple.make("t", k=i, v=f"val-{i}") for i in range(5)]

    def batch_message(values):
        return {
            "kind": "put_batch",
            "namespace": "t",
            "key": 1,
            "suffix": "00a1b2c3d4e5",
            "values": values,
            "lifetime": 600.0,
            "request_id": None,
            "origin": 0,
        }

    size = wire_size(batch_message(tuples))
    assert all(tup._packed is None for tup in tuples)  # nothing was packed
    # The rows' schema header once, then each row's values: the tuple's
    # memo less the tag byte and the header it does not repeat.
    header = len(tuples[0].schema.packed_header)
    per_row = [tup._wire_size - 1 - header for tup in tuples]
    assert size == wire_size(batch_message([])) + header + sum(per_row)
    assert size == datagram_length(batch_message(tuples))
    assert [tup._wire_size for tup in tuples] == [len(tup.to_bytes()) for tup in tuples]


# One 8-row put_batch of three-column rows, as the exchange ships it.
# 221 bytes in the schema-once form with one base suffix; 540 when every
# row carried its own header and a (suffix, row) pair.
PUT_BATCH_BYTES = 221


def test_an_eight_row_put_batch_is_pinned():
    message = MESSAGES["put_batch"]
    assert len(message["values"]) == 8
    assert wire_size(message) == PUT_BATCH_BYTES == datagram_length(message)


def test_a_batch_over_one_datagram_is_cut_into_runs_that_fit():
    rows = [Tuple.make("blobs", seq=i, body="x" * 5000) for i in range(16)]
    runs = datagram_runs(rows)
    assert [row for run in runs for row in run] == rows
    assert [len(run) for run in runs] == [12, 4]
    assert all(codec.encoded_size(run) <= ROW_BATCH_BYTES for run in runs)
    assert datagram_runs(rows[:12]) == [rows[:12]]
    # A row larger than a datagram is a run of its own (a known limit).
    huge = Tuple.make("blobs", seq=99, body="x" * codec.MAX_DATAGRAM)
    assert datagram_runs([rows[0], huge, rows[1]]) == [[rows[0]], [huge], [rows[1]]]


def test_a_batch_that_fits_carries_its_size_and_encodes_as_a_list():
    """The message around a run that fits is sized without walking its
    rows again, to the same bytes, and sent as the plain list."""
    rows = [Tuple.make("r", k=i, label=f"evt-{i}") for i in range(8)]
    (run,) = datagram_runs(rows)
    assert isinstance(run, codec.SizedList) and run == rows
    assert run.size == codec.encoded_size(list(rows))
    message = {"kind": "put_batch", "namespace": "q:n", "values": run, "lifetime": 60.0}
    plain = dict(message, values=list(rows))
    assert codec.encode(message) == codec.encode(plain)
    assert wire_size(message) == wire_size(plain) == codec.ENVELOPE_BYTES + len(codec.encode(plain))
    decoded = codec.decode(codec.encode(message))["values"]
    assert type(decoded) is list and decoded == rows


# -- objects the codec does not know: their counted pickle frame --------------------- #


class _SlottedAck:
    __slots__ = ("request_id", "success")

    def __init__(self, request_id: int, success: bool) -> None:
        self.request_id = request_id
        self.success = success


class _SlottedDerived(_SlottedAck):
    __slots__ = ("hops",)

    def __init__(self) -> None:
        super().__init__(7, True)
        self.hops = 3


class _DictPayload:
    def __init__(self) -> None:
        self.a = 1
        self.b = "xy"


def _charged_its_pickle_frame(payload):
    """Size ``payload`` and return what its pickle frame decodes to."""
    size = wire_size(payload)
    assert codec.FALLBACKS.encodes == 1  # sizing counts the fallback
    frame = codec.encode(payload)
    assert frame[0] == codec.TAG_PICKLE
    assert size == ENVELOPE_BYTES + len(frame) == datagram_length(payload)
    return codec.decode(frame)


def test_slots_objects_are_charged_for_their_fields():
    decoded = _charged_its_pickle_frame(_SlottedAck(request_id=12, success=True))
    assert (decoded.request_id, decoded.success) == (12, True)


def test_slots_are_collected_across_the_mro():
    decoded = _charged_its_pickle_frame(_SlottedDerived())
    assert (decoded.request_id, decoded.success, decoded.hops) == (7, True, 3)


def test_dict_backed_objects_are_charged_their_pickle_frame():
    decoded = _charged_its_pickle_frame(_DictPayload())
    assert vars(decoded) == {"a": 1, "b": "xy"}


def test_unset_slots_are_skipped():
    ack = _SlottedAck.__new__(_SlottedAck)
    ack.request_id = 1  # "success" left unset
    decoded = _charged_its_pickle_frame(ack)
    assert decoded.request_id == 1 and not hasattr(decoded, "success")


# -- both runtimes charge one send the same bytes ---------------------------------------- #


ROWS = [Tuple.make("hp_fact", f_id=i, k=i % 9, src=f"10.0.0.{i}") for i in range(8)]
MESSAGES = {
    "put": {
        "kind": "put", "namespace": "q1:rehash_0", "key": 4, "suffix": "00a1b2c3d4e5",
        "value": ROWS[0], "lifetime": 600.0, "request_id": 17, "origin": 3,
    },
    "put_batch": {
        "kind": "put_batch", "namespace": "q1:rehash_0", "key": 4, "suffix": "00a1b2c3d4e5",
        "values": list(ROWS), "lifetime": 600.0, "request_id": 18, "origin": 3,
    },
    "lookup": {
        "kind": "lookup", "target": 2 ** 159 + 12345, "request_id": 19,
        "origin": 3, "hops": 0,
    },
}


@pytest.mark.parametrize("kind", sorted(MESSAGES))
def test_both_runtimes_charge_a_send_the_same_bytes(kind):
    payload = MESSAGES[kind]  # the overlay sends the bare message
    simulated = SimulationEnvironment(2, seed=1)
    before = simulated.stats.bytes_sent
    simulated.runtime(0).send(5000, (1, 5000), payload)
    simulated_bytes = simulated.stats.bytes_sent - before

    physical = PhysicalEnvironment(2, seed=1)
    try:
        sender = physical.runtime(0)
        before = physical.stats.bytes_sent
        sender.send(5000, (physical.runtime(1).address, 5000), payload)
        physical_bytes = physical.stats.bytes_sent - before
        first_attempt = next(iter(sender._pending.values())).wire
    finally:
        physical.close()

    assert simulated_bytes == physical_bytes == len(first_attempt) == wire_size(payload)
    assert codec.FALLBACKS.total() == 0
