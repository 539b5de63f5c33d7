"""Tests for the batched exchange path and the Bloom-join machinery."""

from operator_harness import OperatorHarness

from repro.qp.aggregates import TopK
from repro.qp.operators.joins import BloomFilter
from repro.qp.tuples import Tuple


# -- Bloom filter serialisation (regression) ---------------------------------- #

def test_bloom_filter_round_trip_preserves_items_added():
    bloom = BloomFilter(size_bits=2048, hash_count=3)
    for index in range(25):
        bloom.add(("key", index))
    rebuilt = BloomFilter.from_dict(bloom.to_dict())
    assert rebuilt.items_added == bloom.items_added
    assert rebuilt.bits == bloom.bits


def test_bloom_probe_drops_non_matching_after_dht_round_trip():
    """Regression: a filter read back from the DHT used to report 0 items,
    which made every probe pass all tuples (the rewrite was a no-op)."""
    harness = OperatorHarness(node_count=2, seed=11)
    build = harness.build(
        "bloom_build",
        {"columns": ["file_id"], "filter_namespace": "bloom_filters", "publish_delay": 0},
        operator_id="build",
    )
    for file_id in (1, 2, 3):
        build.receive(Tuple.make("inverted", file_id=file_id))
    build.flush()  # publish into the DHT
    harness.run(2.0)

    probe = harness.build(
        "bloom_probe",
        {"columns": ["file_id"], "filter_namespace": "bloom_filters", "wait": 0},
        operator_id="probe",
    )
    probe.start()
    harness.run(2.0)  # let the filter get complete
    for file_id in (1, 2, 3, 50, 51, 52, 53):
        probe.receive(Tuple.make("files", file_id=file_id))
    harness.run(1.0)

    passed = sorted(harness.result_values("file_id"))
    assert passed == [1, 2, 3], "probe must drop tuples whose key is not in the filter"
    assert probe.tuples_filtered == 4


# -- put_batch (wrapper level) ------------------------------------------------- #

def test_put_batch_stores_all_objects_with_one_put_message():
    harness = OperatorHarness(node_count=4, seed=3)
    overlay = harness.context.overlay
    overlay.put_batch("batched_ns", "shared-key", [{"n": i} for i in range(5)], lifetime=60.0)
    harness.run(3.0)

    fetched = {}
    overlay.get("batched_ns", "shared-key", lambda _ns, _key, objs: fetched.setdefault("objs", objs))
    harness.run(3.0)
    assert sorted(obj["n"] for obj in fetched["objs"]) == [0, 1, 2, 3, 4]
    assert overlay.stats.batch_puts == 1
    assert overlay.stats.batched_objects == 5


def test_put_batch_empty_entries_acks_immediately():
    harness = OperatorHarness(node_count=2, seed=4)
    acked = []
    harness.context.overlay.put_batch("ns", "k", [], lifetime=10.0, callback=acked.append)
    assert acked == [True]


# -- PutExchange batching ------------------------------------------------------- #

def _count_rendezvous_objects(harness, namespace):
    total = 0
    for node in harness.deployment.nodes:
        total += sum(1 for _ in node.object_manager.local_scan(namespace))
    return total


def test_put_exchange_batches_same_destination_tuples():
    harness = OperatorHarness(node_count=3, seed=5)
    put = harness.build(
        "put",
        {
            "namespace": "rendezvous",
            "key_columns": ["k"],
            "batch_size": 4,
            "flush_interval": 0.5,
        },
        operator_id="put",
    )
    overlay = harness.context.overlay
    for index in range(8):
        put.receive(Tuple.make("t", k="same", n=index))  # one destination
    harness.run(2.0)
    assert put.tuples_published == 8
    assert put.batches_published == 2  # two full batches of 4
    assert overlay.stats.batch_puts == 2
    assert _count_rendezvous_objects(harness, "qtest:rendezvous") == 8


def test_put_exchange_interval_flushes_stragglers():
    harness = OperatorHarness(node_count=3, seed=6)
    put = harness.build(
        "put",
        {
            "namespace": "rendezvous",
            "key_columns": ["k"],
            "batch_size": 100,
            "flush_interval": 0.25,
        },
        operator_id="put",
    )
    for index in range(3):
        put.receive(Tuple.make("t", k="same", n=index))
    assert put.buffered == 3
    harness.run(1.5)  # the periodic timer must flush below batch_size
    assert put.buffered == 0
    assert _count_rendezvous_objects(harness, "qtest:rendezvous") == 3


def test_put_exchange_batching_with_zero_interval_still_flushes_stragglers():
    # flush_interval <= 0 with batching enabled must fall back to a timer:
    # otherwise sub-batch partitions would only flush at teardown, after
    # the consumer graphs have stopped, and their tuples would be lost.
    harness = OperatorHarness(node_count=3, seed=8)
    put = harness.build(
        "put",
        {
            "namespace": "rendezvous",
            "key_columns": ["k"],
            "batch_size": 100,
            "flush_interval": 0,
        },
        operator_id="put",
    )
    for index in range(3):
        put.receive(Tuple.make("t", k="same", n=index))
    harness.run(1.5)
    assert put.buffered == 0
    assert _count_rendezvous_objects(harness, "qtest:rendezvous") == 3


def test_bloom_probe_refresh_picks_up_late_build_keys():
    harness = OperatorHarness(node_count=2, seed=12)
    build = harness.build(
        "bloom_build",
        {"columns": ["file_id"], "filter_namespace": "bloom_filters", "publish_delay": 0.5},
        operator_id="build",
    )
    build.start()
    build.receive(Tuple.make("inverted", file_id=1))
    harness.run(2.0)  # first periodic publish

    probe = harness.build(
        "bloom_probe",
        {"columns": ["file_id"], "filter_namespace": "bloom_filters", "wait": 0.5},
        operator_id="probe",
    )
    probe.start()
    harness.run(2.0)  # first fetch completes
    probe.receive(Tuple.make("files", file_id=1))
    probe.receive(Tuple.make("files", file_id=2))  # not yet in the filter
    assert harness.result_values("file_id") == [1]

    # A key streamed into the build side later is republished by the
    # builder and merged by the probe's periodic refresh.
    build.receive(Tuple.make("inverted", file_id=2))
    harness.run(3.0)
    probe.receive(Tuple.make("files", file_id=2))
    assert harness.result_values("file_id") == [1, 2]


def test_put_exchange_unbatched_by_default():
    harness = OperatorHarness(node_count=3, seed=7)
    put = harness.build(
        "put", {"namespace": "rendezvous", "key_columns": ["k"]}, operator_id="put"
    )
    overlay = harness.context.overlay
    before = overlay.stats.puts
    for index in range(4):
        put.receive(Tuple.make("t", k="same", n=index))
    assert overlay.stats.puts - before == 4  # one put per tuple, no coalescing
    assert overlay.stats.batch_puts == 0


# -- TopK with a capacity bound under merge ------------------------------------- #

def test_topk_capacity_truncates_partials_and_merge():
    topk = TopK(k=2, capacity=3)
    state = topk.initial()
    for value in ["a"] * 5 + ["b"] * 4 + ["c"] * 3 + ["d"] * 2 + ["e"]:
        state = topk.add(state, value)
    # The lossy bound holds while folding values in.
    assert len(state) <= 3
    assert set(state) == {"a", "b", "c"}

    other = topk.initial()
    for value in ["c"] * 4 + ["f"] * 6 + ["g"] * 5:
        other = topk.add(other, value)

    merged = topk.merge(state, other)
    # Merging two node partials re-applies the capacity bound...
    assert len(merged) <= 3
    # ...and keeps the globally heavy keys: c appears in both partials.
    assert merged["c"] == 3 + 4
    result = topk.result(merged)
    assert len(result) == 2
    assert result[0][0] == "c" and result[0][1] == 7


def test_topk_without_capacity_is_exact():
    topk = TopK(k=3)
    state = topk.initial()
    for value in ["x"] * 3 + ["y"] * 2 + ["z"]:
        state = topk.add(state, value)
    assert topk.result(state) == [("x", 3), ("y", 2), ("z", 1)]


# -- teardown of buffering operators (regression) ------------------------------ #

def test_put_exchange_stop_discards_buffer_and_disarms_timer():
    """Regression: cancelling a query with tuples buffered in a batching
    exchange used to leave the buffer (and an armed straggler timer) behind;
    a later flush shipped post-cancel put_batch traffic onto the DHT."""
    harness = OperatorHarness(node_count=2, seed=21)
    put = harness.build(
        "put",
        {"namespace": "cancel_ns", "key_columns": ["k"], "batch_size": 8,
         "flush_interval": 0.5},
    )
    for index in range(3):
        put.receive(Tuple.make("t", k="same", n=index))
    assert put.buffered == 3

    put.stop()
    assert put.buffered == 0, "stop() must discard buffered tuples"
    assert not put._flush_timer_scheduled

    # An explicit post-stop flush must not publish either.
    put.flush()
    batches_before = put.batches_published
    harness.run(2.0)  # let any stray timer fire
    assert put.batches_published == batches_before == 0
    overlay = harness.context.overlay
    assert overlay.stats.batch_puts == 0, "no post-cancel put_batch traffic"


def test_result_handler_stop_discards_pending_batch():
    harness = OperatorHarness(node_count=2, seed=22)
    handler = harness.build("result_handler", {"batch": 10, "flush_interval": 0.5})
    for index in range(4):
        handler.receive(Tuple.make("r", n=index))
    assert handler.results_shipped == 0
    handler.stop()
    handler.flush()
    harness.run(2.0)
    assert handler.results_shipped == 0
    assert handler._pending == []
