"""Unit tests for join operators, Bloom filters, and group-by variants."""

from operator_harness import OperatorHarness

from repro.qp.operators.joins import BloomFilter
from repro.qp.tuples import Tuple


def test_symmetric_hash_join_streams_matches_from_both_sides():
    harness = OperatorHarness()
    join = harness.build(
        "symmetric_hash_join",
        {"left_columns": ["k"], "right_columns": ["k"], "output_table": "joined"},
    )
    join.receive(Tuple.make("left", k=1, a="L1"), slot=0)
    assert harness.results == []
    join.receive(Tuple.make("right", k=1, b="R1"), slot=1)
    assert len(harness.results) == 1
    join.receive(Tuple.make("right", k=1, b="R2"), slot=1)
    join.receive(Tuple.make("left", k=2, a="L2"), slot=0)
    assert len(harness.results) == 2
    assert all(result.table == "joined" for result in harness.results)
    assert join.state_size == 4


def test_symmetric_hash_join_multi_column_keys():
    harness = OperatorHarness()
    join = harness.build(
        "symmetric_hash_join", {"left_columns": ["k1", "k2"], "right_columns": ["k1", "k2"]}
    )
    join.receive(Tuple.make("l", k1=1, k2="x", v=1), slot=0)
    join.receive(Tuple.make("r", k1=1, k2="y", w=2), slot=1)
    assert harness.results == []
    join.receive(Tuple.make("r", k1=1, k2="x", w=3), slot=1)
    assert len(harness.results) == 1


def test_nested_loop_join_applies_arbitrary_predicate():
    harness = OperatorHarness()
    join = harness.build(
        "nested_loop_join", {"predicate": ["<", ["col", "a"], ["col", "b"]]}
    )
    join.receive(Tuple.make("l", a=5), slot=0)
    join.receive(Tuple.make("r", b=10), slot=1)
    join.receive(Tuple.make("r", b=1), slot=1)
    assert len(harness.results) == 1


def test_fetch_matches_join_probes_the_dht_index(small_overlay):
    deployment = small_overlay
    # Publish the inner table partitioned on the join key.
    for file_id in range(4):
        deployment.node(file_id).put(
            "files", file_id, f"s{file_id}",
            Tuple.make("files", file_id=file_id, size=file_id * 10), 300,
        )
    deployment.run(3.0)
    from operator_harness import Collector
    from repro.qp.opgraph import OperatorSpec
    from repro.qp.operators.base import ExecutionContext, build_operator

    context = ExecutionContext(
        overlay=deployment.node(5), query_id="qj", timeout=20,
        proxy_address=deployment.node(5).address,
    )
    collector = Collector(context=context)
    join = build_operator(
        OperatorSpec("fm", "fetch_matches_join",
                     {"outer_columns": ["file_id"], "inner_namespace": "files"}),
        context,
    )
    join.add_parent(collector, 0)
    join.receive([Tuple.make("outer", file_id=2, keyword="kw")])
    deployment.run(3.0)
    assert len(collector.collected) == 1
    assert collector.collected[0]["size"] == 20
    assert join.fetches_issued == 1 and join.fetches_completed == 1


def test_bloom_filter_has_no_false_negatives_and_merges():
    bloom = BloomFilter(size_bits=2048, hash_count=3)
    keys = [("k", i) for i in range(200)]
    for key in keys:
        bloom.add(key)
    assert all(bloom.might_contain(key) for key in keys)
    other = BloomFilter(size_bits=2048, hash_count=3)
    other.add(("other", 1))
    merged = bloom.merge(other)
    assert merged.might_contain(("other", 1)) and merged.might_contain(("k", 5))
    rebuilt = BloomFilter.from_dict(bloom.to_dict())
    assert all(rebuilt.might_contain(key) for key in keys)


def test_bloom_filter_rejects_most_absent_keys():
    bloom = BloomFilter(size_bits=4096, hash_count=3)
    for index in range(100):
        bloom.add(("present", index))
    false_positives = sum(bloom.might_contain(("absent", index)) for index in range(500))
    assert false_positives < 100  # far from "everything matches"


def test_groupby_hash_counts_per_group():
    harness = OperatorHarness()
    op = harness.build(
        "groupby_hash",
        {"group_columns": ["src"], "aggregates": [("count", None, "n"), ("sum", "bytes", "total")],
         "output_table": "agg"},
    )
    for src, size in [("a", 10), ("a", 20), ("b", 5)]:
        op.receive(Tuple.make("t", src=src, bytes=size))
    assert harness.results == []
    op.flush()
    rows = {row["src"]: row for row in (r.as_mapping() for r in harness.results)}
    assert rows["a"]["n"] == 2 and rows["a"]["total"] == 30
    assert rows["b"]["n"] == 1 and rows["b"]["total"] == 5


def test_partial_and_merge_aggregate_compose():
    partial_harness = OperatorHarness()
    partial = partial_harness.build(
        "partial_aggregate",
        {"group_columns": ["src"], "aggregates": [("count", None, "n")]},
    )
    for src in ["a", "a", "b"]:
        partial.receive(Tuple.make("t", src=src))
    partial.flush()
    partial_tuples = list(partial_harness.results)
    assert all("__partial_states__" in tup for tup in partial_tuples)

    merge_harness = OperatorHarness()
    merge = merge_harness.build(
        "merge_aggregate",
        {"group_columns": ["src"], "aggregates": [("count", None, "n")]},
    )
    # Two nodes' worth of partials plus one raw tuple.
    for tup in partial_tuples + partial_tuples:
        merge.receive(tup)
    merge.receive(Tuple.make("t", src="b"))
    merge.flush()
    rows = {row["src"]: row["n"] for row in (r.as_mapping() for r in merge_harness.results)}
    assert rows == {"a": 4, "b": 3}


def test_groupby_window_emits_periodically():
    harness = OperatorHarness()
    op = harness.build(
        "groupby_hash",
        {"group_columns": [], "aggregates": [("count", None, "n")], "window": 1.0},
    )
    op.start()
    op.receive(Tuple.make("t", x=1))
    op.receive(Tuple.make("t", x=2))
    harness.run(1.5)
    assert harness.results and harness.results[0]["n"] == 2
    # After the window the groups reset.
    op.receive(Tuple.make("t", x=3))
    harness.run(1.0)
    assert harness.results[-1]["n"] == 1


def test_global_aggregate_without_group_columns():
    harness = OperatorHarness()
    op = harness.build(
        "groupby_hash", {"group_columns": [], "aggregates": [("avg", "v", "mean")]}
    )
    for value in (2, 4, 6):
        op.receive(Tuple.make("t", v=value))
    op.flush()
    assert harness.results[0]["mean"] == 4
