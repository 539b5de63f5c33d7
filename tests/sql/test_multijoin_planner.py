"""Tests for multi-join SQL, the statistics catalog, and cost-aware planning."""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wire_watch import is_internal_column

from repro import Catalog, PIERNetwork
from repro.qp.stats import DistinctSketch, Statistics
from repro.qp.tuples import Tuple
from repro.sql.parser import parse_sql
from repro.sql.planner import NaivePlanner, apply_result_clauses


def _catalog(*tables, partitioning=None, statistics=None):
    """A catalog declaring ``tables`` as DHT tables; ``partitioning`` maps
    a table to its primary index's columns (none by default)."""
    catalog = Catalog(statistics)
    for table in tables:
        catalog.create_table(table, partitioning=(partitioning or {}).get(table))
    return catalog


def _op_types(plan):
    return {spec.op_type for graph in plan.opgraphs for spec in graph.operators.values()}


def _op_ids(plan):
    return {spec.operator_id for graph in plan.opgraphs for spec in graph.operators.values()}


# -- parsing -------------------------------------------------------------------- #

def test_parse_multiple_join_clauses_round_trip():
    statement = parse_sql(
        "SELECT name FROM orders o "
        "JOIN users u ON user_id = user_id "
        "JOIN items i ON item_id = item_id "
        "WHERE price > 10 LIMIT 3"
    )
    assert statement.table == "orders"
    assert [join.table for join in statement.joins] == ["users", "items"]
    assert [(join.left_column, join.right_column) for join in statement.joins] == [
        ("user_id", "user_id"),
        ("item_id", "item_id"),
    ]
    # The single-join compatibility view exposes the first clause.
    assert statement.join is statement.joins[0]
    assert statement.limit == 3


def test_parse_single_join_still_works():
    statement = parse_sql("SELECT a FROM t JOIN s ON x = y")
    assert len(statement.joins) == 1
    assert statement.join.table == "s"


# -- statistics catalog ----------------------------------------------------------- #

def test_distinct_sketch_exact_below_k_and_close_above():
    sketch = DistinctSketch(k=256)
    for value in range(100):
        sketch.add(value)
    assert sketch.estimate() == 100
    big = DistinctSketch(k=256)
    for value in range(10_000):
        big.add(("v", value))
    assert abs(big.estimate() - 10_000) / 10_000 < 0.25


def test_statistics_records_cardinality_columns_and_distinct():
    stats = Statistics()
    for index in range(50):
        stats.record("events", {"src": f"ip{index % 5}", "bytes": index})
    assert stats.cardinality("events") == 50
    assert stats.columns("events") == frozenset({"src", "bytes"})
    assert stats.distinct("events", "src") == 5
    assert stats.cardinality("unknown") is None
    assert stats.distinct("events", "missing") is None
    assert stats.equality_selectivity("events", "src") == pytest.approx(0.2)


def test_network_publish_maintains_statistics():
    net = PIERNetwork(4, seed=9)
    net.create_table("files", partitioning=["file_id"])
    net.publish("files", [Tuple.make("files", file_id=i, size_kb=i * 7) for i in range(12)])
    assert net.statistics.cardinality("files") == 12
    assert net.statistics.distinct("files", "file_id") == 12
    net.create_table("logs", source="local")
    net.register_local_table(0, "logs", [Tuple.make("logs", src="a")])
    assert net.statistics.cardinality("logs") == 1


# -- cost-aware planning ----------------------------------------------------------- #

@pytest.fixture
def stats_catalog():
    stats = Statistics()
    for index in range(1000):
        stats.record("big", {"k": index % 400, "x": index, "z": index % 7})
    for index in range(10):
        stats.record("tiny", {"x": index})
    for index in range(100):
        stats.record("mid", {"z": index % 7, "w": index})
    return stats


def test_planner_reorders_joins_cheapest_first(stats_catalog):
    planner = NaivePlanner(_catalog("big", "tiny", "mid", statistics=stats_catalog))
    statement = parse_sql("SELECT x FROM big JOIN mid ON z = z JOIN tiny ON x = x")
    ordered = planner._order_joins("big", statement.joins)
    assert [join.table for join in ordered] == ["tiny", "mid"]


def test_planner_keeps_order_without_statistics():
    planner = NaivePlanner(_catalog("a", "b", "c"))
    statement = parse_sql("SELECT x FROM a JOIN b ON x = y JOIN c ON z = w")
    ordered = planner._order_joins("a", statement.joins)
    assert [join.table for join in ordered] == ["b", "c"]


def test_planner_compiles_three_way_rehash_pipeline():
    planner = NaivePlanner(_catalog("a", "b", "c"))
    plan = planner.plan_sql("SELECT x FROM a JOIN b ON x = y JOIN c ON z = w")
    # Two rehash edges: producer graph + two join consumer graphs.
    assert len(plan.opgraphs) == 3
    ids = _op_ids(plan)
    assert {"join_0", "join_1", "rehash_0", "rehash_1", "results"} <= ids


def test_planner_chooses_fetch_matches_per_edge():
    planner = NaivePlanner(
        _catalog(
            "orders",
            "users",
            "items",
            partitioning={"orders": ["order_id"], "users": ["user_id"]},
        )
    )
    plan = planner.plan_sql(
        "SELECT a FROM orders JOIN users ON user_id = user_id JOIN items ON item_id = item_id"
    )
    ids = _op_ids(plan)
    # users is partitioned on its join key -> Fetch Matches, no exchange;
    # items is not -> rehash edge.
    assert "fetch_join_0" in ids
    assert "join_1" in ids and "rehash_1" in ids


def test_planner_picks_bloom_rewrite_when_left_keys_are_selective(stats_catalog):
    planner = NaivePlanner(_catalog("tiny", "big", statistics=stats_catalog))
    # tiny.x has ~10 distinct keys, big.x has ~400: the filter prunes most
    # of big, so the planner should pick the Bloom rewrite.
    plan = planner.plan_sql("SELECT x FROM tiny JOIN big ON x = x")
    types = _op_types(plan)
    assert "bloom_build" in types and "bloom_probe" in types


def test_planner_threads_where_through_rehash_path():
    planner = NaivePlanner(_catalog("a", "b"))
    plan = planner.plan_sql("SELECT x FROM a JOIN b ON x = y WHERE x = 1")
    ids = _op_ids(plan)
    assert "filter_where" in ids, "WHERE must survive on the symmetric-hash path"


def test_planner_pushes_predicate_below_join_with_statistics(stats_catalog):
    planner = NaivePlanner(_catalog("big", "mid", statistics=stats_catalog))
    plan = planner.plan_sql("SELECT x FROM big JOIN mid ON z = z WHERE x = 1")
    ids = _op_ids(plan)
    assert "filter_base" in ids and "filter_where" not in ids
    # A predicate referencing a non-base column cannot be pushed down.
    plan = planner.plan_sql("SELECT x FROM big JOIN mid ON z = z WHERE w = 1")
    ids = _op_ids(plan)
    assert "filter_where" in ids and "filter_base" not in ids


def test_partitioning_equality_survives_malformed_col_node():
    planner = NaivePlanner(_catalog("t", partitioning={"t": ["k"]}))
    # A one-element ["col"] node used to raise IndexError inside find().
    malformed = ["eq", ["col"], ["lit", 5]]
    assert planner._partitioning_equality(malformed, planner._info("t")) is None
    plan = planner.plan(parse_sql("SELECT a FROM t"))
    assert plan.opgraphs[0].dissemination.strategy == "broadcast"


# -- ORDER BY null handling --------------------------------------------------------- #

def test_order_by_desc_keeps_nulls_last():
    rows = [{"n": 3}, {"n": None}, {"n": 7}, {"n": 1}, {"n": None}]
    descending = apply_result_clauses({"sql_order_by": ("n", True)}, rows)
    assert [row["n"] for row in descending] == [7, 3, 1, None, None]
    ascending = apply_result_clauses({"sql_order_by": ("n", False)}, rows)
    assert [row["n"] for row in ascending] == [1, 3, 7, None, None]


# -- end-to-end over a 20-node deployment -------------------------------------------- #

@pytest.fixture
def shop_network():
    net = PIERNetwork(20, seed=13)
    users = [Tuple.make("users", user_id=u, name=f"user{u}") for u in range(6)]
    items = [Tuple.make("items", item_id=i, price=i * 10) for i in range(4)]
    orders = [
        Tuple.make("orders", order_id=o, user_id=o % 6, item_id=o % 4) for o in range(12)
    ]
    for table, key, rows in (
        ("users", "user_id", users),
        ("items", "item_id", items),
        ("orders", "order_id", orders),
    ):
        net.create_table(table, partitioning=[key])
        net.publish(table, rows)
    net.run(2.0)
    return net


def test_three_way_join_sql_end_to_end(shop_network):
    net = shop_network
    planner = NaivePlanner(
        _catalog(
            "orders",
            "users",
            "items",
            partitioning={"orders": ["order_id"]},
            statistics=net.statistics,
        )
    )
    plan = planner.plan_sql(
        "SELECT name, user_id, price, item_id FROM orders "
        "JOIN users ON user_id = user_id "
        "JOIN items ON item_id = item_id TIMEOUT 15"
    )
    result = net.execute(plan)
    rows = result.rows()
    assert len(rows) == 12  # every order matches exactly one user and one item
    for row in rows:
        assert row["name"] == f"user{row['user_id']}"
        assert row["price"] == row["item_id"] * 10


def test_three_way_join_with_fetch_edges_and_where(shop_network):
    net = shop_network
    planner = NaivePlanner(
        _catalog(
            "orders",
            "users",
            "items",
            partitioning={"orders": ["order_id"], "users": ["user_id"], "items": ["item_id"]},
            statistics=net.statistics,
        )
    )
    plan = planner.plan_sql(
        "SELECT name, price FROM orders "
        "JOIN users ON user_id = user_id "
        "JOIN items ON item_id = item_id "
        "WHERE price > 10 TIMEOUT 15"
    )
    result = net.execute(plan)
    rows = result.rows()
    assert rows, "fetch-matches pipeline must produce rows"
    assert all(row["price"] > 10 for row in rows)
    expected = sum(1 for o in range(12) if (o % 4) * 10 > 10)
    assert len(rows) == expected


def test_where_filters_on_rehash_join_end_to_end():
    net = PIERNetwork(16, seed=21)
    net.create_table("inverted", partitioning=["keyword"])
    net.create_table("files", partitioning=["file_id"])
    net.publish(
        "inverted", [Tuple.make("inverted", keyword=f"kw{i % 3}", file_id=i) for i in range(9)]
    )
    net.publish("files", [Tuple.make("files", file_id=i, size_kb=i * 7) for i in range(9)])
    net.run(2.0)
    # The planner's catalog declares files unpartitioned, forcing the
    # rehash path.
    planner = NaivePlanner(_catalog("inverted", "files"))
    plan = planner.plan_sql(
        "SELECT file_id, keyword FROM inverted JOIN files ON file_id = file_id "
        "WHERE keyword = 'kw1' TIMEOUT 12"
    )
    types = _op_types(plan)
    assert "symmetric_hash_join" in types
    result = net.execute(plan)
    rows = result.rows()
    assert len(rows) == 3
    assert all(row["keyword"] == "kw1" for row in rows)


# -- column pruning: what each join stage carries ------------------------------------- #

def _spec(plan, operator_id):
    (spec,) = [
        graph.operators[operator_id] for graph in plan.opgraphs if operator_id in graph.operators
    ]
    return spec


def _params(plan, operator_id):
    return _spec(plan, operator_id).params


def _inputs(plan, operator_id):
    return list(_spec(plan, operator_id).inputs)


def test_needed_columns_shrink_along_a_three_way_rehash_chain():
    planner = NaivePlanner(_catalog("a", "b", "c"))
    plan = planner.plan_sql("SELECT x FROM a JOIN b ON x = y JOIN c ON z = w")
    # Stage 0 still owes both edges their keys (left and right names
    # differ, and nothing says which side has which); stage 1 only its own.
    assert _params(plan, "extend_left_0")["keep"] == ["x", "y", "z", "w"]
    assert _params(plan, "extend_inner_0")["keep"] == ["x", "y", "z", "w"]
    assert _params(plan, "extend_left_1")["keep"] == ["x", "z", "w"]
    assert _params(plan, "extend_inner_1")["keep"] == ["x", "z", "w"]
    for graph in plan.opgraphs:
        assert not any(spec.params.get("keep_all") for spec in graph.operators.values())
    # One strict projection to the select list sits ahead of the results.
    assert _params(plan, "project") == {"columns": ["x"]}
    assert _inputs(plan, "project") == ["join_1"] and _inputs(plan, "results") == ["project"]


def test_needed_columns_on_a_bloom_first_edge(stats_catalog):
    planner = NaivePlanner(_catalog("tiny", "big", statistics=stats_catalog))
    plan = planner.plan_sql("SELECT k FROM tiny JOIN big ON x = x")
    assert "bloom_build" in _op_types(plan)
    assert _params(plan, "extend_left_0")["keep"] == ["k", "x"]
    assert _params(plan, "extend_inner_0")["keep"] == ["k", "x"]
    assert _inputs(plan, "extend_inner_0") == ["probe_inner_0"]  # pruned after the filter
    assert _params(plan, "project") == {"columns": ["k"]}


def test_needed_columns_around_a_fetch_edge():
    planner = NaivePlanner(
        _catalog(
            "orders",
            "users",
            "items",
            partitioning={"orders": ["order_id"], "users": ["user_id"]},
        )
    )
    plan = planner.plan_sql(
        "SELECT a FROM orders JOIN users ON user_id = user_id JOIN items ON item_id = item_id"
    )
    # The outer stream is narrowed before the probe; the rehash edge that
    # follows narrows the joined rows to what it still needs.
    assert _params(plan, "prune_outer_0") == {"keep": ["a", "user_id", "item_id"]}
    assert _inputs(plan, "fetch_join_0") == ["prune_outer_0"]
    assert _params(plan, "extend_left_1")["keep"] == ["a", "item_id"]
    # The compact single-join shape prunes the same way.
    single = planner.plan_sql("SELECT a FROM orders JOIN users ON user_id = user_id")
    assert _params(single, "prune_outer") == {"keep": ["a", "user_id"]}
    assert _inputs(single, "fetch_join") == ["prune_outer"]
    assert _params(single, "project") == {"columns": ["a"]}


def test_only_a_residual_where_keeps_its_columns(stats_catalog):
    planner = NaivePlanner(_catalog("big", "mid", statistics=stats_catalog))
    pushed = planner.plan_sql("SELECT k FROM big JOIN mid ON z = z WHERE x = 1")
    assert "filter_base" in _op_ids(pushed)  # x is read below the join ...
    assert _params(pushed, "extend_left_0")["keep"] == ["k", "z"]  # ... so it need not travel
    residual = planner.plan_sql("SELECT k FROM big JOIN mid ON z = z WHERE w = 1")
    assert _inputs(residual, "filter_where") == ["join_0"]
    assert _params(residual, "extend_left_0")["keep"] == ["k", "w", "z"]
    assert _inputs(residual, "project") == ["filter_where"]


def test_order_by_column_is_carried_to_the_proxy():
    planner = NaivePlanner(_catalog("a", "b"))
    plan = planner.plan_sql("SELECT x FROM a JOIN b ON x = y ORDER BY q")
    assert _params(plan, "extend_left")["keep"] == ["x", "q", "y"]
    # Strict on the select list, lenient on the sort column (NULLS LAST).
    assert _params(plan, "project") == {"columns": ["x"], "keep": ["q"]}
    # A selected sort column needs no carrying; neither does a scan's.
    assert _params(planner.plan_sql("SELECT x FROM a JOIN b ON x = y ORDER BY x"), "project") == {
        "columns": ["x"]
    }
    assert _params(planner.plan_sql("SELECT x FROM a ORDER BY q"), "project") == {
        "columns": ["x"],
        "keep": ["q"],
    }


def test_aliases_rename_in_the_final_projection():
    planner = NaivePlanner(_catalog("a", "b"))
    plan = planner.plan_sql("SELECT x AS ex, v FROM a JOIN b ON x = y")
    assert _params(plan, "extend_left")["keep"] == ["x", "v", "y"]
    assert _params(plan, "project") == {"computed": {"ex": ["col", "x"], "v": ["col", "v"]}}
    assert _params(planner.plan_sql("SELECT x AS ex FROM a"), "project") == {
        "computed": {"ex": ["col", "x"]}
    }


def test_select_star_expands_when_the_catalog_knows_every_table(stats_catalog):
    planner = NaivePlanner(_catalog("big", "mid", "ghost", statistics=stats_catalog))
    plan = planner.plan_sql("SELECT * FROM big JOIN mid ON z = z")
    # Base table first, then join order, sorted within a table; a repeated
    # name also under the qualifier Tuple.join gives a differing value.
    expanded = ["k", "x", "z", "w", "mid.z"]
    assert _params(plan, "extend_left")["keep"] == expanded
    assert _params(plan, "extend_right")["keep"] == expanded
    assert _params(plan, "project") == {"keep": expanded}  # lenient: rows may be heterogeneous
    # A table the catalog has never seen: * plans as it always did.
    unknown = planner.plan_sql("SELECT * FROM big JOIN ghost ON z = z")
    assert _params(unknown, "extend_left")["keep_all"] is True
    assert "project" not in _op_ids(unknown)


def _plan_form(plan):
    """Every public field of a plan, as plain data."""
    return {
        "query_id": plan.query_id,
        "timeout": plan.timeout,
        "metadata": dict(plan.metadata),
        "opgraphs": [
            {
                "graph_id": graph.graph_id,
                "dissemination": {
                    field: getattr(graph.dissemination, field)
                    for field in ("strategy", "namespace", "key", "low", "high")
                },
                "operators": [
                    {
                        "id": spec.operator_id,
                        "type": spec.op_type,
                        "params": dict(spec.params),
                        "inputs": list(spec.inputs),
                    }
                    for spec in graph.operators.values()
                ],
            }
            for graph in plan.opgraphs
        ],
    }


def _plan_digest(built):
    import hashlib
    import json

    text = json.dumps(
        [json.loads(json.dumps(_plan_form(plan)).replace(plan.query_id, "Q")) for plan in built],
        sort_keys=True,
    )
    return hashlib.sha256(text.encode()).hexdigest()


HAND_BUILT_PREDICATE = ["eq", ["col", "a"], ["lit", 1]]


def _hand_built_steps():
    from repro.qp.plans import JoinStep

    return [
        JoinStep("t1", "a", "b", "bloom"),
        JoinStep("t2", "c", "d", "fetch"),
        JoinStep("t3", "e", "f", "rehash", "local_table"),
    ]


def test_builders_without_a_select_list_build_the_plans_they_always_built():
    """``columns=None`` is the hand-built path (and ``SELECT *`` without a
    catalog): the public fields of every public builder that plans no
    rehash — lookup, scan, both aggregations, fetch-matches, semi-join —
    must stay what it was before column pruning, so benchmarks that build
    plans by hand keep their message and byte counts.  The digest is over
    these six plans as built at the commit before the rendezvous change,
    where all eleven builders still matched the digest recorded before
    column pruning; the rehash builders have their own test below.
    Re-recorded when graph ids became query-relative (``g0``, not
    ``<query id>-g0``): with the old ids put back, the plans hash to the
    earlier digest, 4f80abcd…"""
    from repro.qp import plans, rewrites

    predicate = HAND_BUILT_PREDICATE
    built = [
        plans.equality_lookup_plan("ns", 5, predicate=predicate, columns=["a"]),
        plans.broadcast_scan_plan("t", "dht_scan", predicate, ["a", "b"]),
        plans.flat_aggregation_plan("t", ["g"], [("count", None, "n")], predicate=predicate),
        plans.hierarchical_aggregation_plan("t", ["g"], [("count", None, "n")]),
        plans.fetch_matches_join_plan("o", "i", ["a"], outer_predicate=predicate, output_table="x"),
        rewrites.semi_join_plan("o", "idx", "inner", ["a"], outer_predicate=predicate),
    ]
    for plan in built[4:]:
        assert not {"project", "prune_outer", "prune_pointers", "prune_outer_1"} & _op_ids(plan)
        for graph in plan.opgraphs:
            assert not any("keep" in spec.params for spec in graph.operators.values())
    assert _plan_digest(built) == "0c65da8bab8662ac09cc9463d9b573a753b118aab8e41b1620e16b0276a3dbc3"


def test_rehash_builders_without_a_select_list_build_the_recorded_tag_and_key_plans():
    """The rehash, bloom and multi-join builders with ``columns=None``.
    Their digest was re-recorded on purpose when the side marker and the
    key column left the rehashed row: the left stream is retagged instead
    of stamped, one two-input ``put`` keyed per slot replaces the union /
    the two puts, and the consumer is ``scan_rehash -> join`` with no
    splits.  Still no keep list and no final projection on this path.
    Re-recorded again when graph ids became query-relative (``g0``, not
    ``<query id>-g0``): with the old ids put back, the plans hash to the
    earlier digest, ee07cf02…"""
    from repro.qp import plans, rewrites

    predicate = HAND_BUILT_PREDICATE
    steps = _hand_built_steps()
    built = [
        plans.symmetric_hash_join_plan("l", "r", ["a"], ["b"], predicate=predicate, output_table="o"),
        plans.symmetric_hash_join_plan("l", "r", ["a", "c"], ["b", "d"], source="local_table"),
        plans.multi_join_plan("b", steps, predicate=predicate, output_table="o"),
        plans.multi_join_plan("b", steps, predicate=predicate, predicate_pushdown=True),
        rewrites.bloom_join_plan("l", "r", ["a"], ["b"], output_table="o"),
    ]
    for plan in built:
        assert not {"project", "prune_outer", "prune_pointers", "prune_outer_1"} & _op_ids(plan)
        assert not {"extend_right", "extend_inner_0", "extend_inner_2"} & _op_ids(plan)
        for graph in plan.opgraphs:
            assert not any("keep" in spec.params for spec in graph.operators.values())
    assert _plan_digest(built) == "474d2751accfadb674909bdb4e5fc4375d19c1e70755866e9869a0560410d6ff"


# -- the rendezvous path: table tag + put key, no marker columns ------------------------ #

def _assert_rehash_edge(plan, suffix, left, right, left_key, right_key, keep, output_table):
    """One rehash edge: a retagging projection on the left stream, at most
    a prune on the right, one two-input put keyed per slot, and a consumer
    opgraph that is scan -> join with nothing between."""
    tag = f"__left{suffix}__"
    inner = f"extend_inner{suffix}" if suffix else "extend_right"
    narrowing = {"keep_all": True} if keep is None else {"keep": keep}
    assert _params(plan, f"extend_left{suffix}") == {**narrowing, "table": tag}
    assert _inputs(plan, f"extend_left{suffix}") == [left]
    if keep is None:
        assert inner not in _op_ids(plan)  # the inner stream goes to the put as it is
    else:
        assert _params(plan, inner) == {"keep": keep} and _inputs(plan, inner) == [right]
        right = inner
    rendezvous = _params(plan, f"rehash{suffix}")["namespace"]
    assert _params(plan, f"rehash{suffix}") == {
        "namespace": rendezvous,
        "key_columns": [[left_key], [right_key]],
    }
    assert _inputs(plan, f"rehash{suffix}") == [f"extend_left{suffix}", right]
    assert _params(plan, f"scan_rehash{suffix}") == {"namespace": rendezvous, "scoped": True}
    assert _params(plan, f"join{suffix}") == {
        "left_columns": [left_key],
        "right_columns": [right_key],
        "left_table": tag,
        "output_table": output_table,
    }
    assert _inputs(plan, f"join{suffix}") == [f"scan_rehash{suffix}"]


def _assert_no_markers(plan):
    text = str(_plan_form(plan))
    assert "__join_key__" not in text and "__source_table__" not in text
    assert not [i for i in _op_ids(plan) if i.startswith(("split_", "union_", "rehash_left", "rehash_inner"))]


def test_rehash_edges_tag_the_left_stream_and_key_the_put_on_a_three_way_join():
    planner = NaivePlanner(_catalog("a", "b", "c"))
    plan = planner.plan_sql("SELECT x FROM a JOIN b ON x = y JOIN c ON z = w")
    # ON x = y, ON z = w: each side is keyed on its own column name.
    _assert_rehash_edge(
        plan, "_0", "scan_base", "scan_inner_0", "x", "y", ["x", "y", "z", "w"], "a*b"
    )
    _assert_rehash_edge(plan, "_1", "join_0", "scan_inner_1", "z", "w", ["x", "z", "w"], "a*b*c")
    _assert_no_markers(plan)
    assert [len(graph.operators) for graph in plan.opgraphs] == [5, 6, 4]


def test_rehash_edge_behind_a_bloom_filter(stats_catalog):
    planner = NaivePlanner(_catalog("tiny", "big", statistics=stats_catalog))
    plan = planner.plan_sql("SELECT k FROM tiny JOIN big ON x = x")
    assert "bloom_build" in _op_types(plan)
    # The inner rows are pruned after the filter, then share the put.
    _assert_rehash_edge(plan, "_0", "scan_base", "probe_inner_0", "x", "x", ["k", "x"], "tiny*big")
    _assert_no_markers(plan)


def test_rehash_edges_before_and_after_a_fetch_edge():
    from repro.qp.plans import JoinStep, multi_join_plan

    after_fetch = multi_join_plan(
        "o", [JoinStep("u", "uid", "id", "fetch"), JoinStep("i", "iid", "sku")], columns=["n"]
    )
    # The fetch join names its rows o*u itself; the rehash edge after it
    # spells the same name out statically.
    assert _params(after_fetch, "fetch_join_0")["output_table"] is None
    _assert_rehash_edge(
        after_fetch, "_1", "fetch_join_0", "scan_inner_1", "iid", "sku", ["n", "iid", "sku"], "o*u*i"
    )
    before_fetch = multi_join_plan(
        "o",
        [JoinStep("i", "iid", "sku"), JoinStep("u", "uid", "id", "fetch")],
        columns=["n"],
        output_table="answer",
    )
    _assert_rehash_edge(
        before_fetch, "_0", "scan_base", "scan_inner_0", "iid", "sku",
        ["n", "iid", "sku", "uid", "id"], "o*i",
    )
    # The probe runs in the consumer opgraph, on rows already named o*i.
    assert _inputs(before_fetch, "prune_outer_1") == ["join_0"]
    assert _params(before_fetch, "fetch_join_1")["output_table"] == "answer"
    for plan in (after_fetch, before_fetch):
        _assert_no_markers(plan)


def test_rehash_edge_without_a_select_list_retags_whole_rows():
    from repro.qp.plans import JoinStep, multi_join_plan, symmetric_hash_join_plan
    from repro.qp.rewrites import bloom_join_plan

    single = symmetric_hash_join_plan("l", "r", ["a"], ["b"])
    _assert_rehash_edge(single, "", "scan_left", "scan_right", "a", "b", None, "l*r")
    named = symmetric_hash_join_plan("l", "r", ["a"], ["b"], output_table="o")
    assert _params(named, "join")["output_table"] == "o"
    bloom = bloom_join_plan("l", "r", ["a"], ["b"])
    _assert_rehash_edge(bloom, "", "scan_left", "probe_right", "a", "b", None, "l*r")
    multi = multi_join_plan("l", [JoinStep("r", "a", "b")])
    _assert_rehash_edge(multi, "_0", "scan_base", "scan_inner_0", "a", "b", None, "l*r")
    for plan in (single, named, bloom, multi):
        _assert_no_markers(plan)
    # A composite key: one list of columns per side, in order.
    composite = symmetric_hash_join_plan("l", "r", ["a", "c"], ["b", "d"])
    assert _params(composite, "rehash")["key_columns"] == [["a", "c"], ["b", "d"]]
    assert _params(composite, "join")["left_columns"] == ["a", "c"]
    assert _params(composite, "join")["right_columns"] == ["b", "d"]


# -- column pruning end to end -------------------------------------------------------- #

SHOP_COLUMNS = ["order_id", "user_id", "item_id", "name", "price"]
SHOP_STRATEGIES = {"rehash": ("rehash", "rehash"), "bloom": ("bloom", "rehash"), "fetch": ("fetch", "fetch")}


def _shop_join(net, strategies, columns):
    from repro.qp.plans import JoinStep, multi_join_plan

    steps = [
        JoinStep("users", "user_id", "user_id", strategies[0]),
        JoinStep("items", "item_id", "item_id", strategies[1]),
    ]
    return net.execute(multi_join_plan("orders", steps, timeout=8.0, columns=columns)).rows()


@pytest.mark.parametrize("strategy", sorted(SHOP_STRATEGIES))
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(subset=st.sets(st.sampled_from(SHOP_COLUMNS), min_size=1))
def test_pruned_join_equals_select_star_projected(shop_network, strategy, subset):
    """Whatever the select list, shipping only what it needs changes no
    answer: the pruned rows are the whole-row answer cut to that list."""
    strategies = SHOP_STRATEGIES[strategy]
    whole = getattr(shop_network, "_whole_rows", None)
    if whole is None:  # one whole-row run per deployment, shared by the examples
        whole = shop_network._whole_rows = _shop_join(shop_network, strategies, None)
        assert len(whole) == 12
    columns = sorted(subset)
    pruned = _shop_join(shop_network, strategies, columns)
    assert all(sorted(row) == columns for row in pruned)
    assert Counter(tuple(row[c] for c in columns) for row in pruned) == Counter(
        tuple(row[c] for c in columns) for row in whole
    )


@pytest.fixture
def market_network():
    """A catalog-planned deployment whose joins use all three strategies:
    ``users`` is indexed on its join key (fetch), ``items`` is not
    (rehash), and ``catalogue`` has far more keys than ``orders`` (bloom)."""
    net = PIERNetwork(16, seed=5)
    net.create_table("orders", partitioning=["order_id"])
    net.create_table("users", partitioning=["user_id"])
    net.create_table("items", partitioning=["sku"])
    net.create_table("catalogue", partitioning=["sku"])
    net.publish(
        "orders",
        [Tuple.make("orders", order_id=o, user_id=o % 6, item_id=o % 4, note=f"n{o}") for o in range(12)],
    )
    net.publish("users", [Tuple.make("users", user_id=u, name=f"user{u}") for u in range(6)])
    net.publish("items", [Tuple.make("items", sku=f"s{i}", item_id=i, price=i * 10) for i in range(4)])
    net.publish(
        "catalogue", [Tuple.make("catalogue", sku=f"c{i}", item_id=i, shelf=i % 3) for i in range(24)]
    )
    net.run(2.0)
    return net


MARKET_JOINS = {
    ("fetch", "rehash"): "orders JOIN users ON user_id = user_id JOIN items ON item_id = item_id",
    ("bloom",): "orders JOIN catalogue ON item_id = item_id",
    ("rehash",): "orders JOIN items ON item_id = item_id",
    ("fetch",): "orders JOIN users ON user_id = user_id",
}


@pytest.mark.parametrize("strategies", sorted(MARKET_JOINS))
def test_internal_columns_never_reach_a_client(market_network, strategies):
    net = market_network
    joins = MARKET_JOINS[strategies]
    decisions = net.plan_sql(f"SELECT note, item_id FROM {joins}").metadata["planner"]
    assert sorted(edge["strategy"] for edge in decisions["joins"]) == sorted(strategies)
    named = net.query(f"SELECT note, item_id FROM {joins} TIMEOUT 8")
    assert len(named) == 12
    assert all(sorted(row) == ["item_id", "note"] for row in named.rows())
    star = net.query(f"SELECT * FROM {joins} TIMEOUT 8")
    assert len(star) == 12
    tables = ["orders"] + [part.split()[0] for part in joins.split(" JOIN ")[1:]]
    user_columns = set().union(*(net.statistics.columns(table) for table in tables))
    for row in star.rows():
        assert not [column for column in row if is_internal_column(column)]
        assert set(row) == user_columns


def test_unknown_select_column_on_a_join_returns_nothing_and_counts_the_drops(market_network):
    net = market_network
    result = net.query("SELECT nosuch FROM orders JOIN items ON item_id = item_id TIMEOUT 8")
    assert result.rows() == []  # exactly what a scan of a missing column does
    dropped = sum(
        installed.operators["project"].stats.tuples_dropped
        for node in net.nodes
        for installed in node.executor.installed_graphs()
        if installed.query_id == result.query_id and "project" in installed.operators
    )
    assert dropped == 12


def test_aliases_and_unselected_order_by_on_scans_and_joins(market_network):
    net = market_network
    scan = net.query("SELECT name AS who FROM users ORDER BY user_id DESC TIMEOUT 6")
    # The alias names the column; the sort column rides along to the proxy.
    assert [row["who"] for row in scan.rows()] == [f"user{u}" for u in (5, 4, 3, 2, 1, 0)]
    assert all(sorted(row) == ["user_id", "who"] for row in scan.rows())
    join = net.query(
        "SELECT note AS memo FROM orders JOIN items ON item_id = item_id ORDER BY price LIMIT 3 TIMEOUT 8"
    )
    assert [row["price"] for row in join.rows()] == [0, 0, 0]
    assert all(sorted(row) == ["memo", "price"] for row in join.rows())
