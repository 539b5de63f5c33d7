"""Tests for the SQL lexer, parser, and naive planner."""

import pytest

from repro import Catalog

from repro.sql.lexer import SQLSyntaxError, tokenize
from repro.sql.parser import parse_sql
from repro.sql.planner import NaivePlanner, PlanningError, apply_result_clauses


def test_tokenize_classifies_tokens():
    tokens = tokenize("SELECT a, COUNT(*) FROM t WHERE b = 'x''y' AND c >= 3.5")
    kinds = [token.kind for token in tokens]
    assert "keyword" in kinds and "identifier" in kinds and "string" in kinds and "number" in kinds
    string_token = next(token for token in tokens if token.kind == "string")
    assert string_token.value == "x'y"


def test_tokenize_rejects_garbage():
    with pytest.raises(SQLSyntaxError):
        tokenize("SELECT # FROM t")


def test_parse_simple_select():
    statement = parse_sql("SELECT src, dst FROM packets WHERE proto = 'tcp' LIMIT 5 TIMEOUT 9")
    assert [item.expression for item in statement.select_items] == ["src", "dst"]
    assert statement.table == "packets"
    assert statement.limit == 5 and statement.timeout == 9.0
    assert statement.where == ["eq", ["col", "proto"], ["lit", "tcp"]]


def test_parse_aggregates_group_by_order_by():
    statement = parse_sql(
        "SELECT source_ip, COUNT(*) AS events FROM firewall_events "
        "GROUP BY source_ip ORDER BY events DESC"
    )
    assert statement.has_aggregates
    assert statement.group_by == ["source_ip"]
    assert statement.order_by == ("events", True)
    aggregate = statement.select_items[1]
    assert aggregate.aggregate == "count" and aggregate.output_name == "events"


def test_parse_join_and_qualified_columns():
    statement = parse_sql(
        "SELECT i.file_id FROM inverted i JOIN files f ON i.file_id = f.file_id "
        "WHERE keyword = 'rock'"
    )
    assert statement.join is not None
    assert statement.join.table == "files"
    assert statement.join.left_column == "file_id"


def test_parse_complex_predicates():
    statement = parse_sql(
        "SELECT * FROM t WHERE (a = 1 OR b BETWEEN 2 AND 9) AND NOT c IN (1, 2, 3)"
    )
    assert statement.where[0] == "and"


@pytest.mark.parametrize(
    "bad",
    [
        "SELECT FROM t",
        "SELECT a FROM",
        "SELECT a FROM t WHERE",
        "SELECT a FROM t GROUP a",
        "SELECT a t",
        "SELECT a FROM t WHERE a LIKE 'x'",
    ],
)
def test_parse_rejects_malformed_queries(bad):
    with pytest.raises(SQLSyntaxError):
        parse_sql(bad)


# -- planner ------------------------------------------------------------------- #

@pytest.fixture
def planner():
    catalog = Catalog()
    catalog.create_table("inverted", partitioning=["keyword"])
    catalog.create_table("files", partitioning=["file_id"])
    catalog.create_table("firewall_events", source="local")
    return NaivePlanner(catalog)


def test_planner_uses_equality_index_on_partitioning_key(planner):
    plan = planner.plan_sql("SELECT filename FROM inverted WHERE keyword = 'rock'")
    assert plan.opgraphs[0].dissemination.strategy == "equality"
    assert plan.opgraphs[0].dissemination.key == "rock"


def test_planner_broadcasts_non_key_predicates(planner):
    plan = planner.plan_sql("SELECT filename FROM inverted WHERE filename = 'a.mp3'")
    assert plan.opgraphs[0].dissemination.strategy == "broadcast"


def test_planner_local_table_scan(planner):
    plan = planner.plan_sql("SELECT source_ip FROM firewall_events WHERE protocol = 'tcp'")
    ops = plan.opgraphs[0].operators
    assert any(spec.op_type == "local_table" for spec in ops.values())


def test_planner_aggregation_flat_and_hierarchical(planner):
    sql = "SELECT source_ip, COUNT(*) AS events FROM firewall_events GROUP BY source_ip"
    flat = planner.plan_sql(sql)
    assert len(flat.opgraphs) == 2
    hierarchical = NaivePlanner(planner.catalog, aggregation_strategy="hierarchical").plan_sql(sql)
    types = {spec.op_type for g in hierarchical.opgraphs for spec in g.operators.values()}
    assert "hierarchical_aggregate" in types


def test_planner_group_by_without_aggregate_is_an_error(planner):
    with pytest.raises(PlanningError):
        planner.plan_sql("SELECT source_ip FROM firewall_events GROUP BY source_ip")


def test_planner_join_picks_fetch_matches_when_inner_index_matches(planner):
    plan = planner.plan_sql(
        "SELECT file_id FROM inverted i JOIN files f ON file_id = file_id WHERE keyword = 'a'"
    )
    types = {spec.op_type for g in plan.opgraphs for spec in g.operators.values()}
    assert "fetch_matches_join" in types


def test_planner_join_falls_back_to_rehash_join(planner):
    plan = planner.plan_sql(
        "SELECT file_id FROM inverted i JOIN files f ON file_id = size_kb"
    )
    types = {spec.op_type for g in plan.opgraphs for spec in g.operators.values()}
    assert "symmetric_hash_join" in types


def test_planner_unknown_table_is_a_planning_error(planner):
    with pytest.raises(PlanningError, match="create_table"):
        planner.plan_sql("SELECT a FROM mystery_table")


def test_apply_result_clauses_orders_and_limits():
    rows = [{"n": 3}, {"n": 1}, {"n": 7}]
    metadata = {"sql_order_by": ("n", True), "sql_limit": 2}
    assert apply_result_clauses(metadata, rows) == [{"n": 7}, {"n": 3}]


def test_sql_end_to_end_over_network(small_network):
    """SQL text -> plan -> execution over the simulated deployment."""
    from repro.qp.tuples import Tuple

    net = small_network
    net.create_table("firewall_events", source="local")
    for address in range(len(net)):
        net.register_local_table(
            address, "firewall_events",
            [Tuple.make("firewall_events", source_ip=f"1.2.3.{address % 3}", protocol="tcp")] * 2,
        )
    planner = NaivePlanner(net.catalog)
    plan = planner.plan_sql(
        "SELECT source_ip, COUNT(*) AS events FROM firewall_events GROUP BY source_ip TIMEOUT 12"
    )
    result = net.execute(plan)
    counts = {row["source_ip"]: row["events"] for row in result.rows()}
    assert sum(counts.values()) == 2 * len(net)
