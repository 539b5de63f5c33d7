"""Tests for opgraph/plan structures."""

import pytest

from repro.qp.opgraph import DisseminationSpec, OpGraph, OperatorSpec, QueryPlan


def _simple_plan():
    plan = QueryPlan(timeout=12.0)
    graph = plan.new_graph()
    graph.add_operator("scan", "local_table", {"table": "events"})
    graph.add_operator("select", "selection", {"predicate": ["true"]}, inputs=["scan"])
    graph.add_operator("results", "result_handler", {}, inputs=["select"])
    return plan


def test_topological_order_respects_edges():
    plan = _simple_plan()
    order = [spec.operator_id for spec in plan.opgraphs[0].topological_order()]
    assert order.index("scan") < order.index("select") < order.index("results")


def test_sources_and_sinks():
    graph = _simple_plan().opgraphs[0]
    assert [s.operator_id for s in graph.sources()] == ["scan"]
    assert [s.operator_id for s in graph.sinks()] == ["results"]


def test_duplicate_operator_ids_rejected():
    graph = OpGraph("g")
    graph.add_operator("a", "tee")
    with pytest.raises(ValueError):
        graph.add_operator("a", "tee")


def test_unknown_input_reference_rejected():
    graph = OpGraph("g")
    graph.add_operator("a", "selection", {"predicate": ["true"]}, inputs=["ghost"])
    with pytest.raises(ValueError):
        graph.validate()


def test_cycles_are_rejected():
    graph = OpGraph("g")
    graph.add_operator("a", "tee", inputs=["b"])
    graph.add_operator("b", "tee", inputs=["a"])
    with pytest.raises(ValueError):
        graph.validate()


def test_dissemination_spec_validation():
    with pytest.raises(ValueError):
        DisseminationSpec(strategy="teleport")
    spec = DisseminationSpec(strategy="equality", namespace="t", key="k")
    assert spec.key == "k"


def test_query_ids_are_unique():
    assert QueryPlan().query_id != QueryPlan().query_id


def test_operator_spec_with_params_is_nonmutating():
    spec = OperatorSpec("a", "selection", {"predicate": ["true"]})
    updated = spec.with_params(limit=3)
    assert "limit" not in spec.params and updated.params["limit"] == 3

