"""A repeated plan travels by reference.

Every node keeps the broadcast opgraphs it received as a template, filed
under the digest it computes itself, for one retention after their last
use.  A proxy whose own node holds a query's template live sends the
query down the distribution tree as a header (query id, deadline, proxy,
settings, digest); a node that cannot resolve a header asks the proxy,
which answers with the full envelope.  Either way a query answers what
its full-envelope twin answers.
"""

from __future__ import annotations

from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro import PIERNetwork
from repro.qp.dissemination import query_envelope
from repro.qp.executor import FINISHED_RETENTION
from repro.qp.opgraph import DIGEST_BYTES, QueryEnvelope
from repro.qp.plans import broadcast_scan_plan, equality_lookup_plan
from repro.qp.tuples import Tuple
from repro.runtime.codec import MAX_DATAGRAM, decode, encode
from repro.runtime.sizing import wire_size

RELEASED_AFTER = FINISHED_RETENTION + 10.0 + 1.0
SCAN = "SELECT v FROM t0 WHERE v > 2 TIMEOUT {timeout}"
STATEMENTS = (
    SCAN,
    "SELECT v, w FROM t0 JOIN t1 ON k = k TIMEOUT {timeout}",
    "SELECT k, COUNT(*) AS n FROM t0 GROUP BY k TIMEOUT {timeout}",
)


def deployment(nodes: int, seed: int = 3) -> PIERNetwork:
    net = PIERNetwork(nodes, seed=seed)
    net.create_table("t0", partitioning=["v"])
    net.create_table("t1", partitioning=["w"])
    net.publish("t0", [Tuple.make("t0", v=i, k=i % 4) for i in range(24)])
    net.publish("t1", [Tuple.make("t1", w=i, k=i) for i in range(3)])
    net.run(2.0)
    return net


def answer(result) -> List[str]:  # noqa: ANN001
    return sorted(repr(sorted(row.items())) for row in result.rows())


def counters(net: PIERNetwork) -> Dict[str, int]:
    metrics = net.metrics()
    return {
        name: metrics[f"dissemination.{name}"]
        for name in ("templates_full", "templates_by_reference", "template_misses")
    }


# -- the envelope forms ------------------------------------------------------------------------ #
def test_a_header_is_the_envelope_with_its_template_replaced_by_the_digest():
    plan = broadcast_scan_plan("t0", "dht_scan", timeout=5.0)
    plan.metadata["exchange_batch_size"] = 8
    full = query_envelope(plan, plan.opgraphs, proxy_address=3, deadline=12.5)
    header = full.reference()
    assert header.by_reference and not full.by_reference
    assert len(header.digest) == DIGEST_BYTES and header.digest == full.digest
    assert header.fields()[:4] == full.fields()[:4]
    assert wire_size(header) < 80 < wire_size(full)
    # Codec-native both ways, and the digest is computed from what arrived.
    for envelope in (full, header):
        decoded = decode(encode(envelope))
        assert isinstance(decoded, QueryEnvelope) and decoded == envelope
        assert decoded.digest == full.digest
    with pytest.raises(ValueError, match="header"):
        header.decoded()
    # Graph ids are query-relative: another query of the statement has the
    # same template.
    again = broadcast_scan_plan("t0", "dht_scan", timeout=9.0)
    assert again.query_id != plan.query_id
    assert query_envelope(again, again.opgraphs, 0, 1.0).digest == full.digest
    assert [graph.graph_id for graph in again.opgraphs] == ["g0"]


# -- the send rule and the cache ---------------------------------------------------------------- #
def test_a_repeat_goes_by_reference_and_answers_the_same():
    net = deployment(16)
    first = net.query(SCAN.format(timeout=4), proxy=1)
    assert counters(net) == {"templates_full": 1, "templates_by_reference": 0, "template_misses": 0}
    assert all(len(node.templates) == 1 for node in net.nodes)
    second = net.query(SCAN.format(timeout=6), proxy=9)  # another proxy, another timeout
    assert counters(net) == {"templates_full": 1, "templates_by_reference": 1, "template_misses": 0}
    assert answer(second) == answer(first) and len(first) == 21
    assert second.completed_by == "data" and second.coverage == 1.0
    # Every node ran the repeat from its kept template.
    assert all(
        any(graph.query_id == second.query_id for graph in node.executor.installed_graphs())
        for node in net.nodes
    )


def test_templates_expire_one_retention_after_their_last_use():
    net = deployment(8)
    net.query(SCAN.format(timeout=4))
    net.run(RELEASED_AFTER)
    assert all(len(node.templates) == 0 for node in net.nodes)
    net.query(SCAN.format(timeout=4))  # nobody holds it: the template goes in full
    assert counters(net)["templates_full"] == 2
    assert counters(net)["templates_by_reference"] == 0


# -- the miss path ------------------------------------------------------------------------------ #
def test_a_node_whose_templates_were_cleared_installs_through_the_proxy():
    net = deployment(12)
    first = net.query(SCAN.format(timeout=4), proxy=2)
    forgetful = net.nodes[7]
    forgetful.templates._templates.clear()
    forgetful.templates._used.clear()
    installs = forgetful.executor.graphs_installed
    second = net.query(SCAN.format(timeout=4), proxy=2)
    assert counters(net) == {"templates_full": 1, "templates_by_reference": 1, "template_misses": 1}
    assert forgetful.executor.graphs_installed == installs + 1
    assert len(forgetful.templates) == 1  # the proxy's answer was filed
    assert answer(second) == answer(first)
    # The answer stands in for the tree: the node reported its progress,
    # so the query still ended from its data.
    assert second.completed_by == "data" and second.coverage == 1.0


def test_a_node_that_was_down_for_the_first_broadcast_installs_through_the_proxy():
    net = deployment(12)
    absent = 5
    net.fail_node(absent)
    net.run(1.0)
    net.query(SCAN.format(timeout=4), proxy=0)
    assert len(net.node(absent).templates) == 0
    net.recover_node(absent)
    net.run(2.0)
    installs = net.node(absent).executor.graphs_installed
    repeat = net.query(SCAN.format(timeout=4), proxy=0)
    assert counters(net)["template_misses"] == 1
    assert net.node(absent).executor.graphs_installed == installs + 1
    # Every row is back once the node is: the repeat answers the full table.
    assert sorted(row["v"] for row in repeat.rows()) == list(range(3, 24))
    assert repeat.coverage == 1.0


def test_a_finished_or_unknown_query_gets_no_template():
    net = deployment(8)
    net.query(SCAN.format(timeout=4), proxy=0)
    finished = net.query(SCAN.format(timeout=4), proxy=0)
    ((digest, _decoded),) = net.nodes[0].templates.items()
    node = net.nodes[4]
    node.templates._templates.clear()
    node.templates._used.clear()
    for query_id in (finished.query_id, "q-never-submitted"):
        header = QueryEnvelope(query_id, net.now + 5.0, net.nodes[0].address, {}, digest)
        node._install_envelope(header, True)
    net.run(1.0)
    assert counters(net)["template_misses"] == 2
    assert len(node.templates) == 0  # no answer came back to file


# -- a by-reference query answers what its full-envelope twin answers ---------------------------- #
@settings(max_examples=10, deadline=None)
@given(
    nodes=st.integers(4, 24),
    runs=st.lists(
        st.tuples(
            st.integers(0, len(STATEMENTS) - 1), st.sampled_from([3, 4]), st.integers(0, 23)
        ),
        min_size=2,
        max_size=5,
    ),
)
def test_by_reference_answers_equal_their_full_twins(nodes, runs):
    net = deployment(nodes, seed=nodes)
    twins: Dict[int, List[str]] = {}
    for statement, timeout, proxy in runs:
        before = counters(net)
        result = net.query(STATEMENTS[statement].format(timeout=timeout), proxy=proxy % nodes)
        after = counters(net)
        assert after["template_misses"] == before["template_misses"]
        if statement in twins:
            assert after["templates_by_reference"] == before["templates_by_reference"] + 1
            assert answer(result) == twins[statement]
        else:
            assert after["templates_full"] == before["templates_full"] + 1
            twins[statement] = answer(result)


# -- an envelope that no datagram can carry ------------------------------------------------------- #
def oversized(plan_of):  # noqa: ANN001
    """A plan whose predicate alone is larger than one datagram."""
    return plan_of(["eq", ["col", "v"], ["lit", "x" * MAX_DATAGRAM]])


@pytest.mark.parametrize(
    "plan_of",
    [
        lambda predicate: broadcast_scan_plan("t0", "dht_scan", predicate=predicate, timeout=4.0),
        lambda predicate: equality_lookup_plan("t0", 5, predicate=predicate, timeout=4.0),
    ],
    ids=["broadcast", "equality"],
)
def test_an_envelope_over_one_datagram_is_refused_before_anything_is_sent(plan_of):
    net = deployment(6)
    plan = oversized(plan_of)
    sent = net.environment.stats.messages_sent
    with pytest.raises(ValueError, match="datagram"):
        net.execute(plan)
    assert net.environment.stats.messages_sent == sent
    assert net.nodes[0].proxy.query(plan.query_id) is None
    assert not any(node.executor.installed_graphs() for node in net.nodes)
