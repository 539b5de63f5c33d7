"""EXPLAIN ANALYZE end to end, plus the cross-runtime span-topology
parity pin: the same workload traced under the simulator and under real
loopback sockets must produce the same span-name topology."""

from __future__ import annotations

import re

import pytest

from repro import PIERNetwork
from repro.qp.tuples import Tuple

FACT_ROWS = 36
K_KEYS = 4
J_KEYS = 6

THREE_WAY_JOIN = (
    "SELECT k FROM fact JOIN dim_k ON k = k JOIN dim_j ON j = j TIMEOUT 20"
)


def _join_network() -> PIERNetwork:
    network = PIERNetwork(8, seed=31)
    network.create_table("fact", partitioning=["f_id"])
    network.create_table("dim_k", partitioning=["dk_id"])
    network.create_table("dim_j", partitioning=["dj_id"])
    network.publish(
        "fact",
        [
            Tuple.make("fact", f_id=i, k=i % K_KEYS, j=i % J_KEYS, v=i)
            for i in range(FACT_ROWS)
        ],
    )
    network.publish(
        "dim_k", [Tuple.make("dim_k", dk_id=i, k=i, k_name=f"c{i}") for i in range(K_KEYS)]
    )
    network.publish(
        "dim_j", [Tuple.make("dim_j", dj_id=i, j=i, j_name=f"s{i}") for i in range(J_KEYS)]
    )
    network.run(3.0)
    return network


def test_explain_analyze_annotates_three_way_join():
    network = _join_network()
    result = network.query(THREE_WAY_JOIN, analyze=True)
    assert len(result) == FACT_ROWS

    report = result.explain
    assert report.startswith("EXPLAIN ANALYZE")
    # Every join edge shows the planner's estimate next to the measured
    # actual, with the smoothed misestimation ratio.
    estimate_lines = [
        line for line in report.splitlines() if "estimated" in line and "actual" in line
    ]
    assert len(estimate_lines) == 2, report
    for line in estimate_lines:
        assert "rows" in line
        assert "estimation error" in line
        assert ("over" in line) or ("under" in line)
    # Operator annotations carry the measured rows / messages / bytes /
    # busy time; tracing was on (analyze=True), so byte and time actuals
    # are present, not just the always-on counters.
    assert "[actual: rows in=" in report
    assert "messages=" in report
    assert "bytes=" in report
    assert "busy=" in report
    assert "nodes=" in report
    # Row actuals count tuples, not the batches they travel in: the
    # per-edge numbers are what tuple-at-a-time execution reported.
    rows = {
        operator: (int(rows_in), int(rows_out))
        for operator, rows_in, rows_out in re.findall(
            r"(\w+): \w+\([^\n]*\n[ |]*\[actual: rows in=(\d+) out=(\d+)", report
        )
    }
    # The rendezvous scan feeds the join directly: no split in between.
    assert rows["scan_rehash_0"] == (0, 40) and rows["join_0"] == (40, 36)
    assert rows["scan_rehash_1"] == (0, 42) and rows["join_1"] == (42, 36)
    assert not [operator for operator in rows if operator.startswith("split_")]
    # One exchange per edge takes both streams: 36 joined rows + 6 of the
    # second dimension.
    assert rows["rehash_1"] == (42, 0) and rows["results"] == (36, 0)
    assert all("actual 36 rows" in line for line in estimate_lines)

    # The same report is reachable post-hoc from the result handle.
    assert network.explain_analyze(result) == report


def test_explain_analyze_rejects_unknown_query():
    network = PIERNetwork(4, seed=32)
    with pytest.raises(ValueError):
        network.explain_analyze("no-such-query")


def test_sampled_out_queries_run_untraced():
    network = _join_network()
    network.enable_tracing(sample_rate=0.0)
    result = network.query(THREE_WAY_JOIN, include_explain=False)
    assert len(result) == FACT_ROWS
    assert network.tracer.spans() == []
    # Sampling is decided at submit: no context was minted at all.
    assert network.tracer.spans_dropped == 0


PARITY_QUERY = "SELECT source, COUNT(*) AS hits FROM events GROUP BY source TIMEOUT 2"

# The trace-scoped topology every mode must produce for this workload.
EXPECTED_TOPOLOGY = {
    "query.submit",
    "query.disseminate",
    "opgraph.install",
    "operator.work",
    "dht.lookup",
    "dht.route_choice",
    "transport.send",
    "query.finish",
}


def _traced_span_names(mode: str):
    # 12 distinct partition keys: the rows (and the rehashed partials)
    # spread across the ring, so some puts are owner-remote and the trace
    # deterministically exercises routed hops in both modes — with only a
    # couple of keys, whether anything routes is placement luck.
    network = PIERNetwork(5, seed=7, mode=mode)
    try:
        network.enable_tracing()
        network.create_table("events", partitioning=["source"])
        network.publish(
            "events",
            [Tuple.make("events", source=f"10.0.0.{i % 12}", event_id=i) for i in range(24)],
        )
        network.run(0.5)
        result = network.query(PARITY_QUERY, include_explain=False)
        assert len(result) == 12
        return network.tracer.span_names(f"t-{result.query_id}")
    finally:
        network.close()


def test_span_topology_identical_across_runtimes():
    """The acceptance bar for mode-independent tracing: the simulator and
    the physical loopback runtime record the same span-name set for the
    same traced workload."""
    simulated = _traced_span_names("simulated")
    physical = _traced_span_names("physical")
    assert simulated == physical == EXPECTED_TOPOLOGY
