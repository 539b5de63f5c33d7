"""Query-processing ablations from DESIGN.md:

* A2 — join strategy trade-offs (symmetric-hash rehash vs Fetch Matches
  index join vs Bloom join): bytes shipped across the network vs answer
  completeness, as a function of how selective the query is.
* A3 — flat (rehash) vs hierarchical aggregation: maximum in-bandwidth at
  any single node.
* A4 — query dissemination: broadcast tree vs equality-predicate index.
"""

from __future__ import annotations

from conftest import print_table

from repro import PIERNetwork
from repro.qp.plans import (
    JoinStep,
    equality_lookup_plan,
    broadcast_scan_plan,
    fetch_matches_join_plan,
    flat_aggregation_plan,
    hierarchical_aggregation_plan,
    multi_join_plan,
    symmetric_hash_join_plan,
)
from repro.qp.tuples import Tuple

SEED = 303


# --------------------------------------------------------------------------- #
# A2: join strategies                                                          #
# --------------------------------------------------------------------------- #
def _join_workload(network, selective_fraction=0.1):
    """Publish an inverted index and a files table; only a fraction of the
    postings satisfy the query predicate (selectivity knob)."""
    postings = []
    selective_cutoff = int(200 * selective_fraction)
    for index in range(200):
        postings.append(
            Tuple.make(
                "bench_inverted",
                keyword="hot" if index < selective_cutoff else f"cold{index % 17}",
                file_id=index,
            )
        )
    files = [Tuple.make("bench_files", file_id=index, size_kb=index) for index in range(200)]
    network.create_table("bench_inverted", partitioning=["keyword"])
    network.create_table("bench_files", partitioning=["file_id"])
    network.publish("bench_inverted", postings)
    network.publish("bench_files", files)
    network.run(4.0)


def _run_join_strategies() -> dict:
    results = {}
    predicate = ["eq", ["col", "keyword"], ["lit", "hot"]]
    plans = {
        "symmetric_hash (rehash all)": lambda: symmetric_hash_join_plan(
            "bench_inverted", "bench_files", ["file_id"], ["file_id"], timeout=16
        ),
        "fetch_matches (index join)": lambda: fetch_matches_join_plan(
            "bench_inverted", "bench_files", ["file_id"],
            outer_predicate=predicate, timeout=12,
        ),
        "bloom_join": lambda: multi_join_plan(
            "bench_inverted",
            [JoinStep("bench_files", "file_id", "file_id", strategy="bloom")],
            timeout=18,
        ),
    }
    for label, plan_factory in plans.items():
        network = PIERNetwork(30, seed=SEED)
        _join_workload(network)
        bytes_before = network.environment.stats.bytes_sent
        result = network.execute(plan_factory(), proxy=1)
        results[label] = {
            "rows": len(result),
            "bytes_shipped": network.environment.stats.bytes_sent - bytes_before,
        }
    return results


def test_a2_join_strategy_tradeoffs(benchmark):
    results = benchmark.pedantic(_run_join_strategies, rounds=1, iterations=1)
    print_table(
        "A2 — join strategies (200+200 tuples, selective probe side)",
        ["strategy", "result rows", "bytes shipped"],
        [[label, row["rows"], row["bytes_shipped"]] for label, row in results.items()],
    )
    benchmark.extra_info.update(
        {label: row["bytes_shipped"] for label, row in results.items()}
    )
    # The index join only ships the selective probe side, so it must move far
    # fewer bytes than rehashing both relations.
    assert (
        results["fetch_matches (index join)"]["bytes_shipped"]
        < results["symmetric_hash (rehash all)"]["bytes_shipped"]
    )
    assert results["symmetric_hash (rehash all)"]["rows"] == 200
    assert results["fetch_matches (index join)"]["rows"] == 20


# --------------------------------------------------------------------------- #
# A3: flat vs hierarchical aggregation (max in-bandwidth at any node)          #
# --------------------------------------------------------------------------- #
def _run_aggregation_bandwidth() -> dict:
    results = {}
    for label, builder in (
        ("flat rehash", flat_aggregation_plan),
        ("hierarchical", hierarchical_aggregation_plan),
    ):
        network = PIERNetwork(40, seed=SEED)
        network.create_table("events", source="local")
        for address in range(40):
            network.register_local_table(
                address, "events",
                [Tuple.make("events", src="global", n=1) for _ in range(10)],
            )
        received_before = dict(network.environment.bytes_received_by_node)
        plan = builder("events", [], [("count", None, "n")], timeout=16)
        result = network.execute(plan, proxy=0)
        deltas = [
            network.environment.bytes_received_by_node.get(address, 0)
            - received_before.get(address, 0)
            for address in range(40)
        ]
        counted = sum(row.get("n", 0) for row in result.rows())
        results[label] = {"max_in_bytes": max(deltas), "count": counted}
    return results


def test_a3_hierarchical_aggregation_spreads_in_bandwidth(benchmark):
    results = benchmark.pedantic(_run_aggregation_bandwidth, rounds=1, iterations=1)
    print_table(
        "A3 — global COUNT over 40 nodes: max per-node inbound bytes",
        ["strategy", "max inbound bytes at any node", "count"],
        [[label, row["max_in_bytes"], row["count"]] for label, row in results.items()],
    )
    benchmark.extra_info.update({label: row["max_in_bytes"] for label, row in results.items()})
    assert results["flat rehash"]["count"] == 400
    assert results["hierarchical"]["count"] == 400
    # Hierarchical aggregation must not concentrate more inbound traffic on a
    # single node than the flat single-bucket rehash does.
    assert results["hierarchical"]["max_in_bytes"] <= results["flat rehash"]["max_in_bytes"] * 1.1


# --------------------------------------------------------------------------- #
# A4: dissemination — broadcast tree vs equality index                         #
# --------------------------------------------------------------------------- #
def _run_dissemination() -> dict:
    results = {}
    for label in ("broadcast", "equality"):
        network = PIERNetwork(36, seed=SEED)
        rows = [Tuple.make("inv", keyword="needle", file_id=i) for i in range(4)]
        network.create_table("inv", partitioning=["keyword"])
        network.publish("inv", rows)
        network.run(3.0)
        if label == "broadcast":
            plan = broadcast_scan_plan(
                "inv", source="dht_scan",
                predicate=["eq", ["col", "keyword"], ["lit", "needle"]], timeout=8,
            )
        else:
            plan = equality_lookup_plan("inv", "needle", timeout=8)
        result = network.execute(plan, proxy=2)
        touched = sum(
            1
            for node in network.nodes
            if any(g.query_id == plan.query_id for g in node.executor.installed_graphs())
        )
        results[label] = {"nodes_running_query": touched, "rows": len(result)}
    return results


def test_a4_equality_index_limits_dissemination(benchmark):
    results = benchmark.pedantic(_run_dissemination, rounds=1, iterations=1)
    print_table(
        "A4 — query dissemination (36 nodes, single-key lookup)",
        ["strategy", "nodes running the opgraph", "result rows"],
        [[label, row["nodes_running_query"], row["rows"]] for label, row in results.items()],
    )
    benchmark.extra_info.update(
        {label: row["nodes_running_query"] for label, row in results.items()}
    )
    assert results["broadcast"]["rows"] == results["equality"]["rows"] == 4
    assert results["equality"]["nodes_running_query"] <= 3
    assert results["broadcast"]["nodes_running_query"] == 36
