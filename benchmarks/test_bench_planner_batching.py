"""Benchmark: cost-aware multi-join planning with exchange batching.

Measures the message volume and latency of the planner's rehash joins with
the batching exchange on and off, at equal result correctness:

* a 2-way rehash join (both tables republished into the rendezvous
  namespace — the paper's symmetric-hash join, the message-volume worst
  case), and
* a 3-way left-deep rehash pipeline compiled from multi-JOIN SQL,

each over a 20-node deployment.  Batching coalesces same-destination
tuples into one ``put_batch`` message per flush, so the unbatched runs
must ship at least 2x the messages of the batched runs.
"""

from __future__ import annotations

from conftest import print_table

from repro import PIERNetwork
from repro.qp.tuples import Tuple

SEED = 808
NODES = 20
FACT_ROWS = 400
K_KEYS = 5
J_KEYS = 25
BATCH_SIZE = 8


def _workload(network: PIERNetwork) -> None:
    # A star schema: a fact table joined to two small dimensions.  Each
    # table is declared in the catalog with its real primary-key
    # partitioning — none of the join columns (k, j) — so every join edge
    # is a rehash, which is exactly where same-destination coalescing pays
    # off.  The planner reads the same catalog.
    network.create_table("bench_r", partitioning=["r_id"])
    network.create_table("bench_s", partitioning=["s_id"])
    network.create_table("bench_t", partitioning=["t_id"])
    network.publish(
        "bench_r",
        [Tuple.make("bench_r", r_id=i, k=i % K_KEYS, j=i % J_KEYS) for i in range(FACT_ROWS)],
    )
    network.publish(
        "bench_s", [Tuple.make("bench_s", s_id=i, k=i, s_val=i * 3) for i in range(K_KEYS)]
    )
    network.publish(
        "bench_t", [Tuple.make("bench_t", t_id=i, j=i, t_val=i * 5) for i in range(J_KEYS)]
    )
    network.run(4.0)


def _run_one(sql: str, batch_size: int) -> dict:
    network = PIERNetwork(
        NODES, seed=SEED, exchange_batch_size=batch_size, exchange_flush_interval=0.25
    )
    _workload(network)
    puts_before = sum(node.overlay.stats.puts for node in network.nodes)
    result = network.query(sql, include_explain=False)
    return {
        "rows": len(result),
        "messages": result.messages_sent,
        "puts": sum(node.overlay.stats.puts for node in network.nodes) - puts_before,
        "first_result_latency": result.first_result_latency,
    }


def _run_batching_comparison() -> dict:
    two_way = (
        "SELECT k FROM bench_r JOIN bench_s ON k = k TIMEOUT 16"
    )
    three_way = (
        "SELECT k FROM bench_r JOIN bench_s ON k = k JOIN bench_t ON j = j TIMEOUT 20"
    )
    return {
        "2-way unbatched": _run_one(two_way, batch_size=1),
        "2-way batched": _run_one(two_way, batch_size=BATCH_SIZE),
        "3-way unbatched": _run_one(three_way, batch_size=1),
        "3-way batched": _run_one(three_way, batch_size=BATCH_SIZE),
    }


def test_batching_halves_rehash_join_messages(benchmark):
    results = benchmark.pedantic(_run_batching_comparison, rounds=1, iterations=1)
    print_table(
        f"Planner batching — rehash joins over {NODES} nodes "
        f"({FACT_ROWS} fact + {K_KEYS}/{J_KEYS} dimension tuples, batch={BATCH_SIZE})",
        ["configuration", "result rows", "messages", "DHT puts", "first-result latency (s)"],
        [
            [
                label,
                row["rows"],
                row["messages"],
                row["puts"],
                f"{row['first_result_latency']:.2f}" if row["first_result_latency"] else "-",
            ]
            for label, row in results.items()
        ],
    )
    benchmark.extra_info.update(
        {label: row["messages"] for label, row in results.items()}
    )

    # Batching must not change answers.
    assert results["2-way batched"]["rows"] == results["2-way unbatched"]["rows"] > 0
    assert results["3-way batched"]["rows"] == results["3-way unbatched"]["rows"] > 0
    # The acceptance bar: >= 2x fewer network messages for the rehash join.
    assert (
        results["2-way unbatched"]["messages"]
        >= 2 * results["2-way batched"]["messages"]
    )
    # The 3-way pipeline has two exchanges; batching must still cut messages
    # substantially (the second exchange carries joined, skewed tuples).
    assert (
        results["3-way unbatched"]["messages"]
        >= 1.5 * results["3-way batched"]["messages"]
    )
