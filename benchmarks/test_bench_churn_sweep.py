"""Benchmark: result recall and coverage under a churn-rate sweep.

The shape of the paper's availability experiment: run the same
hierarchical aggregation while a :class:`ChurnProcess` fails (and
optionally recovers) nodes at increasing rates, and report

* **recall** — the fraction of the ground-truth rows represented in the
  answer (counted / published), and
* **coverage** — the proxy's own estimate of how partial the answer is
  (fraction of at-submit participants still believed live),

so the self-reported coverage can be read next to the actually achieved
recall.  Resilience is on (``attach_churn``): aggregation-tree root
failures hand off, and recovered nodes get the query re-disseminated.

Set ``CHURN_SWEEP_SMOKE=1`` to run the 1-rate small-network smoke version
(what CI runs so the resilience paths cannot silently rot).
"""

from __future__ import annotations

import os

from conftest import print_table

from repro import PIERNetwork
from repro.qp.plans import hierarchical_aggregation_plan
from repro.qp.tuples import Tuple
from repro.runtime.churn import ChurnProcess

SEED = 909
SMOKE = os.environ.get("CHURN_SWEEP_SMOKE", "") not in ("", "0")
NODES = 10 if SMOKE else 16
ROWS_PER_NODE = 2
TIMEOUT = 16.0

# (label, churn interval in seconds between failures, recover failed nodes)
FULL_RATES = [
    ("no churn", None, False),
    ("slow (1/8s)", 8.0, True),
    ("fast (1/3s)", 3.0, True),
    ("fast, no rejoin", 3.0, False),
]
SMOKE_RATES = [FULL_RATES[0], FULL_RATES[3]]
RATES = SMOKE_RATES if SMOKE else FULL_RATES


def _run_one(interval, recover) -> dict:
    network = PIERNetwork(NODES, seed=SEED)
    network.create_table("events", source="local")
    for address in range(NODES):
        network.register_local_table(
            address,
            "events",
            [Tuple.make("events", src=f"s{address % 2}") for _ in range(ROWS_PER_NODE)],
        )
    plan = hierarchical_aggregation_plan(
        "events", ["src"], [("count", None, "n")],
        timeout=TIMEOUT, local_wait=1.0, hold=0.5,
    )
    churn = None
    if interval is not None:
        churn = ChurnProcess(
            network.environment,
            interval=interval,
            session_time=6.0,
            seed=SEED,
            recover=recover,
        )
        network.attach_churn(churn)
        churn.start()
    else:
        # Resilience on for the baseline too, so the comparison is
        # apples-to-apples (monitor/ping overhead included).
        from repro.qp.resilience import ResiliencePolicy

        network.default_resilience = ResiliencePolicy.enabled()
    result = network.execute(plan, proxy=0, extra_time=4.0)
    if churn is not None:
        churn.stop()
    truth = NODES * ROWS_PER_NODE
    counted = sum(row["n"] for row in result.rows())
    failures = sum(
        1 for event in (churn.history if churn else []) if event.action == "fail"
    )
    return {
        "recall": counted / truth,
        "coverage": result.coverage,
        "rows": len(result),
        "failures": failures,
        "down_at_finish": len(result.down_nodes),
        "redisseminations": result.redisseminations,
    }


def _run_sweep() -> dict:
    return {label: _run_one(interval, recover) for label, interval, recover in RATES}


def test_churn_sweep_recall_and_coverage(benchmark):
    results = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    print_table(
        f"Churn sweep — hierarchical COUNT over {NODES} nodes "
        f"({ROWS_PER_NODE} rows/node, timeout {TIMEOUT:.0f}s, resilience on)",
        ["churn rate", "failures", "down at finish", "recall", "coverage", "redissem."],
        [
            [
                label,
                row["failures"],
                row["down_at_finish"],
                f"{row['recall']:.2f}",
                f"{row['coverage']:.2f}",
                row["redisseminations"],
            ]
            for label, row in results.items()
        ],
    )
    benchmark.extra_info.update(
        {f"{label} recall": row["recall"] for label, row in results.items()}
    )
    benchmark.extra_info.update(
        {f"{label} coverage": row["coverage"] for label, row in results.items()}
    )

    baseline = results["no churn"]
    assert baseline["recall"] == 1.0 and baseline["coverage"] == 1.0
    for label, row in results.items():
        # Relaxed semantics may lose data, but must never double-count.
        assert row["recall"] <= 1.0 + 1e-9, f"{label}: recall above 1"
        assert 0.0 < row["recall"], f"{label}: query returned nothing"
    # With publishers down at the end, the proxy must say so: coverage < 1.
    no_rejoin = results["fast, no rejoin"]
    assert no_rejoin["failures"] > 0
    assert no_rejoin["coverage"] < 1.0
    # Coverage is an honest upper-bound-ish estimate: the answer cannot
    # cover more publishers than the proxy believes are live, modulo data
    # that shipped before its publisher died (which inflates recall, never
    # coverage).  Keep a sanity floor: churn must not wipe out the answer.
    assert no_rejoin["recall"] >= 0.5
