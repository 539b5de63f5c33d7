"""Benchmark: result integrity under a byzantine attacker-fraction sweep.

The adversarial counterpart of the churn sweep: run the same hierarchical
aggregation while a seeded :class:`ByzantineProcess` flips a growing
fraction of nodes into attacker roles (dropping, inflating, forging, and
censoring partials on the real wire format), and report for each fraction

* **error (off)** — mean relative error of the undefended answer against
  ground truth,
* **error (on)** — the same error with ``IntegrityPolicy.enabled()``
  (spot-check commitments + 3 independently-rooted aggregation trees), and
* **detection** — the fraction of ground-truth-attacked (replica, origin)
  pairs the proxy's verification pass flagged.

Both arms run with resilience on so the attacks face identical machinery;
the arms differ only in the integrity policy.  Results land in
``BENCH_byzantine.json`` at the repo root for the CI artifact.

Set ``BYZANTINE_SMOKE=1`` for the 2-fraction version CI runs, which gates
the paper-level claims: at 20% attackers the defended answer is within 5%
of ground truth with >=90% detection, while the undefended answer is off
by >=20%.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from conftest import print_table

from repro import PIERNetwork
from repro.qp.integrity import IntegrityPolicy, mean_relative_error
from repro.qp.plans import hierarchical_aggregation_plan
from repro.qp.resilience import ResiliencePolicy
from repro.qp.tuples import Tuple
from repro.runtime.churn import ByzantineProcess

SEED = 11
BYZ_SEED = 8
SMOKE = os.environ.get("BYZANTINE_SMOKE", "") not in ("", "0")
NODES = 20
ROWS_PER_NODE = 5
TIMEOUT = 16.0
FRACTIONS = [0.0, 0.2] if SMOKE else [0.0, 0.1, 0.2, 0.3]
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_byzantine.json"

REFERENCE = {
    (f"s{group}",): NODES / 2 * ROWS_PER_NODE for group in (0, 1)
}


def _plan():
    plan = hierarchical_aggregation_plan(
        "events", ["src"], [("count", None, "n")],
        timeout=TIMEOUT, local_wait=1.0, hold=0.5,
    )
    # Pin the query id: it feeds the namespace hashing that places the
    # aggregation-tree roots, so the sweep measures the attacker fraction —
    # not whatever the process-global query counter happens to be.
    plan.query_id = "q-byzantine"
    plan.opgraphs[0].graph_id = "q-byzantine-g0"
    return plan


def _run_arm(fraction: float, integrity) -> dict:
    network = PIERNetwork(NODES, seed=SEED)
    # Resilience on in both arms so the attacks face identical machinery.
    network.default_resilience = ResiliencePolicy.enabled()
    adversary = None
    if fraction:
        adversary = ByzantineProcess(
            network.environment, fraction, seed=BYZ_SEED, protected=[0]
        )
    network.create_table("events", source="local")
    for address in range(NODES):
        network.register_local_table(
            address,
            "events",
            [Tuple.make("events", src=f"s{address % 2}") for _ in range(ROWS_PER_NODE)],
        )
    result = network.execute(_plan(), proxy=0, extra_time=4.0, integrity=integrity)
    error = mean_relative_error(result.tuples, REFERENCE, "n", ["src"])
    out = {
        "attackers": len(adversary.attacker_addresses) if adversary else 0,
        "attack_events": len(adversary.history) if adversary else 0,
        "error": error,
        "rows": len(result),
    }
    report = result.integrity
    if report is not None:
        attacked = adversary.attacked_pairs() if adversary else set()
        flagged = set(report.failed_pairs)
        out["detection"] = (
            len(flagged & attacked) / len(attacked) if attacked else 1.0
        )
        out["failures"] = len(report.verification_failures)
        out["repaired"] = report.repaired_origins
        out["suspected"] = sorted(report.suspected_nodes, key=repr)
        out["outlier_replicas"] = report.outlier_replicas
    return out


def _run_sweep() -> list:
    sweep = []
    for fraction in FRACTIONS:
        off = _run_arm(fraction, integrity=None)
        on = _run_arm(fraction, integrity=IntegrityPolicy.enabled())
        sweep.append({"fraction": fraction, "off": off, "on": on})
    return sweep


def test_byzantine_sweep_detection_and_error(benchmark):
    sweep = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    print_table(
        f"Byzantine sweep — hierarchical COUNT over {NODES} nodes "
        f"({ROWS_PER_NODE} rows/node, spot-check + 3 replica trees when on)",
        ["attackers", "events", "error (off)", "error (on)", "detection", "repaired"],
        [
            [
                f"{row['fraction']:.0%} ({row['on']['attackers']})",
                row["on"]["attack_events"],
                f"{row['off']['error']:.3f}",
                f"{row['on']['error']:.3f}",
                f"{row['on']['detection']:.2f}",
                row["on"]["repaired"],
            ]
            for row in sweep
        ],
    )
    RESULTS_PATH.write_text(
        json.dumps(
            {
                "config": {
                    "nodes": NODES,
                    "rows_per_node": ROWS_PER_NODE,
                    "timeout": TIMEOUT,
                    "fractions": FRACTIONS,
                    "seed": SEED,
                    "byzantine_seed": BYZ_SEED,
                    "smoke": SMOKE,
                },
                "sweep": sweep,
            },
            indent=2,
        )
        + "\n"
    )
    by_fraction = {row["fraction"]: row for row in sweep}
    benchmark.extra_info.update(
        {
            f"error off @{fraction:.0%}": row["off"]["error"]
            for fraction, row in by_fraction.items()
        }
    )
    benchmark.extra_info.update(
        {
            f"detection @{fraction:.0%}": row["on"]["detection"]
            for fraction, row in by_fraction.items()
        }
    )

    clean = by_fraction[0.0]
    assert clean["off"]["error"] == 0.0 and clean["on"]["error"] == 0.0
    assert clean["on"]["detection"] == 1.0 and clean["on"]["failures"] == 0

    # The headline gates, at 20% attackers: the undefended answer is badly
    # wrong, the defended answer is within 5% of ground truth, and at
    # least 90% of the tampered (replica, origin) pairs are flagged.
    hostile = by_fraction[0.2]
    assert hostile["off"]["error"] >= 0.2, "attack must visibly corrupt the answer"
    assert hostile["on"]["error"] <= 0.05
    assert hostile["on"]["detection"] >= 0.9
    for row in sweep:
        if row["fraction"] > 0.0:
            assert row["on"]["attack_events"] > 0, "the adversary must actually attack"
        assert row["on"]["error"] <= row["off"]["error"] + 1e-9, (
            f"integrity must never make the answer worse ({row['fraction']:.0%})"
        )
