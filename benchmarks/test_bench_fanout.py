"""Benchmark: epoch fan-out for multi-tenant standing queries.

Many clients watching the *same* windowed aggregate should not cost many
standing queries.  The sharing subsystem (``repro/cq/sharing.py``) folds
identical subscriptions onto one installed opgraph and fans each closed
pane out over the distribution tree, so message cost per epoch stays
roughly flat in subscriber count; the naive alternative (``shared=False``,
the PR 4 behaviour) installs one full opgraph and one result channel per
subscriber and scales linearly.

The sweep subscribes 1 → 1k clients (smoke: 64) to the firewall monitor's
per-source count, spreading their proxies across the deployment, and
checks every subscriber against the feed's ground truth — sharing is only
an optimization if nobody can tell.  Results (events/sec, messages/epoch)
land in ``BENCH_fanout.json`` at the repo root for the CI artifact.

Set ``FANOUT_SMOKE=1`` for the small CI version.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import print_table

from repro import PIERNetwork
from repro.apps.network_monitor import FIREWALL_TABLE, NetworkMonitorApp
from repro.workloads.firewall import FirewallWorkload

SEED = 1107
SMOKE = os.environ.get("FANOUT_SMOKE", "") not in ("", "0")
NODES = 6 if SMOKE else 10
WINDOW = 5.0
NUM_WINDOWS = 3 if SMOKE else 5
EVENTS_PER_TICK = 2
LIFETIME = NUM_WINDOWS * WINDOW + 5.0
SWEEP = [1, 8, 64] if SMOKE else [1, 8, 64, 256, 1000]
# The naive (per-client install) baseline only needs the comparison point
# the CI gate reads; re-running it across the whole sweep would dominate
# the benchmark for no extra information.
NAIVE_COUNT = 64
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_fanout.json"

SQL = (
    f"SELECT source_ip, COUNT(*) AS events FROM {FIREWALL_TABLE} "
    f"WINDOW {WINDOW:g} LIFETIME {LIFETIME:g} GROUP BY source_ip"
)


def _deployment():
    network = PIERNetwork(NODES, seed=SEED)
    app = NetworkMonitorApp(network)
    workload = FirewallWorkload(
        node_count=NODES, events_per_node=120, source_pool=40, seed=SEED
    )
    feed = app.attach_live_feed(
        workload, interval=1.0, events_per_tick=EVENTS_PER_TICK
    )
    return network, app, feed


def _run(count: int, shared: bool) -> dict:
    network, _app, feed = _deployment()
    stats = network.environment.stats
    messages_before = stats.messages_sent
    started = time.perf_counter()
    subscribers = [
        network.subscribe(SQL, proxy=i % NODES, shared=shared) for i in range(count)
    ]
    per_subscriber = [[] for _ in subscribers]
    for epochs, cq in zip(per_subscriber, subscribers):
        cq.on_epoch(epochs.append)
    network.run(LIFETIME + 6.0)
    feed.stop()
    elapsed = time.perf_counter() - started
    messages = stats.messages_sent - messages_before
    epochs_each = min(len(epochs) for epochs in per_subscriber)
    exact = all(
        {t.get("source_ip"): t.get("events") for t in epoch.tuples}
        == feed.true_window_counts(epoch.start, epoch.end)
        for epochs in per_subscriber
        for epoch in epochs
    )
    events = sum(feed.true_window_counts(0.0, LIFETIME + 6.0).values())
    return {
        "subscribers": count,
        "shared": shared,
        "installs": network.sharing.shared_installs if shared else count,
        "epochs_per_subscriber": epochs_each,
        "all_exact": exact,
        "messages_per_epoch": messages / max(epochs_each, 1),
        # Epoch assemblies (merge + finalize + order) per delivered epoch:
        # one per proxy node with subscribers when shared, one per
        # subscriber otherwise.
        "assemblies_per_epoch": (
            subscribers[0].shared.epochs_assembled / max(epochs_each, 1)
            if shared
            else count
        ),
        "events_per_sec": events / max(elapsed, 1e-9),
    }


def test_fanout_sharing_scales_sublinearly(benchmark):
    def run_all():
        return {
            "shared": [_run(count, shared=True) for count in SWEEP],
            "naive": [_run(NAIVE_COUNT, shared=False)],
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    shared_runs, naive_runs = results["shared"], results["naive"]
    by_count = {run["subscribers"]: run for run in shared_runs}
    naive = naive_runs[0]
    rows = [
        [
            f"shared × {run['subscribers']}",
            run["epochs_per_subscriber"],
            "yes" if run["all_exact"] else "NO",
            f"{run['messages_per_epoch']:.0f}",
            f"{run['assemblies_per_epoch']:g}",
            f"{run['events_per_sec']:.0f}",
        ]
        for run in shared_runs
    ] + [
        [
            f"naive × {naive['subscribers']}",
            naive["epochs_per_subscriber"],
            "yes" if naive["all_exact"] else "NO",
            f"{naive['messages_per_epoch']:.0f}",
            f"{naive['assemblies_per_epoch']:g}",
            f"{naive['events_per_sec']:.0f}",
        ]
    ]
    print_table(
        f"Epoch fan-out — {NODES} nodes, {WINDOW:g}s windows, "
        f"subscribers swept {SWEEP}",
        ["strategy", "epochs", "exact", "msgs/epoch", "assemblies/epoch", "events/s"],
        rows,
    )
    RESULTS_PATH.write_text(
        json.dumps(
            {
                "config": {
                    "nodes": NODES,
                    "window": WINDOW,
                    "lifetime": LIFETIME,
                    "sweep": SWEEP,
                    "smoke": SMOKE,
                    "seed": SEED,
                },
                "shared": shared_runs,
                "naive": naive_runs,
            },
            indent=2,
        )
        + "\n"
    )
    benchmark.extra_info.update(
        {
            "shared msgs/epoch @1": by_count[1]["messages_per_epoch"],
            "shared msgs/epoch @64": by_count[64]["messages_per_epoch"],
            "naive msgs/epoch @64": naive["messages_per_epoch"],
            "shared assemblies/epoch @64": by_count[64]["assemblies_per_epoch"],
        }
    )
    for run in shared_runs + naive_runs:
        assert run["epochs_per_subscriber"] >= 3
        assert run["all_exact"], (
            f"every subscriber must stay exact ({run['subscribers']} "
            f"{'shared' if run['shared'] else 'naive'})"
        )
    # One plan serves them all: a 64× audience costs at most 2× the
    # messages of a single subscriber (client-side attach is free; the
    # pane stream itself is shared), where per-client installs pay ~64×.
    assert by_count[64]["messages_per_epoch"] <= 2 * by_count[1]["messages_per_epoch"]
    assert by_count[64]["messages_per_epoch"] <= 0.5 * naive["messages_per_epoch"]
    # Epoch assembly is shared per proxy node, not repeated per subscriber:
    # a seeded count, so the gate is exact.
    for run in shared_runs:
        assert run["assemblies_per_epoch"] == min(run["subscribers"], NODES)
