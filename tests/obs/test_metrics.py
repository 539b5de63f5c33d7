"""Metrics registry unit tests plus the deployment-wide sweep."""

from __future__ import annotations

import json

from repro import PIERNetwork
from repro.obs.metrics import (
    MetricsRegistry,
    collect_deployment_metrics,
    write_snapshot,
)
from repro.qp.tuples import Tuple


def test_registry_get_or_create_and_snapshot_identity():
    registry = MetricsRegistry()
    counter = registry.counter("requests", node=1)
    counter.inc()
    counter.inc(2.0)
    assert registry.counter("requests", node=1) is counter  # same series
    registry.gauge("depth", node=1).set(7.0)
    histogram = registry.histogram("lag")
    for value in (0.5, 1.5, 1.0):
        histogram.observe(value)

    snapshot = registry.snapshot()
    assert snapshot["requests{node=1}"] == 3.0
    assert snapshot["depth{node=1}"] == 7.0
    assert snapshot["lag"] == {
        "count": 3,
        "sum": 3.0,
        "min": 0.5,
        "max": 1.5,
        "mean": 1.0,
    }
    assert list(snapshot) == sorted(snapshot)  # stable ordering
    assert len(registry) == 3


def test_metric_key_sorts_labels():
    registry = MetricsRegistry()
    registry.counter("m", b=2, a=1).inc()
    assert list(registry.snapshot()) == ["m{a=1,b=2}"]


def test_deployment_sweep_collects_every_subsystem(tmp_path):
    network = PIERNetwork(6, seed=21)
    network.create_table("events", partitioning=["src"])
    network.publish(
        "events", [Tuple.make("events", src=f"s{i % 3}", v=i) for i in range(18)]
    )
    network.run(2.0)
    network.query(
        "SELECT src, COUNT(*) AS n FROM events GROUP BY src TIMEOUT 6",
        include_explain=False,
    )

    metrics = network.metrics()
    assert metrics["net.messages_sent"] > 0
    assert metrics["net.bytes_sent"] > 0
    assert metrics["scheduler.events_dispatched"] > 0
    assert metrics["codec.fallback_encodes"] >= 0
    assert metrics["dht.lookups{node=0}"] >= 0
    assert metrics["dht.messages_routed{node=0}"] >= 0
    # Per-node byte accounting made it into the labelled series.
    per_node = [metrics.get(f"net.bytes_sent{{node={i}}}", 0) for i in range(6)]
    assert sum(per_node) == metrics["net.bytes_sent"]

    path = tmp_path / "metrics.json"
    snapshot = network.write_metrics_snapshot(path)
    assert snapshot == metrics
    loaded = json.loads(path.read_text())
    assert loaded["net.messages_sent"] == metrics["net.messages_sent"]
    assert list(loaded) == sorted(loaded)


def test_sweep_includes_trace_and_pane_lag_series_when_active():
    network = PIERNetwork(8, seed=22)
    network.enable_tracing()
    for address in range(8):
        network.register_local_table(
            address, "events", [Tuple.make("events", src="a")]
        )
    cq = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 4 LIFETIME 10 GROUP BY src"
    )
    # Sweep mid-lifetime: the sharing registry only reports *active*
    # plans, and the subscription unregisters once its lifetime ends.
    network.run(6.0)
    assert cq.epochs_delivered

    metrics = network.metrics()
    assert metrics["trace.spans_recorded"] > 0
    assert metrics["trace.spans_dropped"] == 0
    lag_series = [key for key in metrics if key.startswith("cq.pane_lag_seconds{")]
    assert lag_series, "pane close must record its lag histogram"
    sharing_series = [key for key in metrics if key.startswith("sharing.subscribers{")]
    assert sharing_series and all(metrics[key] >= 1 for key in sharing_series)
    for key in lag_series:
        assert metrics[key]["count"] > 0
        assert metrics[key]["min"] >= 0.0


def test_disabled_tracing_keeps_sweep_trace_free():
    network = PIERNetwork(4, seed=23)
    metrics = network.metrics()
    assert network.environment.tracer is None
    assert "trace.spans_recorded" not in metrics


def test_sweep_reports_hierarchical_aggregation_and_its_repairs():
    """``agg.*`` sums the running hierarchical aggregates' counters: tree
    traffic, what a root handoff cost (the repair record), replays the
    origin ledgers dropped, and standing-query state shed at retention."""
    from repro.overlay.identifiers import object_identifier
    from repro.qp.resilience import ResiliencePolicy

    network = PIERNetwork(12, seed=52)
    assert not [key for key in network.metrics() if key.startswith("agg.")]
    for address in range(12):
        network.register_local_table(address, "events", [])
    cq = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 2 LIFETIME 60 GROUP BY src",
        aggregation_strategy="hierarchical",
        resilience=ResiliencePolicy.enabled(liveness_interval=1.0, root_monitor_interval=0.5),
        shared=False,
    )
    root = object_identifier(f"{cq.query_id}:__hierarchical_aggregate__", "root")
    (owner,) = [n.address for n in network.nodes if n.overlay.router.is_responsible(root)]

    def tick(_data):
        for address in range(12):
            if network.environment.is_alive(address):
                network.append_local_rows(address, "events", [Tuple.make("events", src="s")])
        if network.now < 50.0:
            network.nodes[0].runtime.schedule_event(1.0, None, tick)

    network.nodes[0].runtime.schedule_event(0.4, None, tick)
    network.run(8.0)
    before = network.metrics()
    assert before["agg.partials_sent"] > 0 and before["agg.partials_intercepted"] > 0
    assert before["agg.ownership_changes"] == before["agg.cumulatives_sent"] == 0
    assert before["agg.epoch_entries_evicted"] == 0

    network.fail_node(owner)
    network.run(30.0)  # mid-lifetime: the sweep covers running graphs
    metrics = network.metrics()
    # Every surviving node saw the root move once and re-shipped once.
    assert metrics["agg.ownership_changes"] >= 11
    assert metrics["agg.cumulatives_sent"] >= 10
    assert metrics["agg.partials_sent"] > before["agg.partials_sent"]
    assert metrics["agg.epoch_entries_evicted"] > 0
    assert "agg.replays_dropped" in metrics  # counted in tests/qp/test_origin_ledger.py
    cq.cancel()
