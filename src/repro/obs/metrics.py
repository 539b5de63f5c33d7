"""A deployment-wide metrics registry for PIER.

Two halves:

* **Push**: components with no natural counter home (pane lag, retransmit
  ladders) record into the environment's :class:`MetricsRegistry`
  (``environment.metrics_registry`` — created lazily, so nothing pays for
  it until something records).
* **Pull**: :func:`collect_deployment_metrics` sweeps the counters the
  subsystems already keep — per-node :class:`~repro.overlay.wrapper.DHTStats`,
  the global :class:`~repro.runtime.congestion.NetworkStats`, per-node byte
  accounting, scheduler dispatch/peak-heap counters, the codec's pickle
  ``FALLBACKS``, exchange batch occupancy, sharing refcounts — and merges
  them with the push registry into one flat snapshot.

Metric identity is ``name{label=value,...}`` (Prometheus-flavoured), with
labels sorted so snapshots are stable across runs.  The snapshot is plain
JSON-serializable data: :meth:`PIERNetwork.write_metrics_snapshot` dumps
it next to the bench JSONs, and CI uploads it as an artifact.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "collect_deployment_metrics"]


def _metric_key(name: str, labels: Dict[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> Any:
        return self.value


class Gauge:
    """A value that goes up and down (last write wins)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> Any:
        return self.value


class Histogram:
    """Streaming summary: count / sum / min / max / mean.

    Constant memory per series — the deployment-wide registry must stay
    cheap even with one series per (node, query).
    """

    __slots__ = ("name", "labels", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Any:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Named, labelled metric series with get-or-create accessors."""

    def __init__(self) -> None:
        self._series: Dict[str, Any] = {}

    def _get(self, factory: type, name: str, labels: Dict[str, Any]) -> Any:
        key = _metric_key(name, labels)
        series = self._series.get(key)
        if series is None:
            series = factory(name, labels)
            self._series[key] = series
        return series

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    def __len__(self) -> int:
        return len(self._series)

    def snapshot(self) -> Dict[str, Any]:
        return {
            key: self._series[key].snapshot() for key in sorted(self._series)
        }


def collect_deployment_metrics(network: Any) -> Dict[str, Any]:
    """Sweep every subsystem's counters into one flat snapshot dict.

    ``network`` is a :class:`~repro.api.PIERNetwork`; the sweep reads the
    counters the subsystems keep anyway, so it costs nothing until called.
    """
    from repro.runtime.codec import FALLBACKS

    environment = network.environment
    out: Dict[str, Any] = {}

    # Global network traffic.
    stats = environment.stats
    out["net.messages_sent"] = stats.messages_sent
    out["net.bytes_sent"] = stats.bytes_sent
    out["net.messages_delivered"] = stats.messages_delivered
    out["net.messages_dropped"] = stats.messages_dropped

    # Scheduler (simulated mode only).
    scheduler = getattr(environment, "scheduler", None)
    if scheduler is not None:
        out["scheduler.events_dispatched"] = getattr(scheduler, "events_dispatched", 0)
        peak = getattr(scheduler, "peak_live_events", None)
        if peak is not None:
            out["scheduler.peak_live_events"] = peak

    # Transport reliability (the physical runtime's ack/retransmit ladder).
    for attr, name in (
        ("retransmits", "transport.retransmits"),
        ("duplicates_dropped", "transport.duplicates_dropped"),
        ("busy_seconds", "transport.busy_seconds"),
    ):
        value = getattr(environment, attr, None)
        if value is not None:
            out[name] = value

    # Codec pickle fallbacks (should stay 0 on the physical wire path).
    out["codec.fallback_encodes"] = FALLBACKS.encodes
    out["codec.fallback_decodes"] = FALLBACKS.decodes

    # Tracing overhead accounting.
    tracer = getattr(environment, "tracer", None)
    if tracer is not None:
        out["trace.spans_recorded"] = len(tracer.spans())
        out["trace.spans_dropped"] = tracer.spans_dropped

    # Per-node DHT counters plus byte accounting.
    bytes_by_node = getattr(environment, "bytes_sent_by_node", None) or {}
    for index, node in enumerate(network.nodes):
        dht = node.overlay.stats
        labels = {"node": index}
        out[_metric_key("dht.lookups", labels)] = dht.lookups_completed
        out[_metric_key("dht.lookups_cached", labels)] = dht.lookups_cached
        out[_metric_key("dht.direct_retries", labels)] = dht.direct_retries
        out[_metric_key("dht.lookup_hops_mean", labels)] = dht.mean_lookup_hops
        out[_metric_key("dht.messages_routed", labels)] = dht.messages_routed
        if dht.batch_puts:
            out[_metric_key("exchange.batch_occupancy_mean", labels)] = (
                dht.batched_objects / dht.batch_puts
            )
        sent = bytes_by_node.get(node.address)
        if sent is not None:
            out[_metric_key("net.bytes_sent", labels)] = sent

    # Plan dissemination: tree broadcasts by how they went (the template
    # in full, or its header by reference), and headers a node could not
    # resolve and asked its proxy about.
    for counter in ("templates_full", "templates_by_reference", "template_misses"):
        out[f"dissemination.{counter}"] = sum(
            getattr(node.disseminator, counter) for node in network.nodes
        )

    # Security: byzantine fault injection (ground truth) and the defenses'
    # accounting — spot-check verifications at the proxies and admission
    # throttling at the rate limiters.
    adversary = getattr(environment, "adversary", None)
    if adversary is not None:
        out["security.byzantine_nodes"] = len(adversary.attacker_addresses)
        out["security.attack_events"] = len(adversary.history)
        for attack, count in sorted(adversary.attack_counts().items()):
            out[_metric_key("security.attacks", {"attack": attack})] = count
    verifications = failures = repairs = throttled = 0
    limited = False
    for node in network.nodes:
        proxy = node.proxy
        verifications += getattr(proxy, "integrity_verifications", 0)
        failures += getattr(proxy, "integrity_failures", 0)
        repairs += getattr(proxy, "integrity_repairs", 0)
        limiter = getattr(proxy, "rate_limiter", None)
        if limiter is not None:
            limited = True
            throttled += limiter.throttled_requests
    if verifications or failures or repairs:
        out["security.spot_check.verifications"] = verifications
        out["security.spot_check.failures"] = failures
        out["security.spot_check.repairs"] = repairs
    if limited:
        out["security.rate_limiter.throttled"] = throttled

    # Multi-tenant sharing refcounts (only if the registry was created).
    sharing = getattr(network, "_sharing", None)
    if sharing is not None:
        for shared in sharing.active_plans:
            fingerprint = getattr(shared, "fingerprint", shared.query_id)
            out[_metric_key("sharing.subscribers", {"plan": fingerprint})] = (
                shared.subscriber_count
            )
        # What the subscribers of the live shared plans saw: late panes
        # are the signal that a node's close deadline is too tight for its
        # place in the distribution tree (docs/CONTINUOUS.md, Known limits).
        plans = sharing.active_plans
        subscribers = [cq for shared in plans for cq in shared._subscribers.values()]
        out["cq.epochs_assembled"] = sum(shared.epochs_assembled for shared in plans)
        out["cq.epochs_delivered"] = sum(len(cq.epochs_delivered) for cq in subscribers)
        out["cq.late_pane_rows"] = sum(cq.late_rows for cq in subscribers)
        out["cq.superseded_pane_rows"] = sum(cq.superseded_pane_rows for cq in subscribers)
        out["cq.warmup_epochs_skipped"] = sum(cq.warmup_epochs_skipped for cq in subscribers)
        out["cq.dropped_partial_epochs"] = sum(cq.dropped_partial_epochs for cq in subscribers)

    # Hierarchical aggregation, over the graphs still running: uphill
    # messages sent and intercepted, what a root change cost (handoffs
    # observed, cumulative re-ships), replays the origin ledgers dropped,
    # and standing-query state shed at the retention horizon.
    aggregators = [
        operator
        for node in network.nodes
        for graph in node.executor.running_graphs()
        for operator in graph.operators.values()
        if operator.op_type == "hierarchical_aggregate"
    ]
    if aggregators:
        for counter in (
            "partials_sent",
            "partials_intercepted",
            "cumulatives_sent",
            "ownership_changes",
            "epoch_entries_evicted",
        ):
            out[f"agg.{counter}"] = sum(getattr(op, counter) for op in aggregators)
        out["agg.replays_dropped"] = sum(op.ledger.replays_dropped for op in aggregators)

    # Push-side series (pane lag, retransmit histograms, ...).
    registry = getattr(environment, "_metrics_registry", None)
    if registry is not None:
        out.update(registry.snapshot())

    return out


def write_snapshot(metrics: Dict[str, Any], path: Any) -> None:
    """Dump a metrics snapshot as stable, human-diffable JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(metrics, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
