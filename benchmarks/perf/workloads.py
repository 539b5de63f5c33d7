"""The five workloads: what each deploys, what one operation is, how its
answer is checked.

Every workload drives the system through its public API only
(``PIERNetwork`` and the handles it returns).  Inputs come from the seed;
the same seed also seeds the deployment (node identifiers, link
latencies).  Sizes are what the code at this commit answers correctly at
every seed tried — see README.md for the findings that shaped them.
"""

from __future__ import annotations

import itertools
import random
import statistics
import time
from collections import Counter, deque
from typing import Any, Deque, Dict, Iterable, List, NamedTuple, Optional, Tuple as PyTuple

from oracle import WindowOracle, expected_epochs, group_counts, join_keys
from repro import PIERNetwork
from repro.apps.network_monitor import FIREWALL_TABLE, NetworkMonitorApp
from repro.qp.tuples import Tuple
from repro.runtime import codec
from repro.runtime.topology import StarTopology
from repro.workloads.firewall import FirewallWorkload

# DHT rows are soft state; a time-bounded run consumes 21 virtual seconds
# per query, so tables are declared to outlive any run.
TABLE_LIFETIME = 1e6
# Standing queries must outlive the run too (a faster system steps through
# more virtual time in the same wall-clock).
CQ_LIFETIME = 1_000_000
CQ_COUNTERS = (
    "shared_installs",
    "deliveries",
    "dropped_partial_epochs",
    "warmup_epochs_skipped",
    "rows_appended",
    "epoch_lag_over_slide",
)


class Sample(NamedTuple):
    """One timed operation as its client saw it.  Latencies are on the
    runtime's clock: virtual seconds when simulated, wall seconds on
    sockets.  ``None`` where the operation produced no such event."""

    wall_s: float
    first_row_s: Optional[float] = None
    last_row_s: Optional[float] = None
    done_over_timeout: Optional[float] = None
    rows: int = 0
    coverage: float = 1.0
    ok: bool = True


class Workload:
    """A deployment, an operation to repeat on it, and a check."""

    name = ""
    why = ""
    cpu_bound = True  # false where wall-clock is timers and sockets, not interpreter work
    setups = 5  # set-ups per run; setup_s is their median
    warmup = 0  # operations discarded before timing
    ops = 0  # timed operations of a fixed-count run
    smoke_ops = 2

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.network: Optional[PIERNetwork] = None
        self.published_rows = 0  # rows put into the DHT by one set-up
        if smoke:
            self.setups, self.warmup, self.ops = 1, 0, self.smoke_ops
        # The program keeps state per query, so memory grows with every
        # operation: read it after a fixed number of them, not after
        # however many fit in the run.
        self.rss_ops = max(self.ops // 5, 1)

    def setup(self) -> None:
        """Boot the deployment, load its tables, let it settle."""
        raise NotImplementedError

    def operate(self) -> Sample:
        """Run one operation to completion."""
        raise NotImplementedError

    def finish(self) -> None:
        """After the last timed operation: settle whatever is in flight."""

    def verdict(self, samples: List[Sample]) -> PyTuple[int, int]:
        """``(attempted, failed)`` for the timed operations."""
        return len(samples), sum(1 for sample in samples if not sample.ok)

    def close(self) -> None:
        if self.network is not None:
            self.network.close()
            self.network = None

    def counters(self) -> Dict[str, float]:
        """Cumulative counters of the current deployment, read through
        ``metrics()`` / ``dht_stats()``; the caller takes differences."""
        network = self.network
        metrics = network.metrics()
        out = {
            "events": metrics.get("scheduler.events_dispatched", 0),
            "peak_live_events": metrics.get("scheduler.peak_live_events", 0),
            "messages": metrics["net.messages_sent"],
            "bytes": metrics["net.bytes_sent"],
            "dropped": metrics["net.messages_dropped"],
            "retransmits": metrics.get("transport.retransmits", 0),
            "duplicates": metrics.get("transport.duplicates_dropped", 0),
            "busy_s": metrics.get("transport.busy_seconds", 0.0),
            "fallbacks": codec.FALLBACKS.total(),
        }
        for field in ("lookups_completed", "lookup_hops_total", "messages_routed", "batch_puts", "batched_objects"):
            out[field] = sum(getattr(stats, field) for stats in network.dht_stats())
        return out

    def cq_counters(self) -> Dict[str, float]:
        """Standing-query counters; zero outside ``cq32``."""
        return dict.fromkeys(CQ_COUNTERS, 0)


# -- one-shot queries ---------------------------------------------------------- #
class _Query:
    """One in-flight one-shot query, observed the way a client can: row
    arrivals through ``on_result`` (``query()`` would only surface rows at
    the timeout flush), completion through ``on_done``."""

    def __init__(self, workload: "_OneShot", proxy: int) -> None:
        network = workload.network
        self.proxy = proxy
        self.arrivals: List[float] = []
        self.done_at: Optional[float] = None
        self.wall_started = time.perf_counter()
        self.submitted = network.now
        self.stream = network.stream(
            f"{workload.statement} TIMEOUT {workload.timeout:g}", proxy=proxy, **workload.planner_opts
        )
        self.stream.on_result(lambda _row: self.arrivals.append(network.now))
        self.stream.on_done(self._on_done)

    def _on_done(self, stream: Any) -> None:
        self.done_at = stream.network.now


class _OneShot(Workload):
    """Closed loop, one client: submit, run to completion, check, repeat."""

    statement = ""  # the SQL text without its TIMEOUT clause
    timeout = 20.0
    planner_opts: Dict[str, Any] = {}
    expected: Any = None
    _submitted = 0

    def _next_proxy(self) -> int:
        """Clients connect anywhere: walk the proxies so the medians
        describe the deployment, not node 0's place on the ring."""
        proxy = self._submitted % len(self.network)
        self._submitted += 1
        return proxy

    def answer(self, rows: List[Tuple]) -> Any:
        """The client's answer in the oracle's shape."""
        raise NotImplementedError

    def _collect(self, query: _Query) -> Sample:
        wall = time.perf_counter() - query.wall_started
        stream = query.stream
        arrivals = query.arrivals
        done = stream.finished and not stream.cancelled and query.done_at is not None
        return Sample(
            wall_s=wall,
            first_row_s=arrivals[0] - query.submitted if arrivals else None,
            last_row_s=arrivals[-1] - query.submitted if arrivals else None,
            done_over_timeout=(query.done_at - query.submitted) / self.timeout if done else None,
            rows=len(stream.results),
            coverage=stream.coverage,
            ok=done and self.answer(stream.results) == self.expected,
        )

    def operate(self) -> Sample:
        query = _Query(self, self._next_proxy())
        query.stream.run_to_completion()
        return self._collect(query)


def fact_values(index: int, rng: random.Random, columns: int, keys: Dict[str, int]) -> Dict[str, Any]:
    """The first ``columns`` columns of a wide self-describing fact row
    (the column names travel with every copy).  About one key value in
    ten matches no dimension row, so the join has something to drop."""
    values: Dict[str, Any] = {"f_id": index}
    for column, cardinality in keys.items():
        values[column] = rng.randrange(cardinality + max(cardinality // 9, 1))
    values.update(
        src=f"10.0.{rng.randrange(256)}.{rng.randrange(256)}",
        dst=f"192.168.{rng.randrange(64)}.{rng.randrange(256)}",
        sport=1024 + rng.randrange(5000),
        dport=rng.randrange(1024),
        proto=rng.choice(("tcp", "tcp", "udp")),
        bytes=64 + rng.randrange(1400),
        packets=1 + rng.randrange(16),
        label=f"evt-{rng.randrange(97)}",
        flags=rng.randrange(32),
    )
    return dict(itertools.islice(values.items(), columns))


class _Join(_OneShot):
    """Fact rows joined to dimension tables in the DHT; the answer is the
    multiset of the fact key ``k``."""

    def _publish(self, network: PIERNetwork, tables: Iterable[PyTuple[str, str, List[Tuple]]]) -> None:
        for table, key, rows in tables:
            network.create_table(table, partitioning=[key], lifetime=TABLE_LIFETIME)
            network.publish(table, rows)

    def answer(self, rows: List[Tuple]) -> Counter:
        return Counter(row["k"] for row in rows)


class Join64(_Join):
    name = "join64"
    why = (
        "3-way rehash join of 800 wide rows on 64 simulated nodes: tuples, exchange batching, "
        "DHT puts, message sizing and the scheduler do the work; aggregation and cq/ do none"
    )
    warmup, ops = 5, 80
    statement = "SELECT k FROM hp_fact JOIN hp_dim_k ON k = k JOIN hp_dim_j ON j = j"
    K_KEYS, J_KEYS = 8, 40

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.nodes, fact_rows = (12, 120) if smoke else (64, 800)
        rng = random.Random(seed)
        keys = {"k": self.K_KEYS, "j": self.J_KEYS}
        self.facts = [Tuple.make("hp_fact", **fact_values(i, rng, 12, keys)) for i in range(fact_rows)]
        self.dim_k = [Tuple.make("hp_dim_k", dk_id=i, k=i, k_name=f"class-{i}") for i in range(self.K_KEYS)]
        self.dim_j = [Tuple.make("hp_dim_j", dj_id=i, j=i, j_name=f"site-{i}") for i in range(self.J_KEYS)]
        self.expected = join_keys(self.facts, [("k", self.dim_k), ("j", self.dim_j)])
        self.published_rows = fact_rows + self.K_KEYS + self.J_KEYS

    def setup(self) -> None:
        network = PIERNetwork(self.nodes, seed=self.seed, exchange_batch_size=8)
        self._publish(
            network,
            (("hp_fact", "f_id", self.facts), ("hp_dim_k", "dk_id", self.dim_k), ("hp_dim_j", "dj_id", self.dim_j)),
        )
        network.run(4.0)  # the puts are in flight until the simulator runs
        self.network = network


class _Aggregate(_OneShot):
    """Firewall events in node-local tables, counted per source over the
    aggregation tree."""

    statement = f"SELECT source_ip, COUNT(*) AS events FROM {FIREWALL_TABLE} GROUP BY source_ip"
    planner_opts = {"aggregation_strategy": "hierarchical"}
    full_size = (0, 0)  # nodes, events per node
    smoke_size = (0, 0)
    # A hierarchical answer leaves the root at TIMEOUT and the proxy stops
    # listening at TIMEOUT + 1.  With the default 10-50 ms access links the
    # answer needs up to 0.95 s at 64 nodes (1 query in 100 comes back
    # empty) and up to 1.05 s at 256 (1 in 20).  Half the latency keeps
    # every answer inside the cut: latest seen TIMEOUT + 0.65 s.
    MAX_ACCESS_LATENCY = 0.025

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.nodes, events = self.smoke_size if smoke else self.full_size
        workload = FirewallWorkload(node_count=self.nodes, events_per_node=events, source_pool=40, seed=seed)
        self.rows_by_node = workload.events_by_node()
        self.expected = group_counts(self.rows_by_node, "source_ip")

    def setup(self) -> None:
        topology = StarTopology(
            self.nodes,
            min_access_latency=self.MAX_ACCESS_LATENCY / 5,
            max_access_latency=self.MAX_ACCESS_LATENCY,
            seed=self.seed,
        )
        network = PIERNetwork(self.nodes, seed=self.seed, topology=topology)
        network.create_table(FIREWALL_TABLE, source="local")
        for address, rows in enumerate(self.rows_by_node):
            network.register_local_table(address, FIREWALL_TABLE, rows)
        self.network = network

    def answer(self, rows: List[Tuple]) -> Optional[Dict[str, int]]:
        counts = {row["source_ip"]: row["events"] for row in rows}
        return counts if len(counts) == len(rows) else None  # a group twice is wrong


class Agg64(_Aggregate):
    name = "agg64"
    why = (
        "hierarchical GROUP BY over 25,600 node-local rows on 64 nodes: qp/hierarchical.py and "
        "operators/groupby.py work, the exchange barely runs; the bypass for join-path changes"
    )
    warmup, ops = 10, 160
    full_size, smoke_size = (64, 400), (12, 40)


class Agg256(_Aggregate):
    name = "agg256"
    why = (
        "the agg64 query over the same 25,600 rows spread on 256 nodes: routing hops, dissemination, "
        "per-node install and the scheduler heap dominate; operator work is unchanged"
    )
    warmup, ops = 4, 50
    full_size, smoke_size = (256, 100), (32, 20)


# -- standing queries ---------------------------------------------------------- #
class Cq32(Workload):
    name = "cq32"
    why = (
        "256 standing windowed queries of two geometries share one plan on 32 nodes while a live feed "
        "appends rows: writes beside reads through panes, sharing and per-subscriber epoch assembly"
    )
    warmup, ops = 4, 100
    smoke_ops = 3
    SLICE = 5.0  # one operation steps the deployment this many virtual seconds
    GEOMETRIES = ((5.0, 5.0), (10.0, 5.0))  # (window, slide), alternating over subscribers
    DRAIN_SLICES = 2

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.nodes, self.subscribers, self.rows_per_tick = (8, 16, 2) if smoke else (32, 256, 4)
        self.workload = FirewallWorkload(node_count=self.nodes, events_per_node=400, source_pool=40, seed=seed)
        self.feed = None
        self.handles: List[Any] = []
        # (subscriber, window start, window end, rows, their content, lag)
        # per delivered epoch; equal contents share one frozenset.
        self.deliveries: List[PyTuple[int, float, float, int, frozenset, float]] = []
        self._contents: Dict[frozenset, frozenset] = {}
        self._failed = 0
        self._attempted = 0

    def setup(self) -> None:
        network = PIERNetwork(self.nodes, seed=self.seed)
        self.network = network
        self.feed = NetworkMonitorApp(network).attach_live_feed(
            self.workload, interval=1.0, events_per_tick=self.rows_per_tick
        )
        self.handles, self.deliveries, self._contents = [], [], {}
        for index in range(self.subscribers):
            window, slide = self.GEOMETRIES[index % len(self.GEOMETRIES)]
            clause = f"WINDOW {window:g}" if window == slide else f"WINDOW {window:g} SLIDE {slide:g}"
            handle = network.subscribe(
                f"SELECT source_ip, COUNT(*) AS events FROM {FIREWALL_TABLE} "
                f"{clause} LIFETIME {CQ_LIFETIME} GROUP BY source_ip",
                proxy=index % self.nodes,
            )
            handle.on_epoch(lambda epoch, index=index: self._on_epoch(index, epoch))
            self.handles.append(handle)

    def _on_epoch(self, subscriber: int, epoch: Any) -> None:
        content = frozenset((row["source_ip"], row["events"]) for row in epoch.tuples)
        content = self._contents.setdefault(content, content)
        lag = self.network.now - epoch.end
        self.deliveries.append((subscriber, epoch.start, epoch.end, len(epoch.tuples), content, lag))

    def operate(self) -> Sample:
        started = time.perf_counter()
        self.network.run(self.SLICE)
        return Sample(wall_s=time.perf_counter() - started)

    def finish(self) -> None:
        """Stop the feed, let the windows that closed inside the run reach
        their subscribers, then hold every (subscriber, window) the
        geometry predicts against the publish log."""
        network = self.network
        horizon = network.now
        self.feed.stop()
        network.run(self.DRAIN_SLICES * self.SLICE)
        oracle = WindowOracle(self.feed.published, pane=min(slide for _window, slide in self.GEOMETRIES))
        delivered: Dict[PyTuple[int, float, float], List[PyTuple[int, frozenset]]] = {}
        for subscriber, start, end, rows, content, _lag in self.deliveries:
            if end <= horizon + 1e-9:
                delivered.setdefault((subscriber, start, end), []).append((rows, content))
        for subscriber in range(self.subscribers):
            window, slide = self.GEOMETRIES[subscriber % len(self.GEOMETRIES)]
            for start, end in expected_epochs(window, slide, horizon):
                truth = oracle.counts(start, end)
                if not truth:
                    continue  # empty windows are not delivered
                self._attempted += 1
                if delivered.pop((subscriber, start, end), None) != [(len(truth), frozenset(truth.items()))]:
                    self._failed += 1
        self._failed += len(delivered)  # windows nobody should have received
        self._attempted += len(delivered)

    def verdict(self, samples: List[Sample]) -> PyTuple[int, int]:
        return max(self._attempted, 1), self._failed

    def cq_counters(self) -> Dict[str, float]:
        lags = [delivery[-1] for delivery in self.deliveries]
        return {
            "shared_installs": self.network.sharing.shared_installs,
            "deliveries": len(self.deliveries),
            "dropped_partial_epochs": sum(handle.dropped_partial_epochs for handle in self.handles),
            "warmup_epochs_skipped": sum(handle.warmup_epochs_skipped for handle in self.handles),
            "rows_appended": len(self.feed.published),
            "epoch_lag_over_slide": statistics.median(lags) / self.SLICE if lags else 0.0,
        }


# -- real sockets ---------------------------------------------------------------- #
class Phys8(_Join):
    name = "phys8"
    why = (
        "2-way join over loopback UDP sockets, one staggered closed-loop client per node: the only workload "
        "where codec.py, physical.py and acked UDP run and where latency is wall-clock"
    )
    cpu_bound = False
    setups = 3
    warmup, ops = 8, 28  # the warm-up is one query per client
    smoke_ops = 1
    statement = "SELECT k FROM pb_fact JOIN pb_dim ON k = k"
    K_KEYS = 8

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.nodes, fact_rows, self.timeout, self.settle = (4, 80, 1.0, 0.25) if smoke else (8, 960, 2.0, 0.75)
        self.proxies = [0] if smoke else list(range(self.nodes))
        rng = random.Random(seed)
        keys = {"k": self.K_KEYS}
        self.facts = [Tuple.make("pb_fact", **fact_values(i, rng, 10, keys)) for i in range(fact_rows)]
        self.dim = [Tuple.make("pb_dim", d_id=i, k=i, k_name=f"class-{i}") for i in range(self.K_KEYS)]
        self.expected = join_keys(self.facts, [("k", self.dim)])
        self.published_rows = fact_rows + self.K_KEYS
        self._in_flight: Deque[_Query] = deque()

    def setup(self) -> None:
        network = PIERNetwork(
            self.nodes, seed=self.seed, mode="physical", settle_time=self.settle, exchange_batch_size=8
        )
        self.network = network
        self._publish(network, (("pb_fact", "f_id", self.facts), ("pb_dim", "d_id", self.dim)))
        network.run(self.settle)

    def operate(self) -> Sample:
        """Complete the oldest in-flight query and resubmit from its client.

        Every query ends at ``TIMEOUT + 1``, so clients finish in the order
        they started; the first call spreads their starts evenly over one
        query duration."""
        if not self._in_flight:
            for proxy in self.proxies:
                self._in_flight.append(_Query(self, proxy))
                self.network.run((self.timeout + 1.0) / len(self.proxies))
        query = self._in_flight.popleft()
        query.stream.run_to_completion()
        sample = self._collect(query)
        self._in_flight.append(_Query(self, query.proxy))
        return sample

    def finish(self) -> None:
        while self._in_flight:
            self._in_flight.popleft().stream.cancel()


WORKLOADS = {cls.name: cls for cls in (Join64, Agg64, Agg256, Cq32, Phys8)}
