"""The continuous-query subsystem end to end: windowed SQL, pane/epoch
semantics in the operators, the subscription lifecycle, and live publish.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# The operator harness lives next to the operator unit tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "qp"))

from repro import PIERNetwork
from repro.cq.windows import EPOCH_COLUMN, WindowSpec
from repro.qp.tuples import Tuple
from repro.sql.lexer import SQLSyntaxError
from repro.sql.parser import parse_sql
from repro.sql.planner import NaivePlanner, PlanningError


# -- SQL surface ------------------------------------------------------------------ #

def test_parser_accepts_window_clauses():
    stmt = parse_sql(
        "SELECT src, COUNT(*) AS n FROM flows WINDOW 30 SLIDE 10 LIFETIME 300 GROUP BY src"
    )
    assert stmt.window.window == 30.0
    assert stmt.window.slide == 10.0
    assert stmt.window.lifetime == 300.0
    assert not stmt.window.landmark

    tumbling = parse_sql("SELECT COUNT(*) FROM flows WINDOW 15 GROUP BY src")
    assert tumbling.window.slide is None  # defaults to the window (tumbling)

    landmark = parse_sql("SELECT COUNT(*) FROM flows WINDOW LANDMARK SLIDE 5 GROUP BY src")
    assert landmark.window.landmark and landmark.window.slide == 5.0

    # The clause also parses after GROUP BY.
    after = parse_sql("SELECT src, COUNT(*) FROM flows GROUP BY src WINDOW 20 LIFETIME 60")
    assert after.window.window == 20.0


def test_parser_rejects_bad_window_clauses():
    with pytest.raises(SQLSyntaxError):
        parse_sql("SELECT COUNT(*) FROM flows WINDOW 10 SLIDE 20 GROUP BY src")
    with pytest.raises(SQLSyntaxError):
        parse_sql("SELECT COUNT(*) FROM flows WINDOW 0 GROUP BY src")


def test_planner_records_cq_metadata_and_lifetime_timeout():
    planner = NaivePlanner({"flows": __import__("repro.sql.planner", fromlist=["TableInfo"]).TableInfo("flows", "local")})
    plan = planner.plan_sql(
        "SELECT src, COUNT(*) AS n FROM flows WINDOW 30 SLIDE 10 LIFETIME 300 GROUP BY src"
    )
    cq = plan.metadata["cq"]
    assert cq["window"] == 30.0 and cq["slide"] == 10.0 and cq["kind"] == "sliding"
    assert cq["group_columns"] == ["src"]
    assert plan.timeout == 300.0  # the lifetime is the execution time


def test_planner_rejects_windowed_non_aggregates_and_joins():
    planner = NaivePlanner()
    with pytest.raises(PlanningError, match="requires aggregation"):
        planner.plan_sql("SELECT src FROM flows WINDOW 10")
    with pytest.raises(PlanningError, match="join"):
        planner.plan_sql(
            "SELECT a FROM t JOIN u ON a = b WINDOW 10 GROUP BY a"
        )


def test_window_must_be_a_multiple_of_the_slide():
    """Windows are assembled from whole panes: a non-multiple window would
    silently merge up to one extra slide of data before the window start."""
    with pytest.raises(ValueError, match="multiple"):
        WindowSpec(window=25.0, slide=10.0, lifetime=60.0)
    planner = NaivePlanner()
    with pytest.raises(ValueError, match="multiple"):
        planner.plan_sql("SELECT COUNT(*) FROM flows WINDOW 25 SLIDE 10 GROUP BY src")


def test_window_spec_epoch_arithmetic():
    spec = WindowSpec(window=30.0, slide=10.0, lifetime=300.0)
    assert spec.kind == "sliding"
    assert spec.panes_per_window == 3
    assert spec.pane_of(25.0) == 2
    assert spec.epoch_end(2) == 30.0
    assert spec.epoch_start(2) == 0.0  # clamped at time zero
    assert spec.epoch_start(5) == 30.0
    assert list(spec.epoch_panes(5)) == [3, 4, 5]
    tumbling = WindowSpec(window=10.0, slide=10.0, lifetime=60.0)
    assert tumbling.kind == "tumbling" and tumbling.panes_per_window == 1
    landmark = WindowSpec(window=None, slide=5.0, lifetime=60.0)
    assert landmark.kind == "landmark" and landmark.epoch_start(7) == 0.0
    with pytest.raises(ValueError):
        WindowSpec(window=10.0, slide=20.0, lifetime=60.0)


# -- windowed operators (emit-then-reset / eviction regressions) -------------------- #

def test_legacy_window_flush_emits_then_resets():
    """Regression: the periodic window flush must report only the tuples
    of its own period — cumulative re-emission would double-report."""
    from operator_harness import OperatorHarness

    harness = OperatorHarness()
    groupby = harness.build(
        "groupby_hash",
        {"group_columns": ["src"], "aggregates": [("count", None, "n")], "window": 1.0},
    )
    groupby.start()
    for _ in range(3):
        groupby.receive(Tuple.make("events", src="a"))
    harness.run(1.1)  # first window fires
    assert [t.get("n") for t in harness.results] == [3]
    groupby.receive(Tuple.make("events", src="a"))
    harness.run(1.0)  # second window: only the new tuple, not 4
    assert [t.get("n") for t in harness.results] == [3, 1]
    # One-shot flush semantics unchanged: nothing buffered, nothing emitted.
    groupby.flush()
    assert len(harness.results) == 2


def test_windowed_operator_evicts_dead_panes():
    from operator_harness import OperatorHarness

    harness = OperatorHarness()
    spec = {"window": 2.0, "slide": 1.0, "lifetime": 60.0, "grace": 0.5}
    groupby = harness.build(
        "groupby_hash",
        {"group_columns": ["src"], "aggregates": [("count", None, "n")], "window_spec": spec},
    )
    groupby.start()
    for _ in range(5):
        groupby.receive(Tuple.make("events", src="a"))
        harness.run(1.0)
    assert groupby.panes_evicted >= 3, "panes outside every live window must be evicted"
    assert len(groupby._panes) <= 2
    emitted = [(t.get(EPOCH_COLUMN), t.get("n")) for t in harness.results]
    assert emitted, "each closing epoch emits stamped rows"


# -- end-to-end continuous queries ---------------------------------------------------- #

def _feed(network: PIERNetwork, until: float, interval: float = 1.0, nodes=None):
    """Append one row per node per tick, recording publish times."""
    log = []
    addresses = list(nodes if nodes is not None else range(len(network)))

    def tick(_data):
        now = network.now
        for address in addresses:
            if network.environment.is_alive(address):
                network.append_local_rows(
                    address, "events", [Tuple.make("events", src=f"s{address % 2}")]
                )
                log.append((now, f"s{address % 2}"))
        if now < until:
            network.nodes[0].runtime.schedule_event(interval, None, tick)

    network.nodes[0].runtime.schedule_event(0.4, None, tick)
    return log


def _truth(log, start, end):
    counts = {}
    for time, src in log:
        if start <= time < end:
            counts[src] = counts.get(src, 0) + 1
    return counts


def _epoch_counts(epoch):
    return {t.get("src"): t.get("n") for t in epoch.tuples}


@pytest.fixture
def live_network():
    network = PIERNetwork(8, seed=42)
    for address in range(8):
        network.register_local_table(address, "events", [])
    return network


def test_tumbling_window_delivers_exact_consecutive_epochs(live_network):
    network = live_network
    cq = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 4 LIFETIME 30 GROUP BY src"
    )
    log = _feed(network, until=24.0)
    epochs = []
    cq.on_epoch(epochs.append)
    network.run(34.0)
    assert cq.finished
    assert len(epochs) >= 3
    indexes = [epoch.index for epoch in epochs]
    assert indexes == sorted(indexes)
    assert indexes == list(range(indexes[0], indexes[0] + len(indexes))), "consecutive epochs"
    for epoch in epochs:
        assert _epoch_counts(epoch) == _truth(log, epoch.start, epoch.end)


def test_sliding_window_delivers_exact_overlapping_epochs(live_network):
    network = live_network
    cq = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 6 SLIDE 3 LIFETIME 24 GROUP BY src"
    )
    log = _feed(network, until=18.0)
    epochs = list(cq)  # iteration interleaves simulator steps
    assert len(epochs) >= 3
    for epoch in epochs:
        assert epoch.end - epoch.start <= 6.0
        assert _epoch_counts(epoch) == _truth(log, epoch.start, epoch.end)
    # Sliding epochs overlap: consecutive ends are one slide apart.
    ends = [epoch.end for epoch in epochs]
    assert all(b - a == 3.0 for a, b in zip(ends, ends[1:]))


def test_hierarchical_windowed_aggregation_is_exact(live_network):
    network = live_network
    cq = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 5 LIFETIME 25 GROUP BY src",
        aggregation_strategy="hierarchical",
    )
    log = _feed(network, until=20.0)
    epochs = []
    cq.on_epoch(epochs.append)
    network.run(32.0)
    assert len(epochs) >= 3
    for epoch in epochs:
        assert _epoch_counts(epoch) == _truth(log, epoch.start, epoch.end)


def test_landmark_window_reports_cumulative_counts(live_network):
    network = live_network
    cq = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW LANDMARK SLIDE 4 LIFETIME 20 GROUP BY src"
    )
    log = _feed(network, until=16.0)
    epochs = []
    cq.on_epoch(epochs.append)
    network.run(28.0)
    assert len(epochs) >= 3
    for epoch in epochs:
        assert epoch.start == 0.0, "landmark windows are pinned at time zero"
        assert _epoch_counts(epoch) == _truth(log, 0.0, epoch.end)
    totals = [sum(_epoch_counts(epoch).values()) for epoch in epochs]
    assert totals == sorted(totals), "landmark totals are monotone"


def test_tuples_published_into_dht_mid_query_flow_into_standing_query():
    network = PIERNetwork(6, seed=9)
    network.create_table("flows", partitioning=["src"])
    network.publish("flows", [Tuple.make("flows", src=f"s{i % 2}", v=i) for i in range(6)])
    network.run(1.0)
    cq = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM flows WINDOW 5 LIFETIME 20 GROUP BY src"
    )
    log = []

    def tick(_data):
        now = network.now
        network.publish("flows", [Tuple.make("flows", src="s0", v=99)])
        log.append(now)
        if now < 14.0:
            network.nodes[0].runtime.schedule_event(1.0, None, tick)

    network.nodes[0].runtime.schedule_event(0.3, None, tick)
    epochs = []
    cq.on_epoch(epochs.append)
    network.run(26.0)
    assert len(epochs) >= 2
    # Epochs past the initial scan contain exactly the mid-query publishes.
    for epoch in epochs[1:]:
        expected = sum(1 for t in log if epoch.start <= t < epoch.end)
        if expected:
            assert _epoch_counts(epoch).get("s0") == expected


# -- ordering / lifecycle -------------------------------------------------------------- #

def test_per_epoch_order_by_and_limit(live_network):
    network = live_network
    # Node addresses 0..7 -> groups s0 (4 nodes/tick) and s1 (4 nodes/tick);
    # feed only even addresses extra rows to break the tie.
    cq = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 4 LIFETIME 16 "
        "GROUP BY src ORDER BY n DESC LIMIT 1"
    )
    def tick(_data):
        now = network.now
        rows = [Tuple.make("events", src="hot"), Tuple.make("events", src="hot")]
        network.append_local_rows(0, "events", rows)
        network.append_local_rows(1, "events", [Tuple.make("events", src="cold")])
        if now < 12.0:
            network.nodes[0].runtime.schedule_event(1.0, None, tick)

    network.nodes[0].runtime.schedule_event(0.4, None, tick)
    epochs = []
    cq.on_epoch(epochs.append)
    network.run(24.0)
    assert len(epochs) >= 2
    for epoch in epochs:
        assert len(epoch) == 1, "per-epoch LIMIT 1"
        assert epoch.tuples[0].get("src") == "hot", "per-epoch ORDER BY n DESC"


def test_unbounded_ordered_stream_raises_value_error():
    network = PIERNetwork(4, seed=5)
    for address in range(4):
        network.register_local_table(address, "events", [Tuple.make("events", src="a")])
    stream = network.stream("SELECT src FROM events ORDER BY src TIMEOUT 5")
    with pytest.raises(ValueError, match="unbounded stream"):
        iter(stream).__next__()
    with pytest.raises(ValueError, match="unbounded stream"):
        stream.on_result(lambda tup: None)
    # The ordered *snapshot* path still works.
    result = stream.result()
    assert result.completed
    assert [t.get("src") for t in result.tuples] == sorted(t.get("src") for t in result.tuples)


def test_subscribe_requires_window_clause(live_network):
    with pytest.raises(ValueError, match="WINDOW"):
        live_network.subscribe("SELECT src, COUNT(*) AS n FROM events GROUP BY src")


def test_pause_buffers_and_resume_replays(live_network):
    network = live_network
    cq = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 3 LIFETIME 24 GROUP BY src"
    )
    _feed(network, until=20.0)
    delivered = []
    cq.on_epoch(delivered.append)
    network.run(6.0)
    seen_before_pause = len(delivered)
    cq.pause()
    network.run(9.0)
    assert len(delivered) == seen_before_pause, "paused: no epochs delivered"
    assert len(cq._held) >= 2, "closed epochs buffer while paused"
    cq.resume()
    assert len(delivered) > seen_before_pause, "resume replays the buffer"
    network.run(16.0)
    indexes = [epoch.index for epoch in delivered]
    assert indexes == sorted(indexes), "delivery order survives pause/resume"


def test_lifetime_expiry_while_paused_delivers_buffered_epochs(live_network):
    """A subscription paused at expiry must not lose its buffer: the held
    epochs are delivered before on_done fires."""
    network = live_network
    cq = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 3 LIFETIME 12 GROUP BY src"
    )
    _feed(network, until=10.0)
    delivered = []
    order = []
    cq.on_epoch(lambda e: (delivered.append(e), order.append("epoch")))
    cq.on_done(lambda c: order.append("done"))
    network.run(5.0)
    cq.pause()
    network.run(15.0)
    assert cq.finished
    assert delivered, "buffered epochs were delivered at expiry"
    assert order[-1] == "done", "epochs are delivered before completion fires"


def test_merge_aggregate_with_window_spec_still_folds_raw_tuples():
    """Regression: raw (and epoch-less) inputs to a windowed merge site
    must be folded cumulatively and emitted at flush, not silently lost."""
    from operator_harness import OperatorHarness

    harness = OperatorHarness()
    merge = harness.build(
        "merge_aggregate",
        {
            "group_columns": ["src"],
            "aggregates": [("count", None, "n")],
            "window_spec": {"window": 5.0, "slide": 5.0, "lifetime": 60.0, "grace": 1.0},
        },
    )
    merge.start()
    for _ in range(3):
        merge.receive(Tuple.make("events", src="a"))
    merge.flush()
    assert [t.get("n") for t in harness.results] == [3]


def test_renew_extends_lifetime_across_the_deployment(live_network):
    network = live_network
    # shared=False: this test asserts the *per-query* renew broadcast and
    # per-node deadlines of a private install; shared-plan renewals are
    # covered in tests/cq/test_plan_sharing.py.
    cq = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 4 LIFETIME 10 GROUP BY src",
        shared=False,
    )
    _feed(network, until=26.0)
    epochs = []
    cq.on_epoch(epochs.append)
    network.run(5.0)
    assert not cq.finished
    original_deadline = cq.stream.handle.submitted_at + 10.0
    remaining = cq.renew(16.0)
    assert remaining > 10.0
    network.run(2.0)
    # Every node's opgraphs now tear down at the renewed deadline.
    for node in network.nodes:
        for graph in node.executor.running_graphs():
            if graph.query_id == cq.query_id:
                assert graph.deadline > original_deadline + 10.0
    network.run(25.0)
    assert cq.finished
    # Epochs continued past the original lifetime.
    assert any(epoch.end > original_deadline - network.settle_time for epoch in epochs)
    last_end = max(epoch.end for epoch in epochs)
    assert last_end > original_deadline


def test_repeated_renewals_each_reach_every_node(live_network):
    """Regression: renew control broadcasts need fresh broadcast ids — the
    distribution tree dedups by id, so a constant id would silently drop
    every renewal after the first."""
    network = live_network
    cq = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 4 LIFETIME 8 GROUP BY src",
        shared=False,
    )
    _feed(network, until=34.0)
    epochs = []
    cq.on_epoch(epochs.append)
    network.run(4.0)
    cq.renew(10.0)  # lifetime now 18
    network.run(8.0)
    cq.renew(10.0)  # lifetime now 28
    network.run(2.0)
    second_deadline = cq.stream.handle.submitted_at + 28.0
    for node in network.nodes:
        for graph in node.executor.running_graphs():
            if graph.query_id == cq.query_id:
                assert graph.deadline == pytest.approx(second_deadline, abs=0.5), (
                    "the second renewal must reach every node too"
                )
    network.run(24.0)
    assert cq.finished
    assert max(epoch.end for epoch in epochs) > cq.stream.handle.submitted_at + 18.0


def test_hierarchical_standing_query_evicts_expired_epoch_state(live_network):
    """Long-lived windowed hierarchical aggregates must not hold ledger
    entries for the whole lifetime: epochs past the retention horizon are
    evicted (state is bounded by the window, not the lifetime)."""
    network = live_network
    cq = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 2 LIFETIME 45 GROUP BY src",
        aggregation_strategy="hierarchical",
    )
    _feed(network, until=40.0)
    # Looked at just before the lifetime ends: a finished install record
    # keeps its operators' counters, not their state.
    network.run(44.0)
    assert not cq.finished
    evicted = 0
    for node in network.nodes:
        for graph in node.executor.running_graphs():
            if graph.query_id != cq.query_id:
                continue
            operator = graph.operators.get("hier_agg")
            if operator is None:
                continue
            evicted += operator.epoch_entries_evicted
            live_epochs = {
                key[0] for key in operator._local_cum if isinstance(key, tuple) and key
            }
            if live_epochs:
                span = max(live_epochs) - min(live_epochs)
                assert span * operator.window_spec.slide <= operator._epoch_retention() + 2 * operator.window_spec.slide
    assert evicted > 0, "expired epoch entries were evicted somewhere"
    network.run(6.0)
    assert cq.finished


@pytest.mark.parametrize("scenario", ["hierarchical", "relayed", "flat"])
def test_standing_query_remembers_a_retention_not_its_lifetime(scenario):
    """Regression: the retention docstring promised "state bounded by the
    window, not the lifetime", yet a root kept one delta registration per
    (origin, pane) forever (264 -> 1,639 between t=52 and t=302 on this
    run), both merge sites kept every emitted epoch (23 -> 148), and
    batch-forwarding memory grew with every batch sent or re-packed.
    Everything a standing query remembers must be flat once the first
    retention period has passed."""
    from repro.runtime.churn import ByzantineProcess

    network = PIERNetwork(12, seed=42)
    if scenario == "relayed":
        # Inflating relays re-pack every batch they intercept, which is
        # what exercises the re-forward memory on a quiet network.
        ByzantineProcess(
            network.environment, 0.8, attacks=["inflate_partials"], seed=1, protected=[0]
        )
    for address in range(12):
        network.register_local_table(address, "events", [])
    options = (
        {} if scenario == "flat" else {"aggregation_strategy": "hierarchical", "resilience": True}
    )
    cq = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events GROUP BY src WINDOW 2 SLIDE 2 LIFETIME 400",
        shared=False,
        **options,
    )
    _feed(network, until=390.0)

    def remembered():
        sizes = {"registrations": 0, "nonempty": 0, "emitted": 0, "reforwards": 0, "local": 0}
        for node in network.nodes:
            for graph in node.executor.running_graphs():
                if graph.query_id != cq.query_id:
                    continue
                for operator in graph.operators.values():
                    sizes["emitted"] += len(getattr(operator, "_emitted_epochs", ()))
                    sizes["reforwards"] += len(getattr(operator, "_reforwards", ()))
                    sizes["local"] += len(getattr(operator, "_local_cum", ()))
                    ledger = getattr(operator, "ledger", None)
                    for entry in ledger._entries.values() if ledger else ():
                        sizes["registrations"] += len(entry.deltas)
                        sizes["nonempty"] += sum(1 for delta in entry.deltas.values() if delta)
        return sizes

    network.run(52.9)  # between pane ticks: nothing in flight at either sample
    early = remembered()
    network.run(250.0)
    late = remembered()
    assert len(cq.epochs_delivered) > 140, "the query kept answering throughout"
    assert late == early, "what is remembered at t=302.9 is what was remembered at t=52.9"
    assert early["emitted"] > 0
    if scenario != "flat":
        assert early["registrations"] == early["nonempty"] > 0, "no emptied registrations linger"
    if scenario == "relayed":
        assert early["reforwards"] > 0


def test_lifetime_expiry_tears_down_cleanly(live_network):
    network = live_network
    cq = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 3 LIFETIME 9 GROUP BY src"
    )
    _feed(network, until=8.0)
    done = []
    cq.on_done(lambda c: done.append(c.query_id))
    network.run(16.0)
    assert cq.finished and done == [cq.query_id]
    for node in network.nodes:
        running = [g for g in node.executor.running_graphs() if g.query_id == cq.query_id]
        assert not running, "opgraphs stop when the lifetime expires"
    # The standing query's DHT rendezvous state was released.
    prefix = f"{cq.query_id}:"
    for node in network.nodes:
        assert not [
            ns for ns in node.overlay.object_manager.namespaces() if ns.startswith(prefix)
        ]


def test_explain_renders_window_clause(live_network):
    report = live_network.explain(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 30 SLIDE 10 LIFETIME 120 GROUP BY src"
    )
    assert "continuous query: sliding window" in report
    assert "lifetime 120s" in report


def test_first_result_latency_reported_in_both_subscription_modes():
    """ContinuousQuery.first_result_latency: private mode reports the
    stream's first result tuple; shared mode (no private stream) reports
    the close of the first delivered epoch."""
    network = PIERNetwork(8, seed=19)
    for address in range(8):
        network.register_local_table(
            address, "events", [Tuple.make("events", src=f"s{address % 2}")]
        )
    sql = "SELECT src, COUNT(*) AS n FROM events WINDOW 4 LIFETIME 14 GROUP BY src"
    shared = network.subscribe(sql)
    private = network.subscribe(sql, shared=False)
    assert shared.first_result_latency is None
    assert private.first_result_latency is None

    network.run(20.0)

    assert shared.epochs_delivered, "the shared subscription delivered epochs"
    for cq in (shared, private):
        latency = cq.first_result_latency
        assert latency is not None and 0.0 < latency < 14.0
    # Shared mode measures to the first epoch's watermark: it cannot beat
    # the window length (nothing is delivered before the first pane closes).
    assert shared.first_result_latency >= 4.0
