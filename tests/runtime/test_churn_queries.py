"""Churn-resilient query execution: coverage, root handoff, rejoin.

These are the end-to-end scenarios of the churn workload: a publisher dies
mid-aggregation (coverage drops, the answer stays sane), the aggregation
tree's root dies (handoff recovers exact totals), and a node recovers
mid-continuous-query (re-dissemination brings its data back).
"""

from __future__ import annotations

import pytest

from repro import PIERNetwork
from repro.overlay.identifiers import object_identifier
from repro.qp.plans import flat_aggregation_plan, hierarchical_aggregation_plan
from repro.qp.resilience import ResiliencePolicy
from repro.qp.tuples import Tuple
from repro.runtime.churn import ChurnProcess
from repro.runtime.simulation import SimulationEnvironment


def _root_owner(network: PIERNetwork, plan) -> int:
    """The node currently responsible for the plan's aggregation-tree root."""
    namespace = f"{plan.query_id}:__hierarchical_aggregate__"
    root_identifier = object_identifier(namespace, "root")
    owners = [
        node.address
        for node in network.nodes
        if node.overlay.router.is_responsible(root_identifier)
    ]
    assert len(owners) == 1, f"settled network must have one root owner, got {owners}"
    return owners[0]


def _totals(results) -> dict:
    return {row["src"]: row["n"] for row in (t.as_mapping() for t in results)}


def test_publisher_failure_drops_coverage_but_query_completes():
    network = PIERNetwork(16, seed=51)
    plan = hierarchical_aggregation_plan(
        "events", ["src"], [("count", None, "n")], timeout=12, local_wait=1.0, hold=0.5
    )
    owner = _root_owner(network, plan)
    network.create_table("events", source="local")
    for address in range(16):
        network.register_local_table(
            address, "events", [Tuple.make("events", src="a"), Tuple.make("events", src="b")]
        )
    victim = next(a for a in range(16) if a not in (0, owner))
    policy = ResiliencePolicy.enabled(liveness_interval=1.0, root_monitor_interval=0.5)
    stream = network.stream(plan, proxy=0, resilience=policy)

    network.run(0.5)
    network.fail_node(victim)  # dies before its local_wait shipment
    network.run(3.0)
    # The stream's live view already reflects the failure.
    assert victim in stream.down_nodes
    assert stream.coverage == pytest.approx(15 / 16)

    result = stream.result()
    totals = _totals(result.tuples)
    # The victim's two rows are gone; everyone else's data arrived.
    assert totals == {"a": 15, "b": 15}
    assert result.coverage == pytest.approx(15 / 16)
    assert result.down_nodes == [victim]
    assert result.completed


def test_root_failure_hands_off_and_recovers_exact_totals():
    network = PIERNetwork(20, seed=52)
    plan = hierarchical_aggregation_plan(
        "events", ["src"], [("count", None, "n")], timeout=16, local_wait=1.0, hold=0.5
    )
    owner = _root_owner(network, plan)
    # Every surviving node contributes identically; the root owner holds no
    # data, so the churn-free totals are exactly (N-1) per group.
    network.create_table("events", source="local")
    for address in range(20):
        rows = [] if address == owner else [
            Tuple.make("events", src="a"), Tuple.make("events", src="b")
        ]
        network.register_local_table(address, "events", rows)
    proxy = 0 if owner != 0 else 1
    policy = ResiliencePolicy.enabled(liveness_interval=1.0, root_monitor_interval=0.5)
    handle = network.submit(plan, proxy=proxy, resilience=policy)

    # Let partials ship and merge at the root, then kill the root while it
    # holds all merged state.
    network.run(4.0)
    network.fail_node(owner)
    network.run(plan.timeout + 3.0)

    assert handle.finished
    totals = _totals(handle.results)
    assert totals == {"a": 19, "b": 19}, "handoff must recover the full totals"
    assert handle.coverage == pytest.approx(19 / 20)


def test_churn_process_killing_the_root_still_yields_correct_totals():
    """Regression for ChurnProcess.protected only shielding the proxy: the
    aggregation-tree root owner can be failed while holding all merged
    state; with handoff, totals still come out right."""
    network = PIERNetwork(16, seed=54)
    plan = hierarchical_aggregation_plan(
        "events", ["src"], [("count", None, "n")], timeout=16, local_wait=1.0, hold=0.5
    )
    owner = _root_owner(network, plan)
    network.create_table("events", source="local")
    for address in range(16):
        rows = [] if address == owner else [
            Tuple.make("events", src="a"), Tuple.make("events", src="b")
        ]
        network.register_local_table(address, "events", rows)
    proxy = 0 if owner != 0 else 1
    # The churn process may only fail the root owner: everyone else is
    # statically protected, so the failure deterministically hits the one
    # node the old code could not afford to lose.
    churn = ChurnProcess(
        network.environment,
        interval=3.0,
        session_time=1000.0,
        protected=[a for a in range(16) if a != owner],
        seed=1,
        recover=False,
    )
    network.attach_churn(churn)  # turns on default resilience + proxy shield
    churn.start()

    handle = network.submit(plan, proxy=proxy)
    network.run(plan.timeout + 4.0)
    churn.stop()

    assert [event.address for event in churn.history] == [owner]
    assert handle.finished
    assert _totals(handle.results) == {"a": 15, "b": 15}


def test_recovered_node_rejoins_continuous_query_via_redissemination():
    network = PIERNetwork(12, seed=53)
    network.create_table("events", source="local")
    for address in range(12):
        network.register_local_table(
            address, "events", [Tuple.make("events", src=f"s{address % 3}")]
        )
    plan = flat_aggregation_plan("events", ["src"], [("count", None, "n")], timeout=24)
    victim = 5
    policy = ResiliencePolicy.enabled(liveness_interval=2.0)
    handle = network.submit(plan, proxy=0, resilience=policy)

    network.run(1.0)
    network.fail_node(victim)  # before the first partial window ships
    network.run(7.0)
    assert victim in handle.down_nodes
    installs_before = network.node(victim).executor.graphs_installed
    network.recover_node(victim)  # purge + overlay rejoin + re-dissemination
    network.run(plan.timeout)

    assert handle.finished
    assert handle.redisseminations >= 1
    assert network.node(victim).executor.graphs_installed > installs_before
    totals = _totals(handle.results)
    # The victim's row is back: every node's data is counted exactly once.
    assert sum(totals.values()) == 12
    assert totals == {"s0": 4, "s1": 4, "s2": 4}
    assert handle.coverage == 1.0, "a rejoined participant counts as covered"


def test_churn_protected_provider_shields_dynamic_set():
    environment = SimulationEnvironment(10)
    churn = ChurnProcess(environment, interval=1.0, seed=7, recover=False)
    shielded = {3, 4}
    churn.register_protected_provider(lambda: shielded)
    churn.start()
    environment.run(30.0)
    failed = {event.address for event in churn.history if event.action == "fail"}
    assert not failed & shielded
    assert failed == set(range(10)) - shielded  # everyone else eventually fails


def test_attach_churn_rejects_foreign_environment():
    network = PIERNetwork(4, seed=55)
    other = SimulationEnvironment(4)
    churn = ChurnProcess(other, interval=1.0)
    with pytest.raises(ValueError):
        network.attach_churn(churn)


def test_sql_surface_reports_coverage_under_failure():
    """The one-call SQL path carries the resilience knobs end to end."""
    network = PIERNetwork(10, seed=56)
    network.create_table("readings", partitioning=["sensor"])
    network.publish(
        "readings", [Tuple.make("readings", sensor=i, v=i) for i in range(30)]
    )
    network.run(2.0)
    victim = 7
    network.fail_node(victim)
    result = network.query(
        "SELECT sensor, COUNT(*) AS n FROM readings GROUP BY sensor TIMEOUT 8",
        resilience={"liveness_interval": 1.0},
        include_explain=False,
    )
    assert result.coverage == pytest.approx(9 / 10)
    assert result.down_nodes == [victim]
    assert len(result) > 0  # the rest of the DHT partitions still answer


def test_stream_resilience_opt_out_overrides_deployment_default():
    """Regression: stream(sql, resilience=False) used to be silently
    re-resolved back to the deployment default inside submit()."""
    network = PIERNetwork(6, seed=57)
    churn = ChurnProcess(network.environment, interval=100.0)
    network.attach_churn(churn)  # default_resilience now fully enabled
    network.create_table("events", source="local")
    for address in range(6):
        network.register_local_table(address, "events", [Tuple.make("events", src="a")])
    plan = flat_aggregation_plan("events", ["src"], [("count", None, "n")], timeout=6)
    stream = network.stream(plan, resilience=False)
    assert not stream.handle.resilience.active
    assert plan.metadata["resilience"]["handoff"] is False
    stream.cancel()


def test_standing_windowed_aggregate_survives_root_failure_with_exact_epochs():
    """A continuous windowed hierarchical aggregate keeps delivering exact
    per-window totals across an aggregation-tree root failure: origins
    re-ship their epoch-stamped cumulative contributions and the new root
    emits each window at its watermark."""
    network = PIERNetwork(16, seed=52)
    network.create_table("events", source="local")
    for address in range(16):
        network.register_local_table(address, "events", [])
    policy = ResiliencePolicy.enabled(liveness_interval=1.0, root_monitor_interval=0.5)
    cq = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 6 LIFETIME 40 GROUP BY src",
        aggregation_strategy="hierarchical",
        resilience=policy,
    )
    # Under plan sharing the installed query is the shared plan, so the
    # aggregation-tree root belongs to *its* query id, not the handle's.
    owner = _root_owner(network, cq.shared.plan if cq.shared is not None else cq.plan)

    log = []

    def tick(_data):
        now = network.now
        # The root owner holds no data, so totals are exact even for the
        # window in which it dies (its unshipped local pane dies with it).
        for address in range(16):
            if address != owner and network.environment.is_alive(address):
                network.append_local_rows(
                    address, "events", [Tuple.make("events", src="s")]
                )
                log.append(now)
        if now < 36.0:
            network.nodes[0].runtime.schedule_event(1.0, None, tick)

    network.nodes[0].runtime.schedule_event(0.4, None, tick)
    epochs = []
    cq.on_epoch(epochs.append)

    network.run(8.0)  # epoch 0 emitted by the original root
    network.fail_node(owner)  # dies holding epoch-1 state
    network.run(40.0)

    assert cq.finished
    assert len(epochs) >= 4
    for epoch in epochs:
        truth = sum(1 for t in log if epoch.start <= t < epoch.end)
        counts = {t.get("src"): t.get("n") for t in epoch.tuples}
        assert counts == {"s": truth}, (
            f"epoch {epoch.index} [{epoch.start}, {epoch.end}) must stay exact "
            f"across the root handoff"
        )
    assert owner in cq.down_nodes
    assert cq.coverage == pytest.approx(15 / 16)


def test_rejoining_node_reinstalls_standing_query_with_remaining_lifetime():
    """Rejoin re-dissemination re-installs a standing windowed query with
    its *remaining* lifetime (not the original), and the recovered node's
    data rejoins subsequent window epochs."""
    network = PIERNetwork(12, seed=53)
    network.create_table("events", source="local")
    for address in range(12):
        network.register_local_table(address, "events", [])
    # shared=False: this test inspects the private handle's
    # redissemination counter and per-node deadlines; the shared-plan
    # rejoin path is covered in tests/cq/test_shared_plan_churn.py.
    cq = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 5 LIFETIME 35 GROUP BY src",
        resilience=ResiliencePolicy.enabled(liveness_interval=1.0),
        shared=False,
    )
    victim = 5
    log = []

    def tick(_data):
        now = network.now
        for address in range(12):
            if network.environment.is_alive(address):
                network.append_local_rows(
                    address, "events", [Tuple.make("events", src="s")]
                )
                log.append((now, address))
        if now < 30.0:
            network.nodes[0].runtime.schedule_event(1.0, None, tick)

    network.nodes[0].runtime.schedule_event(0.4, None, tick)
    epochs = []
    cq.on_epoch(epochs.append)

    network.run(4.0)
    network.fail_node(victim)
    network.run(6.0)
    installs_before = network.node(victim).executor.graphs_installed
    network.recover_node(victim)
    network.run(0.5)

    assert cq.stream.handle.redisseminations >= 1
    reinstalled = [
        graph
        for graph in network.node(victim).executor.running_graphs()
        if graph.query_id == cq.query_id
    ]
    assert network.node(victim).executor.graphs_installed > installs_before
    assert reinstalled, "the standing query was re-installed on the rejoined node"
    query_deadline = cq.stream.handle.submitted_at + cq.plan.timeout
    for graph in reinstalled:
        # Remaining lifetime, not the original: the re-installed graph tears
        # down with the query (within a routing-latency slack), far earlier
        # than a full lifetime from the reinstall.
        assert graph.deadline == pytest.approx(query_deadline, abs=0.5)
        assert graph.deadline < graph.started_at + cq.plan.timeout - 5.0

    network.run(34.0)
    assert cq.finished
    assert cq.coverage == 1.0, "the rejoined participant counts as covered"
    # Epochs after the rejoin include the victim's feed again, exactly.
    post_rejoin = [epoch for epoch in epochs if epoch.start > network.now - 40.0 and epoch.start >= 12.0]
    assert post_rejoin, "standing query kept delivering epochs after the rejoin"
    for epoch in post_rejoin:
        truth = sum(1 for t, _a in log if epoch.start <= t < epoch.end)
        counts = {t.get("src"): t.get("n") for t in epoch.tuples}
        assert counts == {"s": truth}
        victim_rows = sum(
            1 for t, a in log if a == victim and epoch.start <= t < epoch.end
        )
        assert victim_rows > 0, "the victim's data is back in the window"


def test_byzantine_attacker_killed_and_rejoined_does_not_double_count():
    """Byzantine × churn composition: an adversarial node that dies and
    rejoins mid-query ships a fresh incarnation of its (honest) local
    data.  The integrity layer must count that origin exactly once — the
    newest-incarnation rule holds in the root ledger *and* in the proxy's
    self-report collection — while still catching the attackers that
    stayed up."""
    from repro.qp.integrity import IntegrityPolicy
    from repro.runtime.churn import ByzantineProcess

    network = PIERNetwork(20, seed=52)
    adversary = ByzantineProcess(network.environment, 0.2, seed=3, protected=[0])
    network.create_table("events", source="local")
    for address in range(20):
        network.register_local_table(
            address, "events", [Tuple.make("events", src="a"), Tuple.make("events", src="b")]
        )
    plan = hierarchical_aggregation_plan(
        "events", ["src"], [("count", None, "n")], timeout=16, local_wait=1.0, hold=0.5
    )
    # Pin the query id so root placement (and therefore which batches cross
    # attacker custody) doesn't depend on the process-global query counter.
    plan.query_id = "q-byz-churn"
    plan.opgraphs[0].graph_id = "q-byz-churn-g0"
    policy = ResiliencePolicy.enabled(liveness_interval=1.0, root_monitor_interval=0.5)
    handle = network.submit(
        plan, proxy=0, resilience=policy, integrity=IntegrityPolicy.enabled()
    )

    network.run(4.0)  # first incarnation's contribution has shipped
    victim = adversary.attacker_addresses[0]
    network.fail_node(victim)
    network.run(3.0)
    network.recover_node(victim)  # rejoin re-dissemination reinstalls all replicas
    network.run(plan.timeout)

    assert handle.finished
    assert handle.redisseminations >= 1
    assert _totals(handle.results) == {"a": 20, "b": 20}, (
        "the rejoined attacker's origin must be counted exactly once"
    )
    assert handle.coverage == 1.0
    report = handle.integrity_report
    assert report is not None
    # The adversaries that stayed up kept attacking — and kept being caught.
    attacked = adversary.attacked_pairs()
    assert attacked
    flagged = set(report.failed_pairs)
    assert len(flagged & attacked) / len(attacked) >= 0.9


def _assert_trace_integrity(tracer, trace_id):
    """The churn-safety contract for a trace: one root, unique span ids,
    every parent link resolving inside the trace (no orphans), and no
    duplicated submit from handoff or re-dissemination."""
    spans = tracer.spans_for(trace_id)
    assert spans, f"trace {trace_id} recorded no spans"
    span_ids = [span.span_id for span in spans]
    assert len(span_ids) == len(set(span_ids)), "duplicated span ids"
    roots = [span for span in spans if span.name == "query.submit"]
    assert len(roots) == 1, (
        f"exactly one query.submit root expected, got {len(roots)} — "
        "handoff/re-dissemination must extend the trace, not restart it"
    )
    known = set(span_ids)
    orphans = [
        span
        for span in spans
        if span.parent_id is not None and span.parent_id not in known
    ]
    assert not orphans, f"orphaned spans (parents outside the trace): {orphans[:3]}"
    return spans


def test_trace_survives_root_handoff_without_orphan_spans():
    """Tracing stays causally stitched across an aggregation-tree root
    failure: the post-handoff work (new root's merges, the finish event)
    lands in the *same* trace under the same submit root."""
    network = PIERNetwork(20, seed=52)
    network.enable_tracing()
    plan = hierarchical_aggregation_plan(
        "events", ["src"], [("count", None, "n")], timeout=16, local_wait=1.0, hold=0.5
    )
    owner = _root_owner(network, plan)
    network.create_table("events", source="local")
    for address in range(20):
        rows = [] if address == owner else [
            Tuple.make("events", src="a"), Tuple.make("events", src="b")
        ]
        network.register_local_table(address, "events", rows)
    proxy = 0 if owner != 0 else 1
    policy = ResiliencePolicy.enabled(liveness_interval=1.0, root_monitor_interval=0.5)
    handle = network.submit(plan, proxy=proxy, resilience=policy)

    network.run(4.0)
    network.fail_node(owner)
    network.run(plan.timeout + 3.0)

    assert handle.finished
    assert _totals(handle.results) == {"a": 19, "b": 19}

    trace_id = f"t-{plan.query_id}"
    spans = _assert_trace_integrity(network.tracer, trace_id)
    names = {span.name for span in spans}
    assert {"query.submit", "query.disseminate", "opgraph.install",
            "operator.work", "query.finish"} <= names
    # Work recorded after the root died is still part of this trace.
    failed_at = 4.0
    post_failure = [s for s in spans if s.start > failed_at and s.node != owner]
    assert post_failure, "the handoff's work must extend the original trace"


def test_rejoin_redissemination_extends_the_same_trace():
    """Rejoin re-dissemination re-installs the opgraph under the original
    trace context: the victim's second install shows up as another
    opgraph.install span in the same trace, with no orphaned or
    duplicated spans."""
    network = PIERNetwork(12, seed=53)
    network.enable_tracing()
    network.create_table("events", source="local")
    for address in range(12):
        network.register_local_table(
            address, "events", [Tuple.make("events", src=f"s{address % 3}")]
        )
    plan = flat_aggregation_plan("events", ["src"], [("count", None, "n")], timeout=24)
    victim = 5
    policy = ResiliencePolicy.enabled(liveness_interval=2.0)
    handle = network.submit(plan, proxy=0, resilience=policy)

    network.run(1.0)
    network.fail_node(victim)
    network.run(7.0)
    network.recover_node(victim)
    network.run(plan.timeout)

    assert handle.finished
    assert handle.redisseminations >= 1

    trace_id = f"t-{plan.query_id}"
    spans = _assert_trace_integrity(network.tracer, trace_id)
    installs = [s for s in spans if s.name == "opgraph.install" and s.node == victim]
    assert len(installs) >= 2, (
        "the rejoined node's re-install must be traced alongside its "
        f"original install, got {len(installs)}"
    )
    # Both installs hang off the same trace root — the re-dissemination
    # reused the envelope's context instead of minting a fresh trace.
    root = next(s for s in spans if s.name == "query.submit")
    known = {s.span_id for s in spans}
    for install in installs:
        assert install.parent_id in known
    assert all(s.trace_id == trace_id for s in installs)
    assert root.attrs.get("query_id") == plan.query_id


def test_confirmed_failure_without_redissemination_stays_uncovered():
    """Regression: a recovered node whose opgraphs were purged but never
    re-installed must not snap coverage back to 1.0."""
    network = PIERNetwork(8, seed=58)
    network.create_table("events", source="local")
    for address in range(8):
        network.register_local_table(address, "events", [Tuple.make("events", src="a")])
    plan = flat_aggregation_plan("events", ["src"], [("count", None, "n")], timeout=12)
    handle = network.submit(
        plan, proxy=0, resilience={"liveness_interval": 1.0, "redisseminate": False}
    )
    network.run(1.0)
    network.fail_node(5)
    network.run(3.0)
    assert handle.coverage == pytest.approx(7 / 8)
    network.recover_node(5)  # purges node 5's opgraphs; nothing re-installs them
    network.run(plan.timeout)
    assert handle.finished
    assert handle.redisseminations == 0
    assert 5 in handle.down_nodes, "no re-dissemination -> contribution still missing"
    assert handle.coverage == pytest.approx(7 / 8)
