"""The multi-query sharing subsystem: plan fingerprints, the deployment
sharing registry, pane-compatible subscribers at different slides, the
composed lifecycle verbs (renew / cancel / expiry refcounts), and the
explain surface.
"""

from __future__ import annotations

import pytest

from repro import PIERNetwork
from repro.qp.fingerprint import plan_components, plan_fingerprint
from repro.qp.tuples import Tuple


def _network(nodes: int = 8, seed: int = 42) -> PIERNetwork:
    network = PIERNetwork(nodes, seed=seed)
    network.create_table("events", source="local")
    for address in range(nodes):
        network.register_local_table(address, "events", [])
    return network


def _feed(network: PIERNetwork, until: float, interval: float = 1.0):
    """Append one row per node per tick, recording publish times."""
    log = []

    def tick(_data):
        now = network.now
        for address in range(len(network)):
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


def _assert_exact(epochs, log):
    assert epochs, "the subscriber must deliver at least one epoch"
    for epoch in epochs:
        truth = _truth(log, epoch.start, epoch.end)
        counts = {t.get("src"): t.get("n") for t in epoch.tuples}
        assert counts == truth, (
            f"epoch {epoch.index} [{epoch.start}, {epoch.end}) must be exact"
        )


# -- fingerprints -------------------------------------------------------------------- #

def test_fingerprint_ignores_window_geometry_and_clauses():
    """Same aggregation at different windows / slides / lifetimes / ORDER
    BY shares one fingerprint — geometry is served client-side."""
    network = _network(4, seed=7)
    base = network.plan_sql(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 10 SLIDE 5 LIFETIME 60 GROUP BY src"
    )
    fingerprint = plan_fingerprint(base)
    assert fingerprint is not None
    for sql in [
        "SELECT src, COUNT(*) AS n FROM events WINDOW 20 SLIDE 10 LIFETIME 30 GROUP BY src",
        "SELECT src, COUNT(*) AS n FROM events WINDOW 5 LIFETIME 120 GROUP BY src",
        "SELECT src, COUNT(*) AS n FROM events WINDOW 10 SLIDE 5 LIFETIME 60 "
        "GROUP BY src ORDER BY n DESC LIMIT 3",
    ]:
        assert plan_fingerprint(network.plan_sql(sql)) == fingerprint, sql


def test_fingerprint_is_sensitive_to_what_the_plan_computes():
    network = _network(4, seed=7)
    base = plan_fingerprint(
        network.plan_sql(
            "SELECT src, COUNT(*) AS n FROM events WINDOW 10 LIFETIME 60 GROUP BY src"
        )
    )
    different = [
        # different predicate
        "SELECT src, COUNT(*) AS n FROM events WHERE src = 's0' "
        "WINDOW 10 LIFETIME 60 GROUP BY src",
        # different aggregate set
        "SELECT src, COUNT(*) AS n, MIN(src) AS lo FROM events "
        "WINDOW 10 LIFETIME 60 GROUP BY src",
        # different output name
        "SELECT src, COUNT(*) AS total FROM events WINDOW 10 LIFETIME 60 GROUP BY src",
    ]
    for sql in different:
        assert plan_fingerprint(network.plan_sql(sql)) != base, sql


def test_fingerprint_spans_aggregation_strategies():
    """Flat and hierarchical execution of one aggregation produce the
    same results, so they share one fingerprint (and one install)."""
    network = _network(4, seed=7)
    sql = "SELECT src, COUNT(*) AS n FROM events WINDOW 10 LIFETIME 60 GROUP BY src"
    flat = network.plan_sql(sql, aggregation_strategy="flat")
    hier = network.plan_sql(sql, aggregation_strategy="hierarchical")
    assert plan_components(flat).strategy == "flat"
    assert plan_components(hier).strategy == "hierarchical"
    assert plan_fingerprint(flat) == plan_fingerprint(hier)


def test_one_shot_plans_are_not_shareable():
    network = _network(4, seed=7)
    plan = network.plan_sql("SELECT src, COUNT(*) AS n FROM events GROUP BY src")
    assert plan_components(plan) is None
    assert plan_fingerprint(plan) is None


# -- shared install + exactness ------------------------------------------------------- #

def test_identical_subscribers_share_one_install_with_exact_epochs():
    network = _network()
    sql = "SELECT src, COUNT(*) AS n FROM events WINDOW 4 LIFETIME 24 GROUP BY src"
    first = network.subscribe(sql)
    second = network.subscribe(sql, proxy=3)
    assert first.shared is not None and first.shared is second.shared
    assert first.query_id == second.query_id
    assert network.sharing.shared_installs == 1
    assert network.sharing.attachments == 2
    assert first.shared.subscriber_count == 2
    # Exactly one standing query runs in the deployment.  (The proxy's own
    # node installs from a zero-delay event, not inside subscribe().)
    network.run(0.0)
    running_ids = {
        graph.query_id
        for node in network.nodes
        for graph in node.executor.running_graphs()
    }
    assert running_ids == {first.shared.query_id}

    log = _feed(network, until=22.0)
    first_epochs, second_epochs = [], []
    first.on_epoch(first_epochs.append)
    second.on_epoch(second_epochs.append)
    network.run(34.0)
    assert first.finished and second.finished
    assert len(first_epochs) >= 3
    _assert_exact(first_epochs, log)
    _assert_exact(second_epochs, log)
    # Both subscribers saw the same windows.
    assert [e.index for e in first_epochs] == [e.index for e in second_epochs]


def test_subscribers_at_different_slides_share_one_pane_stream():
    """A 4s-tumbling and an 8s-tumbling subscriber ride one shared plan
    at 4s panes; each re-assembles its own exact epochs."""
    network = _network()
    fine = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 4 LIFETIME 28 GROUP BY src"
    )
    coarse = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 8 LIFETIME 28 GROUP BY src",
        proxy=5,
    )
    assert coarse.shared is fine.shared
    assert network.sharing.shared_installs == 1

    log = _feed(network, until=26.0)
    fine_epochs, coarse_epochs = [], []
    fine.on_epoch(fine_epochs.append)
    coarse.on_epoch(coarse_epochs.append)
    network.run(40.0)
    assert fine.finished and coarse.finished
    assert len(fine_epochs) >= 4 and len(coarse_epochs) >= 2
    _assert_exact(fine_epochs, log)
    _assert_exact(coarse_epochs, log)
    for epoch in fine_epochs:
        assert epoch.end - epoch.start == pytest.approx(4.0)
    for epoch in coarse_epochs:
        assert epoch.end - epoch.start == pytest.approx(8.0)


def test_incompatible_slide_gets_a_private_install():
    """A slide that is not a multiple of the shared pane width cannot be
    served from the shared stream — it falls back to a private install."""
    network = _network()
    shared_cq = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 4 LIFETIME 20 GROUP BY src"
    )
    private_cq = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 6 LIFETIME 20 GROUP BY src"
    )
    assert shared_cq.shared is not None
    assert private_cq.shared is None
    assert network.sharing.incompatible_installs == 1
    log = _feed(network, until=18.0)
    shared_epochs, private_epochs = [], []
    shared_cq.on_epoch(shared_epochs.append)
    private_cq.on_epoch(private_epochs.append)
    network.run(32.0)
    _assert_exact(shared_epochs, log)
    _assert_exact(private_epochs, log)


def test_forced_private_install_with_shared_false():
    network = _network()
    cq = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 4 LIFETIME 12 GROUP BY src",
        shared=False,
    )
    assert cq.shared is None
    assert network.sharing.fresh_installs == 1
    assert network.sharing.active_plans == []
    cq.cancel()


# -- lifecycle: cancel / renew / refcounted teardown ----------------------------------- #

def test_mid_epoch_cancel_keeps_the_epoch_exact_for_survivors():
    """A subscriber cancelling mid-epoch must neither drop nor
    double-deliver that epoch for the surviving subscribers."""
    network = _network()
    sql = "SELECT src, COUNT(*) AS n FROM events WINDOW 4 LIFETIME 24 GROUP BY src"
    leaver = network.subscribe(sql)
    survivor = network.subscribe(sql, proxy=2)
    shared = survivor.shared
    log = _feed(network, until=22.0)
    survivor_epochs = []
    survivor.on_epoch(survivor_epochs.append)

    network.run(6.0)
    # Cancel strictly inside a window (not on a pane boundary).
    offset = network.now % 4.0
    if offset < 0.5 or offset > 3.5:
        network.run(1.3)
    cancel_time = network.now
    assert leaver.cancel() is True
    assert leaver.finished and leaver.cancelled
    # Only the refcount dropped: the shared plan keeps running.
    assert shared.subscriber_count == 1
    assert not shared.finished

    network.run(34.0)
    assert survivor.finished
    _assert_exact(survivor_epochs, log)
    spanning = [
        e for e in survivor_epochs if e.start <= cancel_time < e.end
    ]
    assert len(spanning) == 1, (
        "the epoch in flight at cancel time is delivered exactly once "
        "to the survivor"
    )


def test_renew_extends_the_shared_deadline_to_the_subscriber_max():
    network = _network()
    sql = "SELECT src, COUNT(*) AS n FROM events WINDOW 4 LIFETIME 10 GROUP BY src"
    short = network.subscribe(sql)
    shared = short.shared
    log = _feed(network, until=30.0)
    epochs = []
    short.on_epoch(epochs.append)
    network.run(4.0)
    deadline_before = shared.deadline
    remaining = short.renew(16.0)
    assert remaining > 10.0
    assert shared.deadline >= short.deadline
    assert shared.deadline > deadline_before + 10.0
    network.run(36.0)
    assert short.finished
    _assert_exact(epochs, log)
    # Epochs continued past the original lifetime.
    assert max(epoch.end for epoch in epochs) > deadline_before


def test_teardown_only_at_refcount_zero():
    """cancel()/expiry decrement refcounts; the shared opgraph and its
    registry entry survive until the last subscriber detaches."""
    network = _network()
    sql = "SELECT src, COUNT(*) AS n FROM events WINDOW 4 LIFETIME 20 GROUP BY src"
    first = network.subscribe(sql)
    second = network.subscribe(sql, proxy=4)
    shared = first.shared
    _feed(network, until=10.0)
    network.run(6.0)
    assert first.cancel()
    assert len(network.sharing.active_plans) == 1, "one refcount left"
    assert any(
        graph.query_id == shared.query_id
        for node in network.nodes
        for graph in node.executor.running_graphs()
    )
    assert second.cancel()
    assert network.sharing.active_plans == []
    network.run(2.0)
    assert not any(
        graph.query_id == shared.query_id
        for node in network.nodes
        for graph in node.executor.running_graphs()
    ), "zero refcounts: the shared opgraphs are gone everywhere"
    # A new subscription after teardown gets a fresh shared install.
    third = network.subscribe(sql)
    assert third.shared is not shared
    assert network.sharing.shared_installs == 2
    third.cancel()


def test_sanitized_teardown_leaves_no_timers_or_buffers(monkeypatch):
    """PIER_SANITIZE=1: after the last subscriber detaches, the shared
    teardown must pass the per-query timer/buffer ledger audit on every
    node (the sanitizer raises on any leak)."""
    monkeypatch.setenv("PIER_SANITIZE", "1")
    network = _network(6, seed=11)
    sql = "SELECT src, COUNT(*) AS n FROM events WINDOW 4 LIFETIME 16 GROUP BY src"
    first = network.subscribe(sql)
    second = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 8 LIFETIME 16 GROUP BY src",
        proxy=3,
    )
    assert second.shared is first.shared
    _feed(network, until=12.0)
    network.run(6.0)
    first.cancel()  # mid-run detach
    network.run(30.0)  # second expires -> refcount zero -> teardown
    assert second.finished
    assert network.sharing.active_plans == []
    assert not any(
        node.executor.running_graphs() for node in network.nodes
    ), "no standing opgraphs survive the last detach"
    assert not any(node._pane_listeners for node in network.nodes)


# -- explain ------------------------------------------------------------------------ #

def test_explain_renders_the_sharing_line():
    network = _network()
    sql = "SELECT src, COUNT(*) AS n FROM events WINDOW 4 LIFETIME 30 GROUP BY src"
    fresh = network.explain(sql)
    assert "sharing: fingerprint " in fresh
    assert "fresh shared install (pane width 4s)" in fresh
    assert "current subscribers: 0" in fresh

    cq = network.subscribe(sql)
    attached = network.explain(sql)
    assert f"attach to shared plan {cq.query_id}" in attached
    assert "current subscribers: 1" in attached

    incompatible = network.explain(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 6 LIFETIME 30 GROUP BY src"
    )
    assert "fresh per-client install" in incompatible

    unshareable = network.explain("SELECT src, COUNT(*) AS n FROM events GROUP BY src")
    assert "sharing:" not in unshareable  # one-shot plans render no sharing line
    cq.cancel()
