"""Shared epoch assembly: a node buffers a shared plan's pane bursts once,
and the subscribers attached through it that agree on what an epoch is
(one :class:`~repro.cq.panes.EpochGroup`) have each epoch merged,
finalized and ordered once — while everything that is per subscriber
(callbacks, pause/resume, warm-up, lifetime, early close) stays per
subscriber, and nobody can tell the difference from a private install.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import PIERNetwork
from repro.apps.network_monitor import FIREWALL_TABLE, NetworkMonitorApp
from repro.cq.panes import PaneBuffer, pane_blocks
from repro.cq.windows import EPOCH_COLUMN, WindowSpec
from repro.obs.metrics import collect_deployment_metrics
from repro.qp.aggregates import AggregateSpec
from repro.qp.fingerprint import PlanComponents
from repro.qp.tuples import Tuple
from repro.workloads.firewall import FirewallWorkload

NODES = 6
PROXY = 2


def _deployment(seed: int = 31, feed_for: float = 30.0):
    network = PIERNetwork(NODES, seed=seed)
    workload = FirewallWorkload(
        node_count=NODES, events_per_node=200, source_pool=12, seed=seed
    )
    feed = NetworkMonitorApp(network).attach_live_feed(
        workload, interval=1.0, events_per_tick=2, duration=feed_for
    )
    return network, feed


def _sql(clause: str, lifetime: float = 30.0, tail: str = "") -> str:
    return (
        f"SELECT source_ip, COUNT(*) AS events FROM {FIREWALL_TABLE} "
        f"{clause} LIFETIME {lifetime:g} GROUP BY source_ip{tail}"
    )


def _counts(epoch) -> dict:
    return {t.get("source_ip"): t.get("events") for t in epoch.tuples}


def _signature(epochs) -> list:
    """Epochs as comparable values: bounds plus rows, order-insensitive
    (a private install and a shared one enumerate groups differently)."""
    return [
        (e.index, e.start, e.end, sorted(_counts(e).items())) for e in epochs
    ]


def _assert_exact(epochs, feed, start=None):
    assert epochs, "the subscriber must deliver at least one epoch"
    for epoch in epochs:
        truth = feed.true_window_counts(epoch.start if start is None else start, epoch.end)
        assert _counts(epoch) == truth, f"epoch {epoch.index} [{epoch.start}, {epoch.end})"


# -- (a) one assembly per epoch, answers equal to a private install ------------------- #

def test_sixteen_subscribers_assemble_each_epoch_once_and_match_a_private_install():
    network, feed = _deployment()
    subscribers = [network.subscribe(_sql("WINDOW 5"), proxy=PROXY) for _ in range(16)]
    shared = subscribers[0].shared
    assert all(cq.shared is shared for cq in subscribers)
    assert len(shared._buffers) == 1 and len(shared._buffers[PROXY].groups) == 1
    assert len(network.nodes[PROXY]._pane_listeners[shared.query_id]) == 1
    network.run(42.0)
    assert all(cq.finished for cq in subscribers)

    reference, reference_feed = _deployment()
    private = reference.subscribe(_sql("WINDOW 5"), proxy=PROXY, shared=False)
    assert private.shared is None
    reference.run(42.0)
    assert reference_feed.published == feed.published, "same seed, same feed"

    expected = _signature(private.epochs_delivered)
    assert len(expected) >= 4
    for cq in subscribers:
        assert _signature(cq.epochs_delivered) == expected
    non_empty_windows = sum(
        1 for k in range(6) if feed.true_window_counts(5.0 * k, 5.0 * (k + 1))
    )
    assert shared.epochs_assembled == non_empty_windows == len(expected)


# -- (b) one proxy, four shapes: four groups, each exact ------------------------------- #

def test_four_window_shapes_on_one_proxy_form_four_exact_groups():
    network, feed = _deployment()
    tumbling = network.subscribe(_sql("WINDOW 5"), proxy=PROXY)
    sliding = network.subscribe(_sql("WINDOW 10 SLIDE 5"), proxy=PROXY)
    landmark = network.subscribe(_sql("WINDOW LANDMARK SLIDE 5"), proxy=PROXY)
    top3 = network.subscribe(
        _sql("WINDOW 5", tail=" ORDER BY events DESC LIMIT 3"), proxy=PROXY
    )
    twin = network.subscribe(_sql("WINDOW 10 SLIDE 5"), proxy=PROXY)
    shared = tumbling.shared
    groups = shared._buffers[PROXY].groups
    assert len(groups) == 4
    assert sorted(len(group.members) for group in groups.values()) == [1, 1, 1, 2]
    network.run(42.0)

    _assert_exact(tumbling.epochs_delivered, feed)
    _assert_exact(sliding.epochs_delivered, feed)
    assert any(e.end - e.start == 10.0 for e in sliding.epochs_delivered)
    assert _signature(twin.epochs_delivered) == _signature(sliding.epochs_delivered)
    _assert_exact(landmark.epochs_delivered, feed, start=0.0)
    totals = [sum(_counts(e).values()) for e in landmark.epochs_delivered]
    assert totals == sorted(totals) and totals[-1] > totals[0]
    assert len(top3.epochs_delivered) >= 4
    for epoch in top3.epochs_delivered:
        truth = feed.true_window_counts(epoch.start, epoch.end)
        events = epoch.column("events")
        assert events == sorted(truth.values(), reverse=True)[:3]
        assert all(truth[ip] == n for ip, n in _counts(epoch).items())


# -- (c) late attach: warm-up is the late subscriber's alone --------------------------- #

def _early_and_maybe_late(attach_late: bool):
    network, feed = _deployment()
    clause = "WINDOW 10 SLIDE 5"
    early = [network.subscribe(_sql(clause), proxy=PROXY) for _ in range(2)]
    network.run(11.3)  # two slides in, strictly inside a pane
    late = network.subscribe(_sql(clause), proxy=PROXY) if attach_late else None
    network.run(40.0)
    return network, feed, early, late


def test_late_attach_skips_its_warmup_and_leaves_early_members_unchanged():
    _n, feed, early, late = _early_and_maybe_late(attach_late=True)
    _n2, _feed2, alone, _none = _early_and_maybe_late(attach_late=False)
    assert late._group is early[0]._group, "same shape, same node: one group"
    assert late.warmup_epochs_skipped == 1
    assert all(cq.warmup_epochs_skipped == 0 for cq in early)
    _assert_exact(late.epochs_delivered, feed)
    assert min(e.start for e in late.epochs_delivered) >= 10.0, (
        "nothing reaching back before the attach pane is reported"
    )
    assert late.epochs_delivered[0].index > early[0].epochs_delivered[0].index
    for with_late, without in zip(early, alone):
        assert _signature(with_late.epochs_delivered) == _signature(without.epochs_delivered)
        assert [e.watermark for e in with_late.epochs_delivered] == [
            e.watermark for e in without.epochs_delivered
        ], "the same epochs close at the same virtual instants"


def test_landmark_subscribers_attached_in_different_panes_do_not_share_a_fold():
    network, feed = _deployment()
    first = network.subscribe(_sql("WINDOW LANDMARK SLIDE 5"), proxy=PROXY)
    sibling = network.subscribe(_sql("WINDOW LANDMARK SLIDE 5"), proxy=PROXY)
    network.run(11.3)
    second = network.subscribe(_sql("WINDOW LANDMARK SLIDE 5"), proxy=PROXY)
    assert sibling._group is first._group
    assert second._group is not first._group
    network.run(40.0)
    _assert_exact(first.epochs_delivered, feed, start=0.0)
    assert _signature(sibling.epochs_delivered) == _signature(first.epochs_delivered)
    # The late fold starts at its attach pane, [10, 15).
    _assert_exact(second.epochs_delivered, feed, start=10.0)
    assert second.epochs_delivered[0].end == 15.0


# -- (d) pause / resume is per member --------------------------------------------------- #

def test_pause_holds_epochs_for_one_member_only():
    network, _feed = _deployment()
    paused, running = (network.subscribe(_sql("WINDOW 5"), proxy=PROXY) for _ in range(2))
    paused_seen, running_seen = [], []
    paused.on_epoch(paused_seen.append)
    running.on_epoch(running_seen.append)
    network.run(9.0)
    assert len(running_seen) == 1
    paused.pause()
    network.run(12.0)
    assert len(running_seen) >= 3
    assert len(paused_seen) == 1, "held while paused"
    paused.resume()
    assert [e.index for e in paused_seen] == [e.index for e in running_seen]
    network.run(30.0)
    assert _signature(paused_seen) == _signature(running_seen)
    assert [e.index for e in paused_seen] == sorted(e.index for e in paused_seen)


# -- (e) one member cancels mid-epoch ---------------------------------------------------- #

def test_member_cancelling_mid_epoch_takes_nothing_from_the_survivors():
    network, feed = _deployment()
    leaver, stayer, other = (
        network.subscribe(_sql("WINDOW 10 SLIDE 5"), proxy=PROXY) for _ in range(3)
    )
    node = network.nodes[PROXY]
    shared = leaver.shared
    # Pane [10, 15) has reached the node (≈ 2 s after its end) but window
    # [5, 15) has not closed yet (3.25 s after): the leaver closes it early.
    network.run(17.6 - network.now)
    cancel_time = network.now
    before = len(leaver.epochs_delivered)
    assert 2 in shared._buffers[PROXY].states and before == 2
    assert leaver.cancel() is True
    # The early close delivered what fit inside the deadline (every window
    # whose merge watermark had passed), exactly, and nothing later.
    assert len(leaver.epochs_delivered) == before + 1
    _assert_exact(leaver.epochs_delivered, feed)
    assert all(e.end + leaver.spec.grace <= cancel_time for e in leaver.epochs_delivered)
    assert len(shared._buffers[PROXY].groups) == 1
    assert len(node._pane_listeners[shared.query_id]) == 1

    network.run(40.0)
    for survivor in (stayer, other):
        _assert_exact(survivor.epochs_delivered, feed)
        indexes = [e.index for e in survivor.epochs_delivered]
        assert indexes == sorted(set(indexes)), "every epoch exactly once"
        spanning = [e for e in survivor.epochs_delivered if e.start <= cancel_time < e.end]
        assert len(spanning) == 2, "both windows in flight at the cancel were delivered"
    assert len(leaver.epochs_delivered) < len(stayer.epochs_delivered)
    assert stayer.finished and other.finished
    assert not any(n._pane_listeners for n in network.nodes)
    assert shared._buffers == {}


@pytest.mark.parametrize("clause", ["WINDOW 5", "WINDOW 10 SLIDE 5", "WINDOW LANDMARK SLIDE 5"])
def test_member_cancelled_by_anothers_callback_still_gets_the_whole_epoch(clause):
    """The group gives up an epoch's panes only after the hand-over, so a
    member cancelled halfway through it closes early from whole panes."""
    network, feed = _deployment()
    first, second, third = (network.subscribe(_sql(clause), proxy=PROXY) for _ in range(3))
    shared = first.shared
    first.on_epoch(lambda epoch: epoch.index == 3 and second.cancel())
    network.run(42.0)
    start = 0.0 if clause.startswith("WINDOW LANDMARK") else None
    for cq in (first, second, third):
        _assert_exact(cq.epochs_delivered, feed, start=start)
    assert second.cancelled and second.epochs_delivered[-1].index == 3
    assert _signature(second.epochs_delivered) == _signature(first.epochs_delivered)[
        : len(second.epochs_delivered)
    ]
    assert _signature(third.epochs_delivered) == _signature(first.epochs_delivered)
    assert third.epochs_delivered[-1].index > 3
    # The leaver's private early close is not a group assembly.
    assert shared.epochs_assembled == len(first.epochs_delivered)


def test_plans_differing_only_in_merge_grace_do_not_share_a_clock():
    """The plan fingerprint leaves the grace out, but it sets the close
    deadline: hand-built plans with different graces close separately."""
    buffer = _buffer()
    tight = buffer.join(_Member(), _spec(5.0), 1.0, {}, now=0.0)
    loose = dataclasses.replace(tight.spec, grace=tight.spec.grace + 1.0)
    assert buffer.join(_Member(), loose, 1.0, {}, now=0.0) is not tight


# -- (f) epochs are the subscriber's own ------------------------------------------------- #

def test_mutating_one_subscribers_epoch_does_not_change_anothers():
    network, feed = _deployment()
    vandal, bystander = (network.subscribe(_sql("WINDOW 5"), proxy=PROXY) for _ in range(2))
    vandal.on_epoch(lambda epoch: epoch.tuples.clear())
    network.run(42.0)
    assert all(len(e) == 0 for e in vandal.epochs_delivered)
    _assert_exact(bystander.epochs_delivered, feed)


# -- (g) a thinner re-emission is superseded once per node ------------------------------- #

def _pane_burst(shared, pane: int, contributors: int, counts: dict) -> dict:
    """A pane-state broadcast as a post-handoff hierarchical root emits it."""
    table = shared.components.output_table
    return {
        "query_id": shared.query_id,
        "panes": pane_blocks(
            [
                Tuple(
                    table,
                    {
                        "source_ip": ip,
                        "__partial_states__": [n],
                        "__group_key__": (ip,),
                        EPOCH_COLUMN: pane,
                        "__contributors__": contributors,
                    },
                )
                for ip, n in counts.items()
            ]
        ),
    }


def test_thinner_reemission_is_superseded_once_per_node_and_counted_per_handle():
    network = PIERNetwork(NODES, seed=5)
    NetworkMonitorApp(network).attach_live_feed(
        FirewallWorkload(node_count=NODES, events_per_node=1, seed=5), duration=0.0
    ).stop()  # the table exists, nothing is ever published
    here = [network.subscribe(_sql("WINDOW 5"), proxy=PROXY) for _ in range(3)]
    elsewhere = network.subscribe(_sql("WINDOW 5"), proxy=4)
    shared = here[0].shared
    network.run(5.5)
    full = {"10.0.0.1": 7, "10.0.0.2": 3}
    for address in (PROXY, 4):
        network.nodes[address]._install_envelope(_pane_burst(shared, 0, 5, full))
    network.nodes[PROXY]._install_envelope(_pane_burst(shared, 0, 2, {"10.0.0.1": 1}))
    assert len(shared._buffers[PROXY].states[0]) == 2, "buffered once, the fuller emission"
    network.run(6.0)
    for cq in here + [elsewhere]:
        assert [_counts(e) for e in cq.epochs_delivered] == [full]
    assert [cq.superseded_pane_rows for cq in here] == [1, 1, 1]
    assert elsewhere.superseded_pane_rows == 0
    # After the close the pane is gone: a still later copy is late, per handle.
    network.nodes[PROXY]._install_envelope(_pane_burst(shared, 0, 5, full))
    assert [cq.late_rows for cq in here] == [2, 2, 2] and elsewhere.late_rows == 0
    metrics = collect_deployment_metrics(network)
    assert metrics["cq.superseded_pane_rows"] == 3
    assert metrics["cq.late_pane_rows"] == 6
    assert metrics["cq.epochs_assembled"] == 2  # one per node with subscribers
    assert metrics["cq.epochs_delivered"] == 4
    assert metrics["cq.warmup_epochs_skipped"] == metrics["cq.dropped_partial_epochs"] == 0


def test_cq_metrics_are_absent_without_a_sharing_registry():
    network = PIERNetwork(3, seed=5)
    assert not any(key.startswith("cq.") for key in collect_deployment_metrics(network))


# -- (h) tracing and the sanitizer change nothing ---------------------------------------- #

def _mixed_scenario(tracing: bool):
    network, feed = _deployment(seed=17)
    if tracing:
        network.enable_tracing()
    handles = [
        network.subscribe(_sql(clause), proxy=proxy)
        for proxy in (PROXY, PROXY, 4)
        for clause in ("WINDOW 5", "WINDOW 10 SLIDE 5")
    ]
    network.run(13.1)
    handles[0].cancel()
    network.run(40.0)
    for cq in handles:
        _assert_exact(cq.epochs_delivered, feed)
    return [
        (_signature(cq.epochs_delivered), [e.watermark for e in cq.epochs_delivered])
        for cq in handles
    ]


def test_same_answers_with_tracing_and_under_the_sanitizer(monkeypatch):
    plain = _mixed_scenario(tracing=False)
    assert _mixed_scenario(tracing=True) == plain
    monkeypatch.setenv("PIER_SANITIZE", "1")
    assert _mixed_scenario(tracing=False) == plain


# -- (i) the network-free module, directly ----------------------------------------------- #

class _Member:
    def __init__(self) -> None:
        self.late_rows = 0
        self.superseded_pane_rows = 0


def _buffer() -> PaneBuffer:
    components = PlanComponents(
        table="t",
        source="local_table",
        predicate=None,
        group_columns=("k",),
        aggregates=(AggregateSpec("count", None, "n"), AggregateSpec("max", "v", "top")),
        output_table="out",
        strategy="flat",
    )
    return PaneBuffer(components, WindowSpec(window=5.0, slide=5.0, lifetime=100.0))


def _pane(pane: int, states: dict) -> list:
    return pane_blocks(
        [
            Tuple("out", {"__partial_states__": list(state), "__group_key__": (key,), EPOCH_COLUMN: pane})
            for key, state in states.items()
        ]
    )


def _spec(window, slide=5.0) -> WindowSpec:
    return WindowSpec(window=window, slide=slide, lifetime=100.0, group_columns=["k"])


def _rows(tuples) -> dict:
    return {t.get("k"): (t.get("n"), t.get("top")) for t in tuples}


def _close(group, epoch: int) -> dict:
    """The group's in-order close: assemble, (hand over,) advance."""
    rows = _rows(group.assemble(epoch))
    group.advance(epoch)
    return rows


def test_buffer_merges_an_epoch_over_its_panes():
    buffer = _buffer()
    group = buffer.join(_Member(), _spec(10.0), 1.0, {}, now=0.0)
    assert group.next_close == 0
    buffer.receive(_pane(0, {"a": (2, 9), "b": (1, 4)}))
    buffer.receive(_pane(1, {"a": (3, 5), "c": (4, 1)}))
    received = {pane: {k: list(v) for k, v in bucket.items()} for pane, bucket in buffer.states.items()}
    assert _close(group, 0) == {"a": (2, 9), "b": (1, 4)}  # [0, 5): start clamps at 0
    assert _close(group, 1) == {"a": (5, 9), "b": (1, 4), "c": (4, 1)}
    assert group.next_close == 2
    assert buffer.states == {1: received[1]}, "pane 0 evicted, pane 1 untouched by the merge"
    ordered = buffer.join(
        _Member(), _spec(10.0), 1.0, {"sql_order_by": ("n", True), "sql_limit": 1}, now=0.0
    )
    assert ordered is not group
    buffer.receive(_pane(2, {"a": (1, 1), "c": (9, 9)}))
    assert [t.get("k") for t in ordered.assemble(2)] == ["c"]


def test_buffer_evicts_only_below_what_every_group_still_needs():
    buffer = _buffer()
    tumbling = buffer.join(_Member(), _spec(5.0), 1.0, {}, now=0.0)
    sliding = buffer.join(_Member(), _spec(15.0), 1.0, {}, now=0.0)
    assert buffer.join(_Member(), _spec(5.0), 1.0, {}, now=3.0) is tumbling
    graceful = buffer.join(_Member(), _spec(5.0), 2.0, {}, now=3.0)
    assert graceful is not tumbling and len(buffer.groups) == 3
    buffer.leave(graceful, graceful.members[0])
    assert len(buffer.groups) == 2
    for pane in range(4):
        buffer.receive(_pane(pane, {"a": (1, pane)}))
    for epoch in range(4):
        _close(tumbling, epoch)
    assert tumbling.floor == 4 and buffer.floor == 0 and sorted(buffer.states) == [0, 1, 2, 3]
    assert _close(sliding, 2) == {"a": (3, 2)}  # panes 0-2
    assert sliding.floor == 1 and buffer.floor == 1 and sorted(buffer.states) == [1, 2, 3]
    # A pane the sliding group still reads is late for the tumbling group only.
    buffer.receive(_pane(2, {"b": (1, 1)}))
    assert [m.late_rows for m in tumbling.members] == [1, 1]
    assert [m.late_rows for m in sliding.members] == [0]
    assert _close(sliding, 3) == {"a": (3, 3), "b": (1, 1)}
    # The last tumbling member leaving frees the buffer to follow the rest.
    for member in list(tumbling.members):
        buffer.leave(tumbling, member)
    assert list(buffer.groups.values()) == [sliding]


def test_assemble_changes_nothing_until_the_group_advances():
    buffer = _buffer()
    landmark = buffer.join(_Member(), _spec(None), 1.0, {}, now=0.0)
    tumbling = buffer.join(_Member(), _spec(5.0), 1.0, {}, now=0.0)
    buffer.receive(_pane(0, {"a": (2, 2)}))
    buffer.receive(_pane(1, {"a": (1, 7)}))
    early = _rows(landmark.assemble(1))
    assert early == {"a": (3, 7)} and _rows(landmark.assemble(1)) == early
    assert _rows(tumbling.assemble(1)) == {"a": (1, 7)}
    assert (landmark.folded, landmark.floor, tumbling.floor) == ({}, 0, 0)
    assert (landmark.next_close, tumbling.next_close) == (0, 0)
    assert sorted(buffer.states) == [0, 1] and buffer.floor == 0
    # A pane arriving after the early close still reaches the in-order one.
    buffer.receive(_pane(1, {"b": (5, 5)}))
    assert _close(landmark, 0) == {"a": (2, 2)}
    assert _close(landmark, 1) == {"a": (3, 7), "b": (5, 5)}
    assert landmark.floor == 2 and sorted(buffer.states) == [0, 1], "the tumbling group reads them"
    buffer.receive(_pane(2, {"a": (1, 1)}))
    assert _close(landmark, 2) == {"a": (4, 7), "b": (5, 5)}


def test_late_landmark_group_folds_from_its_attach_pane():
    buffer = _buffer()
    buffer.join(_Member(), _spec(5.0), 1.0, {}, now=0.0)
    buffer.receive(_pane(0, {"a": (2, 2)}))
    buffer.receive(_pane(1, {"a": (1, 1)}))
    late = buffer.join(_Member(), _spec(None), 1.0, {}, now=7.0)
    other = buffer.join(_Member(), _spec(None), 1.0, {}, now=11.0)
    assert late is not other and late.next_close == 1 and other.next_close == 2
    buffer.receive(_pane(2, {"a": (4, 4)}))
    assert _close(late, 1) == {"a": (1, 1)}
    assert _close(late, 2) == {"a": (5, 4)}
    assert _close(other, 2) == {"a": (4, 4)}


def _stamped(*rows) -> list:
    """Pane-state rows ``(pane, contributors, key, (n, top))`` in arrival order."""
    return [
        Tuple(
            "out",
            {
                "__partial_states__": list(state),
                "__group_key__": (key,),
                EPOCH_COLUMN: pane,
                "__contributors__": contributors,
            },
        )
        for pane, contributors, key, state in rows
    ]


def test_a_burst_in_block_form_leaves_what_its_rows_one_by_one_leave():
    """A fan-out burst travels as one block per run of rows with the same
    pane and contributor count; the buffer must end where applying the
    rows one at a time ends: states, contributor counts, and each member's
    late and superseded rows."""
    burst = _stamped(
        (0, 4, "a", (1, 1)),  # late: the group already closed pane 0
        (1, 3, "a", (1, 1)),
        (1, 3, "b", (2, 2)),
        (1, 5, "a", (7, 7)),  # strictly fuller: pane 1 restarts from here
        (1, 5, "c", (3, 3)),
        (1, 5, "a", (8, 8)),  # a repeated group within a run
        (1, 3, "b", (9, 9)),  # thinner: superseded
        (2, None, "d", (4, 4)),
    )
    blocks = pane_blocks(burst)
    assert [(block["pane"], block["contributors"], block["count"]) for block in blocks] == [
        (0, 4, 1), (1, 3, 2), (1, 5, 2), (1, 5, 1), (1, 3, 1), (2, None, 1),
    ]

    def replay(bursts) -> tuple:
        buffer = _buffer()
        members = [_Member(), _Member()]
        group = buffer.join(members[0], _spec(5.0), 1.0, {}, now=0.0)
        buffer.join(members[1], _spec(5.0), 1.0, {}, now=0.0)
        group.advance(0)
        for received in bursts:
            buffer.receive(received)
        return (
            buffer.states,
            buffer.contributors,
            [(member.late_rows, member.superseded_pane_rows) for member in members],
        )

    one_by_one = replay(pane_blocks([row]) for row in burst)
    assert replay([blocks]) == one_by_one
    states, contributors, counters = one_by_one
    assert states == {1: {("a",): [8, 8], ("c",): [3, 3]}, 2: {("d",): [4, 4]}}
    assert contributors == {1: 5}
    assert counters == [(1, 1), (1, 1)]
