"""Tests for the overlay wrapper's owner cache.

A lookup answer carries the interval its owner is responsible for; later
two-phase operations on identifiers inside a cached interval skip the
routed lookup and send one acked direct message.  These tests pin the
saving (one message), the invariants (cached owner == routed owner, the
cache empties on every view change, public ``lookup`` never reads it) and
the failure path (a dead cached owner costs a retry, never a row).
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import PIERNetwork
from repro.overlay.bamboo import BambooRouter
from repro.overlay.identifiers import ID_SPACE, responsible_node
from repro.overlay.naming import ObjectName
from repro.overlay.router import BootstrapDirectory, ChordRouter, make_contact
from repro.overlay.wrapper import OverlayNode
from repro.qp.tuples import Tuple
from repro.runtime.simulation import SimulationEnvironment
from repro.simnet import OverlayDeployment, build_overlay

NAMESPACE = "cache_t"


def _routing_id(key):
    return ObjectName(NAMESPACE, key, "").routing_identifier()


def _owner_address(deployment, identifier, excluding=()):
    """Ground truth (Chord): the live member that succeeds ``identifier``."""
    by_id = {
        node.identifier: node.address
        for node in deployment.nodes
        if node.address not in excluding
    }
    return by_id[responsible_node(identifier, by_id)]


def _keys_owned_by(deployment, owner_address, count, where=lambda identifier: True):
    """``count`` distinct keys whose routing identifier ``owner_address`` owns."""
    keys = (
        key
        for key in (f"key-{n}" for n in itertools.count())
        if _owner_address(deployment, _routing_id(key)) == owner_address
        and where(_routing_id(key))
    )
    return list(itertools.islice(keys, count))


def _messages(deployment):
    return deployment.environment.stats.messages_sent


def _stored_values(node, key):
    return [stored.value for stored in node.object_manager.get(NAMESPACE, key)]


def test_second_put_into_a_cached_interval_is_one_message(small_overlay):
    deployment = small_overlay
    sender = deployment.node(0)
    first, second = _keys_owned_by(deployment, owner_address=5, count=2)
    sender.put(NAMESPACE, first, "s", "a", lifetime=300)
    deployment.run(2.0)
    assert sender.stats.lookups_cached == 0

    before = _messages(deployment)
    completed = sender.stats.lookups_completed
    hops = sender.stats.lookup_hops_total
    sender.put(NAMESPACE, second, "s", "b", lifetime=300)
    deployment.run(2.0)
    assert _messages(deployment) - before == 1
    assert sender.stats.lookups_cached == 1
    assert sender.stats.direct_retries == 0
    # A hit is a resolution with 0 hops.
    assert sender.stats.lookups_completed == completed + 1
    assert sender.stats.lookup_hops_total == hops
    assert _stored_values(deployment.node(5), second) == ["b"]


def test_interval_that_wraps_zero(small_overlay):
    deployment = small_overlay
    lowest = min(deployment.nodes, key=lambda node: node.identifier)
    highest = max(node.identifier for node in deployment.nodes)
    sender = deployment.node((lowest.address + 1) % 16)
    # The lowest member owns (highest, lowest]: one key from each side of 0.
    (above,) = _keys_owned_by(deployment, lowest.address, 1, lambda i: i > highest)
    (below,) = _keys_owned_by(deployment, lowest.address, 1, lambda i: i <= lowest.identifier)
    sender.put(NAMESPACE, above, "s", "hi", lifetime=300)
    deployment.run(2.0)
    before = _messages(deployment)
    sender.put(NAMESPACE, below, "s", "lo", lifetime=300)
    sender.put(NAMESPACE, above, "s2", "hi2", lifetime=300)
    deployment.run(2.0)
    assert sender.stats.lookups_cached == 2
    assert _messages(deployment) - before == 2
    assert _stored_values(lowest, below) == ["lo"]
    assert sorted(_stored_values(lowest, above)) == ["hi", "hi2"]


@pytest.mark.parametrize("router_cls", [ChordRouter, BambooRouter])
@given(
    node_count=st.integers(min_value=2, max_value=20),
    seed=st.integers(min_value=0, max_value=1000),
    warm=st.lists(st.integers(min_value=0, max_value=ID_SPACE - 1), min_size=1, max_size=12),
    probes=st.lists(st.integers(min_value=0, max_value=ID_SPACE - 1), min_size=1, max_size=12),
)
@settings(max_examples=20, deadline=None)
def test_property_cached_owner_is_the_routed_owner(router_cls, node_count, seed, warm, probes):
    deployment = build_overlay(node_count, router_factory=router_cls, seed=seed)
    node = deployment.node(seed % node_count)
    routed = {}
    # Member identifiers and their neighbours probe the interval edges.
    edges = [
        (member.identifier + offset) % ID_SPACE
        for member in deployment.nodes
        for offset in (-1, 0, 1)
    ]
    for identifier in warm + probes + edges:
        node.lookup(identifier, lambda owner, _h, i=identifier: routed.setdefault(i, owner))
    deployment.run(3.0)
    assert len(node._fresh_owner_cache()) <= node_count - 1
    for identifier, owner in routed.items():
        cached = node._cached_owner(identifier)
        if owner.identifier == node.identifier:
            assert cached is None  # local answers are never cached
        elif cached is not None:
            assert cached.identifier == owner.identifier
    # Not vacuous: what a routed lookup resolved, the cache now resolves
    # (Bamboo leaves exact midpoints out, which random identifiers miss).
    for identifier in warm:
        if routed[identifier].identifier != node.identifier:
            assert node._cached_owner(identifier) is not None


def _warm(deployment, sender, owner_address=5):
    (key,) = _keys_owned_by(deployment, owner_address, 1)
    sender.put(NAMESPACE, key, "warm", "w", lifetime=300)
    deployment.run(2.0)
    assert len(sender._fresh_owner_cache()) >= 1


@pytest.mark.parametrize(
    "change",
    [
        lambda d, sender: d.directory.register(make_contact(99)),
        lambda d, sender: d.directory.deregister(d.node(9).identifier),
        lambda d, sender: d.node(9).rejoin(),
        lambda d, sender: sender.router.mark_dead(d.node(9).identifier),
    ],
    ids=["register", "deregister", "rejoin", "mark_dead"],
)
def test_view_changes_empty_the_cache(small_overlay, change):
    deployment = small_overlay
    sender = deployment.node(0)
    _warm(deployment, sender)
    change(deployment, sender)
    assert sender._fresh_owner_cache() == []


def test_mark_alive_empties_the_cache_and_noops_do_not(small_overlay):
    deployment = small_overlay
    sender = deployment.node(0)
    suspect = deployment.node(9).identifier
    sender.router.mark_dead(suspect)
    _warm(deployment, sender)
    sender.router.mark_dead(suspect)  # already suspected: the view did not change
    sender.router.mark_alive(deployment.node(3).identifier)  # never suspected
    assert len(sender._fresh_owner_cache()) >= 1
    sender.router.mark_alive(suspect)
    assert sender._fresh_owner_cache() == []


def _overlay_with_latecomer(router_cls):
    """A running 16-node overlay, and a 17th node that has not joined yet."""
    environment = SimulationEnvironment(17, seed=7)
    directory = BootstrapDirectory()
    nodes = [
        OverlayNode(environment.runtime(address), directory, router_factory=router_cls)
        for address in range(17)
    ]
    for node in nodes[:16]:
        node.join()
    for node in nodes[:16]:
        node.router.sync(directory)
    deployment = OverlayDeployment(environment, directory, nodes, trees=[])
    deployment.run(1.0)
    return deployment, nodes[16]


def _keys_changing_hands(deployment, latecomer, count):
    """``count`` keys that one member (also returned) owns until
    ``latecomer`` joins, and ``latecomer`` from then on."""
    future = type(latecomer.router)(latecomer.contact)
    future.refresh([node.contact for node in deployment.nodes])
    keys, loser = [], None
    for key in (f"key-{n}" for n in itertools.count()):
        identifier = _routing_id(key)
        if not future.is_responsible(identifier):
            continue
        (owner,) = [n for n in deployment.nodes[:16] if n.router.is_responsible(identifier)]
        loser = loser or owner
        if owner is loser:
            keys.append(key)
        if len(keys) == count:
            return keys, loser


def _get(deployment, reader, key):
    answers = []
    reader.get(NAMESPACE, key, lambda _ns, _key, objects: answers.append(objects))
    deployment.run(2.0)
    (objects,) = answers
    return objects


@pytest.mark.parametrize("router_cls", [ChordRouter, BambooRouter])
def test_join_into_a_warm_overlay_moves_later_puts_to_the_newcomer(router_cls):
    deployment, latecomer = _overlay_with_latecomer(router_cls)
    keys, loser = _keys_changing_hands(deployment, latecomer, 4)
    sender, reader = [node for node in deployment.nodes[:16] if node is not loser][:2]
    sender.put(NAMESPACE, keys[0], "s", "before", lifetime=300)
    deployment.run(2.0)
    assert sender._cached_owner(_routing_id(keys[1])).identifier == loser.identifier

    latecomer.join()
    # Traffic before anyone has stabilized: the loser still answers for
    # the newcomer's identifiers, but states no interval, so the sender
    # must not go on believing it once the overlay has caught up.
    sender.put(NAMESPACE, keys[1], "s", "during", lifetime=300)
    deployment.run(2.0)
    assert loser.router.owned_answer(deployment.directory) is None
    assert sender._cached_owner(_routing_id(keys[2])) is None

    deployment.run(2 * sender.stabilization_interval)
    sender.put(NAMESPACE, keys[2], "s", "after", lifetime=300)
    deployment.run(2.0)
    cached = sender.stats.lookups_cached
    sender.put(NAMESPACE, keys[3], "s", "after, from the cache", lifetime=300)
    deployment.run(2.0)
    assert sender.stats.lookups_cached == cached + 1
    for key, value in ((keys[2], "after"), (keys[3], "after, from the cache")):
        assert _stored_values(latecomer, key) == [value]
        assert _stored_values(loser, key) == []
        assert _get(deployment, reader, key) == [value]


def test_rejoin_under_traffic_hands_identifiers_back(small_overlay):
    deployment = small_overlay
    sender, reader, recovering = deployment.node(0), deployment.node(12), deployment.node(5)
    keys = _keys_owned_by(deployment, recovering.address, 4)
    heir = deployment.node(
        _owner_address(deployment, _routing_id(keys[0]), excluding=(recovering.address,))
    )
    deployment.environment.fail_node(recovering.address)
    sender.put(NAMESPACE, keys[0], "s", "while down", lifetime=300)
    deployment.run(4.0)
    assert _stored_values(heir, keys[0]) == ["while down"]

    deployment.environment.recover_node(recovering.address)
    recovering.rejoin()
    # In the same instant, ahead of the hellos: wherever this lands, it
    # must not leave the heir's old interval in the sender's cache.
    sender.put(NAMESPACE, keys[1], "s", "during", lifetime=300)
    deployment.run(2 * sender.stabilization_interval)
    sender.put(NAMESPACE, keys[2], "s", "after", lifetime=300)
    deployment.run(2.0)
    sender.put(NAMESPACE, keys[3], "s", "after, from the cache", lifetime=300)
    deployment.run(2.0)
    assert sender.stats.lookups_cached >= 1
    for key, value in ((keys[2], "after"), (keys[3], "after, from the cache")):
        assert _stored_values(recovering, key) == [value]
        assert _stored_values(heir, key) == []
        assert _get(deployment, reader, key) == [value]


def test_an_answer_from_before_a_membership_change_is_not_cached(small_overlay):
    deployment = small_overlay
    sender, owner = deployment.node(0), deployment.node(5)
    in_flight = owner.router.owned_answer(deployment.directory)
    assert in_flight[2] == deployment.directory.version
    deployment.directory.register(make_contact(99))
    sender._remember_owner(owner.contact, in_flight)
    assert sender._fresh_owner_cache() == []
    # Nor does the owner state an interval again before it has stabilized.
    assert owner.router.owned_answer(deployment.directory) is None
    owner.router.sync(deployment.directory)
    sender._remember_owner(owner.contact, owner.router.owned_answer(deployment.directory))
    assert [entry[2] for entry in sender._fresh_owner_cache()] == [owner.contact]
    # An answer that was in flight when its sender was found dead is dropped
    # too: nothing would move the key again to evict it.
    sender.router.mark_dead(owner.identifier)
    sender._remember_owner(owner.contact, owner.router.owned_answer(deployment.directory))
    assert sender._fresh_owner_cache() == []


def _fail_cached_owner(deployment, sender, owner_address=5):
    """Cache ``owner_address`` at ``sender``, kill it, and return a key in
    its old interval plus the node that owns that key now."""
    _warm(deployment, sender, owner_address)
    (key,) = _keys_owned_by(deployment, owner_address, 1)
    deployment.environment.fail_node(owner_address)
    heir = deployment.node(
        _owner_address(deployment, _routing_id(key), excluding=(owner_address,))
    )
    assert heir.address not in (owner_address, sender.address)
    return key, heir


def test_put_after_cached_owner_died_lands_at_the_new_owner(small_overlay):
    deployment = small_overlay
    sender = deployment.node(0)
    key, heir = _fail_cached_owner(deployment, sender)
    # No callback: before the cache's acked sends, a put whose owner died
    # after the lookup was lost silently.
    sender.put(NAMESPACE, key, "s", "survivor", lifetime=300)
    deployment.run(4.0)
    assert sender.stats.lookups_cached == 1
    assert sender.stats.direct_retries == 1
    assert _stored_values(heir, key) == ["survivor"]


def test_put_batch_after_cached_owner_died_loses_no_row(small_overlay):
    deployment = small_overlay
    sender = deployment.node(0)
    key, heir = _fail_cached_owner(deployment, sender)
    acks = []
    sender.put_batch(NAMESPACE, key, list(range(5)), lifetime=300, callback=acks.append)
    deployment.run(4.0)
    assert sender.stats.direct_retries == 1
    assert acks == [True]
    assert sorted(_stored_values(heir, key)) == [0, 1, 2, 3, 4]
    # One base suffix per batch: row i is stored as "<base>.i".
    suffixes = sorted(stored.name.suffix for stored in heir.object_manager.get(NAMESPACE, key))
    base = suffixes[0].rsplit(".", 1)[0]
    assert suffixes == [f"{base}.{n}" for n in range(5)]


@pytest.mark.parametrize("operation", ["get", "renew"])
def test_get_and_renew_after_cached_owner_died_answer_from_the_new_owner(small_overlay, operation):
    deployment = small_overlay
    sender = deployment.node(0)
    key, heir = _fail_cached_owner(deployment, sender)
    # Another node (cold cache) stores the object at the heir.
    deployment.node(12).put(NAMESPACE, key, "s", "fresh", lifetime=300)
    deployment.run(4.0)
    assert _stored_values(heir, key) == ["fresh"]

    answers = []
    if operation == "get":
        sender.get(NAMESPACE, key, lambda ns, k, objects: answers.append(objects))
    else:
        sender.renew(NAMESPACE, key, "s", lifetime=300, callback=answers.append)
    deployment.run(4.0)
    assert answers == ([["fresh"]] if operation == "get" else [True])
    assert sender.stats.lookups_cached == 1
    assert sender.stats.direct_retries == 1
    assert sender.stats.renew_failures == 0


def test_public_lookup_bypasses_a_dead_cached_owner(small_overlay):
    deployment = small_overlay
    sender = deployment.node(0)
    key, heir = _fail_cached_owner(deployment, sender)
    cached_before = sender.stats.lookups_cached
    owners = []
    sender.lookup(_routing_id(key), lambda owner, _hops: owners.append(owner))
    deployment.run(4.0)
    assert [owner.address for owner in owners] == [heir.address]
    assert sender.stats.lookups_cached == cached_before


def test_retry_restarts_the_request_clock(small_overlay):
    deployment = small_overlay
    sender = deployment.node(0)
    key, heir = _fail_cached_owner(deployment, sender)
    acks = []
    sender.put(NAMESPACE, key, "s", "late", lifetime=300, callback=acks.append)
    (pending,) = sender._pending.values()
    first_deadline = pending.timer.time
    while sender.stats.direct_retries == 0:
        deployment.run(0.005)
    # The time the dead owner took to go unacknowledged is not charged
    # to the cold attempt.
    assert pending.timer.time >= deployment.now + sender.request_timeout - 0.005
    assert pending.timer.time > first_deadline
    deployment.run(4.0)
    assert acks == [True]
    assert _stored_values(heir, key) == ["late"]
    assert sender._pending == {}


def test_tracing_records_hits_without_changing_the_path():
    counters = []
    for traced in (False, True):
        network = PIERNetwork(12, seed=5)
        tracer = network.enable_tracing() if traced else None
        sender = network.nodes[0].overlay
        keys = [f"key-{n}" for n in range(40)]

        def publish():
            previous = tracer.activate("t-owner-cache", "s0") if traced else None
            for key in keys:
                sender.put(NAMESPACE, key, "s", key, lifetime=300)
            if traced:
                tracer.restore(previous)

        publish()
        network.run(3.0)
        before = network.environment.stats.messages_sent
        publish()
        network.run(3.0)
        counters.append(
            (
                sender.stats.lookups_cached,
                sender.stats.lookups_completed,
                sender.stats.lookup_hops_total,
                network.environment.stats.messages_sent - before,
            )
        )
        if tracer is not None:
            hits = [
                span for span in tracer.spans()
                if span.name == "dht.lookup" and span.attrs.get("cached")
            ]
            assert len(hits) == sender.stats.lookups_cached
            assert all(span.attrs["hops"] == 0 for span in hits)
    assert counters[0] == counters[1]
    assert counters[0][0] > 0


def _small_join(mode):
    network = PIERNetwork(6, seed=3, mode=mode)
    try:
        network.create_table("oc_fact", partitioning=["f_id"])
        network.create_table("oc_dim", partitioning=["d_id"])
        network.publish("oc_fact", [Tuple.make("oc_fact", f_id=i, k=i % 4) for i in range(48)])
        network.publish("oc_dim", [Tuple.make("oc_dim", d_id=i, k=i, name=f"n{i}") for i in range(4)])
        network.run(0.5)
        result = network.query("SELECT f_id, name FROM oc_fact JOIN oc_dim ON k = k TIMEOUT 2")
        rows = sorted((row["f_id"], row["name"]) for row in result.rows())
        stats = network.dht_stats()
        return rows, {
            "resolutions": sum(s.lookups_completed for s in stats),
            "cached": sum(s.lookups_cached for s in stats),
            "retries": sum(s.direct_retries for s in stats),
        }
    finally:
        network.close()


def test_simulated_and_physical_runs_use_the_cache_alike():
    simulated_rows, simulated = _small_join("simulated")
    physical_rows, physical = _small_join("physical")
    assert physical_rows == simulated_rows
    assert len(simulated_rows) == 48
    # Physical node identifiers hash OS-assigned ports, so the ring — and
    # with it the split of resolutions into routed, local and cached —
    # differs per run; that both runtimes resolve from the cache, and
    # never needed the failed-ack fallback, does not.
    for counters in (simulated, physical):
        assert counters["cached"] > 0
        assert counters["retries"] == 0
        assert counters["cached"] < counters["resolutions"]
