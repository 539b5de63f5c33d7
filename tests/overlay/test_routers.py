"""Tests for the Chord-style and Bamboo-style routers (local state, no network)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.bamboo import BambooRouter
from repro.overlay.identifiers import ID_SPACE, IdentifierSpace
from repro.overlay.router import BootstrapDirectory, ChordRouter, NodeContact, make_contact


def _build_routers(router_cls, count, seed=0):
    contacts = [make_contact(address) for address in range(count)]
    routers = [router_cls(contact) for contact in contacts]
    for router in routers:
        router.refresh(contacts)
    return contacts, routers


def _route(routers_by_id, start_router, target, max_hops=64):
    """Follow next_hop decisions until some router claims responsibility."""
    current = start_router
    hops = 0
    while hops <= max_hops:
        next_hop = current.next_hop(target)
        if next_hop is None:
            return current, hops
        current = routers_by_id[next_hop.identifier]
        hops += 1
    raise AssertionError("routing did not terminate")


@pytest.mark.parametrize("router_cls", [ChordRouter, BambooRouter])
def test_exactly_one_node_is_responsible(router_cls):
    _contacts, routers = _build_routers(router_cls, 24)
    rng = random.Random(1)
    for _ in range(30):
        target = rng.randrange(ID_SPACE)
        owners = [router for router in routers if router.is_responsible(target)]
        assert len(owners) == 1


@pytest.mark.parametrize("router_cls", [ChordRouter, BambooRouter])
def test_routing_from_any_node_reaches_the_owner(router_cls):
    contacts, routers = _build_routers(router_cls, 32)
    routers_by_id = {router.identifier: router for router in routers}
    rng = random.Random(2)
    for _ in range(25):
        target = rng.randrange(ID_SPACE)
        owner = next(router for router in routers if router.is_responsible(target))
        start = routers[rng.randrange(len(routers))]
        terminal, hops = _route(routers_by_id, start, target)
        assert terminal.identifier == owner.identifier
        assert hops <= 32


def test_chord_hop_count_scales_logarithmically():
    rng = random.Random(3)
    mean_hops = {}
    for count in (16, 128):
        contacts, routers = _build_routers(ChordRouter, count)
        routers_by_id = {router.identifier: router for router in routers}
        totals = []
        for _ in range(40):
            target = rng.randrange(ID_SPACE)
            start = routers[rng.randrange(len(routers))]
            _terminal, hops = _route(routers_by_id, start, target)
            totals.append(hops)
        mean_hops[count] = sum(totals) / len(totals)
    # 8x more nodes should cost far less than 8x more hops.
    assert mean_hops[128] < mean_hops[16] * 4


@pytest.mark.parametrize("router_cls", [ChordRouter, BambooRouter])
def test_dead_neighbors_are_routed_around(router_cls):
    contacts, routers = _build_routers(router_cls, 20)
    routers_by_id = {router.identifier: router for router in routers}
    target = contacts[7].identifier
    start = routers[3]
    first_hop = start.next_hop(target)
    if first_hop is not None:
        start.mark_dead(first_hop.identifier)
        if hasattr(start, "remove_contact"):
            start.remove_contact(first_hop.identifier)
        second_choice = start.next_hop(target)
        assert second_choice is None or second_choice.identifier != first_hop.identifier


def test_chord_successors_are_sorted_clockwise():
    contacts, routers = _build_routers(ChordRouter, 16)
    for router in routers:
        distances = [
            IdentifierSpace.distance(router.identifier, contact.identifier)
            for contact in router.successors
        ]
        assert distances == sorted(distances)
        assert len(router.successors) <= router.successor_count


def test_single_node_overlay_owns_everything():
    contact = make_contact(0)
    for router_cls in (ChordRouter, BambooRouter):
        router = router_cls(contact)
        router.refresh([contact])
        assert router.is_responsible(12345)
        assert router.next_hop(12345) is None


def test_bootstrap_directory_register_deregister():
    directory = BootstrapDirectory()
    contacts = [make_contact(address) for address in range(5)]
    for contact in contacts:
        directory.register(contact)
    assert len(directory) == 5
    members = directory.members()
    assert members == sorted(members, key=lambda c: c.identifier)
    directory.deregister(contacts[0].identifier)
    assert len(directory) == 4
    assert directory.contact(contacts[0].identifier) is None


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=ID_SPACE - 1))
@settings(max_examples=25, deadline=None)
def test_property_routing_terminates_at_unique_owner(node_count, target):
    contacts = [make_contact(address) for address in range(node_count)]
    routers = [ChordRouter(contact) for contact in contacts]
    for router in routers:
        router.refresh(contacts)
    routers_by_id = {router.identifier: router for router in routers}
    owners = [router for router in routers if router.is_responsible(target)]
    assert len(owners) == 1
    terminal, hops = _route(routers_by_id, routers[0], target)
    assert terminal.identifier == owners[0].identifier


@pytest.mark.parametrize("router_cls", [ChordRouter, BambooRouter])
def test_sync_rebuilds_only_when_membership_or_suspicion_changed(router_cls):
    directory = BootstrapDirectory()
    contacts = [make_contact(address) for address in range(12)]
    for contact in contacts[:10]:
        directory.register(contact)
    router = router_cls(contacts[0])
    rebuilds = []
    rebuild = router._rebuild
    router._rebuild = lambda members: (rebuilds.append(len(members)), rebuild(members))

    def synced_after(change) -> int:
        before = len(rebuilds)
        change()
        router.sync(directory)
        router.sync(directory)  # a second stabilization round finds nothing new
        return len(rebuilds) - before

    victim = contacts[3].identifier
    assert synced_after(lambda: None) == 1  # first sync builds
    assert synced_after(lambda: None) == 0  # nothing changed: skipped
    assert synced_after(lambda: directory.register(contacts[10])) == 1
    assert any(c.identifier == contacts[10].identifier for c in router._contacts.values())
    assert synced_after(lambda: directory.deregister(contacts[10].identifier)) == 1
    assert synced_after(lambda: router.mark_dead(victim)) == 1
    assert victim not in router._contacts
    assert synced_after(lambda: router.mark_alive(victim)) == 1
    assert victim in router._contacts
    assert synced_after(lambda: router.remove_contact(victim)) == 1
    # A caller-supplied membership leaves the tables out of sync with the
    # directory, whatever its version says.
    router.mark_alive(victim)
    assert synced_after(lambda: router.refresh(contacts[:2])) == 2
    assert victim in router._contacts


def test_directory_members_is_a_private_copy_of_the_cached_order():
    directory = BootstrapDirectory()
    for address in range(6):
        directory.register(make_contact(address))
    version = directory.version
    members = directory.members()
    members.clear()  # the caller's copy, not the cache
    assert len(directory.members()) == 6
    assert directory.version == version
    directory.register(make_contact(6))
    assert directory.version == version + 1
    assert [c.identifier for c in directory.members()] == sorted(
        c.identifier for c in directory.members()
    )
    assert len(directory.members()) == 7
