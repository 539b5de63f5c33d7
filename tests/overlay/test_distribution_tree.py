"""Tests for the DHT-based distribution (broadcast) tree."""

from repro.simnet import build_overlay


def test_broadcast_reaches_every_node():
    deployment = build_overlay(24, with_trees=True, seed=3)
    seen = set()
    for address, tree in enumerate(deployment.trees):
        tree.on_broadcast(lambda payload, a=address: seen.add(a))
    deployment.tree(5).broadcast("b-1", {"query": "q"})
    deployment.run(8.0)
    assert seen == set(range(24))


def test_broadcast_payload_is_delivered_intact():
    deployment = build_overlay(12, with_trees=True, seed=4)
    payloads = []
    deployment.tree(7).on_broadcast(payloads.append)
    deployment.tree(0).broadcast("b-2", {"numbers": [1, 2, 3]})
    deployment.run(6.0)
    assert payloads == [{"numbers": [1, 2, 3]}]


def test_duplicate_broadcast_ids_are_delivered_once():
    deployment = build_overlay(10, with_trees=True, seed=5)
    count = {"n": 0}
    deployment.tree(3).on_broadcast(lambda payload: count.__setitem__("n", count["n"] + 1))
    deployment.tree(0).broadcast("dup", "payload")
    deployment.run(5.0)
    deployment.tree(1).broadcast("dup", "payload")
    deployment.run(5.0)
    assert count["n"] == 1


def test_every_non_root_node_is_someones_child():
    deployment = build_overlay(20, with_trees=True, seed=6)
    deployment.run(3.0)
    recorded_children = set()
    for tree in deployment.trees:
        recorded_children.update(tree.children())
    root_owners = {
        node.address
        for node in deployment.nodes
        if node.router.is_responsible(deployment.trees[0].root_identifier)
    }
    missing = set(range(20)) - recorded_children - root_owners
    assert not missing, f"nodes with no parent: {missing}"


def test_child_records_expire_without_renewal():
    deployment = build_overlay(
        8, with_trees=True, seed=7
    )
    deployment.run(2.0)
    # Stop re-advertising and let the soft state expire.
    for tree in deployment.trees:
        tree.stop()
    deployment.run(200.0)
    assert all(tree.children() == [] for tree in deployment.trees)


def test_tree_heals_after_readvertisement():
    deployment = build_overlay(16, with_trees=True, seed=8)
    deployment.run(2.0)
    # Simulate losing all child state (e.g. a node restarted).
    for node in deployment.nodes:
        for namespace in list(node.object_manager.namespaces()):
            if namespace.startswith("__dtree_children__"):
                node.object_manager.drop_namespace(namespace)
    # Advertisements repeat every 30 s of virtual time; wait for one round.
    deployment.run(40.0)
    seen = set()
    for address, tree in enumerate(deployment.trees):
        tree.on_broadcast(lambda payload, a=address: seen.add(a))
    deployment.tree(2).broadcast("after-heal", "x")
    deployment.run(8.0)
    assert len(seen) == 16


def test_seen_broadcast_ids_expire_with_the_broadcast_lifetime():
    """A node remembers a broadcast id only as long as a copy of the
    broadcast can still arrive (the lifetime it is stored with): inside
    that time a duplicate is dropped, and over 1,000 broadcasts spread
    over 10 virtual minutes the memory does not grow."""
    from repro.overlay.distribution_tree import BROADCAST_LIFETIME

    deployment = build_overlay(6, with_trees=True, seed=8)
    deliveries = []
    deployment.tree(3).on_broadcast(deliveries.append)
    deployment.tree(0).broadcast("again", "first")
    deployment.run(BROADCAST_LIFETIME / 2)
    deployment.tree(1).broadcast("again", "second")
    deployment.run(2.0)
    assert deliveries == ["first"]

    largest = 0
    for index in range(1000):
        deployment.tree(index % 6).broadcast(f"b-{index}", index)
        deployment.run(0.6)
        largest = max(largest, max(len(tree._seen_broadcasts) for tree in deployment.trees))
    assert deliveries[1:] == list(range(1000)), "every broadcast still arrives exactly once"
    # 60 s of lifetime at one broadcast per 0.6 s is 100 live ids.
    assert largest <= BROADCAST_LIFETIME / 0.6 + 2
