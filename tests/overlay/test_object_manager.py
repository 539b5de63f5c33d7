"""Tests for soft-state object storage."""

from repro.overlay.naming import ObjectName
from repro.overlay.object_manager import ObjectManager


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_put_get_and_suffix_uniquification():
    clock = _Clock()
    manager = ObjectManager(clock)
    manager.put(ObjectName("files", "k1", "s1"), {"a": 1}, lifetime=10)
    manager.put(ObjectName("files", "k1", "s2"), {"a": 2}, lifetime=10)
    values = sorted(obj.value["a"] for obj in manager.get("files", "k1"))
    assert values == [1, 2]
    assert manager.count("files") == 2


def test_put_same_suffix_overwrites():
    clock = _Clock()
    manager = ObjectManager(clock)
    name = ObjectName("files", "k1", "s1")
    manager.put(name, "old", lifetime=10)
    manager.put(name, "new", lifetime=10)
    assert [obj.value for obj in manager.get("files", "k1")] == ["new"]


def test_objects_expire_after_lifetime():
    clock = _Clock()
    manager = ObjectManager(clock)
    manager.put(ObjectName("t", "k", "s"), "v", lifetime=5)
    clock.now = 4.9
    assert manager.get("t", "k")
    clock.now = 5.1
    assert manager.get("t", "k") == []
    assert manager.objects_expired == 1


def test_renew_extends_lifetime_and_fails_for_missing_objects():
    clock = _Clock()
    manager = ObjectManager(clock)
    name = ObjectName("t", "k", "s")
    manager.put(name, "v", lifetime=5)
    clock.now = 4.0
    assert manager.renew(name, lifetime=10) is True
    clock.now = 13.0
    assert manager.get("t", "k")
    clock.now = 15.0
    assert manager.renew(name, lifetime=10) is False  # expired, must re-put


def test_max_lifetime_is_enforced():
    clock = _Clock()
    manager = ObjectManager(clock, max_lifetime=100.0)
    manager.put(ObjectName("t", "k", "s"), "v", lifetime=10_000)
    clock.now = 99.0
    assert manager.get("t", "k")
    clock.now = 101.0
    assert manager.get("t", "k") == []


def test_local_scan_and_namespaces():
    clock = _Clock()
    manager = ObjectManager(clock)
    for index in range(5):
        manager.put(ObjectName("tableA", index, f"s{index}"), index, lifetime=50)
    manager.put(ObjectName("tableB", "x", "s"), "y", lifetime=50)
    assert sorted(obj.value for obj in manager.local_scan("tableA")) == list(range(5))
    assert sorted(manager.namespaces()) == ["tableA", "tableB"]
    assert manager.count() == 6


def test_remove_and_drop_namespace():
    clock = _Clock()
    manager = ObjectManager(clock)
    name = ObjectName("t", "k", "s")
    manager.put(name, "v", lifetime=50)
    assert manager.remove(name) is True
    assert manager.remove(name) is False
    for index in range(3):
        manager.put(ObjectName("t", index, "s"), index, lifetime=50)
    assert manager.drop_namespace("t") == 3
    assert manager.count() == 0


def test_sweep_reports_live_count():
    clock = _Clock()
    manager = ObjectManager(clock)
    manager.put(ObjectName("t", "a", "1"), 1, lifetime=1)
    manager.put(ObjectName("t", "b", "2"), 2, lifetime=100)
    clock.now = 2.0
    assert manager.sweep() == 1


def test_reads_skip_the_expiry_walk_until_something_can_have_expired():
    clock = _Clock()
    manager = ObjectManager(clock)
    walks = []

    class _CountingStore(dict):
        def items(self):
            walks.append(clock.now)
            return super().items()

    manager._store = _CountingStore()
    late, early = ObjectName("t", "k", "late"), ObjectName("t", "k", "early")
    manager.put(late, "v", lifetime=50)
    manager.put(early, "v", lifetime=5)
    clock.now = 4.0
    assert manager.count("t") == 2 and manager.get_one(early) is not None
    assert walks == []  # nothing can have expired before t=5
    clock.now = 5.0
    assert [obj.name for obj in manager.get("t", "k")] == [late]
    assert walks == [5.0] and manager.objects_expired == 1
    clock.now = 30.0
    assert manager.count("t") == 1
    assert walks == [5.0]  # the walk at t=5 found the next expiry: t=50
    # renew may also pull an expiry *earlier*; the bound follows it.
    assert manager.renew(late, lifetime=2) is True
    clock.now = 32.0
    assert manager.count("t") == 0
    assert manager.objects_expired == 2
