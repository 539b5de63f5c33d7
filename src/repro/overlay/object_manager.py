"""Soft-state object storage (paper Section 3.2.3).

The object manager stores each item for its "soft-state lifetime", after
which the item is discarded.  Publishers must periodically ``renew`` items
to keep them alive; the system enforces a maximum lifetime so objects whose
publisher has failed are eventually garbage-collected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.overlay.naming import ObjectName


@dataclass(slots=True)
class StoredObject:
    """One soft-state object held by a node's object manager."""

    name: ObjectName
    value: object
    stored_at: float
    expires_at: float

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


class ObjectManager:
    """Per-node store of soft-state objects, indexed for the DHT's access paths.

    Objects are indexed by ``namespace`` then by ``partitioning_key`` then by
    ``suffix`` so that a ``get(namespace, key)`` returns every uniquified
    object published under that key, and ``localScan(namespace)`` can walk a
    whole table partition.
    """

    def __init__(self, clock: Callable[[], float], max_lifetime: float = 7200.0) -> None:
        self._clock = clock
        self.max_lifetime = max_lifetime
        self._store: Dict[str, Dict[object, Dict[str, StoredObject]]] = {}
        # No stored object expires before this: put and renew lower it, a
        # real expiry walk recomputes it.  Reads return before the walk
        # while the clock is below it.
        self._earliest_expiry = math.inf
        self.objects_stored = 0
        self.objects_expired = 0

    # -- mutation ----------------------------------------------------------- #
    def put(self, name: ObjectName, value: object, lifetime: float) -> StoredObject:
        """Store (or overwrite) an object under its three-part name."""
        now = self._clock()
        lifetime = min(max(0.0, lifetime), self.max_lifetime)
        stored = StoredObject(
            name=name, value=value, stored_at=now, expires_at=now + lifetime
        )
        if stored.expires_at < self._earliest_expiry:
            self._earliest_expiry = stored.expires_at
        namespace = self._store.setdefault(name.namespace, {})
        bucket = namespace.setdefault(name.partitioning_key, {})
        if name.suffix not in bucket:
            self.objects_stored += 1
        bucket[name.suffix] = stored
        return stored

    def renew(self, name: ObjectName, lifetime: float) -> bool:
        """Extend an object's lifetime.  Fails if the object is not present
        (the publisher must then re-``put`` it), per Section 3.2.4."""
        self._expire()
        bucket = self._store.get(name.namespace, {}).get(name.partitioning_key, {})
        stored = bucket.get(name.suffix)
        if stored is None:
            return False
        lifetime = min(max(0.0, lifetime), self.max_lifetime)
        stored.expires_at = self._clock() + lifetime
        if stored.expires_at < self._earliest_expiry:
            self._earliest_expiry = stored.expires_at
        return True

    def remove(self, name: ObjectName) -> bool:
        bucket = self._store.get(name.namespace, {}).get(name.partitioning_key, {})
        return bucket.pop(name.suffix, None) is not None

    def drop_namespace(self, namespace: str) -> int:
        """Remove every object in a namespace; returns how many were dropped."""
        buckets = self._store.pop(namespace, {})
        return sum(len(bucket) for bucket in buckets.values())

    # -- lookup ---------------------------------------------------------------- #
    def get(self, namespace: str, partitioning_key: object) -> List[StoredObject]:
        """All live objects stored under (namespace, key), any suffix."""
        self._expire()
        bucket = self._store.get(namespace, {}).get(partitioning_key, {})
        return list(bucket.values())

    def get_one(self, name: ObjectName) -> Optional[StoredObject]:
        self._expire()
        bucket = self._store.get(name.namespace, {}).get(name.partitioning_key, {})
        return bucket.get(name.suffix)

    def local_scan(self, namespace: str) -> Iterator[StoredObject]:
        """Iterate every live object in a namespace at this node."""
        self._expire()
        for bucket in self._store.get(namespace, {}).values():
            yield from bucket.values()

    def namespaces(self) -> List[str]:
        self._expire()
        return [ns for ns, buckets in self._store.items() if any(buckets.values())]

    def count(self, namespace: Optional[str] = None) -> int:
        self._expire()
        if namespace is not None:
            return sum(len(bucket) for bucket in self._store.get(namespace, {}).values())
        return sum(
            len(bucket)
            for buckets in self._store.values()
            for bucket in buckets.values()
        )

    # -- expiry ---------------------------------------------------------------- #
    def _expire(self) -> None:
        now = self._clock()
        if now < self._earliest_expiry:
            return
        earliest = math.inf
        for namespace, buckets in list(self._store.items()):
            for key, bucket in list(buckets.items()):
                expired = [suffix for suffix, obj in bucket.items() if obj.expired(now)]
                for suffix in expired:
                    del bucket[suffix]
                    self.objects_expired += 1
                if not bucket:
                    del buckets[key]
                else:
                    earliest = min(earliest, min(obj.expires_at for obj in bucket.values()))
            if not buckets:
                del self._store[namespace]
        self._earliest_expiry = earliest

    def sweep(self) -> int:
        """Force an expiry pass; returns the number of live objects remaining."""
        self._expire()
        return self.count()
