"""Distribution (dissemination) trees built over the DHT (Section 3.3.3).

PIER maintains a distribution tree for use by all queries.  Upon joining,
each node routes a ``send`` containing its own node identifier toward a
well-known root identifier.  The node at the first hop receives an upcall,
records the advertised child, and drops the message — so a node's parent is
simply the first hop on its route toward the root.  The tree is maintained
with soft state: nodes periodically re-advertise, and stale child records
expire.

Broadcast walks the tree downward: the proxy routes the payload to the
hard-coded root identifier; the root hands a copy to each recorded child,
which forwards recursively.  The inverse structure (each node knows its
parent = the first hop toward the root) is what hierarchical aggregation
uses, via :mod:`repro.qp.hierarchical`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.overlay.identifiers import object_identifier
from repro.overlay.naming import ObjectName
from repro.overlay.wrapper import OverlayNode

# Hard-coded root identifier for the default distribution tree, as in the
# paper ("a well-known root identifier that is hard-coded in PIER").
DEFAULT_ROOT_KEY = "pier-distribution-tree-root"

ADVERTISE_NAMESPACE = "__dtree_advertise__"
CHILDREN_NAMESPACE = "__dtree_children__"
BROADCAST_NAMESPACE = "__dtree_broadcast__"
# The default tree's broadcast namespace and root key are codec well-known
# strings: every plan broadcast names both, on every tree edge.

# How long a broadcast object is stored, and therefore how long a copy of
# it can still arrive: its id is remembered exactly that long.
BROADCAST_LIFETIME = 60.0

BroadcastHandler = Callable[[object], None]


class DistributionTree:
    """Per-node component managing tree membership and broadcast forwarding."""

    def __init__(
        self,
        overlay: OverlayNode,
        root_key: str = DEFAULT_ROOT_KEY,
        advertise_interval: float = 30.0,
        child_lifetime: float = 90.0,
    ) -> None:
        self.overlay = overlay
        self.root_key = root_key
        # All tree traffic (advertisements, broadcasts) routes to this one
        # hard-coded identifier so it terminates at the same root node.
        self.root_identifier = object_identifier("__dtree__", root_key)
        self.advertise_interval = advertise_interval
        self.child_lifetime = child_lifetime
        self._handlers: List[BroadcastHandler] = []
        # Broadcast id -> when it was first seen here, oldest first.
        self._seen_broadcasts: Dict[str, float] = {}
        self._started = False
        # Advert-chain generation: a timer that fired while the node was
        # dead is dropped by the runtime, killing the periodic chain; a
        # restart() bumps the generation and starts a fresh chain while
        # any stale pending timer expires as a no-op.
        self._advert_generation = 0
        self.broadcasts_forwarded = 0

    # ------------------------------------------------------------------ #
    # Lifecycle                                                           #
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Register upcall/newData handlers and begin advertising."""
        if self._started:
            return
        self._started = True
        self.overlay.upcall(self._advertise_namespace(), self._on_advertise_upcall)
        self.overlay.new_data(self._advertise_namespace(), self._on_advertise_at_root)
        self.overlay.new_data(self._broadcast_namespace(), self._on_broadcast_arrival)
        self._advertise(self._advert_generation)

    def stop(self) -> None:
        self._started = False

    def _advertise_namespace(self) -> str:
        return f"{ADVERTISE_NAMESPACE}:{self.root_key}"

    def _children_namespace(self) -> str:
        return f"{CHILDREN_NAMESPACE}:{self.root_key}"

    def _broadcast_namespace(self) -> str:
        return f"{BROADCAST_NAMESPACE}:{self.root_key}"

    # ------------------------------------------------------------------ #
    # Tree maintenance (soft state)                                       #
    # ------------------------------------------------------------------ #
    def _advertise(self, generation: int) -> None:
        if not self._started or generation != self._advert_generation:
            return
        self._send_advert()
        self.overlay.runtime.schedule_event(
            self.advertise_interval, generation, self._advertise
        )

    def _send_advert(self) -> None:
        self.overlay.send(
            self._advertise_namespace(),
            self.root_key,
            suffix=f"advert-{self.overlay.identifier:016x}",
            value={"child_address": self.overlay.address, "child_id": self.overlay.identifier},
            lifetime=self.child_lifetime,
            target=self.root_identifier,
        )

    def refresh(self) -> None:
        """One immediate re-advertisement, without touching the periodic
        schedule.  Failure-triggered tree repair: a node whose tree parent
        just died re-routes its advert around the dead hop *now* — its new
        first hop toward the root records it as a child — instead of losing
        every broadcast until the next soft-state refresh."""
        if self._started:
            self._send_advert()

    def restart(self) -> None:
        """Re-join the tree after this node recovers from a failure.  The
        periodic advert chain is single-threaded through a timer that the
        runtime drops while the node is down, so recovery must start a new
        chain (the generation bump retires any stale pending timer)."""
        if self._started:
            self._advert_generation += 1
            self._advertise(self._advert_generation)

    def _record_child(self, value: object) -> None:
        if not isinstance(value, dict) or "child_address" not in value:
            return
        if value.get("child_id") == self.overlay.identifier:
            return
        self.overlay.object_manager.put(
            name=self._child_name(value["child_id"]),
            value=value["child_address"],
            lifetime=self.child_lifetime,
        )

    def _child_name(self, child_id: int) -> ObjectName:
        return ObjectName(self._children_namespace(), child_id, suffix="child")

    def _on_advertise_upcall(self, _namespace: str, _key: object, value: object) -> bool:
        """First hop of a child's advertisement: record it and drop the message."""
        self._record_child(value)
        return False

    def _on_advertise_at_root(self, _namespace: str, _key: object, value: object) -> None:
        """The advertisement reached the root without an intermediate hop."""
        self._record_child(value)

    def children(self) -> List[Any]:
        """Addresses of this node's current (non-expired) children."""
        return [
            stored.value
            for stored in self.overlay.object_manager.local_scan(self._children_namespace())
        ]

    # ------------------------------------------------------------------ #
    # Broadcast                                                           #
    # ------------------------------------------------------------------ #
    def on_broadcast(self, handler: BroadcastHandler) -> None:
        """Register a handler invoked once per broadcast payload at this node."""
        self._handlers.append(handler)

    def broadcast(self, broadcast_id: str, payload: object) -> None:
        """Send ``payload`` to every node in the tree (including this one).

        This node takes its own copy from a zero-delay event, as every other
        node takes it from a message — the root too, when its copy comes
        straight back: nothing a handler does (installing a query, shipping
        its first rows) happens inside the caller."""
        if self._first_sighting(broadcast_id):
            self.overlay.runtime.schedule_event(0.0, payload, self._deliver_locally)
        self.overlay.send(
            self._broadcast_namespace(),
            self.root_key,
            suffix=broadcast_id,
            value={"broadcast_id": broadcast_id, "payload": payload},
            lifetime=BROADCAST_LIFETIME,
            target=self.root_identifier,
        )

    def _on_broadcast_arrival(self, _namespace: str, _key: object, value: object) -> None:
        if not isinstance(value, dict) or "broadcast_id" not in value:
            return
        if self._first_sighting(value["broadcast_id"]):
            self._deliver_locally(value["payload"])
        self._forward_to_children(value)

    def _first_sighting(self, broadcast_id: str) -> bool:
        """Whether this node sees ``broadcast_id`` for the first time (and
        remembers it for a broadcast's lifetime)."""
        seen = self._seen_broadcasts
        if broadcast_id in seen:
            return False
        now = self.overlay.runtime.get_current_time()
        while seen:
            oldest = next(iter(seen))
            if now - seen[oldest] <= BROADCAST_LIFETIME:
                break
            del seen[oldest]
        seen[broadcast_id] = now
        return True

    def _deliver_locally(self, payload: object) -> None:
        for handler in self._handlers:
            handler(payload)

    def _forward_to_children(self, value: Dict[str, Any]) -> None:
        for child_address in self.children():
            self.broadcasts_forwarded += 1
            self.overlay.direct_message(
                child_address,
                namespace=self._broadcast_namespace(),
                key=self.root_key,
                value=value,
            )
