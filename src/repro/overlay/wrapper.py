"""The overlay wrapper: PIER's DHT interface (paper Section 3.2.4, Table 2).

The wrapper choreographs the router and the object manager to provide the
inter-node operations (``get``, ``put``, ``send``, ``renew``) and the
intra-node operations (``localScan``, ``newData``, ``upcall``) that the
query processor uses.  ``put``/``get``/``renew`` are two-phase: a multi-hop
*lookup* resolves the identifier-to-address mapping, then a direct
point-to-point exchange performs the operation (Figure 6).  ``send`` routes
the object itself hop-by-hop toward the destination, invoking upcalls at
every node along the path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.overlay.naming import ObjectName
from repro.overlay.object_manager import ObjectManager, StoredObject
from repro.overlay.router import (
    BootstrapDirectory,
    ChordRouter,
    NodeContact,
    Router,
    make_contact,
)
from repro.runtime.vri import VirtualRuntime

DHT_PORT = 5100

GetCallback = Callable[[str, object, List[object]], None]
LookupCallback = Callable[[Optional[NodeContact], int], None]
AckCallback = Callable[[bool], None]
# (namespace, key, value) — or, registered with ``batched=True``,
# (namespace, key, values): every object of one arrival in one call.
NewDataCallback = Callable[[str, object, Any], None]
LScanCallback = Callable[[str, object, object], None]
# Upcall handlers return True to continue routing, False to stop the message.
UpcallHandler = Callable[[str, object, object], bool]


@dataclass
class DHTStats:
    """Counters the wrapper keeps for experiments and benchmarks."""

    lookups_issued: int = 0
    lookups_completed: int = 0
    lookup_hops_total: int = 0
    puts: int = 0
    batch_puts: int = 0
    batched_objects: int = 0
    gets: int = 0
    sends: int = 0
    renews: int = 0
    renew_failures: int = 0
    pings: int = 0
    ping_failures: int = 0
    messages_routed: int = 0
    messages_received: int = 0
    upcalls_delivered: int = 0

    @property
    def mean_lookup_hops(self) -> float:
        if self.lookups_completed == 0:
            return 0.0
        return self.lookup_hops_total / self.lookups_completed


@dataclass(slots=True)
class _PendingRequest:
    callback: Callable[..., None]
    kind: str
    issued_at: float
    timer: Any = None


@dataclass(slots=True)
class _RouteAttempt:
    message: Dict[str, Any]
    excluded: Set[int] = field(default_factory=set)


class _LivenessProbe:
    """Transport-ack adapter for :meth:`OverlayNode.probe_liveness`.

    The simulator's UDP layer acknowledges delivery (UdpCC semantics), so a
    direct ping tells the sender whether the peer is reachable without any
    application-level reply message.
    """

    def __init__(self, node: "OverlayNode", identifier: int, callback: AckCallback) -> None:
        self.node = node
        self.identifier = identifier
        self.callback = callback

    def handle_udp_ack(self, _callback_data: Any, success: bool) -> None:
        if success:
            self.node.router.mark_alive(self.identifier)
        else:
            self.node.stats.ping_failures += 1
            self.node.router.mark_dead(self.identifier)
            if hasattr(self.node.router, "remove_contact"):
                self.node.router.remove_contact(self.identifier)
        self.callback(success)


class OverlayNode:
    """One node's overlay network stack: router + object manager + wrapper."""

    def __init__(
        self,
        runtime: VirtualRuntime,
        directory: BootstrapDirectory,
        router_factory: Callable[[NodeContact], Router] = ChordRouter,
        port: int = DHT_PORT,
        stabilization_interval: float = 10.0,
        max_lifetime: float = 7200.0,
        request_timeout: float = 8.0,
    ) -> None:
        self.runtime = runtime
        self.directory = directory
        self.port = port
        self.contact = make_contact(runtime.address)
        self.router: Router = router_factory(self.contact)
        self.object_manager = ObjectManager(
            clock=runtime.get_current_time, max_lifetime=max_lifetime
        )
        self.stats = DHTStats()
        self.stabilization_interval = stabilization_interval
        self.request_timeout = request_timeout
        self._request_ids = itertools.count(1)
        self._pending: Dict[int, _PendingRequest] = {}
        self._new_data_handlers: Dict[str, List[NewDataCallback]] = {}
        self._new_batch_handlers: Dict[str, List[NewDataCallback]] = {}
        self._upcall_handlers: Dict[str, List[UpcallHandler]] = {}
        self._joined = False
        # Bumped on rejoin so a stabilization timer armed before a failure
        # cannot double-drive the loop after recovery.
        self._stabilization_epoch = 0

    # ------------------------------------------------------------------ #
    # Membership                                                          #
    # ------------------------------------------------------------------ #
    def join(self) -> None:
        """Join the overlay: register, build neighbor tables, start timers."""
        if self._joined:
            return
        self.runtime.listen(self.port, self)
        self.directory.register(self.contact)
        self.router.sync(self.directory)
        self._joined = True
        self._schedule_stabilization()

    def leave(self) -> None:
        """Gracefully leave the overlay."""
        if not self._joined:
            return
        self.directory.deregister(self.contact.identifier)
        self.runtime.release(self.port)
        self._joined = False

    @property
    def identifier(self) -> int:
        return self.contact.identifier

    @property
    def address(self) -> Any:
        return self.runtime.address

    def rejoin(self) -> None:
        """Re-announce membership after recovering from a complete failure.

        The node's timer chains died with it (events that fired while it
        was down were suppressed), so the stabilization loop is restarted,
        the neighbor tables are rebuilt, and a lightweight ``hello`` is
        sent to every known member — the message exchange by which a real
        stabilization protocol would clear the peers' suspicion of this
        node and re-admit it to their neighbor tables.
        """
        self.directory.register(self.contact)
        self.router.sync(self.directory)
        self._joined = True
        self._stabilization_epoch += 1
        self._schedule_stabilization()
        for member in self.directory.members():
            if member.identifier == self.identifier:
                continue
            self._send_direct(
                member.address,
                {"kind": "hello", "origin": self.address, "identifier": self.identifier},
            )

    def probe_liveness(self, address: Any, callback: AckCallback) -> None:
        """Ping a peer directly; ``callback(reachable)`` reports the result.

        Failures mark the peer dead in the router (and successes clear the
        suspicion), so probing keeps the membership view honest — this is
        what the failure-aware query proxies use to track per-query
        participant liveness.
        """
        self.stats.pings += 1
        if address == self.address:
            callback(True)
            return
        contact = make_contact(address)
        probe = _LivenessProbe(self, contact.identifier, callback)
        self.runtime.send(
            self.port,
            (address, self.port),
            {"kind": "ping", "origin": self.address},
            callback_data=None,
            callback_client=probe,
        )

    def _schedule_stabilization(self) -> None:
        epoch = self._stabilization_epoch
        self.runtime.schedule_event(
            self.stabilization_interval, epoch, self._stabilize
        )

    def _stabilize(self, epoch: Any) -> None:
        if not self._joined or epoch != self._stabilization_epoch:
            return
        self.router.sync(self.directory)
        self.object_manager.sweep()
        self._schedule_stabilization()

    # ------------------------------------------------------------------ #
    # Inter-node operations (Table 2)                                     #
    # ------------------------------------------------------------------ #
    def get(self, namespace: str, key: object, callback_client: GetCallback) -> None:
        """Two-phase get: lookup the owner, then fetch all objects for the key."""
        self.stats.gets += 1
        routing_id = ObjectName(namespace, key, "").routing_identifier()

        def after_lookup(owner: Optional[NodeContact], _hops: int) -> None:
            if owner is None:
                callback_client(namespace, key, [])
                return
            if owner.identifier == self.identifier:
                objects = [obj.value for obj in self.object_manager.get(namespace, key)]
                callback_client(namespace, key, objects)
                return
            request_id = self._register_request(
                lambda objects: callback_client(namespace, key, objects),
                kind="get",
                on_timeout=lambda: callback_client(namespace, key, []),
            )
            self._send_direct(
                owner.address,
                {
                    "kind": "get_request",
                    "namespace": namespace,
                    "key": key,
                    "request_id": request_id,
                    "origin": self.address,
                },
            )

        self._lookup(routing_id, after_lookup)

    def put(
        self,
        namespace: str,
        key: object,
        suffix: str,
        value: object,
        lifetime: float,
        callback: Optional[AckCallback] = None,
    ) -> ObjectName:
        """Two-phase put: lookup the owner, then ship the object directly."""
        self.stats.puts += 1
        name = ObjectName(namespace, key, suffix)
        routing_id = name.routing_identifier()

        def after_lookup(owner: Optional[NodeContact], _hops: int) -> None:
            if owner is None:
                if callback is not None:
                    callback(False)
                return
            if owner.identifier == self.identifier:
                self._store_locally(name, value, lifetime)
                if callback is not None:
                    callback(True)
                return
            request_id = None
            if callback is not None:
                request_id = self._register_request(
                    callback, kind="put", on_timeout=lambda: callback(False)
                )
            self._send_direct(
                owner.address,
                {
                    "kind": "put",
                    "namespace": namespace,
                    "key": key,
                    "suffix": suffix,
                    "value": value,
                    "lifetime": lifetime,
                    "request_id": request_id,
                    "origin": self.address,
                },
            )

        self._lookup(routing_id, after_lookup)
        return name

    def put_batch(
        self,
        namespace: str,
        key: object,
        entries: List[Tuple[str, object]],
        lifetime: float,
        callback: Optional[AckCallback] = None,
    ) -> None:
        """Batched put: ship several objects for one partitioning key with a
        single lookup and a single direct message.

        All objects in ``entries`` (``(suffix, value)`` pairs) share the
        same (namespace, key), so they route to the same owner; coalescing
        them turns N per-tuple messages into one.  This is what the query
        processor's batching exchange uses.
        """
        if not entries:
            if callback is not None:
                callback(True)
            return
        self.stats.puts += 1
        self.stats.batch_puts += 1
        self.stats.batched_objects += len(entries)
        routing_id = ObjectName(namespace, key, entries[0][0]).routing_identifier()

        def after_lookup(owner: Optional[NodeContact], _hops: int) -> None:
            if owner is None:
                if callback is not None:
                    callback(False)
                return
            if owner.identifier == self.identifier:
                self._store_batch_locally(namespace, key, entries, lifetime)
                if callback is not None:
                    callback(True)
                return
            request_id = None
            if callback is not None:
                request_id = self._register_request(
                    callback, kind="put_batch", on_timeout=lambda: callback(False)
                )
            # The entry pairs are shipped as-is (zero-copy): values are
            # immutable wire objects whose sizes the simulator memoizes, so
            # the batch message costs one envelope walk plus the sum of the
            # elements' cached sizes.
            self._send_direct(
                owner.address,
                {
                    "kind": "put_batch",
                    "namespace": namespace,
                    "key": key,
                    "entries": entries,
                    "lifetime": lifetime,
                    "request_id": request_id,
                    "origin": self.address,
                },
            )

        self._lookup(routing_id, after_lookup)

    def renew(
        self,
        namespace: str,
        key: object,
        suffix: str,
        lifetime: float,
        callback: Optional[AckCallback] = None,
    ) -> None:
        """Lightweight put variant: extend an existing object's lifetime.

        Fails (callback(False)) if the object is not already stored at the
        destination — the publisher must then re-``put`` it.
        """
        self.stats.renews += 1
        name = ObjectName(namespace, key, suffix)
        routing_id = name.routing_identifier()

        def after_lookup(owner: Optional[NodeContact], _hops: int) -> None:
            if owner is None:
                self.stats.renew_failures += 1
                if callback is not None:
                    callback(False)
                return
            if owner.identifier == self.identifier:
                success = self.object_manager.renew(name, lifetime)
                if not success:
                    self.stats.renew_failures += 1
                if callback is not None:
                    callback(success)
                return

            def on_result(success: bool) -> None:
                if not success:
                    self.stats.renew_failures += 1
                if callback is not None:
                    callback(success)

            request_id = self._register_request(
                on_result, kind="renew", on_timeout=lambda: on_result(False)
            )
            self._send_direct(
                owner.address,
                {
                    "kind": "renew",
                    "namespace": namespace,
                    "key": key,
                    "suffix": suffix,
                    "lifetime": lifetime,
                    "request_id": request_id,
                    "origin": self.address,
                },
            )

        self._lookup(routing_id, after_lookup)

    def send(
        self,
        namespace: str,
        key: object,
        suffix: str,
        value: object,
        lifetime: float = 60.0,
        target: Optional[int] = None,
    ) -> None:
        """Route the object itself toward the responsible node, with upcalls
        at every node along the path (Figure 6).

        ``target`` overrides the routing identifier; by default it is
        derived from (namespace, key).  Components such as distribution
        trees use the override so that several namespaces (advertisements,
        broadcasts, partial aggregates) all terminate at the same root.
        """
        self.stats.sends += 1
        name = ObjectName(namespace, key, suffix)
        message = {
            "kind": "send",
            "namespace": namespace,
            "key": key,
            "suffix": suffix,
            "value": value,
            "lifetime": lifetime,
            "target": name.routing_identifier() if target is None else target,
            "hops": 0,
            "origin": self.address,
        }
        tracer = getattr(self.runtime, "tracer", None)
        if tracer is not None:
            scope = tracer.current()
            if scope is not None:
                message["trace"] = scope[0]
        self._handle_send(message, arrived_over_network=False)

    # ------------------------------------------------------------------ #
    # Intra-node operations (Table 2)                                     #
    # ------------------------------------------------------------------ #
    def local_scan(self, namespace: str, callback_client: LScanCallback) -> int:
        """Invoke ``callback(namespace, key, value)`` for every local object."""
        count = 0
        for stored in self.object_manager.local_scan(namespace):
            callback_client(namespace, stored.name.partitioning_key, stored.value)
            count += 1
        return count

    def new_data(
        self, namespace: str, callback_client: NewDataCallback, batched: bool = False
    ) -> None:
        """Register for notification when an object in ``namespace`` arrives here.

        A ``batched`` client is called once per arrival with the list of
        its values — all the objects of a ``put_batch``, or a list of one —
        instead of once per object.
        """
        handlers = self._new_batch_handlers if batched else self._new_data_handlers
        handlers.setdefault(namespace, []).append(callback_client)

    def upcall(self, namespace: str, callback_client: UpcallHandler) -> None:
        """Register an interceptor for ``send`` messages passing through this node."""
        self._upcall_handlers.setdefault(namespace, []).append(callback_client)

    # ------------------------------------------------------------------ #
    # Lookup / routing                                                    #
    # ------------------------------------------------------------------ #
    def lookup(self, identifier: int, callback: LookupCallback) -> None:
        """Public lookup: resolve which node owns ``identifier``."""
        self._lookup(identifier, callback)

    def _lookup(self, identifier: int, callback: LookupCallback) -> None:
        self.stats.lookups_issued += 1
        # Causal tracing: when the caller runs inside a trace scope (e.g.
        # query dissemination), the lookup is recorded as a span and the
        # routed message carries the trace id so every hop can attribute
        # its route choice.  One None-check when tracing is off.
        tracer = getattr(self.runtime, "tracer", None)
        scope = tracer.current() if tracer is not None else None
        if self.router.is_responsible(identifier):
            self.stats.lookups_completed += 1
            if scope is not None:
                tracer.event(
                    "dht.lookup", scope[0], parent_id=scope[1],
                    node=self.address, hops=0, local=True,
                )
            callback(self.contact, 0)
            return

        span = (
            tracer.begin("dht.lookup", scope[0], parent_id=scope[1], node=self.address)
            if scope is not None
            else None
        )

        def complete(result: Tuple[Optional[NodeContact], int]) -> None:
            owner, hops = result
            self.stats.lookups_completed += 1
            self.stats.lookup_hops_total += hops
            if span is not None:
                tracer.end(span, hops=hops)
            callback(owner, hops)

        request_id = self._register_request(
            complete, kind="lookup", on_timeout=lambda: callback(None, 0)
        )
        message = {
            "kind": "lookup",
            "target": identifier,
            "request_id": request_id,
            "origin": self.address,
            "hops": 0,
        }
        if scope is not None:
            message["trace"] = scope[0]
        self._route(message)

    def _route(self, message: Dict[str, Any], excluded: Optional[Set[int]] = None) -> None:
        """Forward ``message`` one hop toward ``message['target']``."""
        attempt = _RouteAttempt(message=message, excluded=excluded or set())
        next_hop, final = self.router.route_choice(message["target"], exclude=attempt.excluded)
        if next_hop is None:
            # We believe we are responsible: deliver locally.
            self._deliver_routed(message)
            return
        # "final" marks that, in this node's view, the next hop owns the
        # target; the receiver delivers even if its own (stale) predecessor
        # pointer says otherwise.  This is Chord's find_successor semantics
        # and is what keeps lookups terminating under churn.
        # Routing-envelope update: the envelope of an in-flight message is
        # owned by the routing layer (the sender holds no alias), and the
        # sanitizer exempts the top-level "hops"/"final" keys to match.
        message["final"] = final  # pierlint: disable=P02
        self.stats.messages_routed += 1
        # Per-hop routing attribution: only messages already carrying a
        # trace id pay for the tracer lookup, so the untraced path stays
        # one dict.get away from the seed behaviour.
        trace_id = message.get("trace")
        if trace_id is not None:
            tracer = getattr(self.runtime, "tracer", None)
            if tracer is not None:
                tracer.event(
                    "dht.route_choice",
                    trace_id,
                    node=self.address,
                    target=message["target"],
                    next_hop=next_hop.address,
                    final=final,
                )
        self.runtime.send(
            self.port,
            (next_hop.address, self.port),
            message,
            callback_data=(attempt, next_hop),
            callback_client=self,
        )

    def handle_udp_ack(self, callback_data: Any, success: bool) -> None:
        """Delivery acknowledgement from the transport (VRI/UdpCC semantics)."""
        if success or callback_data is None:
            return
        attempt, failed_hop = callback_data
        # The neighbor is unreachable: remember that, drop it from the
        # routing tables, and retry the message around it.
        self.router.mark_dead(failed_hop.identifier)
        if hasattr(self.router, "remove_contact"):
            self.router.remove_contact(failed_hop.identifier)
        attempt.excluded.add(failed_hop.identifier)
        self._route(attempt.message, excluded=attempt.excluded)

    # ------------------------------------------------------------------ #
    # Message handling                                                    #
    # ------------------------------------------------------------------ #
    def handle_udp(self, source: Any, payload: Any) -> None:
        # Branches ordered by observed frequency (routed lookups and their
        # responses, then the storage operations) — every simulated message
        # passes through here.
        if not isinstance(payload, dict) or "kind" not in payload:
            return
        self.stats.messages_received += 1
        kind = payload["kind"]
        if kind == "lookup":
            # Per-hop envelope update (see _route); exempted from the
            # wire-immutability contract alongside "final".
            payload["hops"] = payload.get("hops", 0) + 1  # pierlint: disable=P02
            if payload.get("final") or self.router.is_responsible(payload["target"]):
                self._deliver_routed(payload)
            else:
                self._route(payload)
        elif kind == "lookup_response":
            self._complete_request(
                payload["request_id"],
                (NodeContact(payload["owner_id"], payload["owner_address"]), payload["hops"]),
            )
        elif kind == "put":
            name = ObjectName(payload["namespace"], payload["key"], payload["suffix"])
            self._store_locally(name, payload["value"], payload["lifetime"])
            if payload.get("request_id") is not None:
                self._send_direct(
                    payload["origin"],
                    {"kind": "ack", "request_id": payload["request_id"], "success": True},
                )
        elif kind == "put_batch":
            self._store_batch_locally(
                payload["namespace"], payload["key"], payload["entries"], payload["lifetime"]
            )
            if payload.get("request_id") is not None:
                self._send_direct(
                    payload["origin"],
                    {"kind": "ack", "request_id": payload["request_id"], "success": True},
                )
        elif kind == "ack":
            self._complete_request(payload["request_id"], payload["success"])
        elif kind == "direct":
            # Application-level point-to-point message (used by distribution
            # trees and hierarchical operators); treated like arriving data.
            self._notify_new_data(payload["namespace"], payload["key"], [payload["value"]])
        elif kind == "send":
            payload["hops"] = payload.get("hops", 0) + 1  # pierlint: disable=P02
            self._handle_send(payload, arrived_over_network=True)
        elif kind == "get_request":
            objects = [
                stored.value
                for stored in self.object_manager.get(payload["namespace"], payload["key"])
            ]
            self._send_direct(
                payload["origin"],
                {
                    "kind": "get_response",
                    "request_id": payload["request_id"],
                    "objects": objects,
                },
            )
        elif kind == "get_response":
            self._complete_request(payload["request_id"], payload["objects"])
        elif kind == "renew":
            name = ObjectName(payload["namespace"], payload["key"], payload["suffix"])
            success = self.object_manager.renew(name, payload["lifetime"])
            self._send_direct(
                payload["origin"],
                {"kind": "ack", "request_id": payload["request_id"], "success": success},
            )
        elif kind == "ping":
            # Receiving a ping proves the sender is alive; the transport ack
            # answers for us.
            self.router.mark_alive(make_contact(payload["origin"]).identifier)
        elif kind == "hello":
            # A recovered/new node announcing itself: clear any suspicion
            # and fold it back into the neighbor tables.
            self.router.mark_alive(payload["identifier"])
            self.router.sync(self.directory)

    def _handle_send(self, message: Dict[str, Any], arrived_over_network: bool) -> None:
        namespace = message["namespace"]
        # Upcalls fire at every node the message *arrives at* along the path
        # (including the final destination), but not at the originator.
        if arrived_over_network:
            for handler in self._upcall_handlers.get(namespace, []):
                self.stats.upcalls_delivered += 1
                if not handler(namespace, message["key"], message["value"]):
                    return
        arrived_as_final = arrived_over_network and message.get("final")
        if arrived_as_final or self.router.is_responsible(message["target"]):
            name = ObjectName(namespace, message["key"], message["suffix"])
            self._store_locally(name, message["value"], message["lifetime"])
            return
        self._route(message)

    def _deliver_routed(self, message: Dict[str, Any]) -> None:
        kind = message["kind"]
        if kind == "lookup":
            self._send_direct(
                message["origin"],
                {
                    "kind": "lookup_response",
                    "request_id": message["request_id"],
                    "owner_id": self.identifier,
                    "owner_address": self.address,
                    "hops": message.get("hops", 0),
                },
            )
        elif kind == "send":
            self._handle_send(message, arrived_over_network=False)

    # ------------------------------------------------------------------ #
    # Helpers                                                             #
    # ------------------------------------------------------------------ #
    def direct_message(self, destination: Any, namespace: str, key: object, value: object) -> None:
        """Point-to-point application message delivered via newData handlers."""
        self._send_direct(
            destination,
            {"kind": "direct", "namespace": namespace, "key": key, "value": value},
        )

    def _send_direct(self, destination_address: Any, payload: Dict[str, Any]) -> None:
        tracer = getattr(self.runtime, "tracer", None)
        if tracer is not None:
            scope = tracer.current()
            if scope is not None and "trace" not in payload:
                payload["trace"] = scope[0]
        if destination_address == self.address:
            self.handle_udp((self.address, self.port), payload)
            return
        self.runtime.send(self.port, (destination_address, self.port), payload)

    def _store_locally(self, name: ObjectName, value: object, lifetime: float) -> StoredObject:
        stored = self.object_manager.put(name, value, lifetime)
        self._notify_new_data(name.namespace, name.partitioning_key, [value])
        return stored

    def _store_batch_locally(
        self, namespace: str, key: object, entries: List[Tuple[str, object]], lifetime: float
    ) -> None:
        """Store the objects of one ``put_batch`` and announce them together."""
        for suffix, value in entries:
            self.object_manager.put(ObjectName(namespace, key, suffix), value, lifetime)
        self._notify_new_data(namespace, key, [value for _suffix, value in entries])

    def _notify_new_data(self, namespace: str, key: object, values: List[object]) -> None:
        for handler in self._new_data_handlers.get(namespace, ()):
            for value in values:
                handler(namespace, key, value)
        for handler in self._new_batch_handlers.get(namespace, ()):
            handler(namespace, key, values)

    def _register_request(
        self,
        callback: Callable[..., None],
        kind: str,
        on_timeout: Optional[Callable[[], None]] = None,
    ) -> int:
        request_id = next(self._request_ids)
        pending = _PendingRequest(
            callback=callback, kind=kind, issued_at=self.runtime.get_current_time()
        )
        self._pending[request_id] = pending
        if on_timeout is not None:
            def expire(_data: Any) -> None:
                if self._pending.pop(request_id, None) is not None:
                    on_timeout()

            pending.timer = self.runtime.schedule_event(self.request_timeout, None, expire)
        return request_id

    def _complete_request(self, request_id: int, result: Any) -> None:
        pending = self._pending.pop(request_id, None)
        if pending is None:
            return
        if pending.timer is not None and hasattr(pending.timer, "cancel"):
            pending.timer.cancel()
        pending.callback(result)


# Backwards-compatible alias: the paper calls this component the "wrapper".
DHTWrapper = OverlayNode
