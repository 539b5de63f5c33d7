"""The overlay wrapper: PIER's DHT interface (paper Section 3.2.4, Table 2).

The wrapper choreographs the router and the object manager to provide the
inter-node operations (``get``, ``put``, ``send``, ``renew``) and the
intra-node operations (``localScan``, ``newData``, ``upcall``) that the
query processor uses.  ``put``/``get``/``renew`` are two-phase: the
identifier-to-address mapping is resolved, then a direct point-to-point
exchange performs the operation (Figure 6).  Resolving takes a multi-hop
*lookup* only while the owner is unknown: a lookup answer carries the
interval of identifiers its owner is responsible for, the node keeps those
(the *owner cache*, emptied whenever the membership or its suspicion set
changes), and an identifier inside one goes straight to the direct message
— sent with the transport's delivery ack, so that a dead cached owner is
noticed and the operation re-run through a routed lookup.  The public
:meth:`OverlayNode.lookup` never reads the cache: its callers use it to
*discover* ownership changes.  ``send`` routes the object itself
hop-by-hop toward the destination, invoking upcalls at every node along
the path.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.overlay.identifiers import IdentifierSpace
from repro.overlay.naming import ObjectName, random_suffix
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
# namespace -> its handlers.  The tuples are replaced, never mutated, so a
# delivery loop holds a snapshot: a handler that registers or unregisters
# from inside a callback neither skips nor repeats its neighbours.
_Handlers = Dict[str, Tuple[Callable[..., Any], ...]]


def _register(handlers: _Handlers, namespace: str, handler: Callable[..., Any]) -> Callable[[], None]:
    """Add ``handler`` to ``namespace``; the returned callable takes that
    one registration back out and forgets the namespace with its last
    handler.  Calling it again does nothing."""
    handlers[namespace] = handlers.get(namespace, ()) + (handler,)

    def unregister() -> None:
        remaining = list(handlers.get(namespace, ()))
        if handler not in remaining:
            return
        remaining.remove(handler)
        if remaining:
            handlers[namespace] = tuple(remaining)
        else:
            del handlers[namespace]

    return unregister


@dataclass
class DHTStats:
    """Counters the wrapper keeps for experiments and benchmarks."""

    lookups_issued: int = 0
    lookups_completed: int = 0
    lookups_cached: int = 0
    lookup_hops_total: int = 0
    direct_retries: int = 0
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
        """Routed hops per owner resolution: one answered locally or from
        the owner cache (``lookups_cached`` of them) counts with 0 hops."""
        if self.lookups_completed == 0:
            return 0.0
        return self.lookup_hops_total / self.lookups_completed


@dataclass(slots=True)
class _PendingRequest:
    callback: Callable[..., None]
    on_timeout: Callable[[], None]
    timer: Any = None


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
        # Owner cache: (end, start, owner) per clockwise interval (start, end]
        # a lookup answer stated, sorted by end; one entry per member at
        # most, current while the router's view key is the one it filled under.
        self._owner_cache: List[Tuple[int, int, NodeContact]] = []
        self._owner_cache_key: Optional[int] = None
        self._new_data_handlers: _Handlers = {}
        self._new_batch_handlers: _Handlers = {}
        self._upcall_handlers: _Handlers = {}
        self._stabilize_hooks: List[Callable[[], None]] = []
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
        for hook in self._stabilize_hooks:
            hook()
        self._schedule_stabilization()

    def on_stabilize(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` on every stabilization tick, after the object
        manager's sweep: where the node's long-lived components expire the
        soft state they keep, without a timer of their own."""
        self._stabilize_hooks.append(hook)

    # ------------------------------------------------------------------ #
    # Inter-node operations (Table 2)                                     #
    # ------------------------------------------------------------------ #
    def get(self, namespace: str, key: object, callback_client: GetCallback) -> None:
        """Two-phase get: resolve the owner, then fetch all objects for the key."""
        self.stats.gets += 1
        self._two_phase(
            ObjectName(namespace, key, "").routing_identifier(),
            {
                "kind": "get_request",
                "namespace": namespace,
                "key": key,
                "request_id": None,
                "origin": self.address,
            },
            lambda objects: callback_client(namespace, key, objects),
            failure=[],
        )

    def put(
        self,
        namespace: str,
        key: object,
        suffix: str,
        value: object,
        lifetime: float,
        callback: Optional[AckCallback] = None,
    ) -> ObjectName:
        """Two-phase put: resolve the owner, then ship the object directly."""
        self.stats.puts += 1
        name = ObjectName(namespace, key, suffix)
        self._two_phase(
            name.routing_identifier(),
            {
                "kind": "put",
                "namespace": namespace,
                "key": key,
                "suffix": suffix,
                "value": value,
                "lifetime": lifetime,
                "request_id": None,
                "origin": self.address,
            },
            callback,
            failure=False,
        )
        return name

    def put_batch(
        self,
        namespace: str,
        key: object,
        values: List[object],
        lifetime: float,
        callback: Optional[AckCallback] = None,
    ) -> None:
        """Batched put: ship several objects for one partitioning key with a
        single owner resolution and a single direct message.

        All of ``values`` share the same (namespace, key), so they route to
        the same owner; coalescing them turns N per-tuple messages into
        one.  This is what the query processor's batching exchange uses.
        The message carries one random base suffix, not one per object:
        the owner stores ``values[i]`` under the suffix ``f"{base}.{i}"``,
        so a batch delivered twice (a retry after a lost ack) overwrites
        the same objects.  A list of rows of one schema travels
        schema-once (see :mod:`repro.runtime.codec`).
        """
        if not values:
            if callback is not None:
                callback(True)
            return
        self.stats.puts += 1
        self.stats.batch_puts += 1
        self.stats.batched_objects += len(values)
        # The values are shipped as-is (zero-copy): they are immutable wire
        # objects whose sizes the simulator memoizes, so the batch message
        # costs one envelope walk plus the sum of the elements' cached sizes.
        self._two_phase(
            ObjectName(namespace, key, "").routing_identifier(),
            {
                "kind": "put_batch",
                "namespace": namespace,
                "key": key,
                "suffix": random_suffix(),
                "values": values,
                "lifetime": lifetime,
                "request_id": None,
                "origin": self.address,
            },
            callback,
            failure=False,
        )

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

        def on_result(success: bool) -> None:
            if not success:
                self.stats.renew_failures += 1
            if callback is not None:
                callback(success)

        self._two_phase(
            ObjectName(namespace, key, suffix).routing_identifier(),
            {
                "kind": "renew",
                "namespace": namespace,
                "key": key,
                "suffix": suffix,
                "lifetime": lifetime,
                "request_id": None,
                "origin": self.address,
            },
            on_result,
            failure=False,
        )

    def _two_phase(
        self,
        routing_id: int,
        message: Dict[str, Any],
        done: Optional[Callable[[Any], None]],
        failure: Any,
    ) -> None:
        """Resolve the owner of ``routing_id``, then run the storage
        operation ``message`` there (Figure 6): here when this node is the
        owner, as one direct message otherwise.

        The owner comes from the owner cache when a cached interval covers
        ``routing_id``, from a routed lookup when none does.  ``done``
        receives the operation's result — or ``failure`` when no owner was
        found or the owner never answered.
        """

        def perform(owner: Optional[NodeContact], _hops: int, fallback: Any = None) -> None:
            if owner is not None and owner.identifier != self.identifier:
                if done is not None and message["request_id"] is None:
                    message["request_id"] = self._register_request(
                        done, on_timeout=lambda: done(failure)
                    )
                else:  # after a retry: the exchange gets its full time too
                    self._restart_timeout(message["request_id"])
                self._send_direct(owner.address, message, fallback and (owner, fallback))
                return
            result = failure if owner is None else self._apply(message)
            if message["request_id"] is not None:
                # Only after a retry: the request is already registered.
                self._complete_request(message["request_id"], result)
            elif done is not None:
                done(result)

        owner = self._cached_owner(routing_id)
        if owner is None:
            self._lookup(routing_id, perform)
            return

        def retry() -> None:
            # No ack from the cached owner (handle_udp_ack marked it dead,
            # emptying the cache): from cold, and with a cold lookup's time.
            self.stats.direct_retries += 1
            self._restart_timeout(message["request_id"])
            self._lookup(routing_id, perform)

        perform(owner, 0, retry)

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
    ) -> Callable[[], None]:
        """Register for notification when an object in ``namespace`` arrives
        here; returns the matching unsubscribe callable.

        A ``batched`` client is called once per arrival with the list of
        its values — all the objects of a ``put_batch``, or a list of one —
        instead of once per object.
        """
        handlers = self._new_batch_handlers if batched else self._new_data_handlers
        return _register(handlers, namespace, callback_client)

    def upcall(self, namespace: str, callback_client: UpcallHandler) -> Callable[[], None]:
        """Register an interceptor for ``send`` messages passing through
        this node; returns the matching unsubscribe callable."""
        return _register(self._upcall_handlers, namespace, callback_client)

    def registrations(self) -> Iterator[Tuple[str, Callable[..., Any]]]:
        """Every live ``new_data`` / ``upcall`` registration on this node,
        as ``(namespace, handler)`` — what the sanitizer's teardown and
        release ledgers audit."""
        for handlers in (self._new_data_handlers, self._new_batch_handlers, self._upcall_handlers):
            for namespace, registered in handlers.items():
                for handler in registered:
                    yield namespace, handler

    # ------------------------------------------------------------------ #
    # Lookup / routing                                                    #
    # ------------------------------------------------------------------ #
    def lookup(self, identifier: int, callback: LookupCallback) -> None:
        """Public lookup: resolve which node owns ``identifier``.

        Always authoritative — answered locally or by a routed lookup,
        never from the owner cache (which the answer refreshes): callers
        poll this to notice that ownership moved.
        """
        self._lookup(identifier, callback)

    def _fresh_owner_cache(self) -> List[Tuple[int, int, NodeContact]]:
        """The owner cache, emptied first if the membership or this node's
        suspicion set changed since it was filled.  What survives was
        stated and received under the present membership, so it can be too
        small (a dead predecessor not yet noticed) but not too large."""
        key = self.router.view_key(self.directory)
        if key != self._owner_cache_key:
            self._owner_cache.clear()
            self._owner_cache_key = key
        return self._owner_cache

    def _cached_owner(self, identifier: int) -> Optional[NodeContact]:
        """The owner of ``identifier`` if a cached interval covers it."""
        cache = self._fresh_owner_cache()
        if not cache:
            return None
        # Intervals are disjoint, so the only candidate is the one whose
        # end is next clockwise from ``identifier`` (a 1-tuple sorts just
        # before every entry with that end; past the last end, wrap).
        end, start, owner = cache[bisect_left(cache, (identifier,)) % len(cache)]
        if not IdentifierSpace.in_interval(identifier, start, end):
            return None
        self.stats.lookups_issued += 1
        self.stats.lookups_completed += 1
        self.stats.lookups_cached += 1
        tracer = getattr(self.runtime, "tracer", None)
        scope = tracer.current() if tracer is not None else None
        if scope is not None:
            tracer.event(
                "dht.lookup", scope[0], parent_id=scope[1],
                node=self.address, hops=0, cached=True,
            )
        return owner

    def _remember_owner(self, owner: NodeContact, owned: Optional[Tuple[int, int, int]]) -> None:
        """Cache the interval a lookup answer states for ``owner``
        (:meth:`Router.owned_answer`) in place of the member's old entry —
        unless the membership changed after the answer was computed, or
        this node has meanwhile found ``owner`` dead."""
        if owned is None or owned[2] != self.directory.version:
            return
        if self.router.is_suspected_dead(owner.identifier):
            return
        start, end, _version = owned
        cache = self._fresh_owner_cache()
        for index, entry in enumerate(cache):
            if entry[2].identifier == owner.identifier:
                del cache[index]
                break
        cache.insert(bisect_left(cache, (end,)), (end, start, owner))

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

        request_id = self._register_request(complete, on_timeout=lambda: callback(None, 0))
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
        excluded = excluded or set()
        next_hop, final = self.router.route_choice(message["target"], exclude=excluded)
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

        def around() -> None:
            excluded.add(next_hop.identifier)
            self._route(message, excluded)

        self.runtime.send(
            self.port,
            (next_hop.address, self.port),
            message,
            callback_data=(next_hop, around),
            callback_client=self,
        )

    def handle_udp_ack(self, callback_data: Any, success: bool) -> None:
        """Delivery acknowledgement from the transport (VRI/UdpCC semantics).

        ``callback_data`` is ``(peer, retry)``: a peer that did not
        acknowledge is marked dead and dropped from the routing tables
        (which moves the router's view key, so the owner cache empties),
        then ``retry`` sends the message another way.
        """
        if success or callback_data is None:
            return
        peer, retry = callback_data
        self.router.remove_contact(peer.identifier)
        retry()

    # ------------------------------------------------------------------ #
    # Message handling                                                    #
    # ------------------------------------------------------------------ #
    def handle_udp(self, source: Any, payload: Any) -> None:
        # Branches ordered by observed frequency (the storage operations,
        # then what is left of routed lookups and their responses once the
        # owner cache is warm) — every simulated message passes through here.
        if not isinstance(payload, dict) or "kind" not in payload:
            return
        self.stats.messages_received += 1
        kind = payload["kind"]
        if kind in ("put", "put_batch", "renew"):
            success = self._apply(payload)
            if payload.get("request_id") is not None:
                self._send_direct(
                    payload["origin"],
                    {"kind": "ack", "request_id": payload["request_id"], "success": success},
                )
        elif kind == "lookup":
            # Per-hop envelope update (see _route); exempted from the
            # wire-immutability contract alongside "final".
            payload["hops"] = payload.get("hops", 0) + 1  # pierlint: disable=P02
            if payload.get("final") or self.router.is_responsible(payload["target"]):
                self._deliver_routed(payload)
            else:
                self._route(payload)
        elif kind == "lookup_response":
            owner = NodeContact(payload["owner_id"], payload["owner_address"])
            if payload["request_id"] in self._pending:
                self._remember_owner(owner, payload.get("owned"))
            self._complete_request(payload["request_id"], (owner, payload["hops"]))
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
            self._send_direct(
                payload["origin"],
                {
                    "kind": "get_response",
                    "request_id": payload["request_id"],
                    "objects": self._apply(payload),
                },
            )
        elif kind == "get_response":
            self._complete_request(payload["request_id"], payload["objects"])
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
            for handler in self._upcall_handlers.get(namespace, ()):
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
                    "owned": self.router.owned_answer(self.directory),
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

    def _apply(self, payload: Dict[str, Any]) -> Any:
        """The second phase of a two-phase operation, against this node's
        object manager: a put or put_batch stores (→ True), a renew
        extends a lifetime (→ whether the object was there), a get_request
        reads (→ the values).  The same call serves a message that arrived
        over the network and one this node resolved to itself."""
        kind = payload["kind"]
        namespace, key = payload["namespace"], payload["key"]
        if kind == "put_batch":
            self._store_batch_locally(
                namespace, key, payload["suffix"], payload["values"], payload["lifetime"]
            )
            return True
        if kind == "get_request":
            return [stored.value for stored in self.object_manager.get(namespace, key)]
        name = ObjectName(namespace, key, payload["suffix"])
        if kind == "renew":
            return self.object_manager.renew(name, payload["lifetime"])
        self._store_locally(name, payload["value"], payload["lifetime"])
        return True

    def _send_direct(
        self, destination_address: Any, payload: Dict[str, Any], unacked: Any = None
    ) -> None:
        """Send ``payload`` point-to-point.  ``unacked``, a ``(peer, retry)``
        pair, asks for the transport's delivery ack and is what
        :meth:`handle_udp_ack` acts on if none comes."""
        tracer = getattr(self.runtime, "tracer", None)
        if tracer is not None:
            scope = tracer.current()
            if scope is not None and "trace" not in payload:
                payload["trace"] = scope[0]
        if destination_address == self.address:
            self.handle_udp((self.address, self.port), payload)
            return
        self.runtime.send(
            self.port, (destination_address, self.port), payload, unacked, unacked and self
        )

    def _store_locally(self, name: ObjectName, value: object, lifetime: float) -> StoredObject:
        stored = self.object_manager.put(name, value, lifetime)
        self._notify_new_data(name.namespace, name.partitioning_key, [value])
        return stored

    def _store_batch_locally(
        self, namespace: str, key: object, base: str, values: List[object], lifetime: float
    ) -> None:
        """Store the objects of one ``put_batch``, the ``i``-th under the
        suffix ``f"{base}.{i}"``, and announce them together."""
        put = self.object_manager.put
        for index, value in enumerate(values):
            put(ObjectName(namespace, key, f"{base}.{index}"), value, lifetime)
        self._notify_new_data(namespace, key, values)

    def _notify_new_data(self, namespace: str, key: object, values: List[object]) -> None:
        for handler in self._new_data_handlers.get(namespace, ()):
            for value in values:
                handler(namespace, key, value)
        for handler in self._new_batch_handlers.get(namespace, ()):
            handler(namespace, key, values)

    def _register_request(
        self, callback: Callable[..., None], on_timeout: Callable[[], None]
    ) -> int:
        request_id = next(self._request_ids)
        self._pending[request_id] = _PendingRequest(callback, on_timeout)
        self._restart_timeout(request_id)
        return request_id

    def _restart_timeout(self, request_id: Optional[int]) -> None:
        """Give a request that is still pending ``request_timeout`` from now."""
        pending = self._pending.get(request_id)
        if pending is not None:
            if pending.timer is not None:
                pending.timer.cancel()
            pending.timer = self.runtime.schedule_event(
                self.request_timeout, request_id, self._expire_request
            )

    def _expire_request(self, request_id: int) -> None:
        pending = self._pending.pop(request_id, None)
        if pending is not None:
            pending.on_timeout()

    def _complete_request(self, request_id: int, result: Any) -> None:
        pending = self._pending.pop(request_id, None)
        if pending is not None:
            pending.timer.cancel()
            pending.callback(result)


# Backwards-compatible alias: the paper calls this component the "wrapper".
DHTWrapper = OverlayNode
