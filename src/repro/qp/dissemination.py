"""Query dissemination and distributed indexing (paper Section 3.3.3).

An opgraph is shipped only to the nodes that must run it.  Two
"distributed indexes" drive that decision:

* the *true-predicate index* — the distribution tree — broadcasts the
  opgraph to every node;
* the *equality-predicate index* routes an opgraph to the node(s)
  responsible for a specific partitioning-key value in the DHT.

Opgraphs travel in a :class:`~repro.qp.opgraph.QueryEnvelope`: all of a
query's broadcast opgraphs in one envelope down the tree, a targeted one
in an envelope of its own through the query-dissemination DHT namespace.
The envelope carries the proxy's absolute deadline, and the receiving node
hands its graphs to the local executor to run until then.

A repeated statement travels the tree by reference.  Every node keeps the
broadcast opgraphs it received as a *template* filed under the digest it
computed itself (:class:`TemplateCache`), and the proxy sends a query's
header alone — the template's digest in place of the template — when its
own node holds the digest live: that node received the statement's last
broadcast like every other node, so the tree has it too.  A node that
cannot resolve a header (it was down, let the entry expire, or saw
datagrams reordered) asks the proxy the header names, which sends it the
full envelope straight back (:meth:`QueryDisseminator.request_template`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.overlay.distribution_tree import DistributionTree
from repro.overlay.identifiers import object_identifier
from repro.overlay.naming import random_suffix
from repro.overlay.wrapper import OverlayNode
from repro.qp.executor import FINISHED_RETENTION, pop_expired
from repro.qp.opgraph import DecodedGraph, OpGraph, QueryEnvelope, QueryPlan
from repro.runtime.codec import MAX_DATAGRAM
from repro.runtime.sizing import wire_size

DISSEMINATION_NAMESPACE = "__query_dissemination__"

# Receives what arrived — a query's envelope, or a control / pane-burst
# dict — and whether it came down the distribution tree.
InstallHandler = Callable[[Union[QueryEnvelope, Dict[str, Any]], bool], None]

# Answers a node's request for a query's template: (query id, the node).
TemplateRequestHandler = Callable[[str, Any], None]

# The plan metadata an executing node acts on (``QueryExecutor.install``
# reads exactly these).  The rest of ``plan.metadata`` — the SQL text, the
# planner's decisions, the proxy-side result clauses — describes the query
# to its proxy and its client and stays there.
ENVELOPE_METADATA_KEYS = (
    "exchange_batch_size",
    "exchange_flush_interval",
    "result_flush_interval",
    "resilience",
    "trace",
    "integrity",
)

# Direct-message keys in the dissemination namespace, before the query id:
# a recovered node's envelope, and a template request and its answer.
REJOIN = "rejoin"
RESOLVE = "resolve"


def query_envelope(
    plan: QueryPlan, graphs: Iterable[OpGraph], proxy_address: Any, deadline: float
) -> QueryEnvelope:
    """The wire form in which opgraphs travel to executing nodes.

    The query-wide execution settings in the plan's metadata
    (:data:`ENVELOPE_METADATA_KEYS`) ride along so that they take effect
    on every executing node, not just the proxy that compiled the plan.
    The envelope is built from the plan each time it is sent, so a
    renewed lifetime travels as the renewed ``deadline``.
    """
    metadata = plan.metadata
    return QueryEnvelope(
        plan.query_id,
        deadline,
        proxy_address,
        {key: metadata[key] for key in ENVELOPE_METADATA_KEYS if key in metadata},
        tuple(graph.to_wire() for graph in graphs),
    )


class TemplateCache:
    """One node's opgraph templates, decoded, by digest.

    Soft state: an entry is refreshed on every use — filing a full
    envelope, resolving a header — and dropped on the first sweep
    :data:`~repro.qp.executor.FINISHED_RETENTION` after its last use.
    An entry is *live* while its last use is younger than that; only a
    live entry lets the proxy send by reference, so the entry outlives
    the decision on every node that received the same broadcast.
    A template holds no query: graph ids are query-relative, and the
    decoded graphs name operators, not running ones.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._templates: Dict[bytes, List[DecodedGraph]] = {}
        # Digest -> its last use, oldest first.
        self._used: Dict[bytes, float] = {}

    def __len__(self) -> int:
        return len(self._templates)

    def __contains__(self, digest: object) -> bool:
        return digest in self._templates

    def items(self) -> Iterable[Tuple[bytes, List[DecodedGraph]]]:
        return self._templates.items()

    def live(self, digest: bytes) -> bool:
        """Whether ``digest`` was used within the retention."""
        used = self._used.get(digest)
        return used is not None and self._clock() - used < FINISHED_RETENTION

    def file(self, envelope: QueryEnvelope) -> List[DecodedGraph]:
        """Keep a full envelope's template under the digest of what
        arrived; returns its decoded graphs."""
        digest = envelope.digest
        decoded = self._templates.get(digest)
        if decoded is None:
            decoded = self._templates[digest] = envelope.decoded()
        self._touch(digest)
        return decoded

    def resolve(self, digest: bytes) -> Optional[List[DecodedGraph]]:
        """The decoded template a header names, or None on a miss."""
        decoded = self._templates.get(digest)
        if decoded is not None:
            self._touch(digest)
        return decoded

    def _touch(self, digest: bytes) -> None:
        used = self._used
        used.pop(digest, None)  # re-inserted last: the stamps stay in order
        used[digest] = self._clock()

    def sweep(self) -> List[bytes]:
        """Drop the entries unused for the retention; returns their digests."""
        expired = pop_expired(self._used, self._clock(), FINISHED_RETENTION)
        for digest in expired:
            del self._templates[digest]
        return expired


def check_fits(envelope: QueryEnvelope) -> None:
    """Refuse an envelope no single datagram can carry: the physical
    runtime could not deliver it, and the distribution tree would drop it
    without anyone hearing."""
    size = wire_size(envelope)
    if size > MAX_DATAGRAM:
        raise ValueError(
            f"query {envelope.query_id!r}: its opgraph envelope is {size:,} bytes, "
            f"over the {MAX_DATAGRAM:,}-byte datagram limit"
        )


class QueryDisseminator:
    """Per-node component that ships opgraphs out and receives them in.

    ``templates`` is the node's template cache: the send rule reads it and
    a node's own broadcasts are resolved from it.  ``templates_full`` and
    ``templates_by_reference`` count this node's tree broadcasts by how
    they went; ``template_misses`` the headers it could not resolve."""

    def __init__(
        self,
        overlay: OverlayNode,
        tree: DistributionTree,
        install_handler: InstallHandler,
        templates: TemplateCache,
    ) -> None:
        self.overlay = overlay
        self.tree = tree
        self.install_handler = install_handler
        self.templates = templates
        # The proxy's answer to a template request (ProxyService).
        self.template_request_handler: Optional[TemplateRequestHandler] = None
        self.graphs_broadcast = 0
        self.graphs_targeted = 0
        self.templates_full = 0
        self.templates_by_reference = 0
        self.template_misses = 0
        self._started = False

    def start(self) -> None:
        """Register for inbound opgraphs (both broadcast and targeted)."""
        if self._started:
            return
        self._started = True
        self.tree.on_broadcast(self._on_broadcast)
        self.overlay.new_data(DISSEMINATION_NAMESPACE, self._on_targeted)

    # -- outbound ----------------------------------------------------------- #
    def disseminate(
        self,
        plan: QueryPlan,
        proxy_address: Any,
        deadline: float,
        rejoined: Any = None,
        resolve: bool = False,
    ) -> None:
        """Ship every opgraph of ``plan`` according to its dissemination spec.

        The broadcast opgraphs travel together, in one envelope, down the
        distribution tree — as a header when this node holds their
        template live.  Every envelope must fit one datagram
        (:func:`check_fits`), or nothing is sent.  ``rejoined`` names one
        node that alone gets the full broadcast envelope, straight from
        here, because the rest of the tree already has it: a node that
        recovered while the query runs — its targeted opgraphs are routed
        again too, since their keys may now be owned by it — or, with
        ``resolve``, a node that asked for the template of a header it
        could not resolve (only the broadcast envelope goes).
        """
        # Causal tracing: dissemination runs under the query's trace scope
        # so that every lookup, route choice, and transport send it causes
        # is attributed to the query (repro.obs).  The scope is ambient —
        # restored on exit — and costs one dict.get when tracing is off.
        tracer = getattr(self.overlay.runtime, "tracer", None)
        trace_meta = plan.metadata.get("trace") if tracer is not None else None
        if not trace_meta:
            self._dispatch(plan, proxy_address, deadline, rejoined, resolve)
            return
        previous = tracer.activate(trace_meta["trace_id"], trace_meta["span"])
        span = tracer.begin(
            "query.disseminate",
            trace_meta["trace_id"],
            parent_id=trace_meta["span"],
            node=self.overlay.address,
            graphs=len(plan.opgraphs),
        )
        try:
            self._dispatch(plan, proxy_address, deadline, rejoined, resolve)
        finally:
            tracer.end(span)
            tracer.restore(previous)

    def _dispatch(
        self, plan: QueryPlan, proxy_address: Any, deadline: float, rejoined: Any, resolve: bool
    ) -> None:
        broadcast = []
        targeted = []
        for graph in plan.opgraphs:
            if graph.dissemination.strategy == "broadcast":
                broadcast.append(graph)
            elif not resolve:
                targeted.append((graph, query_envelope(plan, (graph,), proxy_address, deadline)))
        envelope = query_envelope(plan, broadcast, proxy_address, deadline) if broadcast else None
        for _graph, single in targeted:
            check_fits(single)
        if envelope is not None:
            check_fits(envelope)
        for graph, single in targeted:
            strategy = graph.dissemination.strategy
            if strategy == "equality":
                self.graphs_targeted += 1
                self._send_to_key(graph.dissemination.namespace, graph.dissemination.key, single)
            else:  # local: only the proxy runs it
                self.install_handler(single, False)
        if envelope is None:
            return
        if rejoined is not None:
            self.overlay.direct_message(
                rejoined,
                namespace=DISSEMINATION_NAMESPACE,
                key=f"{RESOLVE if resolve else REJOIN}:{plan.query_id}",
                value=envelope,
            )
            return
        self.graphs_broadcast += len(broadcast)
        if self.templates.live(envelope.digest):
            self.templates_by_reference += 1
            envelope = envelope.reference()
        else:
            self.templates_full += 1
        self.tree.broadcast(plan.query_id, envelope)

    def request_template(self, header: QueryEnvelope) -> None:
        """Ask the proxy a header names for the full envelope of its query:
        this node does not hold the template.  A finished or unknown query
        gets no answer."""
        self.template_misses += 1
        self.overlay.direct_message(
            header.proxy,
            namespace=DISSEMINATION_NAMESPACE,
            key=f"{RESOLVE}:{header.query_id}",
            value=self.overlay.address,
        )

    def _send_to_key(self, namespace: Optional[str], key: Any, envelope: QueryEnvelope) -> None:
        """Route the opgraph to the node responsible for (namespace, key).
        The stored copy lives as long as the query has left to run."""
        if namespace is None:
            raise ValueError("equality dissemination requires a namespace")
        target = object_identifier(namespace, key)
        self.overlay.send(
            DISSEMINATION_NAMESPACE,
            key=f"{namespace}:{key!r}",
            suffix=random_suffix(),
            value=envelope,
            lifetime=envelope.deadline - self.overlay.runtime.get_current_time(),
            target=target,
        )

    def broadcast_control(self, query_id: str, payload: Dict[str, Any]) -> None:
        """Ship a query-control message (e.g. lifetime renewal) to every
        node over the distribution tree, the same path opgraphs travel.

        Each message gets a fresh broadcast id — the tree deduplicates by
        id, and one query may send many control messages (e.g. repeated
        lifetime renewals)."""
        envelope = {"control": dict(payload), "query_id": query_id}
        self.tree.broadcast(f"{query_id}/control/{random_suffix()}", envelope)

    # -- inbound -------------------------------------------------------------- #
    def _on_broadcast(self, payload: object) -> None:
        if isinstance(payload, QueryEnvelope) or (
            isinstance(payload, dict) and ("control" in payload or "panes" in payload)
        ):
            self.install_handler(payload, True)

    def _on_targeted(self, _namespace: str, key: object, value: object) -> None:
        key = str(key)
        resolve = key.startswith(f"{RESOLVE}:")
        if isinstance(value, QueryEnvelope):
            if not value.by_reference:
                # A template's answer stands in for the tree's broadcast.
                self.install_handler(value, resolve)
        elif resolve and self.template_request_handler is not None:
            self.template_request_handler(key[len(RESOLVE) + 1 :], value)
