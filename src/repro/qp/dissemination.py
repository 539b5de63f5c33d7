"""Query dissemination and distributed indexing (paper Section 3.3.3).

An opgraph is shipped only to the nodes that must run it.  Three
"distributed indexes" drive that decision:

* the *true-predicate index* — the distribution tree — broadcasts the
  opgraph to every node;
* the *equality-predicate index* routes an opgraph to the node(s)
  responsible for a specific partitioning-key value in the DHT;
* the *range-predicate index* (the Prefix Hash Tree) resolves the DHT keys
  covering a value range, and the opgraph is sent to each covering node.

Opgraphs travel in a :class:`~repro.qp.opgraph.QueryEnvelope`: all of a
query's broadcast opgraphs in one envelope down the tree, a targeted one
in an envelope of its own through the query-dissemination DHT namespace.
The envelope carries the proxy's absolute deadline, and the receiving node
hands its graphs to the local executor to run until then.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from repro.overlay.distribution_tree import DistributionTree
from repro.overlay.identifiers import object_identifier
from repro.overlay.naming import random_suffix
from repro.overlay.wrapper import OverlayNode
from repro.qp.opgraph import OpGraph, QueryEnvelope, QueryPlan

DISSEMINATION_NAMESPACE = "__query_dissemination__"

# Receives what arrived — a query's envelope, or a control / pane-burst
# dict — and whether it came down the distribution tree.
InstallHandler = Callable[[Union[QueryEnvelope, Dict[str, Any]], bool], None]

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


class QueryDisseminator:
    """Per-node component that ships opgraphs out and receives them in."""

    def __init__(
        self,
        overlay: OverlayNode,
        tree: DistributionTree,
        install_handler: InstallHandler,
        pht_resolver: Optional[Callable[[str, Any, Any], List[Any]]] = None,
    ) -> None:
        self.overlay = overlay
        self.tree = tree
        self.install_handler = install_handler
        self.pht_resolver = pht_resolver
        self.graphs_broadcast = 0
        self.graphs_targeted = 0
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
    ) -> None:
        """Ship every opgraph of ``plan`` according to its dissemination spec.

        The broadcast opgraphs travel together, in one envelope, down the
        distribution tree.  ``rejoined`` names a node that recovered while
        the query runs: it alone gets the broadcast envelope, straight from
        here — the rest of the tree already has it — while the targeted
        opgraphs are routed again, since their keys may now be owned by
        the rejoined node.
        """
        # Causal tracing: dissemination runs under the query's trace scope
        # so that every lookup, route choice, and transport send it causes
        # is attributed to the query (repro.obs).  The scope is ambient —
        # restored on exit — and costs one dict.get when tracing is off.
        tracer = getattr(self.overlay.runtime, "tracer", None)
        trace_meta = plan.metadata.get("trace") if tracer is not None else None
        if not trace_meta:
            self._dispatch(plan, proxy_address, deadline, rejoined)
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
            self._dispatch(plan, proxy_address, deadline, rejoined)
        finally:
            tracer.end(span)
            tracer.restore(previous)

    def _dispatch(
        self, plan: QueryPlan, proxy_address: Any, deadline: float, rejoined: Any
    ) -> None:
        broadcast = []
        for graph in plan.opgraphs:
            strategy = graph.dissemination.strategy
            if strategy == "broadcast":
                broadcast.append(graph)
                continue
            envelope = query_envelope(plan, (graph,), proxy_address, deadline)
            if strategy == "equality":
                self.graphs_targeted += 1
                self._send_to_key(
                    graph.dissemination.namespace, graph.dissemination.key, envelope
                )
            elif strategy == "range":
                for key in self._resolve_range(graph):
                    self.graphs_targeted += 1
                    self._send_to_key(graph.dissemination.namespace, key, envelope)
            else:  # local: only the proxy runs it
                self.install_handler(envelope, False)
        if not broadcast:
            return
        envelope = query_envelope(plan, broadcast, proxy_address, deadline)
        if rejoined is not None:
            self.overlay.direct_message(
                rejoined,
                namespace=DISSEMINATION_NAMESPACE,
                key=f"rejoin:{plan.query_id}",
                value=envelope,
            )
            return
        self.graphs_broadcast += len(broadcast)
        self.tree.broadcast(plan.query_id, envelope)

    def _send_to_key(self, namespace: Optional[str], key: Any, envelope: QueryEnvelope) -> None:
        """Route the opgraph to the node responsible for (namespace, key).
        The stored copy lives as long as the query has left to run."""
        if namespace is None:
            raise ValueError("equality/range dissemination requires a namespace")
        target = object_identifier(namespace, key)
        self.overlay.send(
            DISSEMINATION_NAMESPACE,
            key=f"{namespace}:{key!r}",
            suffix=random_suffix(),
            value=envelope,
            lifetime=envelope.deadline - self.overlay.runtime.get_current_time(),
            target=target,
        )

    def _resolve_range(self, graph: OpGraph) -> List[Any]:
        spec = graph.dissemination
        if self.pht_resolver is None:
            raise ValueError("range dissemination requires a PHT resolver")
        return self.pht_resolver(spec.namespace, spec.low, spec.high)

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

    def _on_targeted(self, _namespace: str, _key: object, value: object) -> None:
        if isinstance(value, QueryEnvelope):
            self.install_handler(value, False)
