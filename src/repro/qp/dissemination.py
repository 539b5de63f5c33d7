"""Query dissemination and distributed indexing (paper Section 3.3.3).

An opgraph is shipped only to the nodes that must run it.  Three
"distributed indexes" drive that decision:

* the *true-predicate index* — the distribution tree — broadcasts the
  opgraph to every node;
* the *equality-predicate index* routes an opgraph to the node(s)
  responsible for a specific partitioning-key value in the DHT;
* the *range-predicate index* (the Prefix Hash Tree) resolves the DHT keys
  covering a value range, and the opgraph is sent to each covering node.

Opgraphs travel inside a query-dissemination DHT namespace; the receiving
node hands them to its local executor.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.overlay.distribution_tree import DistributionTree
from repro.overlay.identifiers import object_identifier
from repro.overlay.naming import random_suffix
from repro.overlay.wrapper import OverlayNode
from repro.qp.opgraph import OpGraph, QueryPlan

DISSEMINATION_NAMESPACE = "__query_dissemination__"

InstallHandler = Callable[[Dict[str, Any]], None]

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


def query_envelope(plan: QueryPlan, graph: OpGraph, proxy_address: Any) -> Dict[str, Any]:
    """The wire format in which an opgraph travels to executing nodes.

    The query-wide execution settings in the plan's metadata
    (:data:`ENVELOPE_METADATA_KEYS`) ride along so that they take effect
    on every executing node, not just the proxy that compiled the plan.
    """
    metadata = plan.metadata
    return {
        "query_id": plan.query_id,
        "timeout": plan.timeout,
        "proxy": proxy_address,
        "metadata": {key: metadata[key] for key in ENVELOPE_METADATA_KEYS if key in metadata},
        "graph": graph.to_dict(),
    }


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
        graph: OpGraph,
        proxy_address: Any,
        timeout_override: Optional[float] = None,
    ) -> None:
        """Ship one opgraph according to its dissemination spec.

        ``timeout_override`` replaces the envelope's execution time — used
        by rejoin re-dissemination, where the installed graph must tear
        down when the (already running) query does, not a full timeout
        from now.
        """
        envelope = query_envelope(plan, graph, proxy_address)
        if timeout_override is not None:
            envelope["timeout"] = timeout_override
        # Causal tracing: dissemination runs under the query's trace scope
        # so that every lookup, route choice, and transport send it causes
        # is attributed to the query (repro.obs).  The scope is ambient —
        # restored on exit — and costs one dict.get when tracing is off.
        tracer = getattr(self.overlay.runtime, "tracer", None)
        trace_meta = plan.metadata.get("trace") if tracer is not None else None
        if not trace_meta:
            self._dispatch(plan, graph, envelope)
            return
        previous = tracer.activate(trace_meta["trace_id"], trace_meta["span"])
        span = tracer.begin(
            "query.disseminate",
            trace_meta["trace_id"],
            parent_id=trace_meta["span"],
            node=self.overlay.address,
            graph=graph.graph_id,
            strategy=graph.dissemination.strategy,
        )
        try:
            self._dispatch(plan, graph, envelope)
        finally:
            tracer.end(span)
            tracer.restore(previous)

    def _dispatch(self, plan: QueryPlan, graph: OpGraph, envelope: Dict[str, Any]) -> None:
        strategy = graph.dissemination.strategy
        if strategy == "broadcast":
            self.graphs_broadcast += 1
            self.tree.broadcast(f"{plan.query_id}/{graph.graph_id}", envelope)
        elif strategy == "equality":
            self.graphs_targeted += 1
            self._send_to_key(
                graph.dissemination.namespace, graph.dissemination.key, envelope
            )
        elif strategy == "range":
            keys = self._resolve_range(graph)
            for key in keys:
                self.graphs_targeted += 1
                self._send_to_key(graph.dissemination.namespace, key, envelope)
        elif strategy == "local":
            self.install_handler(envelope)
        else:  # pragma: no cover - validated at plan construction
            raise ValueError(f"unknown dissemination strategy {strategy!r}")

    def _send_to_key(self, namespace: Optional[str], key: Any, envelope: Dict[str, Any]) -> None:
        """Route the opgraph to the node responsible for (namespace, key)."""
        if namespace is None:
            raise ValueError("equality/range dissemination requires a namespace")
        target = object_identifier(namespace, key)
        self.overlay.send(
            DISSEMINATION_NAMESPACE,
            key=f"{namespace}:{key!r}",
            suffix=random_suffix(),
            value=envelope,
            lifetime=envelope["timeout"],
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
        if isinstance(payload, dict) and (
            "graph" in payload or "control" in payload or "panes" in payload
        ):
            self.install_handler(payload)

    def _on_targeted(self, _namespace: str, _key: object, value: object) -> None:
        if isinstance(value, dict) and (
            "graph" in value or "control" in value or "panes" in value
        ):
            self.install_handler(value)
