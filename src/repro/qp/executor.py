"""Per-node query executor (paper Section 3.3.2, "Life of a Query").

When an opgraph reaches a node, the executor instantiates each operator,
wires the local dataflow (data pushes child -> parent; probes pull parent
-> child), starts the operators, and issues the initial probe.  The opgraph
runs until the query's timeout expires, at which point buffered state is
flushed in topological order, operators are stopped, and any query-scoped
DHT state on this node is discarded.  The install record itself is soft
state too: it stays readable for :data:`FINISHED_RETENTION` seconds (so a
client can still sweep the operators' counters), then the node drops it
and keeps only a tombstone that refuses a late duplicate of its envelope.

Because PIER nodes are only loosely synchronised, an opgraph may start
after other nodes have already begun sending it data; the DHT's storage of
that data plus the scan-then-subscribe access methods let late starters
"catch up".
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Union

from repro.overlay.wrapper import OverlayNode
from repro.qp.opgraph import DecodedGraph, OpGraph
from repro.qp.operators.base import ExecutionContext, FinishedOperators, build_operator
from repro.qp.tuples import Tuple

if TYPE_CHECKING:  # pragma: no cover - completion imports the operators
    from repro.qp.completion import ProgressReporter

# How long a finished opgraph's install record — and, at the proxy, a
# finished query's handle — stays readable before the node drops it.
FINISHED_RETENTION = 30.0

# How long this node refuses what it has seen the end of: a cancelled
# query's id, a dropped record's install key.  A tombstone only needs to
# outlast dissemination envelopes still in flight; matching the default
# soft-state lifetime (ten times a broadcast's) is comfortably enough.
TOMBSTONE_LIFETIME = 600.0


def pop_expired(stamps: Dict[str, float], now: float, lifetime: float) -> List[str]:
    """Remove from ``stamps`` — key -> time stamp, in the order the stamps
    were made — every key stamped ``lifetime`` or more before ``now``, and
    return them oldest first."""
    expired = []
    for key, stamp in stamps.items():
        if now - stamp < lifetime:
            break
        expired.append(key)
    for key in expired:
        del stamps[key]
    return expired


@dataclass(slots=True)
class InstalledGraph:
    """Book-keeping for one opgraph running on this node.

    ``operators`` is in topological order — every input ahead of its
    consumer — which is the order operators start and flush in; the graph
    is walked for it once per envelope (:class:`DecodedGraph`).
    ``deadline`` is when the graph tears down; lifetime renewal of a
    standing query pushes it out, and the end of a query whose data is
    done pulls it in (see :meth:`QueryExecutor.extend_query`).  Once
    finished, a record keeps only its operators' counters
    (:class:`~repro.qp.operators.base.FinishedOperators`) and lets go of
    the graph and the execution context; a record its node has dropped
    (:data:`FINISHED_RETENTION` after it finished) has no operators left.
    """

    query_id: str
    install_key: str
    decoded: Optional[DecodedGraph]
    context: Optional[ExecutionContext]
    operators: Mapping
    started_at: float
    deadline: float = 0.0
    finished: bool = False
    timer: Any = None  # the teardown event armed for ``deadline``
    # The context's timer ledger (SimSanitizer; None otherwise), kept past
    # finish so that a timer armed after teardown is still found at release.
    armed_events: Optional[List[Any]] = None

    @property
    def graph(self) -> Optional[OpGraph]:
        return self.decoded.graph if self.decoded is not None else None

    @property
    def graph_id(self) -> str:
        return self.install_key[len(self.query_id) + 1 :]


class QueryExecutor:
    """Installs and runs opgraphs on one PIER node."""

    def __init__(
        self, overlay: OverlayNode, exchange_defaults: Optional[Dict[str, Any]] = None
    ) -> None:
        self.overlay = overlay
        self._installed: Dict[str, InstalledGraph] = {}
        # Node-local data sources shared by every query on this node.
        self.local_tables: Dict[str, List[Tuple]] = {}
        # Live subscribers to node-local tables: standing queries' scans
        # register here so rows appended mid-query flow into the dataflow
        # (the local-table analogue of the DHT scan's newData upcall).
        self._table_listeners: Dict[str, List[Callable[[List[Tuple]], None]]] = {}
        # Node-level defaults for the batching exchange (see PutExchange);
        # per-query plan metadata overrides them.
        self.exchange_defaults = dict(exchange_defaults or {})
        # Install keys of finished records -> when they finished, oldest
        # first: what the next sweep drops once FINISHED_RETENTION has passed.
        self._finished: Dict[str, float] = {}
        # Tombstones -> when they were set, oldest first: the ids of queries
        # cancelled on this node and the install keys of dropped records.
        # An envelope still in flight must not install after the fact.
        self._refused: Dict[str, float] = {}
        # Queries -> their graphs still running on this node.
        self._running: Dict[str, List[InstalledGraph]] = {}
        # Running streaming queries -> their progress reporter on this node.
        self._progress: Dict[str, "ProgressReporter"] = {}
        self.graphs_installed = 0
        self.graphs_completed = 0
        overlay.on_stabilize(self._sweep)

    # -- node-local data sources ------------------------------------------- #
    def register_local_table(self, name: str, rows: List[Tuple]) -> None:
        """Expose node-local rows to ``local_table`` access methods."""
        self.local_tables[name] = rows

    def append_local_rows(self, name: str, rows: List[Tuple]) -> None:
        """Append rows to a node-local table and push them to any standing
        queries scanning it (the live-publish path of continuous queries)."""
        rows = list(rows)
        self.local_tables.setdefault(name, []).extend(rows)
        for listener in list(self._table_listeners.get(name, ())):
            listener(rows)

    def subscribe_local_table(
        self, name: str, listener: Callable[[List[Tuple]], None]
    ) -> Callable[[], None]:
        """Register a live listener for rows appended to a local table;
        returns the matching unsubscribe callable."""
        listeners = self._table_listeners.setdefault(name, [])
        listeners.append(listener)

        def unsubscribe() -> None:
            try:
                listeners.remove(listener)
            except ValueError:
                pass

        return unsubscribe

    def setting(self, metadata: Optional[Dict[str, Any]], knob: str) -> Any:
        """A query's execution setting: the plan's, else this node's default."""
        return (metadata or {}).get(knob, self.exchange_defaults.get(knob))

    # -- installation ---------------------------------------------------------- #
    def install(
        self,
        query_id: str,
        graph: Union[OpGraph, DecodedGraph],
        timeout: float,
        proxy_address: Any,
        deliver_result: Optional[Callable[[Tuple], None]] = None,
        metadata: Optional[Dict[str, Any]] = None,
        progress: Optional["ProgressReporter"] = None,
    ) -> Optional[InstalledGraph]:
        """Instantiate and start ``graph``.  Duplicate installs are ignored,
        as are opgraphs of queries already cancelled on this node.

        ``graph`` comes decoded from an envelope (which works its order out
        once for every node it reaches) or bare; ``progress`` is the
        query's reporter on this node when its end comes from its data."""
        decoded = graph if isinstance(graph, DecodedGraph) else DecodedGraph(graph)
        graph = decoded.graph
        install_key = f"{query_id}/{graph.graph_id}"
        if query_id in self._refused or install_key in self._refused:
            return None
        if install_key in self._installed:
            return None
        extras: Dict[str, Any] = {
            "local_tables": self.local_tables,
            "subscribe_local_table": self.subscribe_local_table,
        }
        for knob in ("exchange_batch_size", "exchange_flush_interval", "result_flush_interval"):
            value = self.setting(metadata, knob)
            if value is not None:
                extras[knob] = value
        # The query's resilience policy rides in the dissemination envelope
        # so churn-aware operators (aggregation-tree handoff) see the same
        # settings on every executing node.
        resilience = (metadata or {}).get("resilience")
        if resilience is not None:
            extras["resilience"] = dict(resilience)
        # The trace context travels the same way: every executing node sees
        # the query's trace id and the proxy's root span (repro.obs).
        trace = (metadata or {}).get("trace")
        if trace is not None:
            extras["trace"] = dict(trace)
        # So does the integrity policy (repro.qp.integrity): spot-check
        # commitments and replica accounting need identical settings at
        # every origin and root.
        integrity = (metadata or {}).get("integrity")
        if integrity is not None:
            extras["integrity"] = dict(integrity)
        context = ExecutionContext(
            overlay=self.overlay,
            query_id=query_id,
            timeout=timeout,
            proxy_address=proxy_address,
            deliver_result=deliver_result,
            lifetime=max(timeout * 2.0, 60.0),
            extras=extras,
            progress=progress,
        )
        operators = {spec.operator_id: build_operator(spec, context) for spec in decoded.order}
        # Wire the data channel: producer pushes into the consumer's slot.
        for spec in graph.operators.values():
            consumer = operators[spec.operator_id]
            for slot, input_id in enumerate(spec.inputs):
                operators[input_id].add_parent(consumer, slot)
        started_at = self.overlay.runtime.get_current_time()
        installed = InstalledGraph(
            query_id=query_id,
            install_key=install_key,
            decoded=decoded,
            context=context,
            operators=operators,
            started_at=started_at,
            deadline=started_at + timeout,
            armed_events=context.armed_events,
        )
        self._installed[install_key] = installed
        self._running.setdefault(query_id, []).append(installed)
        self.graphs_installed += 1
        if progress is not None:
            progress.add(operators.values())
            self._progress[query_id] = progress
        tracer = getattr(self.overlay.runtime, "tracer", None)
        if tracer is not None and trace is not None:
            tracer.event(
                "opgraph.install",
                trace.get("trace_id"),
                parent_id=trace.get("span"),
                node=self.overlay.address,
                graph=graph.graph_id,
                operators=len(operators),
            )
        self._start(installed)
        # A node executes an opgraph until the query's timeout expires —
        # unless a result delivered on the proxy's own node while the graph
        # started already cancelled it.
        if not installed.finished:
            self._arm_teardown(installed, timeout)
        return installed

    def _arm_teardown(self, installed: InstalledGraph, delay: float) -> None:
        if installed.timer is not None:
            installed.timer.cancel()
        installed.timer = self.overlay.runtime.schedule_event(
            delay, installed.install_key, self._on_timeout
        )

    def _start(self, installed: InstalledGraph) -> None:
        operators = installed.operators
        # Resolved up front: a probe that ends the query (a result delivered
        # on the proxy's own node) swaps the record's operators for counters.
        sources = [operators[spec.operator_id] for spec in installed.decoded.sources]
        for operator in operators.values():
            operator.start()
        # Control channel: the executor probes every source operator once.
        for source in sources:
            source.probe()

    # -- teardown ------------------------------------------------------------------ #
    def _on_timeout(self, install_key: str) -> None:
        installed = self._installed.get(install_key)
        if installed is None or installed.finished:
            return
        self.finish(installed)

    def extend_query(self, query_id: str, remaining: float) -> int:
        """Move the teardown deadline of ``query_id``'s running opgraphs to
        ``remaining`` seconds from now: later for a standing query's
        lifetime renewal, or now (``remaining <= 0``) for a query whose
        proxy saw its data done — its graphs finish at once."""
        now = self.overlay.runtime.get_current_time()
        running = list(self._running.get(query_id, ()))
        for installed in running:
            installed.deadline = now + max(remaining, 0.0)
            if remaining <= 0:
                self.finish(installed)
            else:
                self._arm_teardown(installed, remaining)
        return len(running)

    def finish(self, installed: InstalledGraph, flush: bool = True) -> None:
        """Flush buffered state bottom-up, stop operators, and — with the
        query's last graph on this node — release its DHT state.

        ``flush=False`` aborts instead (query cancellation): buffered
        partial state is discarded rather than pushed downstream, so a
        cancelled query stops generating network traffic.
        """
        if installed.finished:
            return
        installed.finished = True
        if installed.timer is not None:
            installed.timer.cancel()
            installed.timer = None
        self._finished[installed.install_key] = self.overlay.runtime.get_current_time()
        running = self._running[installed.query_id]
        running.remove(installed)
        last = not running
        if last:  # the query is ending on this node
            del self._running[installed.query_id]
            progress = self._progress.pop(installed.query_id, None)
            if progress is not None:
                progress.close()
        if flush:
            # The teardown flush runs from the executor's timeout timer,
            # outside any operator scope — activate the query's trace so
            # the sends the flush triggers stay causally attributed.
            context = installed.context
            tracer = context.tracer
            previous = (
                tracer.activate(context.trace_id, context.trace_parent)
                if tracer is not None
                else None
            )
            try:
                for operator in installed.operators.values():
                    operator.flush()
            finally:
                if tracer is not None:
                    tracer.restore(previous)
        for operator in installed.operators.values():
            operator.stop()
        if last:
            self._release_query_state(installed.query_id)
        self.graphs_completed += 1
        sanitizer = getattr(self.overlay.runtime, "sanitizer", None)
        if sanitizer is not None:
            # Teardown ledger: prove no timer stayed armed and no operator
            # still buffers tuples after stop() (raises SanitizerError).
            sanitizer.check_teardown(installed, self.overlay)
        # What stays readable until the record is dropped: the counters.
        installed.operators = FinishedOperators(
            installed.decoded.names, installed.operators.values()
        )
        installed.decoded = installed.context = None

    def cancel_query(self, query_id: str) -> int:
        """Abort every opgraph of ``query_id`` running on this node, and
        refuse any of its opgraphs that are still in flight."""
        self._refused.setdefault(query_id, self.overlay.runtime.get_current_time())
        running = list(self._running.get(query_id, ()))
        for installed in running:
            self.finish(installed, flush=False)
        return len(running)

    def on_node_recovered(self) -> int:
        """Drop opgraphs orphaned by this node's failure so re-dissemination
        can reinstall them.

        While the node was down its timers were suppressed — any window,
        hold, or flush callback that came due is gone, so a previously
        installed opgraph can never make progress again.  Abort each
        running graph without flushing (its buffered state is stale) and
        forget the install key so a fresh envelope installs cleanly; the
        abort also releases the query-scoped DHT state this node held, so a
        rejoining node does not double-contribute pre-failure partials.
        """
        purged = 0
        for install_key, installed in list(self._installed.items()):
            if installed.finished:
                continue
            self.finish(installed, flush=False)
            self._drop(install_key)
            purged += 1
        return purged

    # -- release ------------------------------------------------------------------- #
    def _sweep(self) -> None:
        """Drop the records that finished more than FINISHED_RETENTION ago,
        leaving a tombstone for each, and forget the tombstones older than
        TOMBSTONE_LIFETIME.  Runs on the overlay's stabilization tick,
        next to the object manager's sweep: no timer of its own."""
        now = self.overlay.runtime.get_current_time()
        dropped: List[InstalledGraph] = []
        for install_key in pop_expired(self._finished, now, FINISHED_RETENTION):
            dropped.append(self._drop(install_key))
            self._refused[install_key] = now
        pop_expired(self._refused, now, TOMBSTONE_LIFETIME)
        sanitizer = getattr(self.overlay.runtime, "sanitizer", None)
        if dropped and sanitizer is not None:
            # Release ledger: once the last record of a query is gone,
            # nothing of it may be reachable from this node.
            held = {installed.query_id for installed in self._installed.values()}
            for query_id in dict.fromkeys(installed.query_id for installed in dropped):
                if query_id not in held:
                    records = [record for record in dropped if record.query_id == query_id]
                    sanitizer.check_released(query_id, self, records)

    def _drop(self, install_key: str) -> InstalledGraph:
        """Forget a finished record.  Its operators go with it, by
        reference count: the dataflow only points downstream, and stop()
        has undone what pointed back at an operator (timers, overlay
        registrations)."""
        installed = self._installed.pop(install_key)
        self._finished.pop(install_key, None)
        installed.operators = {}
        return installed

    def _release_query_state(self, query_id: str) -> None:
        prefix = f"{query_id}:"
        for namespace in list(self.overlay.object_manager.namespaces()):
            if namespace.startswith(prefix):
                self.overlay.object_manager.drop_namespace(namespace)

    # -- introspection --------------------------------------------------------------- #
    def installed_graphs(self) -> List[InstalledGraph]:
        """The running graphs, and those that finished within about the
        last FINISHED_RETENTION seconds."""
        return list(self._installed.values())

    def released(self, query_id: str) -> bool:
        """Whether this node ran opgraphs of ``query_id`` and has since
        dropped their records (for as long as it remembers that it did)."""
        prefix = f"{query_id}/"
        return any(key.startswith(prefix) for key in self._refused)

    def running_graphs(self) -> List[InstalledGraph]:
        return [graph for graph in self._installed.values() if not graph.finished]

    def operator(self, query_id: str, graph_id: str, operator_id: str) -> Optional[Any]:
        """A running graph's operator, or a finished one's counters."""
        installed = self._installed.get(f"{query_id}/{graph_id}")
        if installed is None:
            return None
        return installed.operators.get(operator_id)
