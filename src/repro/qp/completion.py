"""A streaming one-shot query ends when its data does.

The paper ends every query by timeout (Section 3.3.2).  A plan whose
operators all emit as they receive — scans, selections, projections,
symmetric hash joins, rehash ``put`` exchanges, the result handler — has
nothing left to do once every tuple it shipped has been received and
processed, so for such a plan the proxy can tell when it is done:

* Each node counts, per rendezvous namespace of the query, the tuples its
  ``put`` exchanges shipped and its scans of that namespace took in, plus
  the result rows its result handler shipped.  Counting sends nothing.
* Once the node has been *quiet* for one ``exchange_flush_interval`` — its
  graphs installed and probed, and no operator holding a tuple — it sends
  its cumulative counts to the proxy (:class:`ProgressReporter`).  A
  source's snapshot is punctuated (``PhysicalOperator.drained``), so the
  batches it fed have shipped by then and the quiet clock starts when the
  data was handed over, not when a straggler timer fired.
* The proxy keeps the element-wise maximum of every node's counts
  (:class:`CompletionLedger`) and completes the query when every
  participant has reported, every namespace balances (Σ received ==
  Σ shipped) and the rows it received equal Σ results shipped.  It then
  moves the query's deadline to *now* on every node through the renew
  control broadcast.

One wave of reports is enough because the counts are kept per namespace,
the plan's namespaces form a DAG and a report is only taken at a quiet
moment: by induction from the namespaces the data sources feed, balance
means every tuple was received and processed and everything it caused was
counted.  A lost or duplicated tuple, or a participant that never
installs, leaves a namespace unbalanced, and the query ends at its
deadline as every other plan does.  Rows that reach a base table after a
node's last counted report are outside the answer's cut: the query may
still be moving them when the end reaches that node.

A node decides from what it installs — graphs that came down the
distribution tree, every operator streaming — and the proxy from the
whole plan (:func:`plan_streams`).  The two agree on every plan the
planner builds; a hand-built plan that mixes streaming broadcast graphs
with targeted ones gets reports its proxy ignores, and ends at its
deadline.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple as PyTuple, Union

from repro.qp.integrity import IntegrityPolicy
from repro.qp.opgraph import DecodedGraph, OpGraph, OperatorSpec, QueryPlan
from repro.qp.operators.access import DHTScanAccess
from repro.qp.operators.base import PhysicalOperator, operator_class
from repro.qp.operators.exchange import RESULT_NAMESPACE, PutExchange, ResultHandler

# A node's counts: (result rows shipped, then shipped and received for each
# rendezvous namespace of the query in turn).
Counts = PyTuple[int, ...]


def graphs_stream(graphs: Iterable[Union[OpGraph, DecodedGraph]], metadata: Dict[str, Any]) -> bool:
    """Whether every operator of ``graphs`` emits as it receives.  An
    integrity-verified query never qualifies: its answer is assembled at
    the proxy from verified reports, not counted rows.  A decoded graph
    keeps its verdict, so the nodes that share it decide it once."""
    if IntegrityPolicy.from_metadata(metadata).active:
        return False
    for graph in graphs:
        if isinstance(graph, DecodedGraph):
            if graph.streams is None:
                graph.streams = _specs_stream(graph.order)
            if not graph.streams:
                return False
        elif not _specs_stream(graph.operators.values()):
            return False
    return True


def _specs_stream(specs: Iterable[OperatorSpec]) -> bool:
    return all(operator_class(spec.op_type).streams(spec) for spec in specs)


def plan_streams(plan: QueryPlan) -> bool:
    """Whether ``plan`` ends when its data does: a one-shot plan whose every
    graph is broadcast (so the proxy knows who runs it) and streams."""
    if plan.metadata.get("cq"):
        return False
    if any(graph.dissemination.strategy != "broadcast" for graph in plan.opgraphs):
        return False
    return graphs_stream(plan.opgraphs, plan.metadata)


class ProgressReporter:
    """One query's counts on one node, reported to its proxy once the node
    has been quiet for ``interval`` seconds.

    Activity (a scan taking objects in, the install itself) pushes the
    quiet moment out; one lazy timer per query and node checks it, and
    fires one interval after the last activity.  When it fires on a quiet
    node, pending result and exchange batches are shipped — they are all
    a streaming graph can hold, and what a punctuated source fed has
    shipped already — and the counts are sent if they changed since the
    last report.  ``report``
    delivers them in-process on the proxy's own node; elsewhere
    (``report`` None) they travel to the proxy as ``(node, counts)`` in a
    ``direct_message`` in the results namespace.
    """

    def __init__(
        self,
        overlay: Any,
        query_id: str,
        proxy_address: Any,
        interval: float,
        report: Optional[Callable[[str, Any, Counts], None]],
    ) -> None:
        self.overlay = overlay
        self.query_id = query_id
        self.proxy_address = proxy_address
        self.interval = interval
        self.report = report
        self._clock = overlay.runtime.get_current_time
        # The query's rendezvous namespaces, in the order the graphs name
        # them: the same order on every node, since every node runs the
        # same graphs.  A scan of any other namespace reads a data source.
        self._namespaces: Dict[str, int] = {}
        self._puts: List[PyTuple[int, PutExchange]] = []
        self._scans: List[DHTScanAccess] = []
        self._results: List[ResultHandler] = []
        # Operators that can hold tuples, in topological order per graph.
        self._holders: List[Any] = []
        self._last_activity = 0.0
        self._event: Any = None
        self._sent: Optional[Counts] = None
        self._closed = False

    def add(self, operators: Iterable[Any]) -> None:
        for operator in operators:
            op_type = operator.op_type
            if op_type == PutExchange.op_type:
                index = self._namespaces.setdefault(operator.namespace, len(self._namespaces))
                self._puts.append((index, operator))
            elif op_type == DHTScanAccess.op_type:
                self._scans.append(operator)
            elif op_type == ResultHandler.op_type:
                self._results.append(operator)
            if type(operator).residual_buffered is not PhysicalOperator.residual_buffered:
                self._holders.append(operator)

    def touch(self) -> None:
        """Note activity: the node is not quiet before one interval from now."""
        self._last_activity = self._clock()
        if self._event is None and not self._closed:
            self._arm()

    def _arm(self) -> None:
        """Arm the timer for one interval after the last activity."""
        delay = max(self._last_activity + self.interval - self._clock(), 0.0)
        self._event = self.overlay.runtime.schedule_event(delay, None, self._on_timer)

    def close(self) -> None:
        """The query ended on this node: nothing more is reported."""
        self._closed = True
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self._puts = self._scans = self._results = self._holders = []

    def _on_timer(self, _data: object) -> None:
        self._event = None
        if self._closed:
            return
        if self._last_activity + self.interval > self._clock() + 1e-9:
            self._arm()  # active since the timer was armed
            return
        holders = self._holders
        for operator in holders:
            if operator.residual_buffered():
                operator.flush()
        for operator in holders:
            if operator.residual_buffered():
                self.touch()  # something is still held: look again later
                return
        counts = self.counts()
        if counts != self._sent:
            self._sent = counts
            self.send(counts)

    def send(self, counts: Counts) -> None:
        """Report ``counts`` to the proxy."""
        if self.report is not None:
            self.report(self.query_id, self.overlay.address, counts)
            return
        self.overlay.direct_message(
            self.proxy_address,
            namespace=RESULT_NAMESPACE,
            key=self.query_id,
            value=(self.overlay.address, counts),
        )

    def counts(self) -> Counts:
        """The node's cumulative counts for the query: the result rows it
        shipped, then for each rendezvous namespace the tuples its ``put``
        exchanges shipped and its scans of the namespace took in."""
        counts = [sum(handler.results_shipped for handler in self._results)]
        counts += [0, 0] * len(self._namespaces)
        for index, put in self._puts:
            counts[1 + 2 * index] += put.tuples_published
        for scan in self._scans:
            index = self._namespaces.get(scan.namespace)
            if index is not None:
                counts[2 + 2 * index] += scan.tuples_scanned
        return tuple(counts)


class CompletionLedger:
    """The proxy's view of a streaming query's progress: the element-wise
    maximum of every node's reported counts, with their sums kept as it
    goes.  Counts only grow, so a reordered report cannot move them back.
    """

    def __init__(self, participants: Iterable[Any]) -> None:
        self.waiting: Set[Any] = set(participants)
        self.reports: Dict[Any, Counts] = {}
        self.totals: List[int] = []  # Σ counts over the nodes, element-wise

    def note(self, node: Any, counts: Sequence[int]) -> None:
        """Merge one node's report.  Every node runs the same graphs, so
        every report has the same shape; one that does not is ignored."""
        totals = self.totals
        if not totals:
            totals.extend([0] * len(counts))
        if len(counts) != len(totals):
            return
        self.waiting.discard(node)
        old = self.reports.get(node, (0,) * len(counts))
        merged = tuple(map(max, old, counts))
        for index, (before, after) in enumerate(zip(old, merged)):
            totals[index] += after - before
        self.reports[node] = merged

    def balanced(self, results_received: int) -> bool:
        """Every participant reported, every namespace balances (Σ received
        == Σ shipped), and the proxy took exactly the rows the nodes
        shipped."""
        totals = self.totals
        return (
            not self.waiting
            and bool(totals)
            and totals[0] == results_received
            and totals[1::2] == totals[2::2]
        )
