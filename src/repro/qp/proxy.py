"""The proxy node role (paper Section 3.3.2).

A client opens a (TCP) connection to any PIER node, which becomes its
*proxy*: the proxy parses the query, disseminates its opgraphs, receives
answer tuples produced anywhere in the network, and forwards them to the
client.  Queries terminate by timeout — or, for a streaming one-shot plan,
as soon as the nodes' progress reports show its data done
(:mod:`repro.qp.completion`); the proxy then reports the collected result
set to the client's completion callback, and forgets the query
:data:`~repro.qp.executor.FINISHED_RETENTION` seconds later — the rows
live on in whatever result object the client holds, not in the proxy.

Failure awareness (the paper's relaxed, dilated-reachable-snapshot
semantics made visible): at submission the proxy captures the query's
*participants* — the overlay membership as its router sees it — and tracks
their liveness for the life of the query, passively through deployment
failure notifications and, when the query's :class:`ResiliencePolicy` asks
for it, actively by pinging participants every ``liveness_interval``
seconds.  Instead of silently returning partial answers, the handle
reports ``coverage``: the fraction of the captured participants still
believed live (and therefore contributing) when the query finished.  When
a participant recovers mid-query and the policy enables
``redisseminate``, the proxy re-installs the query's still-running
opgraphs there so its local data rejoins continuous/windowed queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.overlay.wrapper import OverlayNode
from repro.qp.completion import CompletionLedger, plan_streams
from repro.qp.dissemination import QueryDisseminator
from repro.qp.executor import FINISHED_RETENTION, QueryExecutor, pop_expired
from repro.qp.integrity import (
    INTEGRITY_NAMESPACE,
    IntegrityCollector,
    IntegrityPolicy,
    IntegrityReport,
)
from repro.qp.opgraph import QueryPlan
from repro.qp.operators.exchange import RESULT_NAMESPACE
from repro.qp.resilience import ResiliencePolicy
from repro.qp.tuples import MalformedTupleError, Tuple
from repro.security.rate_limiter import ClientRateLimiter, QueryRejected

ResultCallback = Callable[[Tuple], None]
DoneCallback = Callable[["QueryHandle"], None]


@dataclass
class QueryHandle:
    """The proxy's view of one running query."""

    plan: QueryPlan
    submitted_at: float
    results: List[Tuple] = field(default_factory=list)
    result_callback: Optional[ResultCallback] = None
    done_callback: Optional[DoneCallback] = None
    finished: bool = False
    cancelled: bool = False
    first_result_at: Optional[float] = None
    finished_at: Optional[float] = None
    # How the query ended: "data" (its progress reports balanced),
    # "deadline" (TIMEOUT + 1) or "cancel".
    completed_by: Optional[str] = None
    # The nodes' progress, for a plan whose end can come from its data
    # (repro.qp.completion); None for every other plan.
    ledger: Optional[CompletionLedger] = None
    # Failure-aware execution state.  ``down_nodes`` is the current belief;
    # ``confirmed_down`` the subset whose failure was reported by the
    # deployment's failure-detection layer (such a node really died, so its
    # opgraphs were purged and only re-dissemination brings its data back).
    resilience: ResiliencePolicy = field(default_factory=ResiliencePolicy)
    participants: Set[Any] = field(default_factory=set)
    down_nodes: Set[Any] = field(default_factory=set)
    confirmed_down: Set[Any] = field(default_factory=set)
    ever_down: Set[Any] = field(default_factory=set)
    redisseminations: int = 0
    # Integrity-verified execution (repro.qp.integrity): the collector
    # accumulates origin self-reports and root claims while the query runs;
    # the report is produced at completion.
    integrity: Optional[IntegrityCollector] = None
    integrity_report: Optional[IntegrityReport] = None
    # Rate-limitation identity: which client submitted this query.
    client: Optional[str] = None

    @property
    def query_id(self) -> str:
        return self.plan.query_id

    @property
    def deadline(self) -> float:
        """When the query ends, on every node: the plan's (possibly
        renewed) timeout after submission."""
        return self.submitted_at + self.plan.timeout

    @property
    def first_result_latency(self) -> Optional[float]:
        if self.first_result_at is None:
            return None
        return self.first_result_at - self.submitted_at

    @property
    def coverage(self) -> float:
        """Fraction of the at-submit participants still believed live.

        ``1.0`` means every publisher the proxy knew about could have
        contributed; anything lower quantifies how dilated the answer's
        reachable snapshot is.  A participant that failed and rejoined
        (its data re-disseminated back in) counts as covered again.
        """
        if not self.participants:
            return 1.0
        down = len(self.down_nodes & self.participants)
        return (len(self.participants) - down) / len(self.participants)


class ProxyService:
    """Per-node service implementing the proxy role for local clients."""

    def __init__(
        self,
        overlay: OverlayNode,
        executor: QueryExecutor,
        disseminator: QueryDisseminator,
    ) -> None:
        self.overlay = overlay
        self.executor = executor
        self.disseminator = disseminator
        # Running queries, and those that finished within the retention.
        self._queries: Dict[str, QueryHandle] = {}
        # Finished query ids -> when they finished, oldest first.
        self._finished: Dict[str, float] = {}
        self._started = False
        # Client rate limitation (repro.security.rate_limiter): installed
        # by ``enable_rate_limiting``; None means every submission admits.
        self.rate_limiter: Optional[ClientRateLimiter] = None
        # Integrity accounting, summed into the deployment metrics.
        self.integrity_verifications = 0
        self.integrity_failures = 0
        self.integrity_repairs = 0
        disseminator.template_request_handler = self._on_template_request

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.overlay.new_data(RESULT_NAMESPACE, self._on_result_message)
        self.overlay.new_data(INTEGRITY_NAMESPACE, self._on_integrity_message)
        self.overlay.on_stabilize(self._sweep)

    def enable_rate_limiting(
        self, window: float = 60.0, threshold: float = 100.0
    ) -> ClientRateLimiter:
        """Install (or re-tune) per-client admission control on this proxy.

        Each query submission charges one unit against the submitting
        client's sliding window; a client over the threshold gets
        :class:`QueryRejected` instead of a handle (Section 4.1.2's client
        rate limitation, enforced at the proxy — the node the client's
        connection terminates at)."""
        if self.rate_limiter is None:
            self.rate_limiter = ClientRateLimiter(
                clock=self.overlay.runtime.get_current_time,
                window=window,
                threshold=threshold,
            )
        else:
            self.rate_limiter.window = float(window)
            self.rate_limiter.threshold = float(threshold)
        return self.rate_limiter

    # -- client API ----------------------------------------------------------- #
    def submit(
        self,
        plan: QueryPlan,
        result_callback: Optional[ResultCallback] = None,
        done_callback: Optional[DoneCallback] = None,
        client: Optional[str] = None,
    ) -> QueryHandle:
        """Parse-time validation, admission, dissemination, and result
        registration.  Raises ``ValueError`` before anything is sent if an
        opgraph envelope of the plan cannot fit one datagram."""
        identity = client or "anonymous"
        if self.rate_limiter is not None and not self.rate_limiter.admit(identity):
            raise QueryRejected(
                identity,
                self.rate_limiter.consumption(identity),
                self.rate_limiter.threshold,
            )
        plan.validate()
        handle = QueryHandle(
            plan=plan,
            submitted_at=self.overlay.runtime.get_current_time(),
            result_callback=result_callback,
            done_callback=done_callback,
            resilience=ResiliencePolicy.from_metadata(plan.metadata),
            client=client,
        )
        integrity_policy = IntegrityPolicy.from_metadata(plan.metadata)
        if integrity_policy.active:
            handle.integrity = IntegrityCollector(plan, integrity_policy)
        # Capture the query's participants from the router's membership
        # view; peers this node already suspects dead start out uncovered.
        members = self.overlay.directory.members()
        live = {member.identifier for member in self.overlay.router.live_members(members)}
        for member in members:
            handle.participants.add(member.address)
            if member.identifier not in live:
                handle.down_nodes.add(member.address)
                handle.ever_down.add(member.address)
        if plan_streams(plan):
            handle.ledger = CompletionLedger(handle.participants)
        # Causal tracing: stamp the root trace context into the plan's
        # metadata exactly once (re-dissemination and renewal reuse it, so
        # a query has one trace for its whole life).  ``root_context``
        # returns None for sampled-out queries.
        tracer = getattr(self.overlay.runtime, "tracer", None)
        if tracer is not None and "trace" not in plan.metadata:
            context = tracer.root_context(plan.query_id, origin=self.overlay.address)
            if context is not None:
                plan.metadata["trace"] = context
        self._queries[plan.query_id] = handle
        try:
            self.disseminator.disseminate(plan, self.overlay.address, handle.deadline)
        except ValueError:
            del self._queries[plan.query_id]
            raise
        # The proxy reports completion shortly after the query timeout so
        # that the last flush-produced results have time to arrive.
        self.overlay.runtime.schedule_event(
            plan.timeout + 1.0, plan.query_id, self._on_query_timeout
        )
        if handle.resilience.liveness_interval > 0:
            self.overlay.runtime.schedule_event(
                handle.resilience.liveness_interval, plan.query_id, self._liveness_sweep
            )
        return handle

    # -- failure awareness --------------------------------------------------- #
    def _liveness_sweep(self, query_id: str) -> None:
        """Actively probe every participant of a running query."""
        handle = self._queries.get(query_id)
        if handle is None or handle.finished:
            return
        for address in handle.participants:
            if address == self.overlay.address:
                continue
            self.overlay.probe_liveness(
                address,
                lambda alive, addr=address, qid=query_id: self._on_probe(qid, addr, alive),
            )
        self.overlay.runtime.schedule_event(
            handle.resilience.liveness_interval, query_id, self._liveness_sweep
        )

    def _on_probe(self, query_id: str, address: Any, alive: bool) -> None:
        handle = self._queries.get(query_id)
        if handle is None or handle.finished:
            return
        if alive:
            self._mark_recovered(handle, address)
        else:
            handle.down_nodes.add(address)
            handle.ever_down.add(address)

    def note_failure(self, address: Any) -> None:
        """Deployment-level failure notification (the failure-detection
        layer's knowledge reaching this proxy)."""
        for handle in self._queries.values():
            if handle.finished or address not in handle.participants:
                continue
            handle.down_nodes.add(address)
            handle.confirmed_down.add(address)
            handle.ever_down.add(address)

    def note_recovery(self, address: Any) -> None:
        """Deployment-level recovery notification; triggers rejoin
        re-dissemination for queries whose policy asks for it."""
        for handle in self._queries.values():
            if handle.finished or address not in handle.participants:
                continue
            self._mark_recovered(handle, address)

    def _mark_recovered(self, handle: QueryHandle, address: Any) -> None:
        """A down participant looks alive again.

        A *confirmed* failure purged the node's opgraphs, so it only counts
        as covered again once re-dissemination actually re-installed the
        query there; a merely suspected peer (failed ping, never reported
        dead) kept its opgraphs and is covered as soon as it answers.
        """
        if address not in handle.down_nodes:
            return
        if address not in handle.confirmed_down:
            # Merely suspected (e.g. a lost probe): its opgraphs were never
            # purged, so it is covered as soon as it answers again.
            handle.down_nodes.discard(address)
            return
        if handle.resilience.redisseminate and self._redisseminate(handle, address):
            handle.down_nodes.discard(address)
            handle.confirmed_down.discard(address)

    def _redisseminate(self, handle: QueryHandle, address: Any) -> bool:
        """Re-install a running query's opgraphs on a recovered node.

        The envelope carries the query's deadline as it stands now, so the
        re-installed graphs tear down with the query, not a full timeout
        from now.  Returns whether anything was (re)shipped.
        """
        if handle.deadline <= self.overlay.runtime.get_current_time():
            return False
        handle.redisseminations += 1
        self.disseminator.disseminate(
            handle.plan, self.overlay.address, handle.deadline, rejoined=address
        )
        return True

    def _on_template_request(self, query_id: str, node: Any) -> None:
        """A node could not resolve this query's header: send it the full
        broadcast envelope, rebuilt from the plan, as the tree would have
        carried it.  A finished or unknown query gets no answer."""
        handle = self._queries.get(query_id)
        if handle is None or handle.finished:
            return
        self.disseminator.disseminate(
            handle.plan, self.overlay.address, handle.deadline, rejoined=node, resolve=True
        )

    # -- lifetime renewal ------------------------------------------------------ #
    def renew(self, query_id: str) -> bool:
        """Re-arm the completion timer after the plan's timeout grew
        (standing-query lifetime renewal).  The stale timer fires early and
        is ignored by the deadline check in :meth:`_on_query_timeout`."""
        handle = self._queries.get(query_id)
        if handle is None or handle.finished:
            return False
        now = self.overlay.runtime.get_current_time()
        due = handle.deadline + 1.0
        if due <= now:
            return False
        self.overlay.runtime.schedule_event(due - now, query_id, self._on_query_timeout)
        return True

    def active_query_count(self) -> int:
        return sum(1 for handle in self._queries.values() if not handle.finished)

    def query(self, query_id: str) -> Optional[QueryHandle]:
        """The handle of a running query, or of one that finished within
        about the last FINISHED_RETENTION seconds."""
        return self._queries.get(query_id)

    def _finish(self, handle: QueryHandle, completed_by: str) -> None:
        handle.finished = True
        handle.completed_by = completed_by
        handle.ledger = None  # nothing more is counted
        handle.finished_at = self._finished[handle.query_id] = (
            self.overlay.runtime.get_current_time()
        )

    def _sweep(self) -> None:
        """Forget the queries that finished more than FINISHED_RETENTION
        ago.  A forgotten handle lets go of its callbacks — they are what
        ties it to the client's stream object in a cycle — and stays
        intact, rows and all, for whoever still holds it.  Runs on the
        overlay's stabilization tick: no timer of its own."""
        now = self.overlay.runtime.get_current_time()
        for query_id in pop_expired(self._finished, now, FINISHED_RETENTION):
            handle = self._queries.pop(query_id)
            handle.result_callback = handle.done_callback = None

    def cancel(self, query_id: str) -> bool:
        """Terminate a running query at the client's request.

        The handle stops accepting results immediately and the completion
        callback fires; tearing down the opgraphs installed across the
        network is the caller's concern (see ``PIERNetwork.cancel``).
        """
        handle = self._queries.get(query_id)
        if handle is None or handle.finished:
            return False
        self._finish(handle, "cancel")
        handle.cancelled = True
        self._trace_finish(handle)
        if handle.done_callback is not None:
            handle.done_callback(handle)
        return True

    def _trace_finish(self, handle: QueryHandle) -> None:
        """Record the trace's terminal event (timeout or cancel)."""
        tracer = getattr(self.overlay.runtime, "tracer", None)
        if tracer is None:
            return
        trace_meta = handle.plan.metadata.get("trace")
        if not trace_meta:
            return
        tracer.event(
            "query.finish",
            trace_meta["trace_id"],
            parent_id=trace_meta["span"],
            node=self.overlay.address,
            results=len(handle.results),
            cancelled=handle.cancelled,
            completed_by=handle.completed_by,
            coverage=handle.coverage,
        )

    # -- result delivery -------------------------------------------------------- #
    def deliver_local_result(self, query_id: str, tup: Tuple) -> None:
        """Results produced by an opgraph running on the proxy node itself."""
        self._record_result(query_id, tup)

    def _on_result_message(self, _namespace: str, key: object, value: object) -> None:
        query_id = str(key)
        if isinstance(value, tuple):  # a node's progress report: (node, counts)
            try:
                self.note_progress(query_id, *value)
            except (TypeError, ValueError):
                pass  # malformed: best-effort, like a malformed row
            return
        if not isinstance(value, list):
            value = [value]
        for payload in value:
            try:
                tup = Tuple.from_wire(payload)
            except MalformedTupleError:
                continue
            self._record_result(query_id, tup)

    def _record_result(self, query_id: str, tup: Tuple) -> None:
        handle = self._queries.get(query_id)
        if handle is None or handle.finished:
            return
        if handle.first_result_at is None:
            handle.first_result_at = self.overlay.runtime.get_current_time()
        handle.results.append(tup)
        if handle.result_callback is not None:
            handle.result_callback(tup)
        if handle.ledger is not None and not handle.ledger.waiting:
            self._check_completion(handle)

    # -- completion from the data (repro.qp.completion) -------------------------- #
    def note_progress(self, query_id: str, node: Any, counts: Sequence[int]) -> None:
        """Take one node's cumulative counts for a streaming query
        (:meth:`repro.qp.completion.ProgressReporter.counts`)."""
        handle = self._queries.get(query_id)
        if handle is None or handle.finished or handle.ledger is None:
            return
        handle.ledger.note(node, counts)
        self._check_completion(handle)

    def _check_completion(self, handle: QueryHandle) -> None:
        """Once the counts balance, end the query from a fresh event: the
        end tears down graphs on this node too, and the balance may have
        been noticed from inside one of them."""
        if handle.ledger.balanced(len(handle.results)):
            self.overlay.runtime.schedule_event(0.0, handle.query_id, self._on_data_done)

    def _on_data_done(self, query_id: str) -> None:
        handle = self._queries.get(query_id)
        if handle is None or handle.finished or not handle.ledger.balanced(len(handle.results)):
            return
        self._finish(handle, "data")
        self._trace_finish(handle)
        if handle.done_callback is not None:
            handle.done_callback(handle)
        # The query's deadline is now, on every node.
        self.disseminator.broadcast_control(
            query_id, {"action": "renew", "deadline": handle.finished_at}
        )

    # -- integrity (spot-check verification and replica reconciliation) --------- #
    def _on_integrity_message(self, _namespace: str, key: object, value: object) -> None:
        """Origin self-reports and root claims, pushed straight to the
        proxy by the hierarchical operators at flush."""
        handle = self._queries.get(str(key))
        if handle is None or handle.finished or handle.integrity is None:
            return
        if isinstance(value, dict):
            handle.integrity.receive(value)

    def _finalize_integrity(self, handle: QueryHandle) -> None:
        """Verify, repair, reconcile — then emit the verified rows.

        Under an active integrity policy the aggregation roots never emit
        result rows themselves; the verified rows materialise here, so the
        client-visible result path is the defended one."""
        if handle.integrity is None:
            return
        rows, report = handle.integrity.finalize()
        handle.integrity_report = report
        self.integrity_verifications += report.origins_verified
        self.integrity_failures += len(report.verification_failures)
        self.integrity_repairs += report.repaired_origins
        for tup in rows:
            if handle.first_result_at is None:
                handle.first_result_at = self.overlay.runtime.get_current_time()
            handle.results.append(tup)
            if handle.result_callback is not None:
                handle.result_callback(tup)
        tracer = getattr(self.overlay.runtime, "tracer", None)
        trace_meta = handle.plan.metadata.get("trace")
        if tracer is not None and trace_meta and tracer.sampled(trace_meta["trace_id"]):
            span = tracer.begin(
                "security.spot_check",
                trace_meta["trace_id"],
                parent_id=trace_meta["span"],
                node=self.overlay.address,
                replicas=report.replicas,
            )
            tracer.end(
                span,
                origins_verified=report.origins_verified,
                failures=len(report.verification_failures),
                repaired=report.repaired_origins,
                suspected=len(report.suspected_nodes),
                disagreement=report.replica_disagreement,
            )

    def _on_query_timeout(self, query_id: str) -> None:
        handle = self._queries.get(query_id)
        if handle is None or handle.finished:
            return
        now = self.overlay.runtime.get_current_time()
        if now + 1e-9 < handle.deadline + 1.0:
            return  # lifetime was renewed; renew() armed a later timer
        self._finish(handle, "deadline")
        self._finalize_integrity(handle)
        self._trace_finish(handle)
        if handle.done_callback is not None:
            handle.done_callback(handle)
