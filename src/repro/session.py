"""The query-session layer: streaming handles over running queries.

The proxy layer (:mod:`repro.qp.proxy`) already delivers result tuples
incrementally, but until this module existed the only client surface was
``PIERNetwork.execute``, which blocks until the query timeout and returns
everything at once.  :class:`StreamingQuery` exposes the incremental
behaviour to clients:

* ``on_result`` / ``on_done`` callbacks (a continuous-query subscription),
* iteration that interleaves simulator steps with yielded tuples, so the
  client observes first-result latency instead of end-to-end latency, and
* ``cancel()``, which tears the query down across the deployment instead
  of letting it run to its timeout.

``PIERNetwork.stream(sql)`` is the usual way to obtain one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, List, Optional

from repro.qp.operators.exchange import STRAGGLER_FLUSH_INTERVAL
from repro.qp.opgraph import QueryPlan
from repro.qp.tuples import Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api imports session)
    from repro.api import PIERNetwork, QueryResult

ResultCallback = Callable[[Tuple], None]
DoneCallback = Callable[["StreamingQuery"], None]

# How much virtual time one iteration step advances the simulator while
# waiting for the next tuple.  Small enough that first-result latency is
# observed at sub-second resolution, large enough not to thrash.
DEFAULT_STEP = 0.25


class StreamingQuery:
    """A client-side handle on one running query, delivering tuples as they arrive."""

    def __init__(
        self,
        network: "PIERNetwork",
        plan: QueryPlan,
        proxy: int = 0,
        extra_time: float = 3.0,
        step: float = DEFAULT_STEP,
        client: Optional[str] = None,
    ) -> None:
        self.network = network
        self.plan = plan
        self.proxy = proxy
        self.sql: Optional[str] = plan.metadata.get("sql")
        self._extra_time = extra_time
        self._step = step
        # Ship partially filled result batches periodically so the stream
        # observes first-result latency, not the query-timeout flush.  The
        # knob travels in the dissemination envelope like the exchange knobs.
        plan.metadata.setdefault("result_flush_interval", max(step, STRAGGLER_FLUSH_INTERVAL))
        self._result_callbacks: List[ResultCallback] = []
        self._done_callbacks: List[DoneCallback] = []
        self._yielded = 0
        # Sampled at submission so result() can attribute traffic to this
        # query's execution window, matching PIERNetwork.execute().
        self._messages_before = network.environment.stats.messages_sent
        self._bytes_before = network.environment.stats.bytes_sent
        self.handle = network.submit(
            plan,
            proxy=proxy,
            result_callback=self._dispatch_result,
            done_callback=self._dispatch_done,
            client=client,
        )

    # -- subscription ------------------------------------------------------- #
    def _require_streamable_clauses(self) -> None:
        """ORDER BY / LIMIT cannot hold over an unbounded stream — tuples
        would be delivered unsorted and the clauses silently ignored.
        Windowed (continuous) queries are exempt: their ordering applies
        per result epoch (see ``PIERNetwork.subscribe``)."""
        if self.plan.metadata.get("cq"):
            return
        order_by = self.plan.metadata.get("sql_order_by")
        limit = self.plan.metadata.get("sql_limit")
        if order_by or limit is not None:
            raise ValueError(
                "ORDER BY / LIMIT cannot apply to an unbounded stream; use "
                "query() or stream.result() for an ordered snapshot, or add "
                "a WINDOW clause and subscribe() for per-epoch ordering"
            )

    def on_result(self, callback: ResultCallback) -> "StreamingQuery":
        """Invoke ``callback(tuple)`` for every result; replays past results
        so late registration misses nothing.  Returns self for chaining."""
        self._require_streamable_clauses()
        for tup in self.handle.results:
            callback(tup)
        self._result_callbacks.append(callback)
        return self

    def on_done(self, callback: DoneCallback) -> "StreamingQuery":
        """Invoke ``callback(stream)`` once, when the query terminates."""
        if self.handle.finished:
            callback(self)
        else:
            self._done_callbacks.append(callback)
        return self

    def _dispatch_result(self, tup: Tuple) -> None:
        for callback in self._result_callbacks:
            callback(tup)

    def _dispatch_done(self, _handle: object) -> None:
        for callback in self._done_callbacks:
            callback(self)
        # Nothing more will be dispatched: let go of the client's callbacks,
        # which as a rule refer back to whatever holds this stream.
        self._done_callbacks.clear()
        self._result_callbacks.clear()

    # -- state ---------------------------------------------------------------- #
    @property
    def query_id(self) -> str:
        return self.handle.query_id

    @property
    def finished(self) -> bool:
        return self.handle.finished

    @property
    def cancelled(self) -> bool:
        return self.handle.cancelled

    @property
    def results(self) -> List[Tuple]:
        return self.handle.results

    @property
    def first_result_latency(self) -> Optional[float]:
        return self.handle.first_result_latency

    @property
    def coverage(self) -> float:
        """Fraction of the query's participants currently believed live —
        the stream's live view of how partial the answer is (see
        :class:`~repro.qp.proxy.QueryHandle.coverage`)."""
        return self.handle.coverage

    @property
    def down_nodes(self) -> List:
        """Participants currently believed down, sorted for stable output."""
        return sorted(self.handle.down_nodes)

    @property
    def integrity(self):
        """The query's integrity report (populated at completion when an
        :class:`~repro.qp.integrity.IntegrityPolicy` is active, else None)."""
        return self.handle.integrity_report

    @property
    def _deadline(self) -> float:
        return self.handle.deadline + self._extra_time

    # -- consumption ------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Tuple]:
        """Yield result tuples as they arrive, stepping the simulator in
        between.  The first tuple is yielded as soon as it reaches the
        proxy — first-result latency is directly visible to the client.

        ORDER BY / LIMIT cannot apply to an unbounded stream (raises
        ``ValueError``); use :meth:`result` (or ``PIERNetwork.query``) for
        ordered snapshots.
        """
        self._require_streamable_clauses()
        while True:
            while self._yielded < len(self.handle.results):
                tup = self.handle.results[self._yielded]
                self._yielded += 1
                yield tup
            if self.handle.finished or self.network.now >= self._deadline:
                break
            before = self.network.now
            dispatched = self.network.run(min(self._step, self._deadline - self.network.now))
            if dispatched == 0 and self.network.now <= before:
                # The event queue drained without advancing virtual time
                # (e.g. the proxy node died mid-query): nothing can ever
                # finish this handle, so stop instead of spinning forever.
                break
        # Drain anything the final steps produced.
        while self._yielded < len(self.handle.results):
            tup = self.handle.results[self._yielded]
            self._yielded += 1
            yield tup

    def run_to_completion(self) -> "StreamingQuery":
        """Advance the simulation until the query terminates."""
        remaining = self._deadline - self.network.now
        if not self.handle.finished and remaining > 0:
            self.network.environment.run(
                remaining, stop_condition=lambda: self.handle.finished
            )
        return self

    def result(self) -> "QueryResult":
        """Run to completion and package a :class:`~repro.api.QueryResult`
        with the same contract as ``PIERNetwork.query``: ORDER BY / LIMIT
        applied, rendered explain, and per-query traffic counts."""
        from repro.api import QueryResult

        self.run_to_completion()
        result = QueryResult.from_handle(
            self.handle,
            self.plan,
            self.network.environment.stats,
            self._messages_before,
            self._bytes_before,
        )
        return result.finalize_sql(self.plan)

    # -- termination -------------------------------------------------------------- #
    def cancel(self) -> bool:
        """Stop the query now: the proxy handle finishes (``on_done`` fires)
        and every node aborts the query's opgraphs instead of running them
        to the timeout."""
        if self.handle.finished:
            return False
        return self.network.cancel(self.handle)
