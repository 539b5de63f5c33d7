"""The client-side continuous-query handle.

``PIERNetwork.subscribe(sql)`` compiles a windowed statement, submits it
as a standing query, and returns a :class:`ContinuousQuery` — a handle
that assembles epoch-stamped result rows into :class:`WindowEpoch`
objects and delivers them in order:

* ``on_epoch(callback)`` — push delivery while the caller advances the
  simulation (a live dashboard),
* iteration — ``for epoch in cq:`` interleaves simulator steps with
  yielded epochs, like the tuple stream,
* ``pause()`` / ``resume()`` — buffer closed epochs client-side without
  disturbing the standing query,
* ``renew(extra)`` — extend the query's lifetime across the deployment
  (the proxy re-arms its completion timer and a control broadcast pushes
  out every node's teardown deadline),
* lifetime expiry tears the query down cleanly: the remaining complete
  epochs are delivered, ``on_done`` fires, and the opgraphs stop.

A handle runs in one of two modes:

* **Private** (the PR 4 path): it owns a
  :class:`~repro.session.StreamingQuery` whose installed opgraphs emit
  final rows per epoch; the handle groups them by epoch stamp.
* **Shared** (``shared=`` a :class:`~repro.cq.sharing.SharedPlan`): no
  private query is installed.  The shared plan broadcasts mergeable
  *pane* states over the distribution tree; the handle's proxy node
  buffers them once and the handle joins the node's
  :class:`~repro.cq.panes.EpochGroup` for its window shape, which merges,
  finalizes and orders each epoch once and hands every member the rows.
  Only what is per subscriber stays here: callbacks, pause/resume, the
  delivered list, the warm-up skip and the lifetime.  Lifecycle
  verbs map onto the shared plan's refcounts: ``renew`` extends the
  shared deadline to the max across subscribers, and ``cancel`` /
  expiry release one refcount — the shared opgraph is only torn down
  when the last subscriber detaches.

An epoch closes client-side when its *client watermark* passes — the
merge-site watermark (``end + grace``, carried in ``plan.metadata["cq"]``)
plus ``epoch_grace`` for the final result hop (shared mode adds the
fan-out hop).  Rows arriving for an epoch after it closed (e.g.
re-emission after an aggregation-tree root handoff) are dropped and
counted in ``late_rows``; rows arriving *before* the close replace
earlier rows of the same group, so a post-handoff re-emission — which is
at least as complete — supersedes the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Tuple as PyTuple

from repro.cq.sharing import SHARED_FANOUT_SETTLE, SHARED_LIFETIME_MARGIN
from repro.cq.windows import EPOCH_COLUMN, WindowSpec, strip_stamp
from repro.qp.opgraph import QueryPlan
from repro.qp.tuples import Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api import PIERNetwork
    from repro.cq.sharing import SharedPlan

EpochCallback = Callable[["WindowEpoch"], None]
DoneCallback = Callable[["ContinuousQuery"], None]

# Extra client-side wait past the merge-site watermark before an epoch is
# considered complete: covers the result hop to the proxy plus the
# periodic result flush.
DEFAULT_EPOCH_GRACE = 1.0


@dataclass
class WindowEpoch:
    """One delivered result window of a standing query."""

    index: int
    start: float
    end: float
    tuples: List[Tuple] = field(default_factory=list)
    watermark: float = 0.0  # virtual time the client closed the epoch

    def rows(self) -> List[Dict[str, Any]]:
        return [tup.as_mapping() for tup in self.tuples]

    def column(self, name: str) -> List[Any]:
        return [tup.get(name) for tup in self.tuples]

    def __len__(self) -> int:
        return len(self.tuples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WindowEpoch(#{self.index} [{self.start:g}, {self.end:g}) "
            f"rows={len(self.tuples)})"
        )


class ContinuousQuery:
    """A standing windowed query delivering per-window result epochs."""

    def __init__(
        self,
        network: "PIERNetwork",
        plan: QueryPlan,
        proxy: int = 0,
        epoch_grace: Optional[float] = None,
        extra_time: float = 3.0,
        shared: Optional["SharedPlan"] = None,
    ) -> None:
        from repro.session import StreamingQuery

        spec = WindowSpec.from_metadata(plan.metadata)
        if spec is None:
            raise ValueError(
                "ContinuousQuery requires a windowed plan (a WINDOW clause "
                "or plan.metadata['cq']); use stream() for one-shot queries"
            )
        self.network = network
        self.plan = plan
        self.proxy = proxy
        self.spec = spec
        self.epoch_grace = (
            epoch_grace if epoch_grace is not None else DEFAULT_EPOCH_GRACE
        )
        self.shared = shared
        # Epoch assembly: per-epoch, per-group latest row (replace-on-
        # arrival makes post-handoff re-emission supersede, never add).
        self._pending: Dict[int, Dict[PyTuple[Any, ...], Tuple]] = {}
        self._delivered: List[WindowEpoch] = []
        self._held: List[WindowEpoch] = []  # closed while paused
        self._epoch_callbacks: List[EpochCallback] = []
        self._done_callbacks: List[DoneCallback] = []
        self._paused = False
        self._done_fired = False
        # Epochs close in order: everything below this has closed, and a
        # row arriving for it is late.
        self._next_close = spec.pane_of(network.now)
        self.late_rows = 0
        # Epochs discarded at lifetime expiry because their merge-site
        # watermark fell past the query deadline — their merges cannot be
        # complete, and a standing query never reports partial windows.
        self.dropped_partial_epochs = 0
        # Shared mode: epochs skipped because their window reaches back
        # before this subscriber attached (its first observed pane).
        self.warmup_epochs_skipped = 0
        self._runtime = network.nodes[proxy].runtime
        if shared is not None:
            # Shared mode: no private standing query.  Pane states arrive
            # via the shared plan's tree broadcasts; the proxy node's epoch
            # group for this window shape assembles them and hands each
            # closed epoch over (``_on_group_epoch``).
            self.stream = None
            self._submitted_at = network.now
            self._shared_finished = False
            self._shared_cancelled = False
            self.superseded_pane_rows = 0
            self._first_pane = shared.pane_spec.pane_of(network.now)
            self._sub_id, self._group = shared.attach(self)
            self._arm_expiry()
        else:
            self.stream = StreamingQuery(
                network, plan, proxy=proxy, extra_time=extra_time
            )
            self._submitted_at = self.stream.handle.submitted_at
            self.stream.on_result(self._on_tuple)
            self.stream.on_done(lambda _s: self._on_stream_done())
            self._arm_epoch_clock()

    # -- subscription ---------------------------------------------------------- #
    def on_epoch(self, callback: EpochCallback) -> "ContinuousQuery":
        """Invoke ``callback(epoch)`` for every delivered epoch; replays
        already-delivered epochs so late registration misses nothing."""
        for epoch in self._delivered:
            callback(epoch)
        self._epoch_callbacks.append(callback)
        return self

    def on_done(self, callback: DoneCallback) -> "ContinuousQuery":
        """Invoke ``callback(cq)`` once, when the standing query ends."""
        if self._done_fired:
            callback(self)
        else:
            self._done_callbacks.append(callback)
        return self

    # -- state ------------------------------------------------------------------ #
    @property
    def query_id(self) -> str:
        if self.shared is not None:
            return self.shared.query_id
        return self.stream.query_id

    @property
    def finished(self) -> bool:
        if self.shared is not None:
            return self._shared_finished
        return self.stream.finished

    @property
    def cancelled(self) -> bool:
        if self.shared is not None:
            return self._shared_cancelled
        return self.stream.cancelled

    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def coverage(self) -> float:
        if self.shared is not None:
            return self.shared.stream.coverage
        return self.stream.coverage

    @property
    def down_nodes(self) -> List:
        if self.shared is not None:
            return self.shared.stream.down_nodes
        return self.stream.down_nodes

    @property
    def integrity(self):
        """The standing query's integrity report, when one exists.

        Continuous queries currently run unverified —
        :func:`~repro.qp.integrity.apply_integrity` rejects windowed plans,
        since per-epoch claims would need epoch-scoped commitments — so
        this is None today; the property exists so the session surface is
        uniform with :class:`~repro.session.StreamingQuery`."""
        if self.shared is not None:
            return self.shared.stream.integrity
        return self.stream.integrity

    @property
    def epochs_delivered(self) -> List[WindowEpoch]:
        return list(self._delivered)

    @property
    def first_result_latency(self) -> Optional[float]:
        """Seconds (virtual or wall, per runtime) from submission to the
        first answer reaching this client.

        Private mode reports the underlying stream's first result tuple;
        shared mode — which has no private stream — reports the close of
        the first delivered epoch.
        """
        if self.stream is not None:
            return self.stream.first_result_latency
        if self._delivered:
            return self._delivered[0].watermark - self._submitted_at
        return None

    @property
    def deadline(self) -> float:
        """Virtual time this subscription's lifetime ends."""
        return self._submitted_at + self.plan.timeout

    @property
    def remaining_lifetime(self) -> float:
        """Virtual seconds until the standing query expires."""
        return max(0.0, self.deadline - self.network.now)

    # -- result assembly ----------------------------------------------------------- #
    def _on_tuple(self, tup: Tuple) -> None:
        epoch = tup.get(EPOCH_COLUMN)
        if epoch is None:
            return  # unstamped stragglers (e.g. a teardown flush remnant)
        epoch = int(epoch)
        if epoch < self._next_close:
            self.late_rows += 1
            return
        key = tuple(tup.get(column) for column in self.spec.group_columns)
        self._pending.setdefault(epoch, {})[key] = tup

    def _arm_epoch_clock(self) -> None:
        """Private mode: wake when the next epoch's client watermark passes
        (a shared subscriber's clock is its epoch group's)."""
        if self.finished:
            return
        deadline = self.spec.watermark(self._next_close) + self.epoch_grace
        self._runtime.schedule_event(
            max(deadline - self.network.now, 0.0), None, self._on_epoch_clock
        )

    def _on_epoch_clock(self, _data: object) -> None:
        if self.finished:
            # The done path delivers the remaining epochs.
            return
        self._close_pending(self._next_close)
        self._arm_epoch_clock()

    def _close_pending(self, epoch: int) -> None:
        """Private mode: close ``epoch`` from the stamped rows that arrived."""
        bucket = self._pending.pop(epoch, None)
        self._close_epoch(
            epoch, self._finalize_rows(list(bucket.values())) if bucket else []
        )

    def _on_group_epoch(self, epoch: int, rows: List[Tuple]) -> None:
        """Shared mode: the epoch group assembled ``epoch``.  The rows are
        the group's; this subscriber gets its own list of them."""
        if epoch < self._next_close:
            return  # closed before this subscriber joined the group
        if (
            not self.spec.landmark
            and self._group.first_pane_of(epoch) < self._first_pane
        ):
            # The window reaches back before this subscriber attached:
            # its panes were broadcast before we listened, so the epoch
            # cannot be complete.  Skip it (counted).
            self.warmup_epochs_skipped += 1
            rows = []
        self._close_epoch(epoch, list(rows))

    def _close_epoch(self, epoch: int, tuples: List[Tuple]) -> None:
        self._next_close = epoch + 1
        # Observability (repro.obs): pane lag is how far behind the
        # window's end the client-side close ran — the standing query's
        # end-to-end staleness.  Only measured when tracing is enabled.
        tracer = getattr(self._runtime, "tracer", None)
        if tracer is not None:
            lag = self.network.now - self.spec.epoch_end(epoch)
            environment = getattr(self._runtime, "_environment", None)
            if environment is not None:
                environment.metrics_registry.histogram(
                    "cq.pane_lag_seconds", query=self.query_id
                ).observe(lag)
            trace_meta = self.plan.metadata.get("trace")
            if trace_meta:
                tracer.event(
                    "cq.epoch_close",
                    trace_meta["trace_id"],
                    parent_id=trace_meta.get("span"),
                    node=self._runtime.address,
                    epoch=epoch,
                    rows=len(tuples),
                    lag=lag,
                )
        if not tuples:
            return  # empty windows are not delivered
        window = WindowEpoch(
            index=epoch,
            start=self.spec.epoch_start(epoch),
            end=self.spec.epoch_end(epoch),
            tuples=tuples,
            watermark=self.network.now,
        )
        if self._paused:
            self._held.append(window)
        else:
            self._deliver(window)

    def _finalize_rows(self, tuples: List[Tuple]) -> List[Tuple]:
        """Strip the stamp columns and apply the per-epoch ORDER BY / LIMIT."""
        from repro.sql.planner import apply_result_clauses_to_tuples

        stripped = [
            Tuple(tup.table, strip_stamp(tup.as_mapping())) for tup in tuples
        ]
        return apply_result_clauses_to_tuples(self.plan.metadata, stripped)

    def _deliver(self, window: WindowEpoch) -> None:
        self._delivered.append(window)
        tracer = getattr(self._runtime, "tracer", None)
        if tracer is not None:
            trace_meta = self.plan.metadata.get("trace")
            if trace_meta:
                tracer.event(
                    "cq.epoch_deliver",
                    trace_meta["trace_id"],
                    parent_id=trace_meta.get("span"),
                    node=self._runtime.address,
                    epoch=window.index,
                    rows=len(window.tuples),
                )
        for callback in self._epoch_callbacks:
            callback(window)

    # -- termination paths ----------------------------------------------------------- #
    def _on_stream_done(self) -> None:
        # Lifetime expired (or the query was cancelled): deliver the
        # pending epochs whose merge-site watermark fit inside the
        # lifetime (their merges are complete), drop the rest, then fire
        # the done callbacks.  Size LIFETIME with the grace in mind if the
        # last window matters.
        deadline = self.deadline
        for epoch in sorted(self._pending):
            if self.spec.watermark(epoch) <= deadline:
                self._close_pending(epoch)
            else:
                self._next_close = epoch + 1
                self._pending.pop(epoch, None)
                self.dropped_partial_epochs += 1
        self._fire_done()

    def _arm_expiry(self) -> None:
        delay = max(self._expiry_time() - self.network.now, 0.0)
        self._runtime.schedule_event(delay, None, self._on_expiry)

    def _expiry_time(self) -> float:
        return (
            self.deadline + self.shared.grace + self.epoch_grace + SHARED_FANOUT_SETTLE
        )

    def _on_expiry(self, _data: object) -> None:
        if self._shared_finished:
            return
        if self.network.now + 1e-9 < self._expiry_time():
            # renew() moved the deadline since this event was armed.
            self._arm_expiry()
            return
        self._finish_shared(self.deadline)

    def _finish_shared(self, deadline: float) -> None:
        """Shared mode: detach from the shared plan (dropping one
        refcount) and finalize: close every epoch whose merge watermark
        fit inside ``deadline`` — assembled for this subscriber alone,
        leaving the panes to the group's survivors — and account the rest
        as dropped partials."""
        if self._shared_finished:
            return
        self._shared_finished = True
        group = self._group
        while self.spec.watermark(self._next_close) <= deadline + 1e-9:
            epoch = self._next_close
            self._on_group_epoch(epoch, group.assemble(epoch))
        self.shared.release(self._sub_id)
        buffer = group.buffer
        if buffer.states:
            # Buffered panes belong to epochs past the deadline — their
            # merges cannot complete inside the lifetime.
            pane_end = (max(buffer.states) + 1) * buffer.pane_width
            dropped = self.spec.pane_of(pane_end - 1e-9) + 1 - self._next_close
            if dropped > 0:
                self._next_close += dropped
                self.dropped_partial_epochs += dropped
        self._fire_done()

    def _on_shared_done(self) -> None:
        """Backstop: the shared plan's stream ended while this subscriber
        was still attached (e.g. its proxy died)."""
        if self._shared_finished:
            return
        self._finish_shared(min(self.deadline, self.network.now))

    def _fire_done(self) -> None:
        if self._paused:
            # The query is over: a paused subscription's buffer would
            # otherwise be lost — deliver it before reporting completion.
            self.resume()
        if self._done_fired:
            return
        self._done_fired = True
        for callback in self._done_callbacks:
            callback(self)
        self._done_callbacks.clear()

    # -- flow control ---------------------------------------------------------------- #
    def pause(self) -> "ContinuousQuery":
        """Stop delivering epochs; the standing query keeps running and
        closed epochs buffer client-side.  If the lifetime expires while
        paused, the buffer is delivered before ``on_done`` fires."""
        self._paused = True
        return self

    def resume(self) -> "ContinuousQuery":
        """Deliver the epochs buffered while paused and resume delivery."""
        self._paused = False
        held, self._held = self._held, []
        for window in held:
            self._deliver(window)
        return self

    def renew(self, extra_lifetime: float) -> float:
        """Extend the standing query's lifetime by ``extra_lifetime``
        virtual seconds, across the whole deployment; returns the new
        remaining lifetime.  On a shared plan, the shared deadline grows
        to the max across subscribers."""
        if extra_lifetime <= 0:
            raise ValueError("extra_lifetime must be positive")
        if self.finished:
            raise RuntimeError("cannot renew a finished continuous query")
        self.plan.timeout += extra_lifetime
        if self.shared is not None:
            self.shared.extend_deadline(
                self.deadline + self.shared.grace + SHARED_LIFETIME_MARGIN
            )
        else:
            self.network.renew_lifetime(self.stream.handle, proxy=self.proxy)
        return self.remaining_lifetime

    def cancel(self) -> bool:
        """Tear the standing query down now.  A shared subscriber only
        releases its refcount — surviving subscribers keep their buffered
        panes, and the shared opgraph survives until the last refcount —
        while a private subscriber cancels deployment-wide."""
        if self.shared is not None:
            if self._shared_finished:
                return False
            self._shared_cancelled = True
            self._finish_shared(self.network.now)
            return True
        return self.stream.cancel()

    # -- consumption -------------------------------------------------------------------- #
    def _iter_deadline(self) -> float:
        if self.shared is not None:
            return self._expiry_time() + 3.0
        return self.deadline + self.epoch_grace + 3.0

    def __iter__(self) -> Iterator[WindowEpoch]:
        """Yield epochs as their watermarks pass, stepping the simulator in
        between (the epoch-granular analogue of streaming iteration)."""
        yielded = 0
        while True:
            while yielded < len(self._delivered):
                window = self._delivered[yielded]
                yielded += 1
                yield window
            deadline = self._iter_deadline()
            if self._done_fired or self.network.now >= deadline:
                break
            before = self.network.now
            dispatched = self.network.run(min(0.25, deadline - self.network.now))
            if dispatched == 0 and self.network.now <= before:
                break  # event queue drained without progress
        while yielded < len(self._delivered):
            window = self._delivered[yielded]
            yielded += 1
            yield window

    def run_to_completion(self) -> "ContinuousQuery":
        """Advance the simulation until the standing query's lifetime ends
        and every closeable epoch has been delivered."""
        for _window in self:
            pass
        return self
