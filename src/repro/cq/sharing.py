"""Multi-query optimization for standing queries: shared plans, shared
panes, and tree-based epoch fan-out.

The PIER paper positions the system as an Internet-scale query processor
serving *many* simultaneous clients — a thousand dashboards watching the
same firewall top-k should not run a thousand identical standing
queries.  This module is the layer between ``PIERNetwork.subscribe()``
and the executor that makes them one:

* **Plan fingerprints** (:mod:`repro.qp.fingerprint`) canonicalise what
  a windowed plan computes — table, predicate, group keys, aggregate set
  — with the window geometry excluded.  Subscriptions with the same
  fingerprint share one installed opgraph.
* **Shared panes.** The shared plan runs a *tumbling* window whose pane
  width is the first subscriber's slide, with ``emit_states=True`` so
  the merge site emits mergeable partial-state rows per pane instead of
  final values.  Any subscriber whose slide is a whole multiple of the
  pane width attaches; its epochs (its own window length, slide, landmark
  folding, ORDER BY / LIMIT) are re-assembled from the shared pane stream
  at its proxy node.
* **Epoch fan-out over the distribution tree.** Result delivery moves
  off per-client result channels: there is one upward partial stream per
  shared plan (into its proxy), and closed panes are broadcast once over
  the existing distribution tree in ``{"panes": [...]}`` envelopes, as
  column-wise partials blocks (:func:`~repro.cq.panes.pane_blocks`).
  A node with attached subscribers buffers each arriving burst once
  (``PIERNode.add_pane_listener`` → :class:`~repro.cq.panes.PaneBuffer`),
  so messages/epoch is a function of the deployment size, not the
  subscriber count.
* **Shared epoch assembly.** Subscribers attached through one node that
  agree on what an epoch is form one :class:`~repro.cq.panes.EpochGroup`
  with one clock: the epoch is merged, finalized and ordered once and
  every member is handed the same rows.  Nothing is shared across nodes —
  a node is a machine.
* **Composable lifecycle.** Attach/release maintain per-subscriber
  refcounts; ``renew()`` extends the shared deadline to the max across
  subscribers; cancel / lifetime expiry release one refcount, and the
  opgraph (timers, buffers, tree state) is torn down only when the count
  hits zero.  A subscriber cancelling mid-epoch only leaves its epoch
  group — survivors keep the node's buffered panes and deliver that
  epoch exactly once.  To PR 3 resilience (root handoff, rejoin
  re-dissemination) the shared plan is one ordinary query.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple as PyTuple

from repro.cq.panes import EpochGroup, PaneBuffer, pane_blocks
from repro.cq.windows import CQ_METADATA_KEY, EPOCH_COLUMN, WindowSpec
from repro.qp.fingerprint import (
    PlanComponents,
    fingerprint_components,
    plan_components,
)
from repro.qp.opgraph import QueryPlan
from repro.qp.plans import flat_aggregation_plan, hierarchical_aggregation_plan
from repro.qp.tuples import Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.api import PIERNetwork
    from repro.cq.continuous import ContinuousQuery

# Debounce for pane fan-out: pane rows arriving at the proxy within this
# window ride one tree broadcast instead of one message per row.
FANOUT_FLUSH_INTERVAL = 0.25

# Slack added to the shared plan's lifetime past the latest subscriber
# deadline, so the last pane's merge-site watermark and fan-out hop land
# before the shared opgraphs tear themselves down.
SHARED_LIFETIME_MARGIN = 1.0

# One more hop past the merge watermark before an epoch closes at a
# subscriber's node: the result flush into the shared proxy, the fan-out
# debounce, and the tree broadcast routing.
SHARED_FANOUT_SETTLE = 0.75

# Float tolerance for the slide-is-a-multiple-of-the-pane check.
PANE_TOLERANCE = 1e-9


class SharedPlan:
    """One installed opgraph serving every subscriber of a fingerprint.

    Owns the internal :class:`~repro.session.StreamingQuery` running the
    tumbling pane plan, the fan-out of closed panes over the distribution
    tree, and the subscriber refcounts.  Created and indexed by
    :class:`SharingRegistry`; clients never construct one directly.
    """

    def __init__(
        self,
        registry: "SharingRegistry",
        fingerprint: str,
        components: PlanComponents,
        pane_spec: WindowSpec,
        plan: QueryPlan,
        proxy: int,
    ) -> None:
        from repro.session import StreamingQuery

        self.registry = registry
        self.network: "PIERNetwork" = registry.network
        self.fingerprint = fingerprint
        self.components = components
        self.pane_spec = pane_spec
        self.plan = plan
        self.proxy = proxy
        self.grace = pane_spec.grace
        self._runtime = self.network.nodes[proxy].runtime
        self._subscribers: Dict[int, "ContinuousQuery"] = {}
        self._next_sub_id = 0
        # Proxy node -> that node's one copy of the pane stream.
        self._buffers: Dict[int, PaneBuffer] = {}
        self.epochs_assembled = 0  # non-empty group closes, however many members
        # Pane rows buffered between fan-out flushes; a flush broadcasts
        # them as :func:`~repro.cq.panes.pane_blocks`.
        self._fanout_buffer: List[Tuple] = []
        self._fanout_seq = 0
        self._flush_event: Optional[Any] = None
        self._finished_handled = False
        self.panes_broadcast = 0
        self.rows_fanned_out = 0
        self.stream = StreamingQuery(self.network, plan, proxy=proxy)
        self.stream.on_result(self._on_pane_row)
        self.stream.on_done(lambda _s: self._on_stream_done())

    # -- state ---------------------------------------------------------------- #
    @property
    def query_id(self) -> str:
        return self.stream.query_id

    @property
    def finished(self) -> bool:
        return self.stream.finished

    @property
    def deadline(self) -> float:
        return self.stream.handle.deadline

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def compatible(self, spec: Optional[WindowSpec]) -> bool:
        """Can a subscriber with window shape ``spec`` ride this plan?

        Its slide must be a whole multiple of the shared pane width (its
        window is a multiple of its slide by construction, so epochs
        always cover whole panes).
        """
        if spec is None:
            return False
        ratio = spec.slide / self.pane_spec.slide
        return abs(ratio - round(ratio)) <= PANE_TOLERANCE and round(ratio) >= 1

    # -- subscriber refcounts ----------------------------------------------------- #
    def attach(self, cq: "ContinuousQuery") -> PyTuple[int, EpochGroup]:
        """Register one subscriber: wire its proxy node into the pane
        fan-out (once per node), put it in the epoch group of its window
        shape (one clock per group) and stretch the shared deadline to
        cover it."""
        sub_id = self._next_sub_id
        self._next_sub_id += 1
        self._subscribers[sub_id] = cq
        node = self.network.nodes[cq.proxy]
        buffer = self._buffers.get(cq.proxy)
        if buffer is None:
            buffer = self._buffers[cq.proxy] = PaneBuffer(self.components, self.pane_spec)
            node.add_pane_listener(self.query_id, buffer.receive)
        group = buffer.join(
            cq, cq.spec, cq.epoch_grace, cq.plan.metadata, self.network.now
        )
        if len(group.members) == 1:
            self._arm_group_clock(node.runtime, group)
        self.extend_deadline(cq.deadline + self.grace + SHARED_LIFETIME_MARGIN)
        return sub_id, group

    def release(self, sub_id: int) -> None:
        """Drop one refcount.  The subscriber leaves its epoch group; the
        node's buffered panes stay for the survivors, so an epoch in
        flight is neither dropped nor double-delivered for them, and the
        node stops listening when its last subscriber goes.  The opgraph
        is torn down when the last refcount goes."""
        cq = self._subscribers.pop(sub_id, None)
        if cq is None:
            return
        buffer = self._buffers[cq.proxy]
        buffer.leave(cq._group, cq)
        if not buffer.groups:
            del self._buffers[cq.proxy]
            self.network.nodes[cq.proxy].remove_pane_listener(
                self.query_id, buffer.receive
            )
        if not self._subscribers:
            self._teardown()

    def extend_deadline(self, new_deadline: float) -> None:
        """Grow the shared lifetime to ``new_deadline`` (never shrink — a
        renewing subscriber extends to the max across subscribers)."""
        if self.stream.finished:
            return
        if new_deadline <= self.deadline + PANE_TOLERANCE:
            return
        self.plan.timeout = new_deadline - self.stream.handle.submitted_at
        self.network.renew_lifetime(self.stream.handle, proxy=self.proxy)

    # -- shared epoch assembly ------------------------------------------------------- #
    def _arm_group_clock(self, runtime: Any, group: EpochGroup) -> None:
        """Wake when the group's next epoch closes: the later of the two
        merge watermarks, the client grace, and the fan-out hop — a pure
        function of the epoch and the window shape."""
        spec = group.spec
        watermark = spec.epoch_end(group.next_close) + max(spec.grace, self.grace)
        deadline = watermark + group.epoch_grace + SHARED_FANOUT_SETTLE
        runtime.schedule_event(
            max(deadline - self.network.now, 0.0), (runtime, group), self._on_group_clock
        )

    def _on_group_clock(self, armed: PyTuple[Any, EpochGroup]) -> None:
        """One group's next epoch closed: assemble it once, hand every
        member its rows, and only then give up its panes — a member that
        another's callback cancels mid-loop closes early from whole panes."""
        runtime, group = armed
        if not group.members:
            return  # the last member left; a later joiner starts a new group
        epoch = group.next_close
        rows = group.assemble(epoch)
        if rows:
            self.epochs_assembled += 1
        for cq in list(group.members):
            if not cq.finished:  # cancelled by an earlier member's callback
                cq._on_group_epoch(epoch, rows)
        group.advance(epoch)
        self._arm_group_clock(runtime, group)

    # -- pane fan-out -------------------------------------------------------------- #
    def _on_pane_row(self, tup: Tuple) -> None:
        if self._finished_handled:
            return
        if tup.get(EPOCH_COLUMN) is None or tup.get("__partial_states__") is None:
            return  # teardown-flush remnants without a pane stamp
        self._fanout_buffer.append(tup)
        if self._flush_event is None:
            self._flush_event = self._runtime.schedule_event(
                FANOUT_FLUSH_INTERVAL, None, self._on_fanout_flush
            )

    def _on_fanout_flush(self, _data: object) -> None:
        self._flush_event = None
        self._broadcast_panes()

    def _broadcast_panes(self) -> None:
        if not self._fanout_buffer:
            return
        rows, self._fanout_buffer = self._fanout_buffer, []
        self._fanout_seq += 1
        node = self.network.nodes[self.proxy]
        node.tree.broadcast(
            f"{self.query_id}/panes/{self._fanout_seq}",
            {"query_id": self.query_id, "panes": pane_blocks(rows)},
        )
        self.panes_broadcast += 1
        self.rows_fanned_out += len(rows)

    # -- teardown ------------------------------------------------------------------- #
    def _teardown(self) -> None:
        """Last refcount gone: cancel the shared query everywhere (timers,
        buffers, tree state all release through the executor's teardown)."""
        if self._flush_event is not None:
            self._flush_event.cancel()
            self._flush_event = None
        self._fanout_buffer = []
        self.registry._forget(self)
        if not self.stream.finished:
            self.stream.cancel()

    def _on_stream_done(self) -> None:
        """The shared stream ended (lifetime expiry, cancellation, or a
        dead proxy): flush the last pane burst and let every still-attached
        subscriber finalize from what it has."""
        if self._finished_handled:
            return
        self._finished_handled = True
        if self._flush_event is not None:
            self._flush_event.cancel()
            self._flush_event = None
        self._broadcast_panes()
        self.registry._forget(self)
        for cq in list(self._subscribers.values()):
            cq._on_shared_done()


class SharingRegistry:
    """Deployment-owned map from plan fingerprints to shared plans.

    Lives on :class:`~repro.api.PIERNetwork` (``network.sharing``);
    ``subscribe()`` routes every windowed subscription through
    :meth:`subscribe` here, which decides shared-attach vs fresh install.
    """

    def __init__(self, network: "PIERNetwork") -> None:
        self.network = network
        self._plans: Dict[str, SharedPlan] = {}
        self.shared_installs = 0
        self.attachments = 0
        self.fresh_installs = 0
        self.incompatible_installs = 0

    @property
    def active_plans(self) -> List[SharedPlan]:
        return list(self._plans.values())

    def subscribe(
        self,
        plan: QueryPlan,
        proxy: int = 0,
        epoch_grace: Optional[float] = None,
        shared: Optional[bool] = None,
    ) -> "ContinuousQuery":
        """Serve one subscription: attach to an existing shared plan,
        install a fresh shared plan, or fall back to a private install
        (``shared=False``, an unshareable plan shape, or a slide that is
        not a multiple of the existing pane width)."""
        from repro.cq.continuous import ContinuousQuery

        components = None if shared is False else plan_components(plan)
        if components is None:
            self.fresh_installs += 1
            return ContinuousQuery(
                self.network, plan, proxy=proxy, epoch_grace=epoch_grace
            )
        fingerprint = fingerprint_components(components)
        spec = WindowSpec.from_metadata(plan.metadata)
        existing = self._plans.get(fingerprint)
        if existing is not None and existing.finished:
            self._forget(existing)
            existing = None
        if existing is not None and not existing.compatible(spec):
            self.incompatible_installs += 1
            return ContinuousQuery(
                self.network, plan, proxy=proxy, epoch_grace=epoch_grace
            )
        if existing is None:
            existing = self._install(fingerprint, components, spec, plan, proxy)
            self.shared_installs += 1
        self.attachments += 1
        return ContinuousQuery(
            self.network, plan, proxy=proxy, epoch_grace=epoch_grace, shared=existing
        )

    # -- shared install -------------------------------------------------------------- #
    def _install(
        self,
        fingerprint: str,
        components: PlanComponents,
        spec: WindowSpec,
        plan: QueryPlan,
        proxy: int,
    ) -> SharedPlan:
        """Build and submit the shared tumbling-pane plan for a fingerprint.

        The pane width is the first subscriber's slide; later subscribers
        at any whole multiple ride along.  The plan re-uses the original's
        aggregation strategy and resilience policy, and runs with
        ``emit_states=True`` so the merge site ships mergeable states.
        """
        pane_spec = WindowSpec(
            window=spec.slide,
            slide=spec.slide,
            lifetime=spec.lifetime + spec.grace + SHARED_LIFETIME_MARGIN,
            grace=spec.grace,
            group_columns=list(components.group_columns),
        )
        aggregates = [
            {
                "function": agg.function,
                "column": agg.column,
                "output": agg.output,
                "params": dict(agg.params),
            }
            for agg in components.aggregates
        ]
        builder_kwargs: Dict[str, Any] = dict(
            source=components.source,
            predicate=components.predicate,
            timeout=pane_spec.lifetime,
            output_table=components.output_table,
            window_spec=pane_spec.to_metadata(),
            emit_states=True,
        )
        if components.strategy == "hierarchical":
            shared_plan = hierarchical_aggregation_plan(
                components.table,
                list(components.group_columns),
                aggregates,
                hold=0.25,
                **builder_kwargs,
            )
        else:
            shared_plan = flat_aggregation_plan(
                components.table,
                list(components.group_columns),
                aggregates,
                **builder_kwargs,
            )
        shared_plan.metadata[CQ_METADATA_KEY] = pane_spec.to_metadata()
        shared_plan.metadata["sharing"] = {
            "fingerprint": fingerprint,
            "shared_plan": True,
        }
        resilience = plan.metadata.get("resilience")
        if resilience is not None:
            shared_plan.metadata["resilience"] = dict(resilience)
        shared = SharedPlan(self, fingerprint, components, pane_spec, shared_plan, proxy)
        self._plans[fingerprint] = shared
        return shared

    def _forget(self, shared: SharedPlan) -> None:
        if self._plans.get(shared.fingerprint) is shared:
            del self._plans[shared.fingerprint]

    # -- introspection (explain) ------------------------------------------------------ #
    def describe(self, plan: QueryPlan) -> Dict[str, Any]:
        """What ``subscribe()`` would do with this plan right now — the
        payload behind ``explain()``'s sharing line."""
        components = plan_components(plan)
        if components is None:
            return {
                "fingerprint": None,
                "decision": "not shareable (no windowed aggregation shape)",
                "subscribers": 0,
            }
        fingerprint = fingerprint_components(components)
        spec = WindowSpec.from_metadata(plan.metadata)
        existing = self._plans.get(fingerprint)
        if existing is None or existing.finished:
            return {
                "fingerprint": fingerprint,
                "decision": f"fresh shared install (pane width {spec.slide:g}s)",
                "subscribers": 0,
            }
        if not existing.compatible(spec):
            return {
                "fingerprint": fingerprint,
                "decision": (
                    f"fresh per-client install (slide {spec.slide:g}s is not a "
                    f"multiple of the shared pane width "
                    f"{existing.pane_spec.slide:g}s)"
                ),
                "subscribers": existing.subscriber_count,
            }
        return {
            "fingerprint": fingerprint,
            "decision": (
                f"attach to shared plan {existing.query_id} "
                f"(pane width {existing.pane_spec.slide:g}s)"
            ),
            "subscribers": existing.subscriber_count,
        }
