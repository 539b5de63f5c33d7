"""Group-by / aggregation operators (paper Section 3.3.4).

``groupby_hash`` keeps one mergeable partial state per group (see
:mod:`repro.qp.aggregates`) and emits on flush or on a periodic window for
continuous queries.  ``partial_aggregate`` emits partial states (rather
than final results) so that they can be combined downstream — either by a
rehash exchange (flat multi-phase aggregation) or by the hierarchical
aggregation tree of :mod:`repro.qp.hierarchical`.

Two window mechanisms coexist:

* the ``window`` param (a period in seconds) re-emits periodically with
  emit-then-reset semantics — each period reports only the tuples that
  arrived during it, and the group table is cleared so long-running
  aggregates neither grow without bound nor double-report.  It is the
  shipping clock of the flat one-shot GROUP BY:
  :func:`repro.qp.plans.flat_aggregation_plan` sets it to a quarter of the
  timeout (at least 1 s), so partials reach the merge sites before those
  tear down;
* the continuous-query ``window_spec`` param (see
  :mod:`repro.cq.windows`) keeps *time-indexed* group state: tuples fold
  into panes by arrival time, each closing epoch merges the panes its
  window covers (tumbling / sliding / landmark), emitted rows carry epoch
  stamps, and panes no future window needs are evicted.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple as PyTuple

from repro.cq.windows import EPOCH_COLUMN, LATE_EPOCH_SETTLE, WindowSpec, epoch_stamp
from repro.qp.aggregates import AggregateSpec
from repro.qp.operators.base import PhysicalOperator, register_operator
from repro.qp.tuples import Tuple


def parse_aggregate_specs(raw_specs: List[Any]) -> List[AggregateSpec]:
    """Normalise plan-level aggregate descriptions into AggregateSpec objects.

    Accepted forms: ``AggregateSpec`` instances, ``(function, column,
    output)`` triples, or dicts with ``function``/``column``/``output`` and
    optional ``params``.
    """
    specs: List[AggregateSpec] = []
    for raw in raw_specs:
        if isinstance(raw, AggregateSpec):
            specs.append(raw)
        elif isinstance(raw, dict):
            specs.append(
                AggregateSpec(
                    function=raw["function"],
                    column=raw.get("column"),
                    output=raw.get("output", raw["function"]),
                    params=tuple(sorted(raw.get("params", {}).items())),
                )
            )
        else:
            function, column, output = raw
            specs.append(AggregateSpec(function=function, column=column, output=output))
    return specs


# One group's aggregate partial states, in ``aggregate_specs`` order.
States = List[Any]
Groups = Dict[PyTuple[Any, ...], States]


def merge_partials(
    functions: List[Any], buffer: Groups, partials: Iterable[PyTuple[PyTuple[Any, ...], States]]
) -> None:
    """Merge every ``(key, states)`` of ``partials`` into ``buffer`` (which
    never shares a state list with its input), aggregate by aggregate with
    ``functions``."""
    for key, states in partials:
        existing = buffer.get(key)
        if existing is None:
            buffer[key] = list(states)
        else:
            buffer[key] = [
                function.merge(left, right)
                for function, left, right in zip(functions, existing, states)
            ]


class _BaseGroupBy(PhysicalOperator):
    """Shared machinery for the group-by variants."""

    # Whether this operator drives windowed emission off the pane clock.
    # Merge sites override this: their epochs close on watermarks driven
    # by the epoch stamps of arriving partials, not on local pane closes.
    _uses_pane_timer = True

    def __init__(self, spec, context) -> None:  # noqa: ANN001
        super().__init__(spec, context)
        self.group_columns: List[str] = list(self.param("group_columns", []))
        self.aggregate_specs = parse_aggregate_specs(self.require_param("aggregates"))
        self.output_table: str = self.param("output_table", "aggregate")
        self.window: Optional[float] = self.param("window")
        self.window_spec: Optional[WindowSpec] = WindowSpec.from_params(
            self.param("window_spec")
        )
        # Shared plans (repro.cq.sharing) ask merge sites for mergeable
        # partial-state rows instead of final values so subscribers can
        # re-assemble epochs at their own slides client-side.
        self.emit_states = bool(self.param("emit_states", False))
        # Aggregate functions are stateless, so one instance per aggregate
        # serves every group's folds and every merge on this node.
        self._merge_functions = [spec.build() for spec in self.aggregate_specs]
        self._groups: Groups = {}
        # Time-indexed state: pane index -> group key -> states.  Pane
        # boundaries are aligned to absolute virtual time (repro.cq.windows)
        # so every node agrees on them without coordination.
        self._panes: Dict[int, Groups] = {}
        self._landmark_cum: Groups = {}
        self._next_close_epoch: Optional[int] = None
        # Watermark clock (merge sites): epochs with an armed timer, and
        # epochs already emitted — a set above a low-water mark, so a
        # standing query remembers a retention's worth, not its lifetime.
        self._epoch_timers: Set[int] = set()
        self._emitted_epochs: Set[int] = set()
        self._emitted_floor = 0
        self.epochs_emitted = 0
        self.panes_evicted = 0

    def start(self) -> None:
        if self.window_spec is not None:
            if self._uses_pane_timer:
                self._arm_pane_timer()
        elif self.window:
            self._schedule_window()

    # -- legacy periodic window (emit-then-reset) --------------------------- #
    def _schedule_window(self) -> None:
        if self._stopped:
            return
        self.arm_timer(self.window, self._on_window)

    def _on_window(self, _data: object) -> None:
        if self._stopped:
            return
        # Emit-then-reset: each period reports only its own arrivals.  The
        # one-shot flush() at query teardown is unchanged — it ships
        # whatever accumulated since the last period.
        self.flush()
        self._groups.clear()
        self._schedule_window()

    # -- pane clock (continuous queries) --------------------------------------- #
    def _arm_pane_timer(self) -> None:
        if self._stopped:
            return
        spec = self.window_spec
        if self._next_close_epoch is None:
            # A node may install the opgraph mid-pane (dissemination delay,
            # rejoin re-install): it starts contributing with the pane in
            # progress and closes it at the absolute boundary.
            self._next_close_epoch = spec.pane_of(self.context.now)
        delay = max(spec.epoch_end(self._next_close_epoch) - self.context.now, 0.0)
        self.arm_timer(delay, self._on_pane_close)

    def _on_pane_close(self, _data: object) -> None:
        if self._stopped:
            return
        epoch = self._next_close_epoch
        self._next_close_epoch = epoch + 1
        states = self._window_states(epoch)
        if states:
            self._emit_window(epoch, states)
        self._arm_pane_timer()

    def _window_states(
        self, epoch: int
    ) -> Dict[PyTuple[Any, ...], List[Any]]:
        """Merge the panes epoch ``epoch`` covers and evict dead panes."""
        spec = self.window_spec
        if spec.landmark:
            pane = self._panes.pop(epoch, None)
            if pane:
                self._merge_all(self._landmark_cum, pane.items())
            return {key: list(states) for key, states in self._landmark_cum.items()}
        merged: Groups = {}
        for pane_index in spec.epoch_panes(epoch):
            pane = self._panes.get(pane_index)
            if pane:
                self._merge_all(merged, pane.items())
        oldest_needed = spec.oldest_live_pane(epoch)
        for pane_index in [index for index in self._panes if index < oldest_needed]:
            del self._panes[pane_index]
            self.panes_evicted += 1
        return merged

    def _emit_window(self, epoch: int, states: Groups) -> None:
        """Pane-close hook: what becomes of one closed window's states."""
        self._emit_epoch(epoch, states)

    def _emit_epoch(
        self, epoch: int, states: Groups, contributors: Optional[int] = None
    ) -> None:
        """Ship one closed epoch downstream; final-row form by default."""
        if self.emit_states:
            rows = self._state_rows(states, epoch, contributors)
        else:
            rows = self._result_rows(states, epoch_stamp(self.window_spec, epoch))
        self.emit(rows)
        self.epochs_emitted += 1

    def _state_rows(
        self, states: Groups, epoch: Optional[int] = None, contributors: Optional[int] = None
    ) -> List[Tuple]:
        """One mergeable partial-state row per group, stamped with the
        ``epoch`` it closes (windowed emission).

        ``contributors`` — when the emitter can re-emit an epoch after an
        ownership handoff (hierarchical roots), it stamps each row with how
        many distinct sources were folded in, so downstream buffers can
        refuse to replace a more complete emission with a thinner one.
        """
        rows = []
        for key, state_list in states.items():
            # A copy: later rows keep folding into the group's own list.
            payload = {"__partial_states__": list(state_list), "__group_key__": tuple(key)}
            if epoch is not None:
                payload[EPOCH_COLUMN] = epoch
            if contributors is not None:
                payload["__contributors__"] = contributors
            rows.append(self._group_tuple(key, payload))
        return rows

    # -- watermark clock (merge sites) ------------------------------------------- #
    # A merge site closes an epoch when its watermark passes, not on the
    # pane clock: one timer per open epoch, armed by the first contribution
    # that names it, and each epoch emitted at most once.  The site supplies
    # ``_epoch_result(epoch)``: the epoch's merged states, and from how many
    # sources if it counts them.
    def _arm_epoch_timer(self, epoch: int) -> None:
        """An epoch first seen after its watermark already passed (slow
        partials, or a fresh root catching up post-handoff) waits the
        shared settle time, so contributions in flight alongside the first
        arrival get merged too instead of emitting from one source alone."""
        if epoch in self._epoch_timers or self._epoch_emitted(epoch):
            return
        self._epoch_timers.add(epoch)
        delay = self.window_spec.watermark(epoch) - self.context.now
        if delay <= 0:
            delay = LATE_EPOCH_SETTLE
        self.arm_timer(delay, self._on_epoch_watermark, data=epoch)

    def _on_epoch_watermark(self, epoch: int) -> None:
        self._epoch_timers.discard(epoch)
        if not self._stopped:
            self._close_epoch(epoch)

    def _epoch_emitted(self, epoch: int) -> bool:
        return epoch < self._emitted_floor or epoch in self._emitted_epochs

    def _close_epoch(self, epoch: int) -> None:
        """Merge and emit one epoch, at most once."""
        if self._epoch_emitted(epoch):
            return
        states, contributors = self._epoch_result(epoch)
        if not states:
            # Nothing merged yet (e.g. every batch still in flight): leave
            # the epoch unemitted so a later arrival can re-arm the timer.
            return
        self._advance_floor()
        self._emitted_epochs.add(epoch)
        self._emit_epoch(epoch, states, contributors)

    def _epoch_retention(self) -> float:
        """How long after an epoch's watermark a merge site remembers it.

        The retention must outlive a root handoff: the monitor notices the
        ownership change within ``root_monitor_interval`` and origins then
        re-ship their retained cumulative state, so a few graces plus a
        couple of slides of slack is plenty — while keeping standing-query
        state bounded by the window, not the lifetime."""
        spec = self.window_spec
        return max(15.0, 4.0 * spec.grace + 2.0 * spec.slide)

    def _advance_floor(self) -> int:
        """Raise the low-water mark to the oldest epoch still retained (the
        first whose watermark is not yet ``_epoch_retention()`` in the
        past).  Every epoch below it counts as emitted, so what is
        remembered stays bounded and a late partial still counts late."""
        spec = self.window_spec
        horizon = self.context.now - self._epoch_retention()
        floor = spec.pane_of(horizon - spec.grace) - 1
        if spec.watermark(floor) < horizon:
            floor += 1
        self._emitted_floor = floor
        self._emitted_epochs = {epoch for epoch in self._emitted_epochs if epoch >= floor}
        return floor

    # -- state access ------------------------------------------------------------ #
    def _merge_into(self, buffer: Groups, key: PyTuple[Any, ...], states: States) -> None:
        self._merge_all(buffer, ((key, states),))

    def _merge_all(
        self, buffer: Groups, partials: Iterable[PyTuple[PyTuple[Any, ...], States]]
    ) -> None:
        merge_partials(self._merge_functions, buffer, partials)

    def on_batch(self, batch: List[Tuple], slot: int, tag: str) -> None:
        self._fold(batch)

    def _fold(self, batch: List[Tuple]) -> None:
        """Fold raw rows into their groups' partial states.

        Per batch: the target group table and the function list.  Per
        schema: the column positions.  Per row: one key, one dictionary
        lookup, one state update — applied whole or not at all, so a row
        that cannot be folded (missing column, unhashable key, a value the
        aggregate cannot take) is dropped without touching its neighbours.
        """
        pane_index = None
        if self.window_spec is not None and self._uses_pane_timer:
            # Every row of a batch arrives at one ``now``: one pane.
            pane_index = self.window_spec.pane_of(self.context.now)
            groups = self._panes.get(pane_index, {})
        else:
            # Operators without a pane clock (watermark-driven merge
            # sites) fold raw tuples cumulatively, emitted at flush.
            groups = self._groups
        functions = self._merge_functions
        add_only = functions[0].add if len(functions) == 1 else None
        # Every column a row is read at: the group columns, then each
        # aggregate's input (None for COUNT(*)).
        group_width = len(self.group_columns)
        input_columns = (*self.group_columns, *[spec.column for spec in self.aggregate_specs])
        schema = positions = None
        dropped = 0
        for tup in batch:
            if tup.schema is not schema:
                schema = tup.schema
                positions = schema.positions(input_columns)
                if positions is not None:
                    group_positions = positions[:group_width]
                    group_position = group_positions[0] if group_width == 1 else None
                    value_positions = positions[group_width:]
                    value_position = value_positions[0] if add_only is not None else None
            if positions is None:
                dropped += 1
                continue
            row = tup.values()
            try:
                if group_position is not None:
                    key = (row[group_position],)
                else:
                    key = tuple([row[position] for position in group_positions])
                states = groups.get(key)
                if states is None:
                    states = groups[key] = [function.initial() for function in functions]
                if add_only is not None:
                    states[0] = add_only(
                        states[0], None if value_position is None else row[value_position]
                    )
                else:
                    states[:] = [
                        function.add(state, None if position is None else row[position])
                        for function, state, position in zip(functions, states, value_positions)
                    ]
            except (TypeError, KeyError):
                dropped += 1
        if dropped:
            self.stats.tuples_dropped += dropped
        if pane_index is not None and groups:
            self._panes[pane_index] = groups

    def _group_tuple(self, key: PyTuple[Any, ...], payload: Dict[str, Any]) -> Tuple:
        values = dict(zip(self.group_columns, key))
        values.update(payload)
        return Tuple(self.output_table, values)

    def _result_rows(self, groups: Groups, stamp: Optional[Dict[str, Any]] = None) -> List[Tuple]:
        """One final-value row per group (plus the epoch ``stamp``)."""
        rows = []
        for key, states in groups.items():
            payload = {
                spec.output: function.result(state)
                for spec, function, state in zip(
                    self.aggregate_specs, self._merge_functions, states
                )
            }
            if stamp:
                payload.update(stamp)
            rows.append(self._group_tuple(key, payload))
        return rows


@register_operator
class HashGroupBy(_BaseGroupBy):
    """Final aggregation: emits one result tuple per group on flush/window.

    Params: ``group_columns``, ``aggregates``, optional ``output_table``,
    ``window`` (seconds, emit-then-reset periodic emission) or
    ``window_spec`` (continuous-query window; emitted rows carry epoch
    stamps and panes outside the window are evicted).
    """

    op_type = "groupby_hash"

    def flush(self) -> None:
        # With a window spec, complete epochs were emitted at their pane
        # closes; the in-progress partial window is dropped by design (a
        # standing query only reports complete windows).
        self.emit(self._result_rows(self._groups))


@register_operator
class PartialAggregate(_BaseGroupBy):
    """Local (per-node) aggregation step of a multi-phase aggregate.

    On flush it emits *partial state* tuples — one per group — carrying the
    mergeable states rather than final values, so a downstream
    ``merge_aggregate`` (after a rehash, or at an aggregation-tree parent)
    can combine them.  With a ``window_spec``, each closing epoch ships the
    window's partial states stamped with the epoch index, and the merge
    site recombines them per (epoch, group).
    """

    op_type = "partial_aggregate"

    def __init__(self, spec, context) -> None:  # noqa: ANN001
        super().__init__(spec, context)
        # Byzantine role (repro.runtime.churn.Attacker; None on an honest
        # node).  NOTE the threat-model caveat: corrupting one's *own*
        # partial output is the node lying about its local data — a
        # bounded-influence residual no aggregation protocol can detect
        # (SIA's explicit non-goal).  The hook exists so fault-injection
        # experiments can measure exactly that bound; the detectable
        # attacks live on the aggregator paths in repro.qp.hierarchical.
        adversary = getattr(context.overlay.runtime, "adversary", None)
        self._attacker = adversary.attacker(context.overlay.address) if adversary else None

    def _reported(self, states: Groups) -> Groups:
        """This node's partial output as it reports it."""
        if self._attacker is None:
            return states
        return self._attacker.tamper(states, own=True) or {}

    def _emit_window(self, epoch: int, states: Groups) -> None:
        self.emit(self._state_rows(self._reported(states), epoch))
        self.epochs_emitted += 1

    def flush(self) -> None:
        self.emit(self._state_rows(self._reported(self._groups)))


@register_operator
class MergeAggregate(_BaseGroupBy):
    """Combine partial-state tuples produced by :class:`PartialAggregate`.

    Accepts both partial-state tuples (merged) and raw tuples (folded), so
    it can sit at the top of either a rehash exchange or a local pipeline.

    With a ``window_spec``, epoch-stamped partials are merged into
    per-epoch buckets; each epoch is emitted once its *watermark* passes
    (``epoch end + grace``, covering the partials' shipping latency) and
    its bucket is evicted.  Partials arriving for an already-emitted epoch
    are dropped and counted in ``late_partials``.
    """

    op_type = "merge_aggregate"

    # Epochs close on arriving partials' watermarks, not the pane clock.
    _uses_pane_timer = False

    def __init__(self, spec, context) -> None:  # noqa: ANN001
        super().__init__(spec, context)
        self._epoch_states: Dict[int, Groups] = {}
        self.late_partials = 0

    # Partial-state rows and raw rows may interleave on one input, and
    # state updates do not commute in the last float digit: row by row.
    on_batch = PhysicalOperator.on_batch

    def on_receive(self, tup: Tuple, slot: int, tag: str) -> None:
        if "__partial_states__" not in tup:
            self._fold([tup])
            return
        epoch = tup.get(EPOCH_COLUMN) if self.window_spec is not None else None
        if epoch is not None:
            epoch = int(epoch)
            if self._epoch_emitted(epoch):
                self.late_partials += 1
                return
        key = tuple(tup.require("__group_key__")) if self.group_columns else ()
        groups = self._groups if epoch is None else self._epoch_states.setdefault(epoch, {})
        functions = self._merge_functions
        states = groups.get(key)
        if states is None:
            states = [function.initial() for function in functions]
        groups[key] = [
            function.merge(left, right)
            for function, left, right in zip(
                functions, states, tup.require("__partial_states__")
            )
        ]
        if epoch is not None:
            self._arm_epoch_timer(epoch)

    def _epoch_result(self, epoch: int) -> PyTuple[Optional[Groups], Optional[int]]:
        return self._epoch_states.pop(epoch, None), None

    def flush(self) -> None:
        if self.window_spec is not None:
            # Lifetime expiry: ship the epochs still waiting on their
            # watermark so the final windows are not lost.
            for epoch in sorted(self._epoch_states):
                self._close_epoch(epoch)
        # Cumulative state (one-shot queries; raw tuples and epoch-less
        # partials of windowed plans) is emitted here either way.
        self.emit(self._result_rows(self._groups))
