"""What one node does with a shared plan's pane stream, network-free.

:class:`PaneBuffer` is the node's one copy of the stream, however many
subscribers are attached through the node; an :class:`EpochGroup` is the
subscribers among them that agree on what an epoch *is*, so each epoch is
merged, finalized and ordered once and its members share the rows.
Assembling an epoch (``assemble``, which changes nothing) and giving up
its panes (``advance``) are separate steps: the group advances only after
every member has its rows, a member that leaves early assembles its last
epochs without taking panes from those that stay, and the buffer only
evicts below the lowest pane any group still needs.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Tuple as PyTuple

from repro.cq.windows import EPOCH_COLUMN, WindowSpec
from repro.qp.fingerprint import PlanComponents
from repro.qp.ledger import partial_pairs, wire_partials
from repro.qp.tuples import Tuple

GroupKey = PyTuple[Any, ...]
States = Dict[GroupKey, List[Any]]


def pane_blocks(rows: List[Tuple]) -> List[Dict[str, Any]]:
    """A burst of pane-state rows in the form it is fanned out in: the
    partials form (:func:`repro.qp.ledger.wire_partials`), one block per
    consecutive run of rows stamped with the same pane and contributor
    count, each block carrying its ``pane`` and ``contributors``.  A run
    also ends where a group repeats, so a receiver applies every row in
    its original order."""
    runs: List[PyTuple[PyTuple[int, Any], States]] = []
    for tup in rows:
        stamp = (int(tup.get(EPOCH_COLUMN)), tup.get("__contributors__"))
        key = tuple(tup.require("__group_key__"))
        if not runs or runs[-1][0] != stamp or key in runs[-1][1]:
            runs.append((stamp, {}))
        runs[-1][1][key] = tup.get("__partial_states__")
    return [
        {"pane": pane, "contributors": contributors, **block}
        for (pane, contributors), run in runs
        for block in wire_partials(run)
    ]


class PaneBuffer:
    """The pane states one node holds for one shared plan."""

    def __init__(self, components: PlanComponents, pane_spec: WindowSpec) -> None:
        self.components = components
        self.pane_spec = pane_spec
        self.pane_width = pane_spec.slide
        self.functions = [agg.build() for agg in components.aggregates]
        # pane index -> group key -> aggregate state list (wire data:
        # never mutated, replaced per (pane, group) on arrival).
        self.states: Dict[int, States] = {}
        # pane index -> contributor count of the buffered emission: a
        # post-handoff root may re-emit a pane from a thinner catch-up
        # ledger, and such a burst must not overwrite a fuller one.
        self.contributors: Dict[int, int] = {}
        self.groups: Dict[Hashable, "EpochGroup"] = {}
        self.floor = 0  # panes below it are gone

    # -- membership -------------------------------------------------------------- #
    def join(
        self,
        member: Any,
        spec: WindowSpec,
        epoch_grace: float,
        clauses: Dict[str, Any],
        now: float,
    ) -> "EpochGroup":
        """Put ``member`` in the group of its epoch shape (a group with
        one member is new: an emptied group is dropped, never reused)."""
        first_pane = self.pane_spec.pane_of(now)
        order_by = clauses.get("sql_order_by")
        key = (
            spec.window,
            spec.slide,
            spec.grace,  # with epoch_grace, the close deadline
            epoch_grace,
            tuple(order_by) if order_by else None,
            clauses.get("sql_limit"),
            # A landmark fold starts where its subscriber attached, so
            # only subscribers attached in one pane can share it.
            first_pane if spec.landmark else None,
        )
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = EpochGroup(
                self, key, spec, epoch_grace, clauses, first_pane, spec.pane_of(now)
            )
        group.members.append(member)
        return group

    def leave(self, group: "EpochGroup", member: Any) -> None:
        group.members.remove(member)
        if not group.members:
            del self.groups[group.key]

    # -- the pane stream ---------------------------------------------------------- #
    def receive(self, blocks: List[Dict[str, Any]]) -> None:
        """One fan-out burst (:func:`pane_blocks`) arrived at this node."""
        groups = self.groups.values()
        for block in blocks:
            pane, contrib = block["pane"], block["contributors"]
            superseded = False
            if pane >= self.floor:
                if contrib is not None:
                    stored = self.contributors.get(pane)
                    if stored is not None and contrib < stored:
                        # A re-emission folded from fewer sources than what
                        # is buffered (handoff root catching up): keep the
                        # fuller emission.
                        superseded = True
                    else:
                        if stored is not None and contrib > stored:
                            # Strictly fuller: drop the thinner pane whole
                            # rather than mixing groups across emissions.
                            self.states.pop(pane, None)
                        self.contributors[pane] = contrib
                if not superseded:
                    self.states.setdefault(pane, {}).update(partial_pairs([block]))
            for group in groups:
                if pane < group.floor:
                    # Every epoch of this group needing the pane already
                    # closed (e.g. a very late post-handoff re-broadcast).
                    for member in group.members:
                        member.late_rows += block["count"]
                elif superseded:
                    for member in group.members:
                        member.superseded_pane_rows += block["count"]

    def evict(self) -> None:
        """Drop the panes no group needs any more."""
        floor = min((group.floor for group in self.groups.values()), default=self.floor)
        if floor <= self.floor:
            return
        self.floor = floor
        for pane in [p for p in self.states if p < floor]:
            del self.states[pane]
        for pane in [p for p in self.contributors if p < floor]:
            del self.contributors[pane]

    def merge_into(self, merged: States, lo: int, hi: int) -> States:
        """Fold panes ``[lo, hi)`` into ``merged``.  State lists are never
        changed in place (a merge makes a new one), so buffered wire data
        and earlier results can be referenced, not copied."""
        functions = self.functions
        for pane in range(lo, hi):
            bucket = self.states.get(pane)
            if not bucket:
                continue
            for key, states in bucket.items():
                existing = merged.get(key)
                if existing is None:
                    merged[key] = states
                else:
                    merged[key] = [
                        function.merge(left, right)
                        for function, left, right in zip(functions, existing, states)
                    ]
        return merged


class EpochGroup:
    """Subscribers on one node whose epochs are the same epochs."""

    def __init__(
        self,
        buffer: PaneBuffer,
        key: Hashable,
        spec: WindowSpec,
        epoch_grace: float,
        clauses: Dict[str, Any],
        first_pane: int,
        next_close: int,
    ) -> None:
        self.buffer = buffer
        self.key = key
        self.spec = spec
        self.epoch_grace = epoch_grace
        self.clauses = clauses
        # The earliest attach among the members: an epoch reaching back
        # before it is warm-up for every one of them.
        self.first_pane = first_pane
        self.next_close = next_close  # epochs close in order
        self.floor = 0  # lowest pane an epoch still to close reads
        self.folded: States = {}  # landmark: panes from ``first_pane`` up to ``floor``
        self.members: List[Any] = []

    def first_pane_of(self, epoch: int) -> int:
        return int(round(self.spec.epoch_start(epoch) / self.buffer.pane_width))

    def last_pane_of(self, epoch: int) -> int:
        return int(round(self.spec.epoch_end(epoch) / self.buffer.pane_width))

    def assemble(self, epoch: int) -> List[Tuple]:
        """The final rows of ``epoch``: covered panes merged, aggregates
        finalized, ORDER BY / LIMIT applied.  Nothing the group or the
        buffer holds changes, so a leaver may call it at any time."""
        from repro.sql.planner import apply_result_clauses_to_tuples  # import cycle

        buffer, spec = self.buffer, self.spec
        hi = self.last_pane_of(epoch)
        if spec.landmark:
            merged = buffer.merge_into(
                dict(self.folded), max(self.floor, self.first_pane), hi
            )
        else:
            lo = self.first_pane_of(epoch)
            # A window reaching back before the first attach is warm-up
            # for every member: nothing to merge.
            merged = buffer.merge_into({}, lo, hi) if lo >= self.first_pane else {}
        if not merged:
            return []
        components = buffer.components
        rows = []
        for key, states in merged.items():
            values = dict(zip(spec.group_columns, key))
            for agg, function, state in zip(
                components.aggregates, buffer.functions, states
            ):
                values[agg.output] = function.result(state)
            rows.append(Tuple(components.output_table, values))
        return apply_result_clauses_to_tuples(self.clauses, rows)

    def advance(self, epoch: int) -> None:
        """``epoch`` closed for every member (the group's own in-order
        close): give up the panes no later epoch reads."""
        if self.spec.landmark:
            hi = self.last_pane_of(epoch)
            self.buffer.merge_into(self.folded, max(self.floor, self.first_pane), hi)
            self.floor = hi
        else:
            self.floor = self.first_pane_of(epoch + 1)
        self.next_close = epoch + 1
        self.buffer.evict()
