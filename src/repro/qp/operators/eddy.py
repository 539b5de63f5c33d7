"""Eddy: adaptive tuple routing among commutative operators (Section 4.2.2).

PIER includes a prototype eddy that can be wired into a UFL plan.  The eddy
intercepts tuples and routes each one through a set of member operators in
an adaptively chosen order.  The routing policy implemented here is the
classic lottery/backpressure-flavoured policy: operators that drop more
tuples (low selectivity-pass rate) and respond cheaply are favoured early
in the ordering, so expensive or unselective work is deferred.

The member operators are *selection-like*: they either pass a (possibly
modified) tuple or drop it.  Each tuple carries a "done" set so it visits
every member exactly once, as in the original eddies paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.qp.expressions import matches
from repro.runtime.rand import derive_rng
from repro.qp.operators.base import PhysicalOperator, register_operator
from repro.qp.tuples import Tuple


@dataclass
class EddyMemberStats:
    """Observations the routing policy keeps per member operator."""

    seen: int = 0
    passed: int = 0
    cost: float = 1.0

    @property
    def selectivity(self) -> float:
        """Fraction of tuples that survive this member (1.0 before data)."""
        if self.seen == 0:
            return 1.0
        return self.passed / self.seen

    def ticket_weight(self) -> float:
        """Routing weight: favour members that kill tuples early and cheaply."""
        return (1.0 - self.selectivity + 0.05) / max(self.cost, 1e-6)


@register_operator
class Eddy(PhysicalOperator):
    """Adaptively order a set of predicate members per tuple.

    Params: ``members`` — a list of ``{"name":..., "predicate":...,
    "cost":...}`` entries; ``policy`` — "lottery" (default, adaptive) or
    "fixed" (the declared order, used as the non-adaptive baseline in the
    eddy ablation benchmark); ``seed`` for deterministic lotteries.
    """

    op_type = "eddy"

    def __init__(self, spec, context) -> None:  # noqa: ANN001
        super().__init__(spec, context)
        members = self.require_param("members")
        self.member_names: List[str] = [member["name"] for member in members]
        self.predicates: Dict[str, Any] = {member["name"]: member["predicate"] for member in members}
        self.policy: str = self.param("policy", "lottery")
        self.member_stats: Dict[str, EddyMemberStats] = {
            member["name"]: EddyMemberStats(cost=float(member.get("cost", 1.0)))
            for member in members
        }
        self._rng = derive_rng(self.param("seed", 0))
        self.evaluations = 0

    # -- routing policy --------------------------------------------------- #
    def _choose_order(self) -> List[str]:
        if self.policy == "fixed":
            return list(self.member_names)
        # Lottery scheduling: sample members without replacement with
        # probability proportional to their ticket weight.
        remaining = list(self.member_names)
        order: List[str] = []
        while remaining:
            weights = [self.member_stats[name].ticket_weight() for name in remaining]
            total = sum(weights)
            pick = self._rng.uniform(0.0, total)
            cumulative = 0.0
            chosen_index = len(remaining) - 1
            for index, weight in enumerate(weights):
                cumulative += weight
                if pick <= cumulative:
                    chosen_index = index
                    break
            order.append(remaining.pop(chosen_index))
        return order

    # -- dataflow ------------------------------------------------------------ #
    def on_receive(self, tup: Tuple, slot: int, tag: str) -> None:
        for name in self._choose_order():
            stats = self.member_stats[name]
            stats.seen += 1
            self.evaluations += 1
            if matches(self.predicates[name], tup):
                stats.passed += 1
            else:
                return
        self.emit([tup], tag)
