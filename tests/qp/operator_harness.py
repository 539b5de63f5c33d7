"""A tiny harness for unit-testing physical operators in isolation.

It builds a one-node (or few-node) simulated overlay and provides a
collector operator so tests can push tuples into an operator under test and
inspect what comes out the other side, without running a full query.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.qp.opgraph import OperatorSpec
from repro.qp.operators.base import (
    DEFAULT_PROBE_TAG,
    ExecutionContext,
    PhysicalOperator,
    build_operator,
)
from repro.qp.tuples import Tuple
from repro.simnet import OverlayDeployment, build_overlay


def accept_rows(operator: PhysicalOperator) -> PhysicalOperator:
    """Let a test push one row at a time: ``operator.receive(tup)`` becomes
    a batch of one (the data channel itself only takes batches)."""
    receive = operator.receive

    def receive_rows(rows: Any, slot: int = 0, tag: str = DEFAULT_PROBE_TAG) -> None:
        receive([rows] if isinstance(rows, Tuple) else rows, slot, tag)

    operator.receive = receive_rows
    return operator


class Collector(PhysicalOperator):
    """Terminal operator that records every tuple pushed into it."""

    op_type = "collector"

    def __init__(self, spec=None, context=None):  # noqa: ANN001
        spec = spec or OperatorSpec("collector", "collector")
        super().__init__(spec, context)
        self.collected: List[Tuple] = []

    def on_receive(self, tup: Tuple, slot: int, tag: str) -> None:
        self.collected.append(tup)


class OperatorHarness:
    """Wire a single operator (or a small chain) to a collector."""

    def __init__(self, node_count: int = 1, seed: int = 0, timeout: float = 30.0) -> None:
        self.deployment: OverlayDeployment = build_overlay(node_count, seed=seed)
        self.extras: Dict[str, Any] = {"local_tables": {}, "streams": {}}
        self.context = ExecutionContext(
            overlay=self.deployment.node(0),
            query_id="qtest",
            timeout=timeout,
            proxy_address=self.deployment.node(0).address,
            deliver_result=None,
            extras=self.extras,
        )
        self.collector = Collector(context=self.context)

    def build(self, op_type: str, params: Optional[Dict[str, Any]] = None,
              operator_id: str = "under_test") -> PhysicalOperator:
        spec = OperatorSpec(operator_id, op_type, params or {})
        operator = build_operator(spec, self.context)
        operator.add_parent(self.collector, 0)
        return accept_rows(operator)

    def run(self, duration: float = 1.0) -> None:
        self.deployment.run(duration)

    @property
    def results(self) -> List[Tuple]:
        return self.collector.collected

    def result_values(self, column: str) -> List[Any]:
        return [tup.get(column) for tup in self.collector.collected]
