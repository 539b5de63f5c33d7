"""Control-flow manager (paper Section 3.3.4/3.3.5).

The control-flow manager sits at the root of an opgraph and drives its
control channel: it issues the initial probe when the opgraph starts, can
re-probe periodically for continuous queries, and coordinates the flush of
stateful operators when a probe's answer set should be considered complete
(PIER has no EOFs — timeouts and explicit probes bound the dataflow).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.qp.operators.base import DEFAULT_PROBE_TAG, PhysicalOperator, register_operator
from repro.qp.tuples import Tuple


@register_operator
class ControlFlowManager(PhysicalOperator):
    """Drive probes through the opgraph and pass data through unchanged.

    Params: ``reprobe_interval`` (seconds; 0/None means probe only once at
    start-up), ``probe_targets`` is wired by the executor to the opgraph's
    source operators.
    """

    op_type = "control"

    def __init__(self, spec, context) -> None:  # noqa: ANN001
        super().__init__(spec, context)
        self.reprobe_interval: Optional[float] = self.param("reprobe_interval")
        self.probes_issued = 0
        self._children: List[PhysicalOperator] = []

    def register_child(self, child: PhysicalOperator) -> None:
        """The executor wires every operator below this one for probing."""
        self._children.append(child)

    def start(self) -> None:
        self._probe_children()
        if self.reprobe_interval:
            self.arm_timer(self.reprobe_interval, self._reprobe)

    def stop(self) -> None:
        super().stop()
        # The sources push up to this operator: holding them past the last
        # probe would tie the whole opgraph into a reference cycle.
        self._children.clear()

    def _reprobe(self, _data: object) -> None:
        if self._stopped:
            return
        self._probe_children()
        if self.reprobe_interval:
            self.arm_timer(self.reprobe_interval, self._reprobe)

    def _probe_children(self) -> None:
        self.probes_issued += 1
        tag = f"{DEFAULT_PROBE_TAG}-{self.probes_issued}"
        for child in self._children:
            child.probe(tag)

    def on_batch(self, batch: List[Tuple], slot: int, tag: str) -> None:
        self.emit(batch, tag)
