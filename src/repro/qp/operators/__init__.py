"""Physical dataflow operators (paper Section 3.3.4).

Every operator follows the non-blocking iterator model of Section 3.3.5:
the executor probes an opgraph's sources once when it starts, and data is
pushed from children to parents, a batch at a time, as it arrives.  No
operator blocks: one that must wait — for a window to close, a straggler
batch, a hierarchical hold — arms a timer and returns to the scheduler.
"""

from repro.qp.operators.base import (
    ExecutionContext,
    PhysicalOperator,
    build_operator,
    register_operator,
    registered_operator_types,
)

# Import operator modules for their registration side effects.
from repro.qp.operators import access  # noqa: F401
from repro.qp.operators import relational  # noqa: F401
from repro.qp.operators import joins  # noqa: F401
from repro.qp.operators import groupby  # noqa: F401
from repro.qp.operators import exchange  # noqa: F401
from repro.qp import hierarchical  # noqa: F401  (the hierarchical aggregate)

__all__ = [
    "ExecutionContext",
    "PhysicalOperator",
    "build_operator",
    "register_operator",
    "registered_operator_types",
]
