"""EXPLAIN ANALYZE: the planner's explain tree annotated with actuals.

For :data:`~repro.qp.executor.FINISHED_RETENTION` seconds after a query
runs, every node still holds its :class:`InstalledGraph` book-keeping
(teardown stops the operators; the install record is dropped one retention
later), so the actual per-operator counters — tuples in/out/dropped,
exchange messages and bytes shipped — can be swept deployment-wide *post
hoc* in both simulation and physical modes.  Past the retention the sweep
finds nothing, and ``PIERNetwork.explain_analyze`` says so.  :func:`collect_actuals` merges them
per operator id; :func:`render_explain_analyze` feeds the merged dict into
:func:`repro.sql.explain.render_explain`, which prints each operator's
actuals next to its line and each join edge's actual output rows next to
the planner's cardinality estimate (the estimation error made visible).

Per-operator *busy time* comes from the tracer's operator activities (the
[first, last] touch window per operator per node), so it is virtual
seconds under the simulator and wall seconds under the physical runtime —
present only when the query ran with tracing enabled
(``network.query(sql, analyze=True)`` turns it on for you).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["collect_actuals", "join_edge_actual_rows", "render_explain_analyze"]


def collect_actuals(
    network: Any,
    query_id: str,
    trace_id: Optional[str] = None,
) -> Dict[str, Dict[str, Any]]:
    """Sweep every node's installed graphs for ``query_id`` and merge the
    per-operator counters into one dict keyed by operator id.

    Each entry carries ``rows_in`` / ``rows_out`` / ``rows_dropped``
    (summed :class:`OperatorStats`), ``messages`` / ``bytes`` (exchange and
    result-handler shipping counters, where the operator has them),
    ``nodes`` (how many nodes ran the operator), and — when the tracer saw
    the query — ``busy_seconds`` / ``timer_arms`` from the operator
    activities.
    """
    actuals: Dict[str, Dict[str, Any]] = {}
    for node in network.nodes:
        for installed in node.executor.installed_graphs():
            if installed.query_id != query_id:
                continue
            for operator_id, operator in installed.operators.items():
                entry = actuals.setdefault(
                    operator_id,
                    {
                        "op_type": operator.op_type,
                        "rows_in": 0,
                        "rows_out": 0,
                        "rows_dropped": 0,
                        "messages": 0,
                        "bytes": 0,
                        "nodes": 0,
                        "busy_seconds": 0.0,
                        "timer_arms": 0,
                    },
                )
                stats = operator.stats
                entry["rows_in"] += stats.tuples_in
                entry["rows_out"] += stats.tuples_out
                entry["rows_dropped"] += stats.tuples_dropped
                entry["messages"] += stats.messages_shipped
                entry["bytes"] += stats.bytes_shipped
                entry["nodes"] += 1
    tracer = getattr(network.environment, "tracer", None)
    if tracer is not None:
        if trace_id is None:
            trace_id = f"t-{query_id}"
        for activity in tracer.operator_activities(trace_id):
            entry = actuals.get(activity.operator_id)
            if entry is None:
                continue
            entry["busy_seconds"] += activity.busy_window()
            entry["timer_arms"] += activity.timer_arms
    return actuals


# Candidate operator ids for join edge ``index``: the multi-join builder
# names them join_{i}/fetch_join_{i}; the compact single-join plans use the
# bare names.
def join_edge_actual_rows(
    actuals: Dict[str, Dict[str, Any]], index: int
) -> Optional[Dict[str, Any]]:
    for candidate in (f"join_{index}", f"fetch_join_{index}", "join", "fetch_join"):
        entry = actuals.get(candidate)
        if entry is not None:
            return entry
    return None


def render_explain_analyze(
    plan: Any, actuals: Dict[str, Dict[str, Any]]
) -> str:
    """The EXPLAIN report with per-operator / per-edge actuals woven in."""
    from repro.sql.explain import render_explain

    return render_explain(plan, actuals=actuals)
