"""Render a compiled query plan for ``EXPLAIN`` output.

:func:`render_explain` turns a :class:`~repro.qp.opgraph.QueryPlan` into a
human-readable report: the planner's strategy decisions (scan access
method, per-edge join strategy — fetch / rehash / bloom — with the reason
each was chosen and the columns the edge ships, predicate placement)
followed by every opgraph rendered
as an operator tree, sinks first, the way the tuples flow bottom-up.

The planner records its decisions in ``plan.metadata["planner"]`` (see
:mod:`repro.sql.planner`); plans built directly from the UFL builders
still render — they just have no decision section.

EXPLAIN ANALYZE: pass ``actuals`` — the per-operator-id dict produced by
:func:`repro.obs.analyze.collect_actuals` — and each operator line gains
an ``actual:`` annotation (rows, messages, bytes, busy time, node count)
while each join edge shows its actual output rows next to the planner's
cardinality estimate.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.qp.opgraph import OpGraph, OperatorSpec, QueryPlan

# Human names for the join strategies the planner chooses between.
STRATEGY_LABELS = {
    "fetch": "fetch-matches (index join against the inner table's primary DHT index)",
    "rehash": "rehash (symmetric hash join after repartitioning both sides)",
    "bloom": "bloom (Bloom-filtered rehash; the filter prunes the inner table first)",
}

# Which operator params are worth showing in the tree, per operator type.
_INTERESTING_PARAMS = (
    "namespace",
    "table",
    "columns",
    "keep",
    "key_columns",
    "left_table",
    "left_columns",
    "right_columns",
    "group_columns",
    "outer_columns",
    "inner_namespace",
    "filter_namespace",
    "aggregates",
)


def render_explain(
    plan: QueryPlan, actuals: Optional[Dict[str, Dict[str, Any]]] = None
) -> str:
    """A multi-line EXPLAIN report for one compiled plan.

    With ``actuals`` (EXPLAIN ANALYZE), operator and join-edge lines are
    annotated with what actually ran.
    """
    lines: List[str] = []
    sql = plan.metadata.get("sql")
    if sql:
        lines.append(f"EXPLAIN ANALYZE {sql}" if actuals is not None else f"EXPLAIN {sql}")
    decisions: Mapping[str, Any] = plan.metadata.get("planner") or {}
    kind = decisions.get("kind", "ufl")
    lines.append(
        f"plan {plan.query_id}: {kind} over {len(plan.opgraphs)} opgraph(s), "
        f"timeout {plan.timeout:g}s"
    )
    lines.extend(_render_decisions(plan, decisions, actuals))
    cq = plan.metadata.get("cq")
    if cq:
        window = cq.get("window")
        lines.append(
            f"continuous query: {cq.get('kind', 'windowed')} window "
            f"({'landmark' if window is None else f'{window:g}s'}, "
            f"slide {cq.get('slide', 0):g}s, lifetime {cq.get('lifetime', 0):g}s, "
            f"epoch grace {cq.get('grace', 0):g}s); result epochs are emitted "
            f"at each window close"
        )
        sharing = plan.metadata.get("sharing")
        if sharing:
            lines.append(
                f"sharing: fingerprint {sharing.get('fingerprint') or 'none'}; "
                f"{sharing.get('decision')}; "
                f"current subscribers: {sharing.get('subscribers', 0)}"
            )
    clauses = _render_result_clauses(plan.metadata)
    if clauses:
        lines.append(clauses)
    for graph in plan.opgraphs:
        lines.extend(_render_graph(graph, actuals))
    return "\n".join(lines)


def _render_decisions(
    plan: QueryPlan,
    decisions: Mapping[str, Any],
    actuals: Optional[Dict[str, Dict[str, Any]]] = None,
) -> List[str]:
    lines: List[str] = []
    detail = decisions.get("detail")
    if detail:
        lines.append(f"strategy: {detail}")
    joins = decisions.get("joins") or []
    if joins:
        lines.append("join strategy (left-deep, in execution order):")
        for index, edge in enumerate(joins, start=1):
            label = STRATEGY_LABELS.get(edge["strategy"], edge["strategy"])
            lines.append(
                f"  {index}. JOIN {edge['table']} "
                f"ON {edge['left_column']} = {edge['right_column']}  ->  {label}"
            )
            reason = edge.get("reason")
            if reason:
                lines.append(f"     because {reason}")
            lines.append(f"     ships: {_edge_ships(plan, index - 1)}")
            estimate_line = _render_edge_estimate(edge, index - 1, actuals)
            if estimate_line:
                lines.append(estimate_line)
        if decisions.get("reordered"):
            lines.append("  (joins reordered by estimated cost, cheapest edge first)")
    pushdown = decisions.get("predicate_pushdown")
    if pushdown is not None:
        lines.append(
            "WHERE: pushed below the first join (references base-table columns only)"
            if pushdown
            else "WHERE: applied after the final join"
        )
    return lines


def _edge_ships(plan: QueryPlan, edge_index: int) -> str:
    """The columns join edge ``edge_index`` (0-based) carries, read off
    the operator that narrows its left stream; ``*`` when that operator
    has no keep list and whole rows travel."""
    for graph in plan.opgraphs:
        for candidate in (
            f"extend_left_{edge_index}",
            f"prune_outer_{edge_index}",
            "extend_left",
            "prune_outer",
        ):
            spec = graph.operators.get(candidate)
            if spec is not None and spec.params.get("keep") is not None:
                return ", ".join(spec.params["keep"])
    return "*"


def _render_edge_estimate(
    edge: Mapping[str, Any],
    edge_index: int,
    actuals: Optional[Dict[str, Dict[str, Any]]],
) -> str:
    """The estimate-vs-actual line for one join edge, or '' when there is
    nothing to show (no estimate and no ANALYZE actuals)."""
    estimated = edge.get("estimated_rows")
    actual_entry = _edge_actual(actuals, edge_index) if actuals is not None else None
    if estimated is None and actual_entry is None:
        return ""
    parts: List[str] = []
    if estimated is not None:
        parts.append(f"estimated {estimated} rows")
    if actual_entry is not None:
        actual_rows = actual_entry["rows_out"]
        parts.append(f"actual {actual_rows} rows")
        if estimated is not None:
            error = (estimated + 1) / (actual_rows + 1)
            if error < 1.0:
                error = 1.0 / error
            direction = "over" if estimated >= actual_rows else "under"
            parts.append(f"estimation error {error:.1f}x {direction}")
    return "     " + ", ".join(parts)


def _edge_actual(
    actuals: Dict[str, Dict[str, Any]], edge_index: int
) -> Optional[Dict[str, Any]]:
    """The merged actuals entry for join edge ``edge_index`` (0-based).

    The multi-join builder names edge operators ``join_{i}`` /
    ``fetch_join_{i}``; the compact single-join plans use the bare names.
    """
    for candidate in (
        f"join_{edge_index}",
        f"fetch_join_{edge_index}",
        "join",
        "fetch_join",
    ):
        entry = actuals.get(candidate)
        if entry is not None:
            return entry
    return None


def format_actual(entry: Mapping[str, Any]) -> str:
    """One operator's actuals, compactly: what ran, what it cost."""
    parts: List[str] = [f"rows in={entry['rows_in']} out={entry['rows_out']}"]
    if entry.get("rows_dropped"):
        parts.append(f"dropped={entry['rows_dropped']}")
    if entry.get("messages"):
        parts.append(f"messages={entry['messages']}")
    if entry.get("bytes"):
        parts.append(f"bytes={entry['bytes']}")
    if entry.get("busy_seconds"):
        parts.append(f"busy={entry['busy_seconds']:.3f}s")
    parts.append(f"nodes={entry['nodes']}")
    return "actual: " + ", ".join(parts)


def _render_result_clauses(metadata: Mapping[str, Any]) -> str:
    parts: List[str] = []
    order_by = metadata.get("sql_order_by")
    if order_by:
        column, descending = order_by
        parts.append(f"ORDER BY {column} {'DESC' if descending else 'ASC'}")
    limit = metadata.get("sql_limit")
    if limit is not None:
        parts.append(f"LIMIT {limit}")
    if not parts:
        return ""
    scope = "per-epoch result clauses: " if metadata.get("cq") else "proxy-side result clauses: "
    return scope + ", ".join(parts)


def _render_graph(
    graph: OpGraph, actuals: Optional[Dict[str, Dict[str, Any]]] = None
) -> List[str]:
    spec = graph.dissemination
    target = ""
    if spec.strategy == "equality":
        target = f" {spec.namespace}={spec.key!r}"
    lines = [f"opgraph {graph.graph_id} [dissemination={spec.strategy}{target}]"]
    rendered: set = set()
    for sink in graph.sinks():
        _render_operator(
            graph, sink, prefix="", last=True, lines=lines, rendered=rendered,
            actuals=actuals,
        )
    return lines


def _render_operator(
    graph: OpGraph,
    spec: OperatorSpec,
    prefix: str,
    last: bool,
    lines: List[str],
    rendered: set,
    actuals: Optional[Dict[str, Dict[str, Any]]] = None,
) -> None:
    connector = "`- " if last else "|- "
    lines.append(f"{prefix}{connector}{_describe(spec)}")
    if spec.operator_id in rendered:
        # A shared input (e.g. one scan feeding two consumers) is shown
        # once in full; later references just point back.
        lines[-1] += "  (see above)"
        return
    rendered.add(spec.operator_id)
    child_prefix = prefix + ("   " if last else "|  ")
    if actuals is not None:
        entry = actuals.get(spec.operator_id)
        if entry is not None:
            lines.append(f"{child_prefix}  [{format_actual(entry)}]")
    for index, input_id in enumerate(spec.inputs):
        child = graph.operators[input_id]
        _render_operator(
            graph,
            child,
            prefix=child_prefix,
            last=(index == len(spec.inputs) - 1),
            lines=lines,
            rendered=rendered,
            actuals=actuals,
        )


def _describe(spec: OperatorSpec) -> str:
    params: Dict[str, Any] = {
        key: spec.params[key] for key in _INTERESTING_PARAMS if spec.params.get(key)
    }
    if spec.params.get("predicate") not in (None, ["true"]):
        params["predicate"] = "..."
    summary = ", ".join(f"{key}={value!r}" for key, value in params.items())
    return f"{spec.operator_id}: {spec.op_type}({summary})"
