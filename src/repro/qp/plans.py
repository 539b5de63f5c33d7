"""Convenience builders for common UFL query plans.

These helpers assemble the opgraph shapes the paper's applications rely on:
equality-index lookups (filesharing keyword search), broadcast
selection/projection scans, flat (rehash) and hierarchical distributed
aggregation, and the distributed join strategies compared in the join
ablation (symmetric hash rehash join, Fetch Matches index join, Bloom join,
and semi-join).  The Bloom join and the semi-join are the paper's rewrites
(Section 3.3.4), plan shapes built from existing operators: the Bloom join
is a ``"bloom"`` :class:`JoinStep` of :func:`multi_join_plan`, and the
semi-join (:func:`semi_join_plan`) joins through a secondary index.
Applications and examples can of course build opgraphs by hand; these
builders just capture the recurring patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.qp.expressions import column_references
from repro.qp.opgraph import DisseminationSpec, OpGraph, QueryPlan


def _add_scan(graph: OpGraph, operator_id: str, table: str, source: str) -> str:
    """Add ``table``'s access method: ``local_table`` for per-node data,
    otherwise a scan of the DHT namespace it was published into."""
    if source == "local_table":
        graph.add_operator(operator_id, "local_table", {"table": table})
    else:
        graph.add_operator(operator_id, "dht_scan", {"namespace": table})
    return operator_id


def _add_results(graph: OpGraph, upstream: str, columns: Optional[Sequence[str]]) -> None:
    """End a plan: project to the select list, if one was given (a row
    without one of its columns is dropped), and ship rows to the proxy."""
    if columns:
        graph.add_operator("project", "projection", {"columns": list(columns)}, inputs=[upstream])
        upstream = "project"
    graph.add_operator("results", "result_handler", {"batch": 16}, inputs=[upstream])


def _keep_list(
    columns: Optional[Sequence[str]], predicate: Any, join_columns: Iterable[str]
) -> Optional[List[str]]:
    """What a join stage must carry for the rest of the plan: the select
    list, what a predicate still to run reads, and the keys of the joins
    still to come — or None (carry everything) when there is no select
    list or the predicate is opaque.

    The list is lenient (projection param ``keep``) and the same for both
    sides of an edge: tuples are schema-less and column references carry
    no table qualifier, so nothing says which side has a column — each
    side keeps the listed columns it has.
    """
    if not columns or callable(predicate):
        return None
    return list(dict.fromkeys([*columns, *column_references(predicate), *join_columns]))


def _add_prune(graph: OpGraph, operator_id: str, keep: Optional[List[str]], upstream: str) -> str:
    """Narrow a stream to ``keep`` ahead of a Fetch Matches probe, whose
    joined rows would otherwise repeat every outer column."""
    if keep is None:
        return upstream
    graph.add_operator(operator_id, "projection", {"keep": keep}, inputs=[upstream])
    return operator_id


def equality_lookup_plan(
    namespace: str,
    key: Any,
    timeout: float = 10.0,
    predicate: Optional[Any] = None,
    columns: Optional[List[str]] = None,
) -> QueryPlan:
    """Fetch all tuples published under one partitioning-key value.

    The opgraph is disseminated only to the node responsible for the key
    (equality-predicate index), where a ``dht_scan`` reads the matching
    partition locally.
    """
    plan = QueryPlan(timeout=timeout)
    graph = plan.new_graph(
        dissemination=DisseminationSpec(strategy="equality", namespace=namespace, key=key)
    )
    graph.add_operator("scan", "dht_scan", {"namespace": namespace})
    upstream = "scan"
    graph.add_operator(
        "filter_key",
        "selection",
        {"predicate": predicate if predicate is not None else ["true"]},
        inputs=[upstream],
    )
    upstream = "filter_key"
    if columns:
        graph.add_operator("project", "projection", {"columns": columns}, inputs=[upstream])
        upstream = "project"
    graph.add_operator("results", "result_handler", {}, inputs=[upstream])
    return plan


def broadcast_scan_plan(
    table: str,
    source: str = "local_table",
    predicate: Optional[Any] = None,
    columns: Optional[List[str]] = None,
    timeout: float = 15.0,
) -> QueryPlan:
    """SELECT [columns] FROM table WHERE predicate, over every node's data.

    ``source`` selects the access method: ``local_table`` for per-node data
    (monitoring logs) or ``dht_scan`` for a table published into the DHT.
    """
    plan = QueryPlan(timeout=timeout)
    graph = plan.new_graph(dissemination=DisseminationSpec(strategy="broadcast"))
    upstream = _add_scan(graph, "scan", table, source)
    if predicate is not None:
        graph.add_operator("select", "selection", {"predicate": predicate}, inputs=[upstream])
        upstream = "select"
    _add_results(graph, upstream, columns)
    return plan


def flat_aggregation_plan(
    table: str,
    group_columns: List[str],
    aggregates: List[Any],
    source: str = "local_table",
    predicate: Optional[Any] = None,
    timeout: float = 20.0,
    output_table: str = "aggregate",
    rendezvous: str = "agg_rehash",
    window_spec: Optional[Dict[str, Any]] = None,
    emit_states: bool = False,
) -> QueryPlan:
    """Two-opgraph multi-phase aggregation via a rehash exchange.

    Opgraph 0 (broadcast): scan -> [select] -> partial aggregate -> put
    (partitioned by group key).  Opgraph 1 (broadcast): dht_scan of the
    rendezvous namespace -> merge aggregate -> result handler.  Each group's
    partials all land on the node owning that group key, which produces the
    final row for the group.

    ``window_spec`` (see :class:`repro.cq.windows.WindowSpec`) turns the
    plan into a standing windowed aggregate: the partial step ships
    epoch-stamped window partials at each pane close and the merge step
    emits one result set per epoch at its watermark.
    """
    plan = QueryPlan(timeout=timeout)
    producer = plan.new_graph(dissemination=DisseminationSpec(strategy="broadcast"))
    upstream = _add_scan(producer, "scan", table, source)
    if predicate is not None:
        producer.add_operator("select", "selection", {"predicate": predicate}, inputs=[upstream])
        upstream = "select"
    partial_params: Dict[str, Any] = {
        "group_columns": group_columns,
        "aggregates": aggregates,
        "output_table": output_table,
    }
    if window_spec is not None:
        partial_params["window_spec"] = dict(window_spec)
    else:
        partial_params["window"] = max(timeout / 4.0, 1.0)
    producer.add_operator("partial", "partial_aggregate", partial_params, inputs=[upstream])
    producer.add_operator(
        "rehash",
        "put",
        {"namespace": rendezvous, "key_columns": group_columns or ["__group_key__"]},
        inputs=["partial"],
    )
    consumer = plan.new_graph(dissemination=DisseminationSpec(strategy="broadcast"))
    consumer.add_operator(
        "scan_partials", "dht_scan", {"namespace": rendezvous, "scoped": True}
    )
    merge_params: Dict[str, Any] = {
        "group_columns": group_columns,
        "aggregates": aggregates,
        "output_table": output_table,
    }
    if window_spec is not None:
        merge_params["window_spec"] = dict(window_spec)
    if emit_states:
        # Shared plans (repro.cq.sharing): merge sites emit mergeable
        # partial-state rows per epoch instead of final values.
        merge_params["emit_states"] = True
    consumer.add_operator("merge", "merge_aggregate", merge_params, inputs=["scan_partials"])
    consumer.add_operator("results", "result_handler", {"batch": 16}, inputs=["merge"])
    return plan


def hierarchical_aggregation_plan(
    table: str,
    group_columns: List[str],
    aggregates: List[Any],
    source: str = "local_table",
    predicate: Optional[Any] = None,
    timeout: float = 20.0,
    output_table: str = "aggregate",
    local_wait: float = 2.0,
    hold: float = 1.0,
    window_spec: Optional[Dict[str, Any]] = None,
    emit_states: bool = False,
) -> QueryPlan:
    """Single-opgraph aggregation over the in-network aggregation tree.

    With ``window_spec`` each node ships epoch-stamped window partials up
    the tree at every pane close and the root emits one result set per
    epoch at its watermark (which must cover ``hold`` plus routing time).
    """
    plan = QueryPlan(timeout=timeout)
    graph = plan.new_graph(dissemination=DisseminationSpec(strategy="broadcast"))
    upstream = _add_scan(graph, "scan", table, source)
    if predicate is not None:
        graph.add_operator("select", "selection", {"predicate": predicate}, inputs=[upstream])
        upstream = "select"
    agg_params: Dict[str, Any] = {
        "group_columns": group_columns,
        "aggregates": aggregates,
        "output_table": output_table,
        "local_wait": local_wait,
        "hold": hold,
    }
    if window_spec is not None:
        agg_params["window_spec"] = dict(window_spec)
    if emit_states:
        agg_params["emit_states"] = True
    graph.add_operator("hier_agg", "hierarchical_aggregate", agg_params, inputs=[upstream])
    graph.add_operator("results", "result_handler", {"batch": 16}, inputs=["hier_agg"])
    return plan


def symmetric_hash_join_plan(
    left_table: str,
    right_table: str,
    left_columns: List[str],
    right_columns: List[str],
    source: str = "dht_scan",
    timeout: float = 20.0,
    output_table: Optional[str] = None,
    rendezvous: str = "join_rehash",
    predicate: Optional[Any] = None,
    columns: Optional[Sequence[str]] = None,
) -> QueryPlan:
    """Distributed equi-join by rehashing both inputs on the join key.

    Opgraph 0 (broadcast) republishes both tables into a query-scoped
    rendezvous namespace partitioned on the join key; opgraph 1 (broadcast)
    scans the rendezvous partition at each node and runs a symmetric hash
    join locally, shipping results to the proxy.

    ``columns`` is the select list: only those columns, the join keys and
    what ``predicate`` reads are rehashed, and result rows carry exactly
    ``columns``.  Without it every column of both inputs travels.
    """
    plan = QueryPlan(timeout=timeout)
    producer = plan.new_graph(dissemination=DisseminationSpec(strategy="broadcast"))
    _add_scan(producer, "scan_left", left_table, source)
    _add_scan(producer, "scan_right", right_table, source)
    keep = _keep_list(columns, predicate, [*left_columns, *right_columns])
    consumer = _add_rehash_join(
        plan,
        producer,
        "",
        rendezvous,
        ("scan_left", "scan_right"),
        (left_columns, right_columns),
        keep,
        output_table or f"{left_table}*{right_table}",
    )
    upstream = "join"
    if predicate is not None:
        # The residual WHERE predicate runs over the joined tuple, which
        # carries both inputs' columns, so it is correct regardless of which
        # side the predicate references.
        consumer.add_operator(
            "filter_where", "selection", {"predicate": predicate}, inputs=[upstream]
        )
        upstream = "filter_where"
    _add_results(consumer, upstream, columns)
    return plan


def _add_rehash_join(
    plan: QueryPlan,
    producer: OpGraph,
    suffix: str,
    rendezvous: str,
    streams: Sequence[str],
    key_columns: Sequence[Sequence[str]],
    keep: Optional[List[str]],
    output_table: str,
) -> OpGraph:
    """One rehash-join edge between the ``(left, right)`` ``streams`` of
    ``producer``, joined on their ``(left, right)`` ``key_columns``;
    returns the new opgraph that consumes it.

    The producing half narrows both streams to ``keep`` (every column when
    None) and republishes them into the rendezvous namespace through one
    ``put`` (operator ``rehash``), each partitioned on its own key columns.
    A rehashed row carries its data, not its routing: the key is the
    ``put``'s partitioning key, and the side is the row's table name —
    left rows are retagged with a name private to the edge, so the right
    table may be called anything, the left table's name too (a self-join).
    Both sides share the exchange, so a few dimension rows leave in the
    fact rows' full buckets instead of waiting for the straggler timer.

    The consuming half scans the rendezvous partition at each node and
    symmetric-hash joins what arrives (operator ``join``), telling the
    sides apart by the tag.  Joined rows are named ``output_table``, so
    the tag goes no further.
    """
    left, right = streams
    left_columns, right_columns = (list(columns) for columns in key_columns)
    left_tag = f"__left{suffix}__"
    producer.add_operator(
        f"extend_left{suffix}",
        "projection",
        {**({"keep_all": True} if keep is None else {"keep": keep}), "table": left_tag},
        inputs=[left],
    )
    right = _add_prune(producer, f"extend_inner{suffix}" if suffix else "extend_right", keep, right)
    producer.add_operator(
        f"rehash{suffix}",
        "put",
        {"namespace": rendezvous, "key_columns": [left_columns, right_columns]},
        inputs=[f"extend_left{suffix}", right],
    )
    consumer = plan.new_graph(dissemination=DisseminationSpec(strategy="broadcast"))
    consumer.add_operator(
        f"scan_rehash{suffix}", "dht_scan", {"namespace": rendezvous, "scoped": True}
    )
    consumer.add_operator(
        f"join{suffix}",
        "symmetric_hash_join",
        {
            "left_columns": left_columns,
            "right_columns": right_columns,
            "left_table": left_tag,
            "output_table": output_table,
        },
        inputs=[f"scan_rehash{suffix}"],
    )
    return consumer


def fetch_matches_join_plan(
    outer_table: str,
    inner_namespace: str,
    outer_columns: List[str],
    source: str = "dht_scan",
    outer_predicate: Optional[Any] = None,
    timeout: float = 20.0,
    output_table: Optional[str] = None,
    columns: Optional[Sequence[str]] = None,
) -> QueryPlan:
    """Distributed index join: probe the inner table's primary DHT index for
    each (filtered) outer tuple.  With ``columns`` (the select list) the
    outer rows are narrowed to it and the join key before the probe, and
    result rows carry exactly ``columns``; the fetched inner rows still
    arrive whole."""
    plan = QueryPlan(timeout=timeout)
    graph = plan.new_graph(dissemination=DisseminationSpec(strategy="broadcast"))
    upstream = _add_scan(graph, "scan_outer", outer_table, source)
    if outer_predicate is not None:
        graph.add_operator(
            "select_outer", "selection", {"predicate": outer_predicate}, inputs=[upstream]
        )
        upstream = "select_outer"
    upstream = _add_prune(graph, "prune_outer", _keep_list(columns, None, outer_columns), upstream)
    graph.add_operator(
        "fetch_join",
        "fetch_matches_join",
        {
            "outer_columns": outer_columns,
            "inner_namespace": inner_namespace,
            "output_table": output_table,
        },
        inputs=[upstream],
    )
    _add_results(graph, "fetch_join", columns)
    return plan


def semi_join_plan(
    outer_table: str,
    index_namespace: str,
    inner_namespace: str,
    outer_columns: List[str],
    source: str = "dht_scan",
    outer_predicate: Optional[Any] = None,
    timeout: float = 25.0,
    output_table: Optional[str] = None,
    columns: Optional[Sequence[str]] = None,
) -> QueryPlan:
    """Semi-join through a secondary index (paper Section 3.3.3).

    The secondary index (``index_namespace``) maps index keys to the base
    table's partitioning keys.  The outer relation is first Fetch-Matches
    joined against the index (shipping only keys), and the surviving
    pointers are dereferenced against ``inner_namespace`` with a second
    Fetch Matches join — "a distributed index join over a secondary index".
    ``columns`` (the select list) narrows the rows ahead of each probe
    and the result rows, as in
    :func:`~repro.qp.plans.fetch_matches_join_plan`.
    """
    plan = QueryPlan(timeout=timeout)
    graph = plan.new_graph(dissemination=DisseminationSpec(strategy="broadcast"))
    upstream = _add_scan(graph, "scan_outer", outer_table, source)
    if outer_predicate is not None:
        graph.add_operator(
            "select_outer", "selection", {"predicate": outer_predicate}, inputs=[upstream]
        )
        upstream = "select_outer"
    upstream = _add_prune(
        graph, "prune_outer", _keep_list(columns, None, [*outer_columns, "base_key"]), upstream
    )
    graph.add_operator(
        "index_probe",
        "fetch_matches_join",
        {"outer_columns": outer_columns, "inner_namespace": index_namespace},
        inputs=[upstream],
    )
    upstream = _add_prune(
        graph, "prune_pointers", _keep_list(columns, None, ["base_key"]), "index_probe"
    )
    graph.add_operator(
        "dereference",
        "fetch_matches_join",
        {
            "outer_columns": ["base_key"],
            "inner_namespace": inner_namespace,
            "output_table": output_table,
        },
        inputs=[upstream],
    )
    _add_results(graph, "dereference", columns)
    return plan


@dataclass(frozen=True)
class JoinStep:
    """One edge of a left-deep multi-join plan.

    ``left_column`` belongs to the accumulated left side (the base table or
    a previous join's output); ``right_column`` to the ``table`` being
    joined in.  ``strategy`` selects the data-movement algorithm:

    * ``"rehash"`` — symmetric hash join after rehashing both sides into a
      query-scoped rendezvous namespace;
    * ``"fetch"``  — Fetch Matches index join against the table's primary
      DHT index (no exchange needed);
    * ``"bloom"``  — rehash preceded by a Bloom-filter round that prunes
      the inner table's tuples (first edge only, where the left side is a
      base table whose keys a filter can summarise up front).
    """

    table: str
    left_column: str
    right_column: str
    strategy: str = "rehash"
    source: str = "dht_scan"

    def __post_init__(self) -> None:
        if self.strategy not in {"rehash", "fetch", "bloom"}:
            raise ValueError(f"unknown join strategy {self.strategy!r}")


def multi_join_plan(
    base_table: str,
    steps: Sequence[JoinStep],
    base_source: str = "dht_scan",
    predicate: Optional[Any] = None,
    predicate_pushdown: bool = False,
    timeout: float = 25.0,
    output_table: Optional[str] = None,
    rendezvous_prefix: str = "join_rehash",
    columns: Optional[Sequence[str]] = None,
) -> QueryPlan:
    """A left-deep multi-join pipeline over any number of join edges.

    Each ``rehash``/``bloom`` edge contributes an exchange: the current
    left-side stream and the inner table are republished into a
    query-scoped rendezvous namespace partitioned on the join key, and a
    new consumer opgraph joins them there.  ``fetch`` edges stay inside the
    current opgraph — each left tuple probes the inner table's primary DHT
    index directly.  Edges pipeline: a tuple can flow through every stage
    without waiting for any input to complete.

    ``predicate`` is the residual WHERE clause.  With
    ``predicate_pushdown`` it filters the base-table scan (valid only when
    it references base-table columns — the planner checks that against its
    statistics catalog); otherwise it runs over the final joined tuples.

    ``columns`` is the select list.  Stage *i* then carries only what
    the rest of the plan reads — ``columns``, the columns of a predicate
    that was not pushed down, and the join keys of edges *i* onwards —
    and result rows carry exactly ``columns``.  Without it every column
    of every input travels through every exchange.
    """
    if not steps:
        raise ValueError("multi_join_plan requires at least one join step")
    residual = None if predicate_pushdown else predicate
    plan = QueryPlan(timeout=timeout)
    graph = plan.new_graph(dissemination=DisseminationSpec(strategy="broadcast"))
    stream = _add_scan(graph, "scan_base", base_table, base_source)
    if predicate is not None and predicate_pushdown:
        graph.add_operator("filter_base", "selection", {"predicate": predicate}, inputs=[stream])
        stream = "filter_base"
    last = len(steps) - 1
    for index, step in enumerate(steps):
        step_output = output_table if index == last else None
        keep = _keep_list(
            columns,
            residual,
            [column for later in steps[index:] for column in (later.left_column, later.right_column)],
        )
        if step.strategy == "fetch":
            # What follows (the next edge's keep list, or the final
            # projection) narrows the joined rows again.
            stream = _add_prune(graph, f"prune_outer_{index}", keep, stream)
            graph.add_operator(
                f"fetch_join_{index}",
                "fetch_matches_join",
                {
                    "outer_columns": [step.left_column],
                    "inner_namespace": step.table,
                    "output_table": step_output,
                },
                inputs=[stream],
            )
            stream = f"fetch_join_{index}"
            continue
        if step.strategy == "bloom":
            if index != 0:
                raise ValueError("bloom strategy is only supported on the first join edge")
            build = plan.new_graph(dissemination=DisseminationSpec(strategy="broadcast"))
            _add_scan(build, "scan_build", base_table, base_source)
            build.add_operator(
                "bloom",
                "bloom_build",
                {"columns": [step.left_column], "filter_namespace": f"bloom_{index}"},
                inputs=["scan_build"],
            )
        inner_stream = _add_scan(graph, f"scan_inner_{index}", step.table, step.source)
        if step.strategy == "bloom":
            graph.add_operator(
                f"probe_inner_{index}",
                "bloom_probe",
                {"columns": [step.right_column], "filter_namespace": f"bloom_{index}"},
                inputs=[inner_stream],
            )
            inner_stream = f"probe_inner_{index}"
        # Unless told otherwise the joined rows are named as their inputs'
        # own table names would spell, had the left rows not been retagged.
        joined = "*".join([base_table, *(earlier.table for earlier in steps[: index + 1])])
        graph = _add_rehash_join(
            plan,
            graph,
            f"_{index}",
            f"{rendezvous_prefix}_{index}",
            (stream, inner_stream),
            ([step.left_column], [step.right_column]),
            keep,
            step_output or joined,
        )
        stream = f"join_{index}"
    if predicate is not None and not predicate_pushdown:
        graph.add_operator("filter_where", "selection", {"predicate": predicate}, inputs=[stream])
        stream = "filter_where"
    _add_results(graph, stream, columns)
    return plan
