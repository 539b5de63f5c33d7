"""The SQL optimizer (paper Section 4.2, grown a statistics-aware stage).

The planner compiles a parsed :class:`SelectStatement` into a UFL query
plan.  The paper's planner is intentionally naive — no cost model, no join
reordering, no statistics (there is nowhere to keep them).  This planner
reads the deployment's :class:`~repro.catalog.Catalog`: placement from its
table descriptors and cost estimates from its
:class:`~repro.qp.stats.Statistics` (maintained by ``PIERNetwork.publish``
and the local-table calls), so publisher and planner can never disagree.
With statistics it is cost-aware:

* multiple ``JOIN`` clauses compile into a left-deep multi-join pipeline,
  greedily ordered so cheaper (smaller estimated) joins run first;
* each join edge independently picks its data-movement strategy —
  Fetch-Matches when the inner table's primary DHT index is partitioned on
  the join key, a Bloom-filtered rehash when the left side's key set is
  estimated to prune most of the inner table, and a plain rehash
  symmetric-hash join otherwise;
* the WHERE predicate is pushed below the first join when the catalog can
  prove it only references base-table columns, and otherwise runs over the
  joined tuples (the naive planner used to drop it on the rehash path).

A table the statistics have not seen keeps the naive rules: the written
join order and a plain rehash.  What survives from the naive planner
regardless: an equality predicate on a table's partitioning key becomes an
equality-dissemination lookup, and GROUP BY / aggregate queries become
multi-phase aggregation (flat rehash by default, hierarchical when the
application asks for it).

Every compiled plan records the planner's choices — scan access method,
per-edge join strategy with its reason, predicate placement — in
``plan.metadata["planner"]``, which :func:`repro.sql.explain.render_explain`
renders for ``EXPLAIN`` output.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.catalog import Catalog, TableDescriptor
from repro.cq.windows import CQ_METADATA_KEY, DEFAULT_LANDMARK_SLIDE, WindowSpec
from repro.qp.opgraph import QueryPlan
from repro.qp.plans import (
    JoinStep,
    broadcast_scan_plan,
    equality_lookup_plan,
    fetch_matches_join_plan,
    flat_aggregation_plan,
    hierarchical_aggregation_plan,
    multi_join_plan,
    symmetric_hash_join_plan,
)
from repro.qp.expressions import column_references
from repro.sql.parser import JoinClause, SelectStatement, parse_sql

# A Bloom round only pays off when the filter is expected to prune at least
# this fraction of the inner relation's tuples.
BLOOM_PRUNE_THRESHOLD = 0.5

# Standing-query lifetime when the statement gives neither LIFETIME nor
# TIMEOUT.
DEFAULT_CQ_LIFETIME = 60.0

# How long after an epoch's end the merge site waits for partials before
# emitting the epoch.  Flat aggregation partials make one exchange hop;
# hierarchical partials are held once at the origin (``hold``) and then
# routed over several overlay hops, so they get more slack.
FLAT_EPOCH_GRACE = 1.5
HIERARCHICAL_EPOCH_GRACE = 3.0


class PlanningError(ValueError):
    """Raised when a statement cannot be compiled with the available metadata."""


class NaivePlanner:
    """Compile SQL text (or parsed statements) into UFL query plans against
    a :class:`~repro.catalog.Catalog`, using its statistics for join
    ordering, per-edge strategy selection, and predicate pushdown."""

    def __init__(
        self,
        catalog: Catalog,
        default_timeout: float = 20.0,
        aggregation_strategy: str = "flat",
    ) -> None:
        self.catalog = catalog
        self.statistics = catalog.statistics
        self.default_timeout = default_timeout
        if aggregation_strategy not in {"flat", "hierarchical"}:
            raise ValueError("aggregation_strategy must be 'flat' or 'hierarchical'")
        self.aggregation_strategy = aggregation_strategy

    # -- metadata ---------------------------------------------------------- #
    def _info(self, table: str) -> TableDescriptor:
        descriptor = self.catalog.describe(table)
        if descriptor is None:
            # An unknown name is almost certainly a typo; a silent local
            # broadcast scan would return an empty result that looks like
            # success.
            raise PlanningError(
                f"unknown table {table!r}: not in the deployment catalog "
                f"(declare it with create_table())"
            )
        return descriptor

    # -- entry points --------------------------------------------------------- #
    def plan_sql(self, text: str) -> QueryPlan:
        plan = self.plan(parse_sql(text))
        plan.metadata["sql"] = text
        return plan

    def plan(self, statement: SelectStatement) -> QueryPlan:
        timeout = statement.timeout or self.default_timeout
        window_spec = self._window_spec(statement)
        if window_spec is not None:
            # The window lifetime is the standing query's execution time:
            # every node runs the opgraphs until it expires.
            timeout = window_spec.lifetime
        if statement.joins:
            plan = self._plan_join(statement, timeout)
        elif statement.has_aggregates or statement.group_by:
            plan = self._plan_aggregate(statement, timeout, window_spec)
        else:
            plan = self._plan_scan(statement, timeout)
        if window_spec is not None:
            plan.metadata[CQ_METADATA_KEY] = window_spec.to_metadata()
        plan.metadata.update(
            {
                "sql_limit": statement.limit,
                "sql_order_by": statement.order_by,
                "sql_select": [item.output_name for item in statement.select_items],
            }
        )
        plan.metadata.setdefault("planner", {}).update(
            {
                "base_table": statement.table,
                "timeout": timeout,
            }
        )
        return plan

    # -- scans -------------------------------------------------------------------#
    def _plan_scan(self, statement: SelectStatement, timeout: float) -> QueryPlan:
        info = self._info(statement.table)
        columns, projection = self._select_projection(statement)
        equality = self._partitioning_equality(statement.where, info)
        if info.source == "dht" and equality is not None:
            plan = equality_lookup_plan(
                statement.table,
                equality,
                timeout=timeout,
                predicate=statement.where,
                columns=columns,
            )
            plan.metadata["planner"] = {
                "kind": "equality-lookup",
                "source": "dht",
                "detail": (
                    f"equality on partitioning key {info.partitioning[0]!r} = {equality!r} "
                    f"disseminates to one partition"
                ),
            }
            return self._with_projection(plan, columns, projection)
        plan = broadcast_scan_plan(
            statement.table,
            source="local_table" if info.source == "local" else "dht_scan",
            predicate=statement.where,
            columns=columns,
            timeout=timeout,
        )
        plan.metadata["planner"] = {
            "kind": "broadcast-scan",
            "source": info.source,
            "detail": f"broadcast scan of {info.source} table {statement.table!r}",
        }
        return self._with_projection(plan, columns, projection)

    # -- continuous queries -----------------------------------------------------------#
    def _window_spec(self, statement: SelectStatement) -> Optional[WindowSpec]:
        """Validate the statement's window clause and build the shared spec."""
        clause = statement.window
        if clause is None:
            return None
        if statement.joins:
            raise PlanningError(
                "window clauses are not supported on join queries; "
                "aggregate a single table instead"
            )
        if not (statement.has_aggregates or statement.group_by):
            raise PlanningError(
                "a window clause requires aggregation (GROUP BY / aggregate "
                "functions): windowed plain scans are just streams — use "
                "stream(sql) without a WINDOW clause"
            )
        if clause.landmark:
            slide = clause.slide if clause.slide is not None else DEFAULT_LANDMARK_SLIDE
        else:
            slide = clause.slide if clause.slide is not None else clause.window
        lifetime = clause.lifetime or statement.timeout or DEFAULT_CQ_LIFETIME
        grace = (
            HIERARCHICAL_EPOCH_GRACE
            if self.aggregation_strategy == "hierarchical"
            else FLAT_EPOCH_GRACE
        )
        return WindowSpec(
            window=clause.window,
            slide=slide,
            lifetime=lifetime,
            grace=grace,
            group_columns=list(statement.group_by),
        )

    # -- aggregation -----------------------------------------------------------------#
    def _plan_aggregate(
        self,
        statement: SelectStatement,
        timeout: float,
        window_spec: Optional[WindowSpec] = None,
    ) -> QueryPlan:
        info = self._info(statement.table)
        aggregates = []
        for item in statement.select_items:
            if not item.aggregate:
                continue
            column = None if item.expression == "*" else item.expression
            aggregates.append((item.aggregate, column, item.output_name))
        if not aggregates:
            raise PlanningError("GROUP BY requires at least one aggregate in the select list")
        builder = (
            hierarchical_aggregation_plan
            if self.aggregation_strategy == "hierarchical"
            else flat_aggregation_plan
        )
        builder_opts: Dict[str, Any] = {}
        if window_spec is not None:
            builder_opts["window_spec"] = window_spec.to_metadata()
            if builder is hierarchical_aggregation_plan:
                # Partials are held-and-combined at every tree hop; the
                # per-hop hold must be small enough that a multi-hop path
                # still beats the root's epoch watermark (the grace).
                builder_opts["hold"] = 0.25
        plan = builder(
            statement.table,
            group_columns=statement.group_by,
            aggregates=aggregates,
            source="local_table" if info.source == "local" else "dht_scan",
            predicate=statement.where,
            timeout=timeout,
            **builder_opts,
        )
        detail = (
            "hierarchical in-network aggregation over the aggregation tree"
            if self.aggregation_strategy == "hierarchical"
            else "flat multi-phase aggregation (rehash on the group key)"
        )
        if window_spec is not None:
            detail = (
                f"continuous {window_spec.kind} window "
                f"({'landmark' if window_spec.landmark else f'{window_spec.window:g}s'}"
                f", slide {window_spec.slide:g}s, lifetime {window_spec.lifetime:g}s) "
                f"over " + detail
            )
        plan.metadata["planner"] = {
            "kind": "aggregation",
            "source": info.source,
            "aggregation_strategy": self.aggregation_strategy,
            "detail": detail,
        }
        return plan

    # -- joins -----------------------------------------------------------------------#
    def _plan_join(self, statement: SelectStatement, timeout: float) -> QueryPlan:
        if statement.has_aggregates or statement.group_by:
            raise PlanningError("joins combined with aggregation are not supported by this planner")
        joins = self._order_joins(statement.table, statement.joins)
        outer_info = self._info(statement.table)
        base_source = "local_table" if outer_info.source == "local" else "dht_scan"

        edges: List[Tuple[JoinClause, TableDescriptor, str, str]] = []
        for index, join in enumerate(joins):
            inner_info = self._info(join.table)
            strategy, reason = self._edge_strategy(
                statement.table, join, inner_info, first_edge=(index == 0)
            )
            edges.append((join, inner_info, strategy, reason))
        pushdown = self._can_push_down(statement.table, statement.where)
        estimates = self._estimate_join_progression(statement.table, joins)
        columns, projection = self._select_projection(
            statement, self._star_columns(statement.table, joins)
        )
        decisions = {
            "kind": "join",
            "source": outer_info.source,
            "join_order": [join.table for join, _info, _strategy, _reason in edges],
            "reordered": [join.table for join in joins] != [join.table for join in statement.joins],
            "joins": [
                {
                    "table": join.table,
                    "left_column": join.left_column,
                    "right_column": join.right_column,
                    "strategy": strategy,
                    "reason": reason,
                    "estimated_rows": estimated,
                }
                for (join, _info, strategy, reason), estimated in zip(edges, estimates)
            ],
            "predicate_pushdown": pushdown if statement.where is not None else None,
        }

        plan: Optional[QueryPlan] = None
        if len(joins) == 1 and statement.where is None:
            # Preserve the compact single-join plan shapes when there is no
            # residual predicate to thread through.
            plan = self._plan_single_join(statement.table, outer_info, edges[0], timeout, columns)
        if plan is None:
            steps = [
                JoinStep(
                    table=join.table,
                    left_column=join.left_column,
                    right_column=join.right_column,
                    strategy=strategy,
                    source="local_table" if inner_info.source == "local" else "dht_scan",
                )
                for join, inner_info, strategy, _reason in edges
            ]
            plan = multi_join_plan(
                base_table=statement.table,
                steps=steps,
                base_source=base_source,
                predicate=statement.where,
                predicate_pushdown=pushdown,
                timeout=timeout,
                columns=columns,
            )
        plan.metadata["planner"] = decisions
        return self._with_projection(plan, columns, projection)

    def _plan_single_join(
        self,
        outer_table: str,
        outer_info: TableDescriptor,
        edge: Tuple[JoinClause, TableDescriptor, str, str],
        timeout: float,
        columns: Optional[List[str]],
    ) -> Optional[QueryPlan]:
        join, _inner_info, strategy, _reason = edge
        source = "local_table" if outer_info.source == "local" else "dht_scan"
        if strategy == "fetch":
            return fetch_matches_join_plan(
                outer_table=outer_table,
                inner_namespace=join.table,
                outer_columns=[join.left_column],
                source=source,
                timeout=timeout,
                columns=columns,
            )
        if strategy == "rehash":
            return symmetric_hash_join_plan(
                left_table=outer_table,
                right_table=join.table,
                left_columns=[join.left_column],
                right_columns=[join.right_column],
                source=source,
                timeout=timeout,
                columns=columns,
            )
        return None  # bloom: let the multi-join builder assemble the filter round

    # -- cost-aware decisions ------------------------------------------------------- #
    def _order_joins(self, base_table: str, joins: List[JoinClause]) -> List[JoinClause]:
        """Greedy left-deep join ordering: cheapest eligible edge first.

        A join clause is eligible once its left column is known (from the
        statistics catalog) to exist among the columns accumulated so far —
        reordering it any earlier could turn it into a cross product.
        For tables the statistics have never seen, the written order is
        preserved.
        """
        if len(joins) < 2:
            return list(joins)
        available = self.statistics.columns(base_table)
        if available is None:
            return list(joins)
        available = set(available)
        # Per-column distinct estimates for the accumulated left side; the
        # base table seeds it and each joined table contributes its columns
        # (first writer wins: a column's distribution comes from the
        # relation that introduced it).
        column_distinct: Dict[str, int] = {}
        for column in available:
            distinct = self.statistics.distinct(base_table, column)
            if distinct is not None:
                column_distinct[column] = distinct
        left_rows = self.statistics.cardinality(base_table)
        remaining = list(joins)
        ordered: List[JoinClause] = []
        while remaining:
            eligible = [join for join in remaining if join.left_column in available]
            if not eligible:
                ordered.extend(remaining)
                break
            best = min(eligible, key=lambda join: self._edge_cost(left_rows, join))
            ordered.append(best)
            remaining.remove(best)
            available.add(best.right_column)
            available.update(self.statistics.columns(best.table) or ())
            for column in self.statistics.columns(best.table) or ():
                if column not in column_distinct:
                    distinct = self.statistics.distinct(best.table, column)
                    if distinct is not None:
                        column_distinct[column] = distinct
            left_rows = self.statistics.join_cardinality(
                left_rows,
                column_distinct.get(best.left_column),
                best.table,
                best.right_column,
            )
        return ordered

    def _estimate_join_progression(
        self, base_table: str, joins: List[JoinClause]
    ) -> List[Optional[int]]:
        """Planner-estimated output cardinality after each edge of the
        (already ordered) join chain — the numbers EXPLAIN ANALYZE puts
        next to each edge's actual row count.  ``None`` per edge when the
        catalog has no statistics to estimate from.
        """
        column_distinct: Dict[str, int] = {}
        for column in self.statistics.columns(base_table) or ():
            distinct = self.statistics.distinct(base_table, column)
            if distinct is not None:
                column_distinct[column] = distinct
        left_rows = self.statistics.cardinality(base_table)
        estimates: List[Optional[int]] = []
        for join in joins:
            left_rows = self.statistics.join_cardinality(
                left_rows,
                column_distinct.get(join.left_column),
                join.table,
                join.right_column,
            )
            estimates.append(left_rows)
            for column in self.statistics.columns(join.table) or ():
                if column not in column_distinct:
                    distinct = self.statistics.distinct(join.table, column)
                    if distinct is not None:
                        column_distinct[column] = distinct
        return estimates

    def _edge_cost(self, left_rows: Optional[int], join: JoinClause) -> Tuple[int, int]:
        """Estimated tuples moved for one rehash edge (the dominant cost)."""
        inner_rows = self.statistics.cardinality(join.table)
        if inner_rows is None:
            # Unknown tables sort last among eligible candidates.
            return (1, 0)
        return (0, (left_rows or 0) + inner_rows)

    def _edge_strategy(
        self,
        left_table: str,
        join: JoinClause,
        inner_info: TableDescriptor,
        first_edge: bool,
    ) -> Tuple[str, str]:
        """Pick the data-movement strategy for one join edge, with a reason."""
        # A matching primary index makes Fetch-Matches strictly cheaper than
        # rehashing: only the outer side's probes travel.
        if inner_info.source == "dht" and inner_info.partitioning == [join.right_column]:
            return (
                "fetch",
                f"{join.table!r} primary index is partitioned on the join key "
                f"{join.right_column!r}; only outer probes travel",
            )
        if first_edge:
            left_distinct = self.statistics.distinct(left_table, join.left_column)
            inner_distinct = self.statistics.distinct(join.table, join.right_column)
            if (
                left_distinct is not None
                and inner_distinct
                and left_distinct <= BLOOM_PRUNE_THRESHOLD * inner_distinct
            ):
                return (
                    "bloom",
                    f"left keys ({left_distinct} distinct) prune most of "
                    f"{join.table!r} ({inner_distinct} distinct join values)",
                )
        return (
            "rehash",
            "no matching primary index; rehash both sides on the join key",
        )

    def _can_push_down(self, base_table: str, predicate: Any) -> bool:
        """True when the catalog proves ``predicate`` only touches base columns."""
        if predicate is None:
            return False
        known = self.statistics.columns(base_table)
        if not known:
            return False
        references = column_references(predicate)
        return bool(references) and all(column in known for column in references)

    # -- helpers ------------------------------------------------------------------------#
    def _select_projection(
        self, statement: SelectStatement, star_columns: Optional[List[str]] = None
    ) -> Tuple[Optional[List[str]], Dict[str, Any]]:
        """How the select list applies: ``(columns, params)``.

        ``columns`` are the source columns the answer is built from — what
        the plan builders take as ``columns=``; None means every column —
        and ``params`` are those of the projection that ends the plan.
        ``*`` stands for ``star_columns`` when the caller could name them;
        rows of a schema-less table need not have them all, so that list
        is kept leniently.
        """
        names = [item.expression for item in statement.select_items]
        outputs = [item.output_name for item in statement.select_items]
        if "*" in names:
            if star_columns is None:
                return None, {}
            names = outputs = list(star_columns)
            params: Dict[str, Any] = {"keep": names}
        elif names != outputs:
            params = {"computed": {out: ["col", name] for out, name in zip(outputs, names)}}
        else:
            params = {"columns": names}
        if statement.order_by and statement.order_by[0] not in outputs:
            # The proxy sorts on a column the select list does not name:
            # it rides along, leniently (rows without it sort last).
            names = names + [statement.order_by[0]]
            params = {**params, "keep": [*params.get("keep", ()), statement.order_by[0]]}
        return names, params

    def _star_columns(self, base_table: str, joins: List[JoinClause]) -> Optional[List[str]]:
        """What ``SELECT *`` over a join names, when the catalog has seen
        every joined table: base table first, then join order, names
        sorted within a table (the catalog keeps sets; plans must not
        depend on hash order).  A column a later table repeats comes out
        of the join a second time, qualified, when the two values differ
        (``Tuple.join``), so that name is listed too."""
        expanded: List[str] = []
        for table in [base_table, *[join.table for join in joins]]:
            known = self.statistics.columns(table)
            if known is None:
                return None
            for column in sorted(known):
                expanded.append(f"{table}.{column}" if column in expanded else column)
        return list(dict.fromkeys(expanded))

    @staticmethod
    def _with_projection(
        plan: QueryPlan, columns: Optional[List[str]], projection: Dict[str, Any]
    ) -> QueryPlan:
        """The builders end a plan by projecting strictly to ``columns``;
        aliases, a carried ORDER BY column and a lenient ``*`` need the
        fuller ``projection`` params in that operator's place."""
        if columns and projection != {"columns": columns}:
            operators = plan.opgraphs[-1].operators
            operators["project"] = replace(operators["project"], params=projection)
        return plan

    def _partitioning_equality(self, predicate: Any, info: TableDescriptor) -> Optional[Any]:
        """The literal an equality predicate binds the partitioning key to."""
        if predicate is None or len(info.partitioning) != 1:
            return None
        partition_column = info.partitioning[0]

        def find(node: Any) -> Optional[Any]:
            if not isinstance(node, list) or not node:
                return None
            head = node[0]
            if head == "and":
                for child in node[1:]:
                    found = find(child)
                    if found is not None:
                        return found
                return None
            if head in {"eq", "="} and len(node) == 3:
                left, right = node[1], node[2]
                if (
                    isinstance(left, list)
                    and len(left) == 2
                    and left[0] == "col"
                    and left[1] == partition_column
                    and isinstance(right, list)
                    and len(right) == 2
                    and right[0] == "lit"
                ):
                    return right[1]
            return None

        return find(predicate)


def _order_and_limit(plan_metadata: Dict[str, Any], items: Sequence[Any], get: Any) -> List[Any]:
    """Shared ORDER BY / LIMIT logic over any row representation.

    ``get(item, column)`` extracts a column value (``None`` for SQL NULL).
    SQL NULLS LAST semantics in both directions: sort only the items that
    have the column, then append the NULL items.
    """
    items = list(items)
    order_by = plan_metadata.get("sql_order_by")
    if order_by:
        column, descending = order_by
        null_items = [item for item in items if get(item, column) is None]
        value_items = [item for item in items if get(item, column) is not None]
        items = (
            sorted(value_items, key=lambda item: get(item, column), reverse=descending)
            + null_items
        )
    limit = plan_metadata.get("sql_limit")
    if limit is not None:
        items = items[: int(limit)]
    return items


def apply_result_clauses(plan_metadata: Dict[str, Any], rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Apply ORDER BY / LIMIT (recorded in plan metadata) at the proxy side."""
    return _order_and_limit(plan_metadata, rows, lambda row, column: row.get(column))


def apply_result_clauses_to_tuples(plan_metadata: Dict[str, Any], tuples: Sequence[Any]) -> List[Any]:
    """The same ORDER BY / LIMIT pass over :class:`~repro.qp.tuples.Tuple` objects.

    ``PIERNetwork.query`` uses this so clients get ordered, limited tuples
    without converting to dictionaries first.
    """
    return _order_and_limit(plan_metadata, tuples, lambda tup, column: tup.get(column))
