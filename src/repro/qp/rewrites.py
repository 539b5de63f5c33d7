"""Bandwidth-reducing join rewrites (paper Sections 2.1.1 and 3.3.4).

The symmetric-hash rehash join ships *every* tuple of both relations across
the network.  Two classic rewrites reduce that traffic:

* **Bloom join** — each site first publishes a Bloom filter of its local
  join keys; the other relation is rehashed only where the filter says a
  match is possible.
* **Semi-join** — a query explicitly joins a (key, tupleID) *secondary
  index* with the other relation first, and only the surviving tupleIDs are
  dereferenced with a Fetch Matches join.

Both rewrites are expressed purely as UFL plan shapes built from existing
operators, exactly as the paper describes ("common rewrite strategies such
as Bloom join and semi-joins can be constructed").
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.qp.opgraph import DisseminationSpec, QueryPlan
from repro.qp.plans import _add_prune, _add_results, _add_scan, _keep_list, _rehash_join_plan


def bloom_join_plan(
    left_table: str,
    right_table: str,
    left_columns: List[str],
    right_columns: List[str],
    source: str = "dht_scan",
    timeout: float = 25.0,
    output_table: Optional[str] = None,
    rendezvous: str = "bloom_join_rehash",
    filter_namespace: str = "bloom_filters",
    size_bits: int = 8192,
    columns: Optional[Sequence[str]] = None,
) -> QueryPlan:
    """Bloom join: filter the right relation by the left relation's keys
    before rehashing, then symmetric-hash join the survivors.  ``columns``
    (the select list) narrows what is rehashed and returned, as in
    :func:`~repro.qp.plans.symmetric_hash_join_plan`."""
    return _rehash_join_plan(
        left_table,
        right_table,
        left_columns,
        right_columns,
        source,
        timeout,
        output_table,
        rendezvous,
        bloom={"filter_namespace": filter_namespace, "size_bits": size_bits},
        columns=columns,
    )


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
