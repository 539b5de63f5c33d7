"""Classic relational operators: selection, projection, tee, union,
duplicate elimination, rename, limit and the in-memory table materializer
(paper Section 3.3.4).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.qp.expressions import evaluate, matches
from repro.qp.operators.base import PhysicalOperator, register_operator
from repro.qp.tuples import MalformedTupleError, Tuple


@register_operator
class Selection(PhysicalOperator):
    """Filter tuples by a predicate (see :mod:`repro.qp.expressions`).

    Params: ``predicate``.
    """

    op_type = "selection"

    def on_receive(self, tup: Tuple, slot: int, tag: str) -> None:
        if matches(self.param("predicate"), tup):
            self.emit([tup], tag)


@register_operator
class Projection(PhysicalOperator):
    """Project to named columns and/or computed expressions.

    Params: ``columns`` (list of column names), ``computed`` (mapping of
    output column -> expression), ``keep_all`` (retain every input column
    and add the computed ones), ``table`` (optional output table name).
    """

    op_type = "projection"

    def on_receive(self, tup: Tuple, slot: int, tag: str) -> None:
        columns: Optional[List[str]] = self.param("columns")
        computed: Dict[str, Any] = self.param("computed", {})
        values: Dict[str, Any] = {}
        if self.param("keep_all", False):
            values.update(tup.as_mapping())
        if columns:
            for column in columns:
                values[column] = tup.require(column)
        for output, expression in computed.items():
            values[output] = evaluate(expression, tup)
        if not values:
            values = tup.as_mapping()
        self.emit([Tuple(self.param("table", tup.table), values)], tag)


@register_operator
class Tee(PhysicalOperator):
    """Copy the input stream to every consumer (fan-out)."""

    op_type = "tee"

    def on_batch(self, batch: List[Tuple], slot: int, tag: str) -> None:
        self.emit(batch, tag)


@register_operator
class Union(PhysicalOperator):
    """Bag union of any number of inputs (slots are not distinguished)."""

    op_type = "union"

    def on_batch(self, batch: List[Tuple], slot: int, tag: str) -> None:
        self.emit(batch, tag)


@register_operator
class DuplicateElimination(PhysicalOperator):
    """Emit each distinct tuple once.

    Params: ``key_columns`` (optional; default is the whole tuple).
    """

    op_type = "dupelim"

    def __init__(self, spec, context) -> None:  # noqa: ANN001 - see base class
        super().__init__(spec, context)
        self._seen: Set[Any] = set()

    def on_receive(self, tup: Tuple, slot: int, tag: str) -> None:
        key_columns = self.param("key_columns")
        key = tup.key(key_columns) if key_columns else tup
        if key in self._seen:
            return
        self._seen.add(key)
        self.emit([tup], tag)


@register_operator
class Rename(PhysicalOperator):
    """Rename the tuple's table (and optionally columns).

    Params: ``table`` (new table name), ``columns`` (old -> new mapping).
    """

    op_type = "rename"

    def on_receive(self, tup: Tuple, slot: int, tag: str) -> None:
        mapping = self.param("columns", {})
        values = {
            mapping.get(column, column): value
            for column, value in tup.as_mapping().items()
        }
        self.emit([Tuple(self.param("table", tup.table), values)], tag)


@register_operator
class Limit(PhysicalOperator):
    """Pass at most ``count`` tuples (applied per node; the proxy applies a
    final limit for global semantics).

    Params: ``count``.
    """

    op_type = "limit"

    def __init__(self, spec, context) -> None:  # noqa: ANN001
        super().__init__(spec, context)
        self._passed = 0

    def on_receive(self, tup: Tuple, slot: int, tag: str) -> None:
        if self._passed >= int(self.require_param("count")):
            return
        self._passed += 1
        self.emit([tup], tag)


@register_operator
class Materializer(PhysicalOperator):
    """In-memory table materializer: buffer the input and expose it to other
    operators (and to :meth:`flush`) as a node-local table.

    Params: ``table`` (name under which rows are registered in
    ``context.extras['local_tables']``), ``emit_on_flush`` (default True).
    """

    op_type = "materializer"

    def __init__(self, spec, context) -> None:  # noqa: ANN001
        super().__init__(spec, context)
        self.table = self.require_param("table")
        self.rows: List[Tuple] = []
        context.extras.setdefault("local_tables", {})[self.table] = self.rows

    def on_batch(self, batch: List[Tuple], slot: int, tag: str) -> None:
        self.rows.extend(batch)

    def flush(self) -> None:
        if self.param("emit_on_flush", True):
            self.emit(list(self.rows))
