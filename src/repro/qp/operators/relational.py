"""Classic relational operators: selection, projection, tee, union,
duplicate elimination, rename, limit and the in-memory table materializer
(paper Section 3.3.4).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple as PyTuple

from repro.qp.expressions import evaluate, matches
from repro.qp.operators.base import PhysicalOperator, register_operator
from repro.qp.tuples import MalformedTupleError, Schema, Tuple


@register_operator
class Selection(PhysicalOperator):
    """Filter tuples by a predicate (see :mod:`repro.qp.expressions`).

    Params: ``predicate``.
    """

    op_type = "selection"
    streaming = True

    def on_batch(self, batch: List[Tuple], slot: int, tag: str) -> None:
        predicate = self.param("predicate")
        passed: List[Tuple] = []
        for tup in batch:
            try:
                if matches(predicate, tup):
                    passed.append(tup)
            except (MalformedTupleError, TypeError, KeyError):
                self.stats.tuples_dropped += 1
        if passed:
            self.emit(passed, tag)


def _is_call(expression: Any, head: str) -> bool:
    """True for the two-element expression ``[head, argument]``."""
    return isinstance(expression, (list, tuple)) and len(expression) == 2 and expression[0] == head


def _picker(positions: List[int]) -> Callable[[PyTuple[Any, ...]], PyTuple[Any, ...]]:
    """A function taking the values at ``positions`` out of a value tuple
    (``itemgetter`` hands back a bare value, not a 1-tuple, for one)."""
    if len(positions) == 1:
        position = positions[0]
        return lambda values: (values[position],)
    return itemgetter(*positions) if positions else (lambda values: ())


@register_operator
class Projection(PhysicalOperator):
    """Project to named columns and/or computed expressions.

    Params: ``columns`` (list of column names, strict: a row without one
    is dropped), ``computed`` (mapping of output column -> expression),
    ``keep_all`` (retain every input column and add the computed ones),
    ``keep`` (lenient ``columns``: retain those of the listed columns the
    row has — rows of a schema-less table need not have them all),
    ``table`` (optional output table name).  Output column order:
    kept columns, then ``columns``, then ``computed``; a name listed
    twice stays where it first appeared.  With no params at all the
    operator is the identity.

    The params are resolved against each interned input schema once (the
    output schema, and for every output column a position in the row, a
    constant, or an expression left to ``evaluate``), so the per-row work
    is one tuple pick.
    """

    op_type = "projection"
    streaming = True

    def __init__(self, spec, context) -> None:  # noqa: ANN001 - see base class
        super().__init__(spec, context)
        self._compiled: Dict[Schema, Optional[PyTuple[Any, ...]]] = {}

    def _compile(self, schema: Schema) -> Optional[PyTuple[Any, ...]]:
        """``(output schema, picker, constants, expressions)`` for rows of
        ``schema``: an output row is ``picker(values + extras)``, the
        extras being ``constants`` or, if any of ``computed`` needs the
        row, ``expressions`` evaluated against it.  None when a strict
        column is missing, which makes every row of this schema malformed
        for the query."""
        index = schema.index
        columns: List[str] = self.param("columns") or ()
        computed: Dict[str, Any] = self.param("computed") or {}
        keep: Optional[List[str]] = self.param("keep")
        if self.param("keep_all", False) or (keep is None and not columns and not computed):
            sources: Dict[str, int] = dict(index)
        else:
            sources = {column: index[column] for column in keep or () if column in index}
        extras: List[Any] = []  # computed entries that are not a bare column
        try:
            for column in columns:
                sources[column] = index[column]
            for output, expression in computed.items():
                if _is_call(expression, "col"):
                    sources[output] = index[expression[1]]
                else:
                    sources[output] = len(index) + len(extras)
                    extras.append(expression)
        except KeyError:
            return None
        out_schema = Schema.intern(self.param("table") or schema.table, sources)
        pick = _picker(list(sources.values()))
        if all(_is_call(expression, "lit") for expression in extras):
            return out_schema, pick, tuple([expression[1] for expression in extras]), ()
        return out_schema, pick, (), extras

    def on_batch(self, batch: List[Tuple], slot: int, tag: str) -> None:
        compiled = self._compiled
        from_parts = Tuple._from_parts
        out: List[Tuple] = []
        schema = plan = None
        for tup in batch:
            if tup.schema is not schema:
                schema = tup.schema
                try:
                    plan = compiled[schema]
                except KeyError:
                    plan = compiled[schema] = self._compile(schema)
            if plan is None:
                self.stats.tuples_dropped += 1
                continue
            out_schema, pick, extras, expressions = plan
            if expressions:
                try:
                    extras = tuple([evaluate(expression, tup) for expression in expressions])
                except (MalformedTupleError, TypeError, KeyError):
                    self.stats.tuples_dropped += 1
                    continue
            out.append(from_parts(out_schema, pick(tup.values() + extras)))
        if out:
            self.emit(out, tag)


@register_operator
class Tee(PhysicalOperator):
    """Copy the input stream to every consumer (fan-out)."""

    op_type = "tee"
    streaming = True

    def on_batch(self, batch: List[Tuple], slot: int, tag: str) -> None:
        self.emit(batch, tag)


@register_operator
class Union(PhysicalOperator):
    """Bag union of any number of inputs (slots are not distinguished)."""

    op_type = "union"
    streaming = True

    def on_batch(self, batch: List[Tuple], slot: int, tag: str) -> None:
        self.emit(batch, tag)


@register_operator
class DuplicateElimination(PhysicalOperator):
    """Emit each distinct tuple once.

    Params: ``key_columns`` (optional; default is the whole tuple).
    """

    op_type = "dupelim"
    streaming = True

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
    streaming = True

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
