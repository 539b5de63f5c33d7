"""Classic relational operators: selection and projection (paper
Section 3.3.4).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple as PyTuple

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

