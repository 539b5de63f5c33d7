"""Declarative predicates and scalar expressions for operator parameters.

Because opgraphs are shipped across the network, operator parameters must
be plain data.  Predicates are nested lists/tuples in prefix form, e.g.::

    ["and", ["eq", ["col", "proto"], ["lit", "tcp"]],
            [">",  ["col", "bytes"], ["lit", 1000]]]

Scalar expressions use the same representation (``col``, ``lit``,
arithmetic operators, string helpers).  Evaluation follows the paper's
best-effort rule: a reference to a missing column or a type mismatch makes
the tuple malformed for this query, and the caller drops it.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Union

from repro.qp.tuples import MalformedTupleError, Tuple

Expression = Union[list, tuple, Callable[[Tuple], Any], Any]


def evaluate(expression: Expression, tup: Tuple) -> Any:
    """Evaluate a scalar expression against one tuple."""
    if callable(expression):
        return expression(tup)
    if not isinstance(expression, (list, tuple)):
        # Bare literals are allowed as a convenience.
        return expression
    if not expression:
        raise MalformedTupleError("empty expression")
    head = expression[0]
    args = expression[1:]
    if head == "col":
        return tup.require(args[0])
    if head == "lit":
        return args[0]
    if head in _BINARY_ARITHMETIC:
        left, right = (evaluate(arg, tup) for arg in args)
        return _apply_arithmetic(head, left, right)
    if head == "concat":
        return "".join(str(evaluate(arg, tup)) for arg in args)
    if head == "lower":
        return str(evaluate(args[0], tup)).lower()
    if head == "upper":
        return str(evaluate(args[0], tup)).upper()
    if head == "len":
        return len(evaluate(args[0], tup))
    raise MalformedTupleError(f"unknown expression operator {head!r}")


def matches(predicate: Expression, tup: Tuple) -> bool:
    """Evaluate a boolean predicate against one tuple."""
    if predicate is None:
        return True
    if callable(predicate):
        return bool(predicate(tup))
    if not isinstance(predicate, (list, tuple)):
        return bool(predicate)
    if not predicate:
        return True
    head = predicate[0]
    args = predicate[1:]
    if head == "and":
        return all(matches(arg, tup) for arg in args)
    if head == "or":
        return any(matches(arg, tup) for arg in args)
    if head == "not":
        return not matches(args[0], tup)
    if head == "true":
        return True
    if head == "false":
        return False
    if head in _COMPARATORS:
        left = evaluate(args[0], tup)
        right = evaluate(args[1], tup)
        return _compare(head, left, right)
    if head == "contains":
        container = evaluate(args[0], tup)
        needle = evaluate(args[1], tup)
        return needle in container
    if head == "in":
        value = evaluate(args[0], tup)
        options = evaluate(args[1], tup)
        return value in options
    if head == "between":
        value = evaluate(args[0], tup)
        low = evaluate(args[1], tup)
        high = evaluate(args[2], tup)
        return low <= value <= high
    raise MalformedTupleError(f"unknown predicate operator {head!r}")


# -- helpers ------------------------------------------------------------------ #

_COMPARATORS = {"eq", "=", "ne", "!=", "lt", "<", "le", "<=", "gt", ">", "ge", ">="}
_BINARY_ARITHMETIC = {"+", "-", "*", "/", "%"}


def _compare(operator: str, left: Any, right: Any) -> bool:
    try:
        if operator in {"eq", "="}:
            return left == right
        if operator in {"ne", "!="}:
            return left != right
        if operator in {"lt", "<"}:
            return left < right
        if operator in {"le", "<="}:
            return left <= right
        if operator in {"gt", ">"}:
            return left > right
        if operator in {"ge", ">="}:
            return left >= right
    except TypeError as exc:
        raise MalformedTupleError(f"incomparable values {left!r} and {right!r}") from exc
    raise MalformedTupleError(f"unknown comparator {operator!r}")


def _apply_arithmetic(operator: str, left: Any, right: Any) -> Any:
    try:
        if operator == "+":
            return left + right
        if operator == "-":
            return left - right
        if operator == "*":
            return left * right
        if operator == "/":
            return left / right
        if operator == "%":
            return left % right
    except (TypeError, ZeroDivisionError) as exc:
        raise MalformedTupleError(
            f"cannot apply {operator!r} to {left!r} and {right!r}"
        ) from exc
    raise MalformedTupleError(f"unknown arithmetic operator {operator!r}")


def column_references(expression: Expression) -> List[str]:
    """All column names referenced by an expression or predicate."""
    references: List[str] = []
    _collect_references(expression, references)
    return references


def _collect_references(node: Expression, references: List[str]) -> None:
    # Module-level on purpose: a nested function that calls itself is a
    # reference cycle, left for the collector once per call.
    if not isinstance(node, (list, tuple)) or not node:
        return
    if node[0] == "col" and len(node) > 1 and isinstance(node[1], str):
        references.append(node[1])
        return
    for child in node[1:]:
        _collect_references(child, references)
