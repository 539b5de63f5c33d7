"""SQL-like frontend with a statistics-aware optimizer (paper Section 4.2).

PIER's native language is UFL, but "many users far prefer the compact
syntax of SQL", so the system grew a SQL-like language compiled by an
optimizer.  The paper's optimizer got placement metadata out of band
(Section 4.2.1); this one reads it, and its statistics, from the
deployment's :class:`~repro.catalog.Catalog` (``PIERNetwork.query`` wires
it through automatically).
"""

from repro.sql.lexer import tokenize, Token
from repro.sql.parser import parse_sql, SelectStatement
from repro.sql.planner import (
    NaivePlanner,
    apply_result_clauses,
    apply_result_clauses_to_tuples,
)
from repro.sql.explain import render_explain

__all__ = [
    "tokenize",
    "Token",
    "parse_sql",
    "SelectStatement",
    "NaivePlanner",
    "apply_result_clauses",
    "apply_result_clauses_to_tuples",
    "render_explain",
]
