"""Every registered operator type is one a plan builder emits.

An operator type that no plan under ``src/repro`` wires into an opgraph is
code no query runs: registered, named in the codec's string table, and
reached only by hand-built test graphs.  The census parses each
``src/repro/**/*.py`` with :mod:`ast` and collects the string literals
passed as the op type of ``add_operator(operator_id, op_type, ...)`` or
``OperatorSpec(operator_id, op_type, ...)`` — positionally or as
``op_type=`` — and compares them with the registry.
"""

import ast
from pathlib import Path
from typing import Dict, Set

from repro.qp.operators import registered_operator_types
from repro.qp.operators.base import operator_class

SOURCE = Path(__file__).resolve().parents[2] / "src" / "repro"

# Registered types no plan builder emits, each with the reason it stays.
ALLOWED_UNEMITTED: Dict[str, str] = {}

BUILDERS = ("add_operator", "OperatorSpec")


def package_operator_types() -> Set[str]:
    """The registry's types whose operator lives in the package (tests
    register operators of their own)."""
    return {
        op_type
        for op_type in registered_operator_types()
        if operator_class(op_type).__module__.startswith("repro.")
    }


def _op_type_argument(call: ast.Call):
    if len(call.args) > 1:
        return call.args[1]
    return next((keyword.value for keyword in call.keywords if keyword.arg == "op_type"), None)


def emitted_operator_types() -> Set[str]:
    """Every op type a builder call under ``src/repro`` names as a literal
    (both arms of a conditional expression count)."""
    emitted: Set[str] = set()
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            function = node.func
            name = function.attr if isinstance(function, ast.Attribute) else getattr(function, "id", None)
            argument = _op_type_argument(node) if name in BUILDERS else None
            if argument is None:
                continue
            emitted |= {
                leaf.value
                for leaf in ast.walk(argument)
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
            }
    return emitted


def test_every_registered_operator_type_is_emitted_by_a_plan():
    unemitted = package_operator_types() - emitted_operator_types()
    assert sorted(unemitted - set(ALLOWED_UNEMITTED)) == []


def test_every_emitted_operator_type_is_registered():
    assert sorted(emitted_operator_types() - package_operator_types()) == []


def test_the_allowlist_hides_nothing():
    """Drop an entry once a plan emits it, or once its operator is gone."""
    registered = package_operator_types()
    emitted = emitted_operator_types()
    for op_type in ALLOWED_UNEMITTED:
        assert op_type in registered and op_type not in emitted, op_type
