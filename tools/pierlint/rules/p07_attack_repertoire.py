"""P07: the attack repertoire stays beside the adversary.

Fault injection has to ride the real operators — an attack that ran on a
twin of the aggregation path would test the twin — but *what an attack
does* is not the operator's business.  ``runtime/churn.py`` holds the
repertoire (``corrupt_states``, ``suppression_victim``) and the
ground-truth ledger (``ByzantineProcess.record``); an operator on an
adversarial node holds an ``Attacker`` and hands it what passes through
its hook sites.  The production operators once carried four hand-written
drop / suppress / inflate case analyses; this rule keeps the attacker from
drifting back.

It flags any reference to (or import of) ``corrupt_states`` or
``suppression_victim``, and any ``<...adversary>.record(...)`` call,
everywhere except ``runtime/churn.py`` and ``security/``.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

RULE_ID = "P07"
SUMMARY = "attack behaviour outside runtime/churn.py and security/"

_REPERTOIRE = {"corrupt_states", "suppression_victim"}
_ADVERSARY_NAMES = {"adversary", "_adversary"}


def _message(name: str) -> str:
    return (
        f"{name} belongs to the attack repertoire in runtime/churn.py; operators "
        f"hold an Attacker (ByzantineProcess.attacker) and call its tamper/relay/forgeries"
    )


def check(tree: ast.AST, path: str) -> List[Tuple[int, str]]:
    violations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in _REPERTOIRE:
                    violations.append((node.lineno, _message(alias.name)))
        elif isinstance(node, ast.Name) and node.id in _REPERTOIRE:
            violations.append((node.lineno, _message(node.id)))
        elif isinstance(node, ast.Attribute) and node.attr in _REPERTOIRE:
            violations.append((node.lineno, _message(node.attr)))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "record"
        ):
            receiver = node.func.value
            name = receiver.attr if isinstance(receiver, ast.Attribute) else getattr(receiver, "id", "")
            if name in _ADVERSARY_NAMES:
                violations.append((node.lineno, _message("adversary.record(...)")))
    violations.sort()
    return violations
