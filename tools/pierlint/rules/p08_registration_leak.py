"""P08: operator overlay registrations must go through the tracked helpers.

``OverlayNode.new_data`` / ``upcall`` hand back an unsubscribe callable; an
operator that registers with them directly and drops it stays in the node's
handler maps after its query is done — held there with its parents, their
hash tables and its ``ExecutionContext``, and still *called* for every
arrival in the namespace, for as long as the node runs.
``PhysicalOperator.listen`` / ``intercept`` keep the callable so the base
``stop()`` (and the SimSanitizer's teardown ledger) can undo and audit the
registration, exactly as ``arm_timer`` does for timers (P05).

Flagged inside operator classes: ``….overlay.new_data(...)`` and
``….overlay.upcall(...)`` — use ``self.listen(namespace, callback,
batched=...)`` / ``self.intercept(namespace, handler)`` instead.
Long-lived components (the distribution tree, the proxy, the
disseminator) register for the life of the node and are out of scope.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

RULE_ID = "P08"
SUMMARY = "untracked overlay registration (raw overlay.new_data / overlay.upcall)"

_TRACKED = {
    "new_data": "self.listen(namespace, callback, batched=...)",
    "upcall": "self.intercept(namespace, handler)",
}


def _is_overlay(node: ast.AST) -> bool:
    # overlay.<...>, self.overlay.<...>, self.context.overlay.<...>
    return (isinstance(node, ast.Name) and node.id == "overlay") or (
        isinstance(node, ast.Attribute) and node.attr == "overlay"
    )


def check(tree: ast.AST, path: str) -> List[Tuple[int, str]]:
    violations: List[Tuple[int, str]] = []
    for class_node in ast.walk(tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        for node in ast.walk(class_node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _TRACKED
                and _is_overlay(node.func.value)
            ):
                violations.append(
                    (
                        node.lineno,
                        f"raw overlay.{node.func.attr}(...) registration; use "
                        f"{_TRACKED[node.func.attr]} so stop() can undo it",
                    )
                )
    violations.sort()
    return violations
