"""pierlint rule modules.

Each rule module exports ``RULE_ID`` (``"P0x"``), ``SUMMARY`` (one line),
and ``check(tree, path) -> List[(line, message)]``.  Rules are pure AST
walks — no imports of the linted code — so they run on any tree, broken
or not.
"""

from __future__ import annotations

from typing import Dict

from tools.pierlint.rules import (
    p01_schema_intern,
    p02_wire_mutation,
    p03_nondeterminism,
    p05_timer_leak,
    p06_pickle_wire,
    p07_attack_repertoire,
    p08_registration_leak,
)

RULE_MODULES: Dict[str, object] = {
    module.RULE_ID: module
    for module in (
        p01_schema_intern,
        p02_wire_mutation,
        p03_nondeterminism,
            p05_timer_leak,
        p06_pickle_wire,
        p07_attack_repertoire,
        p08_registration_leak,
    )
}
