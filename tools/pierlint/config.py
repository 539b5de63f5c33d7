"""Rule scoping: which rules apply to which files.

Scopes are expressed as path prefixes (or exact paths) relative to the
``repro`` package root, because each rule guards a convention that only
holds in part of the tree:

* P01 applies everywhere except ``qp/tuples.py`` — the one module allowed
  to construct ``Schema`` (inside ``Schema.intern``).
* P02 applies to code that receives wire objects: operators, the proxy,
  the hierarchical aggregation layer and its origin ledger, the integrity
  collector (which decodes claim and report payloads), and the overlay.
* P03 applies to every simulator-driven module.  ``runtime/rand.py`` is
  the sanctioned ``random.Random`` construction site, and
  ``runtime/physical.py`` is *defined* by its use of the wall clock.
  ``security/`` is deliberately covered by the catch-all include:
  attacker selection, forge-victim choice, and spot-check sampling must
  go through ``derive_rng`` / deterministic hashing, or byzantine
  experiments would not replay.
* P05 applies to operator implementations, which must arm timers through
  the tracked ``PhysicalOperator.arm_timer`` helper.  The helper itself
  lives in ``qp/operators/base.py``, which is therefore exempt.  The
  continuous-query layer (``cq/``) is in scope too: its shared-plan
  fan-out and epoch clocks run timer-driven state machines held to the
  same teardown discipline — as is the observability layer (``obs/``),
  which hooks operator and timer paths and must not arm untracked timers
  of its own.  (P03 already covers ``obs/`` through its catch-all
  include: the tracer takes its clock from the environment and never
  reads a wall clock or constructs a bare ``random.Random``.)
* P06 applies everywhere except ``runtime/codec.py`` — the codec owns the
  wire format, and its counted pickle-fallback frame is the one declared
  pickle site.
* P07 applies everywhere except ``runtime/churn.py`` — where the attack
  repertoire and the adversary's ground-truth ledger live — and
  ``security/``, the defences that are measured against them.

* P08 applies to operator implementations, which must make their overlay
  registrations through ``PhysicalOperator.listen`` / ``intercept``; the
  helpers live in ``qp/operators/base.py``, which is therefore exempt.
  Components that register for the life of the node (``overlay/``,
  ``qp/proxy.py``, ``qp/dissemination.py``) are out of scope.

Files outside the ``repro`` package (tests, benchmarks, tools) are not
linted by default — conventions like seeded RNG access are free to be
broken by test fixtures on purpose.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

# (include prefixes, exclude prefixes); a prefix ending in ".py" matches
# exactly, otherwise it matches any file under that directory.
_Scope = Tuple[List[str], List[str]]

RULE_SCOPES: Dict[str, _Scope] = {
    "P01": ([""], ["qp/tuples.py"]),
    "P02": (
        [
            "qp/operators/",
            "qp/proxy.py",
            "qp/hierarchical.py",
            "qp/ledger.py",
            "qp/integrity.py",
            "overlay/",
        ],
        [],
    ),
    "P03": ([""], ["runtime/rand.py", "runtime/physical.py"]),
    "P05": (
        ["qp/operators/", "qp/hierarchical.py", "cq/", "obs/"],
        ["qp/operators/base.py"],
    ),
    "P06": ([""], ["runtime/codec.py"]),
    "P07": ([""], ["runtime/churn.py", "security/"]),
    "P08": (["qp/operators/", "qp/hierarchical.py"], ["qp/operators/base.py"]),
}

ALL_RULE_IDS = sorted(RULE_SCOPES)


def _matches(relative_path: str, prefix: str) -> bool:
    if prefix.endswith(".py"):
        return relative_path == prefix
    return relative_path.startswith(prefix)


def rules_for(relative_path: str) -> List[str]:
    """Rule ids that apply to ``relative_path`` (relative to the ``repro``
    package root, using ``/`` separators)."""
    selected = []
    for rule_id in ALL_RULE_IDS:
        includes, excludes = RULE_SCOPES[rule_id]
        if any(_matches(relative_path, prefix) for prefix in includes) and not any(
            _matches(relative_path, prefix) for prefix in excludes
        ):
            selected.append(rule_id)
    return selected
