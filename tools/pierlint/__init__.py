"""pierlint: project-specific static analysis for the PIER reproduction.

The simulator's zero-copy hot path and deterministic replay rest on
conventions the Python language cannot enforce: tuple schemas must be
interned, wire payloads must never be mutated once sent, simulator-driven
code must draw randomness and time from the seeded environment, and every
timer an operator arms must have a matching disarm path.  pierlint walks
the AST of each source file and flags violations of those conventions
before they become the heisenbugs the SimSanitizer catches at runtime.

Rules (see ``docs/ANALYSIS.md`` for the full catalog and rationale):

====  ==================================================================
P01   ``Schema(...)`` constructed outside ``Schema.intern``
P02   mutation of received wire payloads / ``Tuple`` internals
P03   direct ``random.*`` / wall-clock calls in simulator-driven modules
P05   timers armed via raw ``context.schedule`` (no tracked cancel path),
      or ``stop()`` overrides that skip ``super().stop()``
P06   pickle on wire paths outside the codec's counted fallback
P07   attack behaviour outside ``runtime/churn.py`` and ``security/``
P08   operator overlay registrations via raw ``overlay.new_data`` /
      ``overlay.upcall`` (no tracked unsubscribe path)
====  ==================================================================

Suppression: append ``# pierlint: disable=P0x`` to the offending line, or
put ``# pierlint: disable-file=P0x`` on its own line anywhere in the file.
A bare ``disable`` (no rule list) suppresses every rule.

Usage::

    python -m tools.pierlint src/            # lint the shipped tree
    python -m tools.pierlint path/to/file.py # lint specific files
"""

from __future__ import annotations

from tools.pierlint.runner import Violation, lint_file, lint_paths, main

__all__ = ["Violation", "lint_file", "lint_paths", "main"]
