"""pierlint runner: file discovery, suppression handling, and the CLI.

``lint_paths`` is the product entry point: it discovers ``*.py`` files,
scopes rules per file (see :mod:`tools.pierlint.config`), and applies
suppression comments.  ``lint_file`` lints one file with an explicit rule
list, bypassing scopes — the test fixtures use it to prove each rule
fires.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from tools.pierlint.config import ALL_RULE_IDS, rules_for
from tools.pierlint.rules import RULE_MODULES

_SUPPRESS_RE = re.compile(
    r"#\s*pierlint:\s*(?P<kind>disable(?:-file)?)\s*(?:=\s*(?P<rules>[A-Z0-9,\s]+))?"
)

# Sentinel meaning "every rule" for a bare ``disable`` with no rule list.
_ALL = "*"


@dataclass(frozen=True)
class Violation:
    """One finding: ``path:line: rule_id message``."""

    path: str
    line: int
    rule_id: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule_id} {self.message}"


def _parse_suppressions(source: str) -> Dict[str, object]:
    """Extract suppression comments from ``source``.

    Returns ``{"file": set_of_rule_ids_or_ALL, "lines": {lineno: set}}``.
    """
    file_level: Set[str] = set()
    line_level: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        rules_text = match.group("rules")
        rules = (
            {rule.strip() for rule in rules_text.split(",") if rule.strip()}
            if rules_text
            else {_ALL}
        )
        if match.group("kind") == "disable-file":
            file_level |= rules
        else:
            line_level.setdefault(lineno, set()).update(rules)
    return {"file": file_level, "lines": line_level}


def _suppressed(rule_id: str, lineno: int, suppressions: Dict[str, object]) -> bool:
    file_level = suppressions["file"]
    if _ALL in file_level or rule_id in file_level:
        return True
    line_rules = suppressions["lines"].get(lineno, set())
    return _ALL in line_rules or rule_id in line_rules


def lint_file(path: Path, rule_ids: Optional[Sequence[str]] = None) -> List[Violation]:
    """Lint one file.  ``rule_ids`` defaults to every rule (scopes are NOT
    applied here — use :func:`lint_paths` for scope-aware linting)."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Violation(str(path), exc.lineno or 0, "E999", f"syntax error: {exc.msg}")]
    suppressions = _parse_suppressions(source)
    violations = []
    for rule_id in rule_ids if rule_ids is not None else ALL_RULE_IDS:
        module = RULE_MODULES[rule_id]
        for lineno, message in module.check(tree, str(path)):
            if not _suppressed(rule_id, lineno, suppressions):
                violations.append(Violation(str(path), lineno, rule_id, message))
    violations.sort(key=lambda v: (v.path, v.line, v.rule_id))
    return violations


def _package_relative(path: Path) -> Optional[str]:
    """Path of ``path`` relative to the ``repro`` package root, or None if
    the file is not inside a ``repro`` package (then no scoped rules apply)."""
    parts = path.resolve().parts
    for index in range(len(parts) - 1, 0, -1):
        if parts[index - 1] == "repro":
            return "/".join(parts[index:])
    return None


def _discover(paths: Iterable[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def lint_paths(paths: Iterable[Path]) -> List[Violation]:
    """Scope-aware lint of files and directory trees."""
    violations: List[Violation] = []
    for file_path in _discover(paths):
        relative = _package_relative(file_path)
        if relative is None:
            continue
        rule_ids = rules_for(relative)
        if rule_ids:
            violations.extend(lint_file(file_path, rule_ids))
    violations.sort(key=lambda v: (v.path, v.line, v.rule_id))
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.pierlint",
        description="PIER-specific static analysis (rules P01-P08).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    options = parser.parse_args(argv)
    if options.list_rules:
        for rule_id in ALL_RULE_IDS:
            print(f"{rule_id}  {RULE_MODULES[rule_id].SUMMARY}")
        return 0
    violations = lint_paths(Path(p) for p in options.paths)
    for violation in violations:
        print(violation)
    if violations:
        print(f"\npierlint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
