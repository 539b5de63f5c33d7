"""pierlint rule and runner tests.

Each rule is proven twice: a fixture file with seeded violations must be
flagged (with the right rule id on the right construct), and its clean
twin must pass.  ``lint_file`` with an explicit rule list bypasses the
path-based scoping so fixtures can live under ``tests/``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from tools.pierlint import lint_file, lint_paths
from tools.pierlint.config import rules_for

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _lint(name: str, rule_id: str):
    return lint_file(FIXTURES / name, rule_ids=[rule_id])


# -- one failing fixture + clean twin per rule ----------------------------- #
@pytest.mark.parametrize(
    "rule_id, expected_lines",
    [
        ("P01", {5, 6}),
        ("P02", {6, 7, 8, 9, 12, 15}),
        ("P03", {9, 13, 18}),
        ("P05", {6, 10, 12}),
        ("P06", {8, 12, 16}),
        ("P07", {4, 9, 10, 12}),
        ("P08", {6, 8, 11}),
    ],
)
def test_rule_flags_seeded_violations(rule_id, expected_lines):
    violations = _lint(f"{rule_id.lower()}_bad.py", rule_id)
    assert {v.line for v in violations} == expected_lines
    assert all(v.rule_id == rule_id for v in violations)


@pytest.mark.parametrize("rule_id", ["P01", "P02", "P03", "P05", "P06", "P07", "P08"])
def test_rule_passes_clean_twin(rule_id):
    assert _lint(f"{rule_id.lower()}_clean.py", rule_id) == []


# -- rule specifics --------------------------------------------------------- #
def test_p03_counts_each_call_site():
    violations = _lint("p03_bad.py", "P03")
    messages = "\n".join(v.message for v in violations)
    assert "random.random" in messages
    assert "random.Random" in messages
    assert "time.time()" in messages or "wall clock" in messages


def test_p05_names_both_failure_modes():
    violations = _lint("p05_bad.py", "P05")
    messages = [v.message for v in violations]
    assert any("arm_timer" in message for message in messages)
    assert any("super().stop()" in message for message in messages)


# -- suppression ------------------------------------------------------------- #
def test_inline_and_file_suppressions():
    violations = lint_file(FIXTURES / "suppressed.py", rule_ids=["P01", "P02"])
    # Only the unsuppressed P01 on the last function remains.
    assert [(v.rule_id, v.line) for v in violations] == [("P01", 14)]


# -- scoping ----------------------------------------------------------------- #
def test_scopes_follow_module_roles():
    assert "P01" in rules_for("qp/operators/joins.py")
    assert "P01" not in rules_for("qp/tuples.py")
    assert "P02" in rules_for("overlay/wrapper.py")
    assert "P02" not in rules_for("workloads/firewall.py")
    assert "P03" not in rules_for("runtime/rand.py")
    assert "P03" not in rules_for("runtime/physical.py")
    assert "P05" in rules_for("qp/operators/groupby.py")
    assert "P05" not in rules_for("qp/operators/base.py")
    assert "P08" in rules_for("qp/hierarchical.py")
    assert "P08" in rules_for("qp/operators/access.py")
    assert "P08" not in rules_for("qp/operators/base.py")
    assert "P08" not in rules_for("qp/proxy.py")
    assert "P06" in rules_for("runtime/physical.py")
    assert "P06" in rules_for("overlay/wrapper.py")
    assert "P06" not in rules_for("runtime/codec.py")


def test_attack_repertoire_is_confined_to_the_adversary_and_the_defences():
    for path in ("qp/hierarchical.py", "qp/operators/groupby.py", "qp/ledger.py", "obs/metrics.py"):
        assert "P07" in rules_for(path)
    assert "P07" not in rules_for("runtime/churn.py")
    assert "P07" not in rules_for("security/spot_check.py")
    assert "P02" in rules_for("qp/ledger.py")  # the ledger folds received wire batches


def test_files_outside_repro_package_are_skipped():
    assert lint_paths([FIXTURES]) == []


# -- the acceptance criterion: the shipped tree is clean --------------------- #
def test_shipped_tree_is_clean():
    assert lint_paths([REPO_ROOT / "src"]) == []


def test_cli_exit_codes(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "tools.pierlint", "src"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr

    bad = tmp_path / "repro" / "qp" / "custom.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(tuples):\n    return tuples.Schema('t', ('a',))\n")
    result = subprocess.run(
        [sys.executable, "-m", "tools.pierlint", str(tmp_path)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert "P01" in result.stdout
