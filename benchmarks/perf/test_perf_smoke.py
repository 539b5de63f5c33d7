"""Tier-1 smoke test of pierbench: the plumbing, not the numbers.

Runs ``run --smoke`` and ``layers --smoke`` (tiny sizes, a few operations
per workload) and checks that what they emit is what ``BENCHMARK.json``
promises.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _tracked_changes() -> str:
    """``git status`` of the tracked files, or '' outside a git checkout."""
    status = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT, capture_output=True, text=True
    )
    return status.stdout if status.returncode == 0 else ""


def test_smoke_run_emits_every_metric_benchmark_json_names(tmp_path):
    before = _tracked_changes()
    commands = {
        "run": ("end_to_end", 0),
        "layers": ("per_layer", 1),
    }
    children = {
        command: subprocess.Popen(
            [sys.executable, "-m", "benchmarks.perf", command, "--smoke", "--out", str(tmp_path / command)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        for command in commands
    }
    for command, child in children.items():
        output = child.communicate(timeout=120)[0]
        assert child.returncode == 0, f"{command} --smoke failed:\n{output}"

    for command, (section, trace) in commands.items():
        for workload in SPEC["workloads"]:
            (path,) = (tmp_path / command).glob(f"{workload['name']}.seed1.trace{trace}.*.json")
            record = json.loads(path.read_text())
            assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1, path.name
            emitted = record["metrics"]
            assert list(emitted) == [metric["name"] for metric in SPEC[section]], path.name
            for metric in SPEC[section]:
                entry = emitted[metric["name"]]
                assert entry["unit"] == metric["unit"] and isinstance(entry["value"], (int, float))
            if trace:
                assert emitted["trace.covered_frac"]["value"] >= 0.95, path.name
                assert record["wrappers_restored"] is True, path.name
            else:
                assert all(entry["value"] > 0 for entry in emitted.values()), path.name

    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert all(NAME.fullmatch(name) for name in names) and len(set(names)) == len(names)
    assert _tracked_changes() == before
