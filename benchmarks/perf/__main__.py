"""pierbench: the repo's one benchmark.

    python -m benchmarks.perf run      [--seed S] [--runs N] [--seconds T] [--out DIR]
    python -m benchmarks.perf layers   [--seed S] [--runs N] [--seconds T] [--out DIR]
    python -m benchmarks.perf compare  A B
    python -m benchmarks.perf profile  WORKLOAD [--seed S] [--out DIR]

``run`` measures the end-to-end metrics of every workload, ``layers`` the
per-layer ones (counters, span trace, microbenchmarks).  Each workload
runs in a fresh interpreter through ``run.py``, one after another.  By
default a workload times a fixed number of operations, so the seeded
counters and virtual-clock latencies repeat exactly; ``--seconds T``
times for T seconds instead, which is how ``BENCHMARK.json``'s command is
driven.  ``--runs N`` repeats the set with seeds S, S+1, ...  Results go
to one JSON file per run under ``--out`` (default: a fresh directory
under the system temp dir), never into the repo.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_workloads(args: argparse.Namespace, trace: int) -> int:
    """Run every chosen workload through run.py; non-zero if any run
    crashed or any checked answer was wrong."""
    out = args.out or Path(tempfile.mkdtemp(prefix="pierbench-"))
    # A fresh interpreter per workload, except for the smoke sizes, which
    # check plumbing, not timing, and share one to start up once.
    batches = [",".join(args.workloads)] if args.smoke else args.workloads
    bad = 0
    for run in range(args.runs):
        for batch in batches:
            command = [sys.executable, str(HERE / "run.py"), "--workload", batch, "--seed", str(args.seed + run)]
            command += ["--trace", str(trace), "--out", str(out)]
            command += ["--seconds", str(args.seconds)] if args.seconds else ["--fixed-ops"]
            if args.smoke:
                command.append("--smoke")
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            results = [line for line in child.stdout.splitlines() if line.startswith("{")]
            print("\n".join(line for line in child.stdout.splitlines() if not line.startswith("{")))
            if child.returncode != 0 or len(results) != batch.count(",") + 1:
                print(f"{batch} seed {args.seed + run}: exit code {child.returncode}")
                bad += 1
            bad += sum(1 for line in results if not json.loads(line)["correct"])
    print(f"results in {out}")
    return 1 if bad else 0


# -- compare ------------------------------------------------------------------------- #
def load(directory: Path) -> Dict[str, Dict[str, List[float]]]:
    """``workload -> metric -> values`` over every untraced run in ``directory``."""
    values: Dict[str, Dict[str, List[float]]] = {}
    for path in sorted(directory.glob("*.trace0.*.json")):
        record = json.loads(path.read_text())
        for name, entry in record["metrics"].items():
            values.setdefault(record["workload"], {}).setdefault(name, []).append(entry["value"])
    return values


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median (range, below four
    runs; zero for a single run, which says nothing about spread)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / median
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / median


def compare(first: Path, second: Path) -> int:
    """One row per (workload, end-to-end metric); non-zero if any is worse."""
    a, b = load(first), load(second)
    print(f"{'workload':<8} {'metric':<16} {'A median':>12} {'B median':>12} {'B vs A':>8} "
          f"{'spread A':>8} {'spread B':>8} {'bound':>6}  verdict   (runs A/B)")
    worse = 0
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            left, right = a.get(workload, {}).get(name), b.get(workload, {}).get(name)
            if not left or not right:
                continue
            median_a, median_b = statistics.median(left), statistics.median(right)
            change = (median_b - median_a) / median_a
            worsening = change if metric["better"] == "lower" else -change
            spread_a, spread_b = spread(left), spread(right)
            if max(spread_a, spread_b) > bound:
                verdict = "unresolved"
            elif worsening > bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(f"{workload:<8} {name:<16} {median_a:>12.4f} {median_b:>12.4f} {change:>+8.1%} "
                  f"{spread_a:>8.1%} {spread_b:>8.1%} {bound:>6.0%}  {verdict:<10}({len(left)}/{len(right)})")
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "layers", "profile"):
        sub = commands.add_parser(name)
        if name == "profile":
            sub.add_argument("workload", choices=WORKLOADS)
        else:
            sub.add_argument("--workloads", type=lambda text: text.split(","), default=WORKLOADS)
            sub.add_argument("--runs", type=int, default=1)
            sub.add_argument("--seconds", type=float, default=0.0)
            sub.add_argument("--smoke", action="store_true")
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--out", type=Path, default=None)
    sub = commands.add_parser("compare")
    sub.add_argument("first", type=Path)
    sub.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.first, args.second)
    if args.command == "profile":
        out = args.out or Path(tempfile.mkdtemp(prefix="pierbench-"))
        command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed)]
        code = subprocess.run(command + ["--fixed-ops", "--profile", "--out", str(out)]).returncode
        print(f"profile in {out / (args.workload + '.prof')}")
        return code
    return run_workloads(args, trace=1 if args.command == "layers" else 0)


if __name__ == "__main__":
    sys.exit(main())
