"""Run one workload once and report its metrics.

    python3 benchmarks/perf/run.py --workload join64 --seed 1 --seconds 15 --trace 0

This is the command ``BENCHMARK.json`` names.  It builds the workload's
inputs from ``--seed``, sets the deployment up (several times; ``setup_s``
is the median), discards the warm-up operations, measures closed-loop for
``--seconds``, checks every answer against ``oracle.py``, prints each
metric with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from an untraced reference
pass, a pass with ``spans.py`` installed, and the microbenchmarks.

Two things keep the times steady on a small shared machine (README.md has
the measurements behind both):

* A fixed piece of interpreter work is timed before and after every
  operation.  The machine this was written on switches, for seconds at a
  time, into a state where everything runs 1.3-1.7x slower; dividing each
  CPU-bound time by how slow that work ran next to it takes the switch
  out (``host.slowdown`` reports the factor).
* The collector's full passes run between operations, every tenth one,
  outside every time metric (``host.gc_ms_per_op`` reports them), and not
  when the collector itself would start them.  The program keeps state
  for every query it ever ran, so left alone the collector pauses every
  second or third operation for longer and longer, and the median
  operation flips between "paused" and "not paused" from run to run.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

# Shares of --seconds a traced run spends on its three parts.
REFERENCE_SHARE, TRACED_SHARE, MICRO_SHARE = 0.3, 0.5, 0.15

# Operations between two full collections.  One after every operation costs
# more than the operations themselves once a few hundred queries' state
# has piled up.
FULL_COLLECTION_EVERY = 10

# What calibration_chunk() takes on the machine the bounds in
# BENCHMARK.json were measured on, when nothing else runs there.
REFERENCE_CHUNK_S = 0.0025


def calibration_chunk() -> float:
    """Seconds a fixed piece of interpreter work (dict, tuple and heap
    operations, the simulator's diet) takes right now."""
    started = time.perf_counter()
    table: Dict[int, Any] = {}
    heap: List[Any] = []
    total = 0
    for index in range(4000):
        key = (index * 7919) & 255
        table[key] = (index, total)
        total += len(table)
        heapq.heappush(heap, (key, index))
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - started


class Measurement(NamedTuple):
    """What one pass over a workload observed.  The per-operation lists
    are parallel to ``samples``."""

    workload: Any
    samples: List[Any]
    setups_s: List[float]  # each set-up, at reference speed when CPU-bound
    slowdowns: List[float]  # calibration next to each operation / reference
    operate_s: List[float]  # wall inside operate()
    cpu_s: List[float]  # CPU inside operate()
    sent_bytes: List[int]  # bytes the deployment sent meanwhile
    collect_s: float  # wall spent in full collections between operations
    wall_s: float  # first operation's start to last one's end
    rss_mb: float
    counters: Dict[str, float]  # growth over the timed operations
    peak_live_events: float
    cq: Dict[str, float]
    cq_rows_appended: float
    attempted: int
    failed: int


def measure(
    workload: Any,
    seconds: float,
    fixed_ops: int = 0,
    tracer: Any = None,
    profiler: Optional[cProfile.Profile] = None,
) -> Measurement:
    """Set up, warm up, then time operations for ``seconds`` (or exactly
    ``fixed_ops`` of them).  The deployment is closed before returning."""
    setups = []
    thresholds = gc.get_threshold()
    gc.set_threshold(thresholds[0], thresholds[1], 1 << 30)  # no full collections of the collector's own
    try:
        for _ in range(1 if tracer is not None else workload.setups):
            workload.close()
            gc.collect()
            before_chunk = calibration_chunk()
            started = time.perf_counter()
            workload.setup()
            elapsed = time.perf_counter() - started
            slowdown = (before_chunk + calibration_chunk()) / 2 / REFERENCE_CHUNK_S
            setups.append(elapsed / slowdown if workload.cpu_bound else elapsed)
        for _ in range(workload.warmup):
            workload.operate()
        gc.collect()
        before = workload.counters()
        rows_before = workload.cq_counters()["rows_appended"]
        samples, chunks, operate_s, cpu_s = [], [calibration_chunk()], [], []
        sent = [workload.network.network_stats().bytes_sent]
        collect_s = rss_mb = 0.0
        if tracer is not None:
            tracer.reset()
        wall_started = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.mark_operation()
            if profiler is not None:
                profiler.enable()
            cpu_started = time.process_time()
            started = time.perf_counter()
            samples.append(workload.operate())
            operated = time.perf_counter()
            cpu_s.append(time.process_time() - cpu_started)
            if profiler is not None:
                profiler.disable()
            operate_s.append(operated - started)
            sent.append(workload.network.network_stats().bytes_sent)
            if len(samples) % FULL_COLLECTION_EVERY == 0:
                gc.collect()
                collect_s += time.perf_counter() - operated
            if len(samples) == workload.rss_ops:
                rss_mb = peak_rss_mb()
            chunks.append(calibration_chunk())
            wall = time.perf_counter() - wall_started
            if (len(samples) >= fixed_ops) if fixed_ops else (wall >= seconds):
                break
        if tracer is not None:
            tracer.mark_operation()
        after = workload.counters()
        rows_appended = workload.cq_counters()["rows_appended"] - rows_before
        workload.finish()
        attempted, failed = workload.verdict(samples)
        return Measurement(
            workload=workload,
            samples=samples,
            setups_s=setups,
            slowdowns=[(a + b) / 2 / REFERENCE_CHUNK_S for a, b in zip(chunks, chunks[1:])],
            operate_s=operate_s,
            cpu_s=cpu_s,
            collect_s=collect_s,
            sent_bytes=[b - a for a, b in zip(sent, sent[1:])],
            wall_s=wall,
            rss_mb=rss_mb or peak_rss_mb(),
            counters={name: after[name] - before[name] for name in after},
            peak_live_events=after["peak_live_events"],
            cq=workload.cq_counters(),
            cq_rows_appended=rows_appended,
            attempted=attempted,
            failed=failed,
        )
    finally:
        gc.set_threshold(*thresholds)
        workload.close()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def median_of(values: List[Optional[float]]) -> float:
    """Median of the samples that exist; 0 when the workload has none."""
    present = [value for value in values if value is not None]
    return statistics.median(present) if present else 0.0


def at_reference_speed(values: List[float], m: Measurement, always: bool = False) -> List[float]:
    """Per-operation times with the machine's slow spells divided out.
    Wall-clock on real sockets is mostly timers and sleep, so there only
    CPU time (``always``) is scaled."""
    if always or m.workload.cpu_bound:
        return [value / slowdown for value, slowdown in zip(values, m.slowdowns)]
    return values


def cpu_ms_per_op(m: Measurement) -> float:
    return sum(at_reference_speed(m.cpu_s, m, always=True)) / len(m.samples) * 1e3


def end_to_end(m: Measurement) -> Dict[str, float]:
    walls = at_reference_speed([sample.wall_s for sample in m.samples], m)
    ops = len(walls)
    return {
        "setup_s": statistics.median(m.setups_s),
        "op_wall_ms_p50": statistics.median(walls) * 1e3,
        "op_wall_ms_p80": percentile(walls, 0.8) * 1e3,
        "ops_per_s": ops / sum(at_reference_speed(m.operate_s, m)),
        "cpu_ms_per_op": cpu_ms_per_op(m),
        # The median: on sockets the same query sends 300-450 KB depending
        # on how the batching timers happened to fall.
        "wire_kb_per_op": statistics.median(m.sent_bytes) / 1e3,
        "peak_rss_mb": m.rss_mb,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_counters(m: Measurement) -> Dict[str, float]:
    """What the layers count themselves, per timed operation, and what
    the client-facing handles report."""
    workload, c = m.workload, m.counters
    samples = m.samples
    ops = len(samples)
    rows = sum(sample.rows for sample in samples)
    walls = at_reference_speed([sample.wall_s for sample in samples], m)
    quarter = max(ops // 4, 1)
    simulated, physical = (1, 0) if workload.cpu_bound else (0, 1)
    return {
        "session.first_row_s_p50": median_of([sample.first_row_s for sample in samples]),
        "session.last_row_s_p50": median_of([sample.last_row_s for sample in samples]),
        "session.done_over_timeout": median_of([sample.done_over_timeout for sample in samples]),
        "runtime.scheduler.events_per_op": c["events"] / ops,
        "runtime.scheduler.peak_live_events": m.peak_live_events,
        "runtime.simulation.msgs_per_op": simulated * c["messages"] / ops,
        "runtime.simulation.bytes_per_msg": simulated * _ratio(c["bytes"], c["messages"]),
        "runtime.simulation.msgs_dropped": simulated * c["dropped"],
        "overlay.lookup_hops_mean": _ratio(c["lookup_hops_total"], c["lookups_completed"]),
        "overlay.msgs_routed_per_op": c["messages_routed"] / ops,
        "overlay.batch_fill": _ratio(c["batched_objects"], c["batch_puts"]),
        "overlay.publish_rows_per_s": workload.published_rows / statistics.median(m.setups_s),
        "qp.result_rows_per_op": rows / ops,
        "qp.coverage_min": min(sample.coverage for sample in samples),
        "cq.shared_installs": m.cq["shared_installs"],
        "cq.deliveries": m.cq["deliveries"],
        "cq.dropped_partial_epochs": m.cq["dropped_partial_epochs"],
        "cq.warmup_epochs_skipped": m.cq["warmup_epochs_skipped"],
        "cq.rows_appended_per_s": m.cq_rows_appended / m.wall_s,
        "cq.slice_wall_drift": statistics.median(walls[-quarter:]) / statistics.median(walls[:quarter])
        if m.cq["deliveries"]
        else 0.0,
        "cq.epoch_lag_over_slide": m.cq["epoch_lag_over_slide"],
        "runtime.physical.busy_ms_per_op": c["busy_s"] / ops * 1e3,
        "runtime.physical.retransmits_per_op": c["retransmits"] / ops,
        "runtime.physical.duplicates_dropped": c["duplicates"],
        "runtime.physical.wire_bytes_per_row": physical * _ratio(c["bytes"], rows),
        "runtime.codec.fallbacks": c["fallbacks"],
        "host.slowdown": statistics.mean(m.slowdowns),
        "host.gc_ms_per_op": m.collect_s / ops * 1e3,
    }


def traced_metrics(tracer: Any, traced: Measurement, reference: Measurement) -> Dict[str, float]:
    from spans import LAYERS

    self_s, calls = tracer.totals()
    ops = len(traced.samples)
    # Layer times of a CPU-bound run share the run's mean slowdown.
    scale = 1.0 / statistics.mean(traced.slowdowns) if traced.workload.cpu_bound else 1.0
    metrics: Dict[str, float] = {}
    for layer, seconds, count in zip(LAYERS, self_s, calls):
        metrics[f"trace.{layer}.self_ms_per_op"] = seconds * scale / ops * 1e3
        metrics[f"trace.{layer}.calls_per_op"] = count / ops
    metrics["trace.covered_frac"] = sum(self_s) / sum(traced.operate_s)
    metrics["trace.overhead_frac"] = cpu_ms_per_op(traced) / cpu_ms_per_op(reference) - 1.0
    return metrics


def parse_arguments(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name (or several, comma-separated, run in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="how long to time operations (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fixed-ops",
        action="store_true",
        help="time the workload's fixed number of operations instead of --seconds, so seeded counters repeat exactly",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, a few operations: checks the plumbing only")
    parser.add_argument("--out", type=Path, default=None, help="directory for the result file (and spans, profile)")
    parser.add_argument("--profile", action="store_true", help="time under cProfile and write <workload>.prof to --out")
    return parser.parse_args(argv)


def run_workload(name: str, args: argparse.Namespace, spec: Dict[str, Any]) -> None:
    """Measure one workload as ``args`` ask, print its metrics and its
    JSON result line, and write its files under ``args.out``."""
    from workloads import WORKLOADS

    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    fixed = args.fixed_ops or args.smoke

    def fresh() -> Any:
        return WORKLOADS[name](args.seed, smoke=args.smoke)

    def count(workload: Any, share: int = 1) -> int:
        return max(workload.ops // share, 1) if fixed else 0

    extras: Dict[str, Any] = {}
    profiler = cProfile.Profile() if args.profile and not args.trace else None
    if args.trace:
        import micro
        from spans import Tracer

        workload = fresh()
        # --smoke checks plumbing, not overhead: it skips the reference pass.
        reference = None if args.smoke else measure(workload, seconds * REFERENCE_SHARE, count(workload, 4))
        tracer = Tracer()
        tracer.install()
        try:
            workload = fresh()
            run = measure(workload, seconds * TRACED_SHARE, count(workload, 4), tracer=tracer)
        finally:
            extras["wrappers_restored"] = tracer.restore()
        metrics = layer_counters(run)
        metrics.update(traced_metrics(tracer, run, reference or run))
        metrics.update(micro.run(0.0, repeats=1) if args.smoke else micro.run(seconds * MICRO_SHARE))
        passes = [run] if reference is None else [run, reference]
        attempted, failed = sum(p.attempted for p in passes), sum(p.failed for p in passes)
        listed = spec["per_layer"]
    else:
        workload = fresh()
        run = measure(workload, seconds, count(workload), profiler=profiler)
        metrics = end_to_end(run)
        attempted, failed = run.attempted, run.failed
        listed = spec["end_to_end"]

    reported = {
        entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]} for entry in listed
    }
    samples = len(run.samples)
    print(f"{name} seed={args.seed} {'smoke ' if args.smoke else ''}trace={args.trace}: "
          f"{samples} timed operations in {run.wall_s:.2f} s, {attempted} checked, {failed} failed")
    for metric, entry in reported.items():
        print(f"  {metric:<48} {entry['value']:>14.4f} {entry['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        stem = f"{name}.seed{args.seed}.trace{args.trace}"
        stem = f"{stem}.{len(list(args.out.glob(stem + '.*.json')))}"  # repeated runs keep their files
        record = dict(result, workload=name, seed=args.seed, trace=args.trace, smoke=args.smoke,
                      samples=samples, timed_wall_s=run.wall_s, **extras)
        (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if args.trace:
            (args.out / f"{stem}.spans").write_text(json.dumps(tracer.operation_spans()) + "\n")
        if profiler is not None:
            profiler.dump_stats(str(args.out / f"{name}.prof"))
    print(json.dumps(result), flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_arguments(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"no program to measure: {SOURCE / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    sys.path[:0] = [str(SOURCE), str(HERE)]
    from workloads import WORKLOADS

    names = args.workload.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    for name in names:
        run_workload(name, args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
