"""Benchmark: one workload, two runtime bindings (paper Section 3.1).

Runs the hot-path join workload — wide self-describing fact tuples
rehash-joined against a dimension table — under both bindings of the
Virtual Runtime Interface: the discrete-event simulator and the physical
runtime on real loopback UDP sockets.  The program code is identical;
only ``PIERNetwork(mode=...)`` changes.

The tracked numbers are events/sec per binding (scheduler dispatches
plus message deliveries) and the byte counters the binary codec
produces on the real wire.  Both byte columns count codec datagrams: the
simulator charges each message the length of the datagram the physical
runtime would send for it (and each ack a bare 14-byte envelope, as the
physical runtime counts each ACK frame it sends), where it used to charge
a structural estimate about 3x larger.  Results are written to
``BENCH_physical.json`` at the repo root.  Correctness is asserted on
every run: both bindings must return exactly one join row per fact
tuple, and the physical run must never take the codec's pickle
fallback.  After the measured query each binding runs the statement
once more, unmeasured, and must install it by reference: every node
resolves the header from the template it kept.

The physical query is a streaming plan, so it must end when its data
does (``completed_by == "data"``), and within three exchange flush
intervals of its submit: its sources punctuate their snapshots, so no
straggler timer stands between the last row and the end.  Its
``done − submit`` is recorded as ``done_s``.

The acceptance gate: the physical binding's dispatch throughput must
stay within 10x of the simulator's events/sec at equal node count.
The simulator never sleeps — it compresses virtual time and its wall
clock is pure processing — while the physical loop spends most of its
wall time deliberately asleep in ``select()`` between real timers (the
query runs wall-clock until its data is done).  So the apples-to-apples number
for the physical side is events per *busy* second
(``PhysicalEnvironment.busy_seconds``: wall time minus select() idle),
which is what a busy-polling loop or a codec that re-encoded every hop
would blow.  The end-to-end wall-clock rate is recorded alongside it
as ``events_per_sec_wall``.

Set ``PHYSICAL_SMOKE=1`` for the small CI version.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import print_table

from repro import PIERNetwork
from repro.qp.operators.exchange import STRAGGLER_FLUSH_INTERVAL
from repro.qp.tuples import Tuple
from repro.runtime import codec

SEED = 4106
SMOKE = os.environ.get("PHYSICAL_SMOKE", "") not in ("", "0")
MODE = "smoke" if SMOKE else "full"
NODES = 4 if SMOKE else 8
FACT_ROWS = 80 if SMOKE else 240
K_KEYS = 8
TIMEOUT = 2 if SMOKE else 3
SETTLE = 0.75
RATIO_LIMIT = 10.0
# The physical query's submit-to-done bound: three of the 0.25-s clocks
# the streaming path used to wait on.
DONE_LIMIT_S = 3 * STRAGGLER_FLUSH_INTERVAL

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_physical.json"


def _wide_fact(i: int) -> Tuple:
    return Tuple.make(
        "pb_fact",
        f_id=i,
        k=i % K_KEYS,
        src=f"10.0.{i % 256}.{(i * 7) % 256}",
        dst=f"192.168.{i % 64}.{(i * 3) % 256}",
        sport=1024 + (i % 5000),
        dport=(i * 13) % 1024,
        proto="tcp" if i % 3 else "udp",
        bytes=64 + (i % 1400),
        packets=1 + (i % 16),
        label=f"evt-{i % 97}",
    )


def _run_binding(mode: str) -> dict:
    started = time.perf_counter()
    network = PIERNetwork(
        NODES, seed=SEED, mode=mode, settle_time=SETTLE, exchange_batch_size=8
    )
    try:
        network.create_table("pb_fact", partitioning=["f_id"])
        network.create_table("pb_dim", partitioning=["d_id"])
        network.publish("pb_fact", [_wide_fact(i) for i in range(FACT_ROWS)])
        network.publish(
            "pb_dim",
            [Tuple.make("pb_dim", d_id=i, k=i, k_name=f"class-{i}") for i in range(K_KEYS)],
        )
        network.run(0.5)
        statement = f"SELECT k FROM pb_fact JOIN pb_dim ON k = k TIMEOUT {TIMEOUT}"
        result = network.query(statement, include_explain=False)
        wall = time.perf_counter() - started
        environment = network.environment
        events = (
            environment.scheduler.events_dispatched
            + environment.stats.messages_delivered
        )
        # The simulator never idles, so its busy time IS its wall time;
        # the physical loop reports processing time net of select() sleep.
        busy = getattr(environment, "busy_seconds", None)
        if busy is None:
            busy = wall
        measured = {
            "events_dispatched": events,
            "messages_sent": environment.stats.messages_sent,
            "bytes_sent": environment.stats.bytes_sent,
        }
        # Outside the measurement: the statement again, which every node
        # now resolves from the template it kept (a header on the tree).
        repeat = network.query(statement, include_explain=False)
        metrics = network.metrics()
        return {
            "mode": mode,
            "nodes": NODES,
            "rows": len(result),
            "completed_by": result.completed_by,
            "done_s": result.finished_at - result.submitted_at,
            "wall_seconds": wall,
            "busy_seconds": busy,
            "events_per_sec": events / max(busy, 1e-9),
            "events_per_sec_wall": events / wall,
            **measured,
            "repeat_rows": len(repeat),
            "templates_by_reference": metrics["dissemination.templates_by_reference"],
            "template_misses": metrics["dissemination.template_misses"],
        }
    finally:
        network.close()


def _record(entry: dict) -> None:
    history = {}
    if RESULTS_PATH.exists():
        try:
            history = json.loads(RESULTS_PATH.read_text())
        except (ValueError, OSError):
            history = {}
    history[MODE] = entry
    RESULTS_PATH.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")


def _run_both() -> dict:
    simulated = _run_binding("simulated")
    codec.FALLBACKS.reset()
    physical = _run_binding("physical")
    return {
        "bench": MODE,
        "nodes": NODES,
        "fact_rows": FACT_ROWS,
        "simulated": simulated,
        "physical": physical,
        "physical_pickle_fallbacks": codec.FALLBACKS.total(),
        "slowdown_x": simulated["events_per_sec"] / physical["events_per_sec"],
    }


def test_physical_binding_within_10x_of_simulator(benchmark):
    entry = benchmark.pedantic(_run_both, rounds=1, iterations=1)
    _record(entry)
    simulated, physical = entry["simulated"], entry["physical"]
    print_table(
        f"Simulated vs physical binding — {NODES} nodes ({MODE} mode)",
        ["metric", "simulated", "physical"],
        [
            ["events/sec (busy)", f"{simulated['events_per_sec']:,.0f}", f"{physical['events_per_sec']:,.0f}"],
            ["events/sec (wall)", f"{simulated['events_per_sec_wall']:,.0f}", f"{physical['events_per_sec_wall']:,.0f}"],
            ["wall seconds", f"{simulated['wall_seconds']:.2f}", f"{physical['wall_seconds']:.2f}"],
            ["busy seconds", f"{simulated['busy_seconds']:.2f}", f"{physical['busy_seconds']:.2f}"],
            ["join rows", simulated["rows"], physical["rows"]],
            ["submit to done (s)", f"{simulated['done_s']:.3f}", f"{physical['done_s']:.3f}"],
            ["messages sent", f"{simulated['messages_sent']:,}", f"{physical['messages_sent']:,}"],
            ["bytes sent (codec datagrams)", f"{simulated['bytes_sent']:,}", f"{physical['bytes_sent']:,}"],
        ],
    )
    print(f"slowdown: {entry['slowdown_x']:.1f}x (limit {RATIO_LIMIT:g}x)")
    benchmark.extra_info.update(
        {
            "simulated events/sec": simulated["events_per_sec"],
            "physical events/sec": physical["events_per_sec"],
            "slowdown_x": entry["slowdown_x"],
        }
    )

    # Same program, same answers — on both bindings, and again when the
    # repeated statement's plan travels by reference.
    assert simulated["rows"] == FACT_ROWS
    assert physical["rows"] == FACT_ROWS
    for binding in (simulated, physical):
        assert binding["repeat_rows"] == FACT_ROWS
        assert binding["templates_by_reference"] == 1
        assert binding["template_misses"] == 0
    # A streaming plan on sockets ends when its data does, not on timers.
    assert physical["completed_by"] == "data"
    assert physical["done_s"] < DONE_LIMIT_S, (
        f"physical query took {physical['done_s']:.3f} s from submit to done "
        f"(limit {DONE_LIMIT_S:g} s)"
    )
    # The physical wire path must never fall back to pickle.
    assert entry["physical_pickle_fallbacks"] == 0
    # The acceptance envelope: within 10x of the simulator.
    assert physical["events_per_sec"] * RATIO_LIMIT >= simulated["events_per_sec"], (
        f"physical binding {entry['slowdown_x']:.1f}x slower than simulated "
        f"(limit {RATIO_LIMIT:g}x)"
    )
