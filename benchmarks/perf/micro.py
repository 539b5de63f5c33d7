"""Isolated per-layer microbenchmarks: public calls, no deployment.

Each metric is the median of ``REPEATS`` timed passes over a batch of
inputs.  Inputs are built outside the timed pass and, where the program
memoizes on the object (tuple encodings, message sizes), built fresh for
every pass so the memo never answers.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple as PyTuple

from repro.catalog import Catalog
from repro.overlay.identifiers import ID_SPACE, node_identifier
from repro.overlay.router import ChordRouter, NodeContact
from repro.qp.aggregates import make_aggregate
from repro.qp.tuples import Tuple
from repro.runtime import codec, sizing
from repro.runtime.scheduler import MainScheduler
from repro.sql.planner import NaivePlanner
from workloads import Join64, fact_values

REPEATS = 5
JOIN_SQL = f"{Join64.statement} TIMEOUT 20"


# join64's twelve-column fact rows, as plain values: building the values
# is the workload generator's cost, not the tuple layer's.
FACT_VALUES = [fact_values(index, random.Random(index), 12, {"k": 8, "j": 40}) for index in range(256)]


def _fact(index: int) -> Tuple:
    return Tuple.make("hp_fact", **FACT_VALUES[index % len(FACT_VALUES)])


def _facts(count: int) -> List[Tuple]:
    return [_fact(index) for index in range(count)]


def _batch_message(first: int) -> Dict[str, Any]:
    """Shaped like the put_batch message the exchange ships: an envelope
    around (key, tuple) entries."""
    return {
        "type": "put_batch",
        "namespace": "q1:rehash",
        "entries": [(index % 8, _fact(index)) for index in range(first, first + 8)],
        "lifetime": 60.0,
    }


def _median_ns(
    prepare: Callable[[], Sequence[Any]], call: Callable[[Any], Any], pass_seconds: float, repeats: int
) -> float:
    """Median over ``repeats`` passes of nanoseconds per ``call(item)``;
    a pass takes fresh ``prepare()`` batches until ``pass_seconds`` of
    timed work has accumulated."""
    clock = time.perf_counter
    per_call = []
    for _ in range(repeats):
        spent, calls = 0.0, 0
        while calls == 0 or spent < pass_seconds:
            items = prepare()
            started = clock()
            for item in items:
                call(item)
            spent += clock() - started
            calls += len(items)
        per_call.append(spent / calls * 1e9)
    return statistics.median(per_call)


def _scheduled(live: int) -> PyTuple[MainScheduler, List[Any]]:
    """A scheduler holding ``live`` events, and the events."""
    scheduler = MainScheduler()
    rng = random.Random(live)
    return scheduler, [scheduler.schedule_callback(rng.uniform(0.0, 100.0), _nothing) for _ in range(live)]


def _nothing(_data: Any) -> None:
    pass


def _router(members: int) -> ChordRouter:
    contacts = [NodeContact(node_identifier(address), address) for address in range(members)]
    router = ChordRouter(contacts[0])
    router.refresh(contacts)
    return router


def run(budget_seconds: float, repeats: int = REPEATS) -> Dict[str, float]:
    """Every ``micro.*`` metric, spending about ``budget_seconds`` of
    timed work in all."""
    metrics: Dict[str, float] = {}
    pass_seconds = budget_seconds / (17 * repeats)

    def measure(name: str, prepare: Callable[[], Sequence[Any]], call: Callable[[Any], Any], per: int = 1) -> None:
        metrics[name] = _median_ns(prepare, call, pass_seconds, repeats) / per

    # runtime/codec.py: a tuple's encoding is memoized on the tuple.
    encoded = [codec.encode(tup) for tup in _facts(256)]
    encoded_batch = [codec.encode(_facts(64)) for _ in range(8)]
    measure("micro.codec.encode_tuple_ns", lambda: _facts(256), codec.encode)
    measure("micro.codec.decode_tuple_ns", lambda: encoded, codec.decode)
    measure("micro.codec.encode_batch64_ns_per_tuple", lambda: [_facts(64) for _ in range(8)], codec.encode, per=64)
    measure("micro.codec.decode_batch64_ns_per_tuple", lambda: encoded_batch, codec.decode, per=64)

    # qp/tuples.py
    facts = _facts(256)
    dimension = Tuple.make("hp_dim_k", dk_id=3, k=3, k_name="class-3")
    measure("micro.tuples.make_ns", lambda: range(256), _fact)
    measure("micro.tuples.project_ns", lambda: facts, lambda tup: tup.project(("k", "j", "src")))
    measure("micro.tuples.join_ns", lambda: facts, lambda tup: tup.join(dimension))
    measure("micro.tuples.key_ns", lambda: facts, lambda tup: tup.key(("k", "j")))

    # runtime/scheduler.py: one push and one pop against 10,000 live events.
    scheduler, _events = _scheduled(10_000)
    delays = [random.Random(7).uniform(0.0, 100.0) for _ in range(1024)]

    def push_pop(delay: float) -> None:
        scheduler.schedule_callback(delay, _nothing)
        scheduler.step()

    measure("micro.scheduler.push_pop_ns", lambda: delays, push_pop)
    measure(
        "micro.scheduler.cancel_ns",
        lambda: _scheduled(2048)[1],
        lambda event: event.cancel(),
    )

    # overlay/router.py
    targets = [random.Random(11).randrange(ID_SPACE) for _ in range(512)]
    for members in (64, 1024):
        measure(f"micro.router.route_choice_ns_{members}", lambda: targets, _router(members).route_choice)

    # runtime/sizing.py: sizes are memoized per wire object.
    measure("micro.sizing.estimate_ns", lambda: [_batch_message(i * 8) for i in range(32)], sizing.estimate_message_size)
    measure("micro.sizing.wire_size_ns", lambda: [_batch_message(i * 8) for i in range(32)], sizing.wire_size)

    # qp/aggregates.py: COUNT(*) and SUM(bytes), the states a group-by holds.
    functions = [make_aggregate("count"), make_aggregate("sum")]
    states = [function.initial() for function in functions]
    values = [(None, 64 + index % 1400) for index in range(1024)]

    def fold(row: Any) -> None:
        for position, function in enumerate(functions):
            states[position] = function.add(states[position], row[position])

    def merge(other: Any) -> None:
        for position, function in enumerate(functions):
            states[position] = function.merge(states[position], other[position])

    measure("micro.aggregates.fold_ns_per_row", lambda: values, fold)
    measure("micro.aggregates.merge_ns_per_state", lambda: [(3, 4096.0)] * 1024, merge)

    # sql/: parse and plan the join64 statement against a catalog.
    catalog = Catalog()
    for table, key in (("hp_fact", "f_id"), ("hp_dim_k", "dk_id"), ("hp_dim_j", "dj_id")):
        catalog.create_table(table, partitioning=[key])
    planner = NaivePlanner(catalog)
    measure("micro.sql.parse_plan_us", lambda: [JOIN_SQL] * 8, planner.plan_sql, per=1000)
    return metrics
