"""See what a query's exchanges put on the simulated wire.

:func:`watch_put_batches` runs a callable while recording every tuple
that leaves a node inside a ``put_batch`` message — what the rehash
exchanges of a join ship — so tests can assert on the shipped rows'
columns and table names, not only on the answer.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Tuple as PyTuple

from repro import PIERNetwork
from repro.qp.tuples import Tuple


def is_internal_column(column: str) -> bool:
    """A column name only the join machinery could have made."""
    return column.startswith("__") or column.endswith(".__source_table__")


def put_batches(payload: Any) -> Iterator[dict]:
    """Every ``put_batch`` message inside ``payload``, however wrapped."""
    if isinstance(payload, dict):
        if payload.get("kind") == "put_batch":
            yield payload
        for value in payload.values():
            yield from put_batches(value)
    elif isinstance(payload, (list, tuple)):
        for value in payload:
            yield from put_batches(value)


def watch_put_batches(net: PIERNetwork, run: Callable[[], Any]) -> PyTuple[Any, List[Tuple]]:
    """Call ``run()``; return its result and every tuple shipped inside a
    ``put_batch`` meanwhile."""
    shipped: List[Tuple] = []
    transmit = net.environment.transmit

    def watching(source, source_port, destination, payload, ack):  # noqa: ANN001
        for message in put_batches(payload):
            shipped.extend(value for value in message["values"] if isinstance(value, Tuple))
        transmit(source, source_port, destination, payload, ack)

    net.environment.transmit = watching
    try:
        result = run()
    finally:
        del net.environment.transmit
    return result, shipped
