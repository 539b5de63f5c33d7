"""Message sizes for both runtime environments: the bytes the codec sends.

A message's size is the length of the datagram the physical runtime
would put on the wire for it — the fixed envelope header plus the
payload's :mod:`repro.runtime.codec` encoding.  The simulator charges
exactly that to its congestion models and byte counters, so simulated
and physical ``bytes_sent`` count the same bytes.

Sizing builds no bytes: :func:`repro.runtime.codec.encoded_size` walks
the payload by the codec's own tag and width rules, and an (immutable)
:class:`repro.qp.tuples.Tuple` memoizes its size, so a tuple is walked
once no matter how many hops or batches carry it.

:func:`datagram_runs` is where the operators that ship rows in batches
(the exchange's ``put_batch`` and the result handler's direct message)
cut a batch so that each message fits one datagram of the physical
runtime.  Both runtimes cut at the same rows, so the simulator still
charges what the sockets would send.  A batch that fits is handed back
as a :class:`~repro.runtime.codec.SizedList` carrying the size just
measured, so the message that carries it is sized without a second walk
of its rows.
"""

from __future__ import annotations

from typing import Any, List

from repro.runtime.codec import ENVELOPE_BYTES, MAX_DATAGRAM, SizedList, encoded_size

# The bytes of one datagram a batch of rows may fill.  The rest is left to
# the carrying message's routing fields (kind, namespace, partitioning key,
# suffix, request id, origin, trace id) and the transport's framing — room
# for a partitioning key of several hundred bytes.
ROW_BATCH_BYTES = MAX_DATAGRAM - 1024


def wire_size(payload: Any) -> int:
    """Bytes of the datagram that carries ``payload``."""
    return ENVELOPE_BYTES + encoded_size(payload)


# The older name, bound to the same function: tools outside ``src/`` call
# and time message sizing by either name.
estimate_message_size = wire_size


def datagram_runs(rows: List[Any]) -> List[List[Any]]:
    """``rows`` cut, in order, into runs that each fit one datagram.

    A list whose encoding fits :data:`ROW_BATCH_BYTES` is one run, a
    :class:`~repro.runtime.codec.SizedList` that carries that encoding's
    size.  A longer one is cut so that each run's rows, at their sizes in
    the lone-tuple form (memoized, and never less than what a row adds to
    the schema-once form), sum to at most that.  A single row larger than the
    limit is a run of its own: the physical runtime cannot send it (a
    known limit).
    """
    size = encoded_size(rows)
    if size <= ROW_BATCH_BYTES:
        run = SizedList(rows)
        run.size = size
        return [run]
    runs: List[List[Any]] = []
    start, total = 0, 5
    for index, row in enumerate(rows):
        size = encoded_size(row)
        if total + size > ROW_BATCH_BYTES and index > start:
            runs.append(rows[start:index])
            start, total = index, 5
        total += size
    runs.append(rows[start:])
    return runs
