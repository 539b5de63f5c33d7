"""Dataflow plumbing operators: put (exchange) and result handler.

``put`` is PIER's analogue of the Exchange operator [Graefe 90]: it
repartitions tuples across the network by publishing them into a DHT
namespace keyed on chosen columns, where the consumer opgraph picks them up
with a ``dht_scan`` access method.  The result handler ships answer tuples to the query's proxy node.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.overlay.naming import random_suffix
from repro.qp.operators.base import PhysicalOperator, register_operator
from repro.qp.tuples import Tuple
from repro.runtime.sizing import datagram_runs, wire_size

RESULT_NAMESPACE = "__results__"

# Seconds a buffering operator holds a partly filled batch of input that
# was not punctuated before it ships it anyway: the default of the
# deployment's ``exchange_flush_interval`` and the floor of a stream's
# result flush.
STRAGGLER_FLUSH_INTERVAL = 0.25


class _StragglerFlushTimer:
    """Shared straggler-timer behaviour for buffering operators.

    Keeps at most one pending flush callback: :meth:`_arm_flush_timer`
    schedules it, and when it fires the operator's ``flush()`` ships
    whatever is buffered (or, after teardown, :meth:`_discard_buffered`
    drops it).  A punctuation (:meth:`drained`) ships at once what the
    timer would have: the rows of a drained source gain nothing by
    waiting.  Mixed into operators that also derive from
    :class:`PhysicalOperator` (which supplies ``context``, ``flush`` and
    ``_stopped``).
    """

    flush_interval: float = 0.0
    _flush_timer_scheduled: bool = False

    def _arm_flush_timer(self) -> None:
        if self.flush_interval > 0 and not self._flush_timer_scheduled:
            self._flush_timer_scheduled = True
            self.arm_timer(self.flush_interval, self._on_flush_timer)

    def _on_flush_timer(self, _data: object) -> None:
        self._flush_timer_scheduled = False
        if self._stopped:
            self._discard_buffered()
            return
        self.flush()

    def drained(self) -> None:
        """Every input drained: ship what is held, then pass it on."""
        if self._stopped:
            return
        self.flush()
        if self._flush_timer_scheduled:
            # Nothing is left for the straggler timer to ship, and it is
            # the only timer these operators arm.
            self.disarm_timers()
            self._flush_timer_scheduled = False
        super().drained()

    def stop(self) -> None:
        """Discard buffered tuples and disarm the straggler timer.

        A cancelled query must stop generating network traffic immediately:
        without this, tuples buffered at cancel time would be shipped by a
        later ``flush()`` call (or sit armed behind ``_flush_timer_scheduled``
        forever), leaking post-cancel ``put_batch`` traffic onto the DHT.
        """
        super().stop()
        self._discard_buffered()
        self._flush_timer_scheduled = False

    def _discard_buffered(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


@register_operator
class PutExchange(_StragglerFlushTimer, PhysicalOperator):
    """Publish each input tuple into the DHT, partitioned by key columns.

    This is the "rehash" phase of parallel hash joins and multi-phase
    aggregation: a tuple's partitioning key decides which node receives it.

    With batching enabled, same-destination tuples (same partitioning key)
    are coalesced and shipped in one ``put_batch`` message per flush — one
    DHT lookup and one direct message carry a whole batch instead of one
    message per tuple.  A partition flushes when it reaches ``batch_size``
    tuples; the partly filled rest ships when the input is punctuated (a
    base table's scan has handed over its snapshot), else on a straggler
    timer ``flush_interval`` seconds after it began to fill; query
    teardown flushes whatever remains.
    A flush whose rows would not fit one datagram ships as several
    batches (:func:`~repro.runtime.sizing.datagram_runs`).

    Params: ``namespace`` (rendezvous, query-scoped by default),
    ``key_columns`` (one list of column names for every input, or a list
    of such lists, one per input slot: the two sides of a rehash join share
    one exchange but name their join columns differently),
    optional ``lifetime``, ``use_send`` (route the object
    hop-by-hop with upcalls — required for hierarchical operators — instead
    of the two-phase put; never batched), ``scoped`` (default True),
    ``batch_size`` and ``flush_interval`` (defaults come from the execution
    context's ``exchange_batch_size`` / ``exchange_flush_interval`` extras,
    i.e. the deployment-level knobs; a batch size of 1 disables batching).
    """

    op_type = "put"
    streaming = True

    @classmethod
    def streams(cls, spec) -> bool:  # noqa: ANN001
        # A routed (use_send) put feeds the in-path hierarchical operators,
        # which hold state until the deadline.
        return cls.streaming and not spec.params.get("use_send", False)

    def __init__(self, spec, context) -> None:  # noqa: ANN001
        super().__init__(spec, context)
        namespace = self.require_param("namespace")
        self.namespace = (
            context.scoped_namespace(namespace) if self.param("scoped", True) else namespace
        )
        key_columns = self.require_param("key_columns")
        self._keyed_per_slot = bool(key_columns) and not isinstance(key_columns[0], str)
        self.key_columns: List[Any] = (
            [list(columns) for columns in key_columns]
            if self._keyed_per_slot
            else list(key_columns)
        )
        self.lifetime = float(self.param("lifetime", context.lifetime))
        self.use_send = bool(self.param("use_send", False))
        self.batch_size = int(
            self.param("batch_size", context.extras.get("exchange_batch_size", 1))
        )
        self.flush_interval = float(
            self.param(
                "flush_interval",
                context.extras.get("exchange_flush_interval", STRAGGLER_FLUSH_INTERVAL),
            )
        )
        if self.batch_size > 1 and self.flush_interval <= 0:
            # Without a straggler timer, partitions below batch_size would
            # only flush at teardown — after consumer graphs have stopped —
            # and their tuples would be lost.  Batching always keeps a timer.
            self.flush_interval = STRAGGLER_FLUSH_INTERVAL
        self.tuples_published = 0
        self.batches_published = 0
        self._buffers: Dict[Any, List[Any]] = {}

    def _note_shipped(self, payload: Any) -> None:
        # EXPLAIN ANALYZE actuals: messages are always counted (one int
        # add), their wire bytes only for traced queries (sizing costs
        # real work).
        self.stats.messages_shipped += 1
        if self._obs is not None:
            self.stats.bytes_shipped += wire_size(payload)

    def on_receive(self, tup: Tuple, slot: int, tag: str) -> None:
        key = tup.key(self.key_columns[slot] if self._keyed_per_slot else self.key_columns)
        partition_key = key[0] if len(key) == 1 else key
        self.tuples_published += 1
        if self.use_send:
            wire = tup.to_wire()
            self._note_shipped(wire)
            self.context.overlay.send(
                self.namespace, partition_key, random_suffix(), wire, self.lifetime
            )
            return
        if self.batch_size <= 1:
            wire = tup.to_wire()
            self._note_shipped(wire)
            self.context.overlay.put(
                self.namespace, partition_key, random_suffix(), wire, self.lifetime
            )
            return
        bucket = self._buffers.setdefault(partition_key, [])
        bucket.append(tup.to_wire())
        if len(bucket) >= self.batch_size:
            self._flush_partition(partition_key)
        else:
            self._arm_flush_timer()

    def _discard_buffered(self) -> None:
        self._buffers.clear()

    def _flush_partition(self, partition_key: Any) -> None:
        values = self._buffers.pop(partition_key, None)
        if not values:
            return
        for run in datagram_runs(values):
            self.batches_published += 1
            self.stats.messages_shipped += 1
            if self._obs is not None:
                self.stats.bytes_shipped += wire_size(run)
            self.context.overlay.put_batch(self.namespace, partition_key, run, self.lifetime)

    def flush(self) -> None:
        if self._stopped:
            self._discard_buffered()
            return
        for partition_key in list(self._buffers):
            self._flush_partition(partition_key)

    @property
    def buffered(self) -> int:
        return sum(len(bucket) for bucket in self._buffers.values())

    def residual_buffered(self) -> int:
        return self.buffered


@register_operator
class ResultHandler(_StragglerFlushTimer, PhysicalOperator):
    """Forward answer tuples to the client's proxy node.

    When this node *is* the proxy, results are delivered through the
    context's ``deliver_result`` hook; otherwise they are sent directly to
    the proxy's address, tagged with the query id, optionally in batches
    (a batch that would not fit one datagram is sent as several).
    Params: optional ``batch`` (default 1), ``table`` (rename of results),
    ``flush_interval`` (seconds; default from the execution context's
    ``result_flush_interval`` extra, 0 disables).  A partly filled batch
    ships at once when its input is punctuated (a ``SELECT … FROM t``
    handler after the base table's snapshot).  Otherwise a flush interval
    ships it one interval after it began to fill, so sparse per-node
    results reach the client stream long before the query-timeout flush —
    streaming sessions (``PIERNetwork.stream``) turn it on through plan
    metadata.
    """

    op_type = "result_handler"
    streaming = True

    def __init__(self, spec, context) -> None:  # noqa: ANN001
        super().__init__(spec, context)
        self.batch = int(self.param("batch", 1))
        self.flush_interval = float(
            self.param("flush_interval", context.extras.get("result_flush_interval", 0.0))
        )
        self._pending: List[Tuple] = []
        self.results_shipped = 0

    def on_receive(self, tup: Tuple, slot: int, tag: str) -> None:
        if self.param("table"):
            tup = tup.rename(self.param("table"))
        self._pending.append(tup)
        if len(self._pending) >= self.batch:
            self._ship()
        else:
            self._arm_flush_timer()

    def _discard_buffered(self) -> None:
        self._pending.clear()

    def residual_buffered(self) -> int:
        return len(self._pending)

    def flush(self) -> None:
        self._ship()

    def _ship(self) -> None:
        if self._stopped:
            self._pending.clear()
            return
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self.results_shipped += len(batch)
        if (
            self.context.deliver_result is not None
            and self.context.proxy_address == self.context.overlay.address
        ):
            for tup in batch:
                self.context.deliver_result(tup)
            return
        for run in datagram_runs([tup.to_wire() for tup in batch]):
            self.stats.messages_shipped += 1
            if self._obs is not None:
                self.stats.bytes_shipped += wire_size(run)
            self.context.overlay.direct_message(
                self.context.proxy_address,
                namespace=RESULT_NAMESPACE,
                key=self.context.query_id,
                value=run,
            )
