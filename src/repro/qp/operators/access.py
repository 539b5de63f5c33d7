"""Access methods: the sources of every opgraph (paper Section 3.3.1).

Access methods contact a data source (the internal DHT or node-local
tables), convert items into PIER's self-describing tuple format, and
inject them into the dataflow.  Type inference/conversion happens here;
type *checking* is deferred to downstream operators.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from repro.qp.operators.base import (
    DEFAULT_PROBE_TAG,
    ExecutionContext,
    PhysicalOperator,
    register_operator,
)
from repro.qp.opgraph import OperatorSpec
from repro.qp.tuples import MalformedTupleError, Tuple


def coerce_tuple(table: str, value: Any) -> Optional[Tuple]:
    """Convert a stored object into a tuple, best-effort.

    Interned wire tuples pass through zero-copy; a bare mapping becomes a
    tuple of ``table``."""
    if isinstance(value, Tuple):
        return value
    if isinstance(value, dict):
        return Tuple(table, value)
    return None


class _AccessMethod(PhysicalOperator):
    """A source operator: no inputs; whatever the data source hands over in
    one go enters the dataflow as one batch.  A source whose hand-over is
    all it has — a base table's snapshot — follows it with
    :meth:`~PhysicalOperator.drained`; rows that may still arrive (a
    rendezvous namespace, ``newData``, appended rows) are not punctuated and leave buffering operators on their timers."""

    table: str  # what a bare mapping from the source is a row of
    # Objects the source handed over, before coercion dropped any: what a
    # scan of a query's rendezvous namespace counts as received.
    tuples_scanned = 0

    def _inject(self, values: Iterable[Any], tag: str) -> None:
        """Convert ``values`` to tuples and emit them as one batch; what
        cannot be made a tuple is dropped and counted."""
        batch = list(values)
        self.tuples_scanned += len(batch)
        progress = self.context.progress
        if progress is not None:
            progress.touch()
        if set(map(type, batch)) - {Tuple}:
            coerced = [coerce_tuple(self.table, value) for value in batch]
            batch = [tup for tup in coerced if tup is not None]
            self.stats.tuples_dropped += len(coerced) - len(batch)
        if batch:
            self.emit(batch, tag)

    def on_receive(self, tup: Tuple, slot: int, tag: str) -> None:
        raise MalformedTupleError("access methods have no inputs")


@register_operator
class DHTScanAccess(_AccessMethod):
    """Scan a DHT namespace at this node: existing objects via ``localScan``
    plus newly arriving ones via ``newData`` (Table 2's intra-node calls).

    Params: ``namespace`` (table name), optional ``scoped`` (default False:
    the namespace is a base table; True: it is a query-private rendezvous
    namespace such as the output of a ``put`` operator).  A base table's
    ``localScan`` is its snapshot, punctuated; a rendezvous namespace may
    still be filling, so its scan is not.
    """

    op_type = "dht_scan"
    streaming = True

    def __init__(self, spec: OperatorSpec, context: ExecutionContext) -> None:
        super().__init__(spec, context)
        self.namespace = self.require_param("namespace")
        self.scoped = bool(self.param("scoped", False))
        if self.scoped:
            self.namespace = context.scoped_namespace(self.namespace)
        self.table = self.param("table", self.require_param("namespace"))

    def start(self) -> None:
        self.listen(self.namespace, self._on_new_data, batched=True)

    def probe(self, tag: str = DEFAULT_PROBE_TAG) -> None:
        stored: List[object] = []
        self.context.overlay.local_scan(
            self.namespace, lambda _ns, _key, value: stored.append(value)
        )
        self._inject(stored, tag)
        if not self.scoped:
            self.drained()

    def _on_new_data(self, _namespace: str, _key: object, values: List[object]) -> None:
        self._inject(values, DEFAULT_PROBE_TAG)


@register_operator
class LocalTableAccess(_AccessMethod):
    """Scan a node-local, in-memory table registered with the executor.

    This is how per-node data sources such as firewall logs or packet
    traces enter the dataflow: each node holds only its own rows.  Like
    the DHT scan (localScan + newData), the operator is *live*: rows
    appended to the table while the opgraph runs are pushed into the
    dataflow, so standing (continuous) queries see data published after
    dissemination.  Params: ``table``, optional ``follow`` (default True;
    False restores the snapshot-only scan).
    """

    op_type = "local_table"
    streaming = True

    def __init__(self, spec: OperatorSpec, context: ExecutionContext) -> None:
        super().__init__(spec, context)
        self.table = self.require_param("table")
        self.follow = bool(self.param("follow", True))

    def _rows(self) -> Iterable[Tuple]:
        tables = self.context.extras.get("local_tables", {})
        return tables.get(self.table, [])

    def start(self) -> None:
        if not self.follow:
            return
        subscribe = self.context.extras.get("subscribe_local_table")
        if subscribe is not None:
            self._registrations.append(subscribe(self.table, self._on_rows_appended))

    def probe(self, tag: str = DEFAULT_PROBE_TAG) -> None:
        self._inject(self._rows(), tag)
        self.drained()

    def _on_rows_appended(self, rows: List[Tuple]) -> None:
        if not self._stopped:
            self._inject(rows, DEFAULT_PROBE_TAG)

