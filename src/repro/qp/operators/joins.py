"""Join operators (paper Section 3.3.4).

PIER's core join algorithms are the Symmetric Hash join — both inputs are
hashed as they arrive, so results stream out without blocking — and the
Fetch Matches join, a distributed index join that issues a DHT ``get`` for
each outer tuple against a published (primary or secondary) index.
Bloom-join and semi-join rewrites are composed from these plus the bloom
operators (see :mod:`repro.qp.plans`).
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from typing import Any, DefaultDict, Dict, List, Optional, Set, Tuple as PyTuple

from repro.qp.operators.access import coerce_tuple
from repro.qp.operators.base import PhysicalOperator, register_operator
from repro.qp.tuples import MalformedTupleError, Tuple


@register_operator
class SymmetricHashJoin(PhysicalOperator):
    """Pipelining equi-join: hash and probe both inputs symmetrically.

    Params: ``left_columns``, ``right_columns`` (equi-join key columns of
    the left and the right rows; keys compare as value tuples, so a
    composite key is type-exact), optional ``output_table``, optional
    ``left_table``.  Without ``left_table`` the left rows arrive on input
    slot 0 and the right rows on slot 1.  With it the operator has one
    input carrying both — a rendezvous scan — and a row is a left row when
    its table is ``left_table``.
    """

    op_type = "symmetric_hash_join"
    streaming = True

    def __init__(self, spec, context) -> None:  # noqa: ANN001
        super().__init__(spec, context)
        self.left_columns: List[str] = list(self.require_param("left_columns"))
        self.right_columns: List[str] = list(self.require_param("right_columns"))
        if len(self.left_columns) != len(self.right_columns):
            raise ValueError("join key column lists must have equal length")
        self.left_table: Optional[str] = self.param("left_table")
        self._tables: PyTuple[DefaultDict[Any, List[Tuple]], ...] = (
            defaultdict(list),
            defaultdict(list),
        )

    def on_batch(self, batch: List[Tuple], slot: int, tag: str) -> None:
        left_table = self.left_table
        if left_table is None and slot not in (0, 1):
            self.stats.tuples_dropped += len(batch)  # no such side: malformed for this join
            return
        key_columns = (self.left_columns, self.right_columns)
        tables = self._tables
        output_table = self.param("output_table")
        joined: List[Tuple] = []
        side = slot
        for tup in batch:
            if left_table is not None:
                side = 0 if tup.schema.table == left_table else 1
            try:
                key = tup.key(key_columns[side])
                tables[side][key].append(tup)
                partners = tables[1 - side].get(key)
                if partners:
                    if side == 0:
                        joined += [tup.join(partner, output_table) for partner in partners]
                    else:
                        joined += [partner.join(tup, output_table) for partner in partners]
            except (MalformedTupleError, TypeError, KeyError):
                self.stats.tuples_dropped += 1
        if joined:
            self.emit(joined, tag)

    @property
    def state_size(self) -> int:
        return sum(len(bucket) for table in self._tables for bucket in table.values())


@register_operator
class FetchMatchesJoin(PhysicalOperator):
    """Distributed index join: for each outer tuple, fetch matching inner
    tuples from the DHT index published under ``inner_namespace``.

    The inner relation must have been published into the DHT partitioned on
    the join key (a *primary index*), or be a (key, tupleID) secondary
    index that a subsequent Fetch Matches join dereferences.

    Params: ``outer_columns`` (join key columns of the outer input),
    ``inner_namespace``, ``inner_table`` (table name for fetched tuples),
    optional ``inner_filter_columns``/``output_table``/``scoped``.
    """

    op_type = "fetch_matches_join"

    def __init__(self, spec, context) -> None:  # noqa: ANN001
        super().__init__(spec, context)
        self.outer_columns: List[str] = list(self.require_param("outer_columns"))
        self.inner_namespace: str = self.require_param("inner_namespace")
        if self.param("scoped", False):
            self.inner_namespace = context.scoped_namespace(self.inner_namespace)
        self.inner_table: str = self.param("inner_table", self.inner_namespace)
        self.fetches_issued = 0
        self.fetches_completed = 0

    def on_receive(self, tup: Tuple, slot: int, tag: str) -> None:
        key = tup.key(self.outer_columns)
        lookup_key = key[0] if len(key) == 1 else key
        self.fetches_issued += 1

        def on_fetch(_namespace: str, _key: object, objects: List[object]) -> None:
            self.fetches_completed += 1
            inners = [coerce_tuple(self.inner_table, value) for value in objects]
            table = self.param("output_table")
            joined = [tup.join(inner, table=table) for inner in inners if inner is not None]
            self.stats.tuples_dropped += len(inners) - len(joined)
            self.emit(joined, tag)

        self.context.overlay.get(self.inner_namespace, lookup_key, on_fetch)


class BloomFilter:
    """A simple counting-free Bloom filter over join keys.

    Used by the Bloom-join rewrite: the filter summarising one relation's
    join keys is shipped to the other relation's partitions so that only
    probably-matching tuples are rehashed across the network.
    """

    def __init__(self, size_bits: int = 8192, hash_count: int = 3) -> None:
        if size_bits <= 0 or hash_count <= 0:
            raise ValueError("size_bits and hash_count must be positive")
        self.size_bits = size_bits
        self.hash_count = hash_count
        self.bits: Set[int] = set()
        self.items_added = 0

    def _positions(self, key: Any) -> List[int]:
        encoded = repr(key).encode()
        positions = []
        for index in range(self.hash_count):
            digest = hashlib.sha1(encoded + bytes([index])).digest()
            positions.append(int.from_bytes(digest[:8], "big") % self.size_bits)
        return positions

    def add(self, key: Any) -> None:
        self.items_added += 1
        self.bits.update(self._positions(key))

    def might_contain(self, key: Any) -> bool:
        return all(position in self.bits for position in self._positions(key))

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        if other.size_bits != self.size_bits or other.hash_count != self.hash_count:
            raise ValueError("cannot merge Bloom filters with different shapes")
        merged = BloomFilter(self.size_bits, self.hash_count)
        merged.bits = set(self.bits) | set(other.bits)
        merged.items_added = self.items_added + other.items_added
        return merged

    def to_dict(self) -> Dict[str, Any]:
        return {
            "size_bits": self.size_bits,
            "hash_count": self.hash_count,
            "bits": sorted(self.bits),
            "items_added": self.items_added,
        }

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "BloomFilter":
        bloom = BloomFilter(payload["size_bits"], payload["hash_count"])
        bloom.bits = set(payload["bits"])
        # Older serialisations lack "items_added"; infer non-emptiness from
        # the bit set so a populated filter never reads back as empty (which
        # made every probe a no-op).
        bloom.items_added = int(payload.get("items_added", 1 if bloom.bits else 0))
        return bloom


@register_operator
class BloomFilterBuild(PhysicalOperator):
    """Accumulate a Bloom filter over the input's join keys and publish it
    into a query-scoped DHT namespace on flush.

    Params: ``columns`` (key columns), ``filter_namespace``, optional
    ``size_bits``/``hash_count``.
    """

    op_type = "bloom_build"

    def __init__(self, spec, context) -> None:  # noqa: ANN001
        super().__init__(spec, context)
        self.columns: List[str] = list(self.require_param("columns"))
        self.filter_namespace = context.scoped_namespace(self.require_param("filter_namespace"))
        self.publish_delay = float(self.param("publish_delay", 0.5))
        self._published_items = -1
        self.bloom = BloomFilter(
            size_bits=int(self.param("size_bits", 8192)),
            hash_count=int(self.param("hash_count", 3)),
        )

    def start(self) -> None:
        # Publish shortly after the initial scan so probes waiting on the
        # filter see it early in the query, then keep republishing while new
        # keys arrive (e.g. streamed base data) so probe refreshes converge.
        if self.publish_delay > 0:
            self.arm_timer(self.publish_delay, self._periodic_publish)

    def _periodic_publish(self, _data: object) -> None:
        if self._stopped:
            return
        if self.bloom.items_added != self._published_items:
            self._publish()
        self.arm_timer(self.publish_delay, self._periodic_publish)

    def on_receive(self, tup: Tuple, slot: int, tag: str) -> None:
        self.bloom.add(tup.key(self.columns))

    def flush(self) -> None:
        self._publish()

    def _publish(self) -> None:
        if self._stopped:
            return
        self._published_items = self.bloom.items_added
        # The per-node suffix is stable, so a re-publish overwrites this
        # node's previous filter instead of accumulating duplicates.
        self.context.overlay.put(
            self.filter_namespace,
            key="bloom",
            suffix=f"from-{self.context.overlay.identifier:016x}",
            value=self.bloom.to_dict(),
            lifetime=self.context.lifetime,
        )


@register_operator
class BloomFilterProbe(PhysicalOperator):
    """Filter the input against the Bloom filters published under
    ``filter_namespace`` (dropping tuples that cannot join).

    The filter view is refreshed every ``wait`` seconds and refreshes merge
    monotonically, but a tuple tested against a not-yet-complete filter is
    dropped for good — the rewrite trades bandwidth for the same
    best-effort semantics as the rest of the system.

    Params: ``columns``, ``filter_namespace``, ``wait`` (seconds before the
    first filter fetch and between refreshes).
    """

    op_type = "bloom_probe"

    def __init__(self, spec, context) -> None:  # noqa: ANN001
        super().__init__(spec, context)
        self.columns: List[str] = list(self.require_param("columns"))
        self.filter_namespace = context.scoped_namespace(self.require_param("filter_namespace"))
        self.wait = float(self.param("wait", 2.5))
        self._bloom: Optional[BloomFilter] = None
        self._pending: List[PyTuple[Tuple, str]] = []
        self.tuples_filtered = 0

    def start(self) -> None:
        # Give builders elsewhere in the network time to publish their
        # filters; input tuples buffer until the merged filter arrives.
        if self.wait > 0:
            self.arm_timer(self.wait, self._fetch)
        else:
            self._fetch(None)

    def _fetch(self, _data: object) -> None:
        if self._stopped:
            return
        self.context.overlay.get(self.filter_namespace, "bloom", self._on_filters)
        # Keep refreshing so filters from late-starting builders (or
        # keys streamed into the build side mid-query) are picked up,
        # narrowing the false-negative window for later inner tuples.
        if self.wait > 0:
            self.arm_timer(self.wait, self._fetch)

    def _on_filters(self, _namespace: str, _key: object, objects: List[object]) -> None:
        bloom: Optional[BloomFilter] = None
        for payload in objects:
            if not isinstance(payload, dict):
                continue
            piece = BloomFilter.from_dict(payload)
            bloom = piece if bloom is None else bloom.merge(piece)
        if bloom is not None and self._bloom is not None:
            # Refresh: merging is monotone, so tuples already passed
            # stay valid; the refreshed filter only admits more.
            bloom = bloom.merge(self._bloom)
        self._bloom = bloom if bloom is not None else (self._bloom or BloomFilter())
        pending, self._pending = self._pending, []
        for tup, tag in pending:
            self.on_receive(tup, 0, tag)

    def on_receive(self, tup: Tuple, slot: int, tag: str) -> None:
        if self._bloom is None:
            self._pending.append((tup, tag))
            return
        if self._bloom.items_added == 0 or self._bloom.might_contain(tup.key(self.columns)):
            self.emit([tup], tag)
        else:
            self.tuples_filtered += 1

    def flush(self) -> None:
        # If the filter never arrived (query ended first), fall back to
        # passing the buffered tuples through unfiltered.
        if self._bloom is not None:
            return
        pending, self._pending = self._pending, []
        for tup, tag in pending:
            self.emit([tup], tag)
