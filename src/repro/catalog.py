"""The deployment-owned system catalog.

The paper deliberately ships PIER without a catalog: placement metadata is
"out-of-band" (Section 4.2.1) and every application re-describes its tables
to the optimizer by hand, so the publisher and the optimizer can silently
disagree.

:class:`Catalog` closes that gap.  One catalog hangs off each
:class:`~repro.api.PIERNetwork` and is the single source of truth for

* table name -> source (``"dht"`` for DHT-published tables, ``"local"``
  for per-node tables),
* the partitioning columns of the table's primary DHT index,
* an optional declared schema (column names), and
* the soft-state lifetime of published tuples.

A table enters it one way, :meth:`Catalog.create_table`; publishing into
an undeclared table, or using a table against its declared source, raises
:class:`CatalogError`.  The :class:`~repro.qp.stats.Statistics` catalog
hangs off the same object, so the planner and the publishing path can
never disagree about either placement or statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from repro.qp.stats import Statistics

TABLE_SOURCES = {"dht", "local"}


class CatalogError(ValueError):
    """Raised for inconsistent or missing catalog metadata."""


@dataclass
class TableDescriptor:
    """Everything the deployment knows about one table."""

    name: str
    source: str = "dht"
    partitioning: List[str] = field(default_factory=list)
    schema: Optional[List[str]] = None
    lifetime: float = 600.0

    def __post_init__(self) -> None:
        if self.source not in TABLE_SOURCES:
            raise CatalogError(
                f"unknown table source {self.source!r}; options: {sorted(TABLE_SOURCES)}"
            )
        if self.source == "local" and self.partitioning:
            raise CatalogError(
                f"local table {self.name!r} cannot declare partitioning columns"
            )
        if self.lifetime <= 0:
            raise CatalogError(f"table {self.name!r} lifetime must be positive")


class Catalog:
    """Name -> :class:`TableDescriptor` registry plus the statistics catalog."""

    def __init__(self, statistics: Optional[Statistics] = None) -> None:
        self.statistics = statistics if statistics is not None else Statistics()
        self._tables: Dict[str, TableDescriptor] = {}

    # -- registration ------------------------------------------------------- #
    def create_table(
        self,
        name: str,
        source: str = "dht",
        partitioning: Optional[Sequence[str]] = None,
        schema: Optional[Sequence[str]] = None,
        lifetime: float = 600.0,
        replace: bool = False,
    ) -> TableDescriptor:
        """Declare a table.  ``replace=True`` overwrites an existing entry
        (and forgets its statistics — the redefined table starts fresh)."""
        if name in self._tables:
            if not replace:
                raise CatalogError(f"table {name!r} already exists in the catalog")
            self.statistics.forget(name)
        descriptor = TableDescriptor(
            name=name,
            source=source,
            partitioning=list(partitioning or []),
            schema=list(schema) if schema is not None else None,
            lifetime=lifetime,
        )
        self._tables[name] = descriptor
        return descriptor

    def drop_table(self, name: str) -> None:
        self._tables.pop(name, None)
        self.statistics.forget(name)

    # -- lookups -------------------------------------------------------------- #
    def describe(self, name: str) -> Optional[TableDescriptor]:
        return self._tables.get(name)

    def require(self, name: str, source: str) -> TableDescriptor:
        """The entry for ``name``, which must be declared as a ``source``
        table."""
        descriptor = self._tables.get(name)
        if descriptor is None:
            raise CatalogError(
                f"table {name!r} is not in the catalog; declare it with "
                f"create_table({name!r}, source={source!r})"
            )
        if descriptor.source != source:
            raise CatalogError(
                f"table {name!r} is declared as a {descriptor.source!r} table, not "
                f"a {source!r} one (create_table({name!r}, source={descriptor.source!r}))"
            )
        return descriptor

    def partitioning(self, name: str) -> Optional[List[str]]:
        descriptor = self._tables.get(name)
        return list(descriptor.partitioning) if descriptor is not None else None

    def tables(self) -> List[TableDescriptor]:
        return list(self._tables.values())

    def __contains__(self, name: object) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[str]:
        return iter(self._tables)

    def __len__(self) -> int:
        return len(self._tables)

    # -- statistics pass-through ----------------------------------------------- #
    def record(self, table: str, values: Mapping[str, Any]) -> None:
        """Fold one stored row into the table's statistics."""
        self.statistics.record(table, values)

    def record_rows(self, table: str, rows: Iterable[Mapping[str, Any]]) -> int:
        return self.statistics.record_rows(table, rows)

    def summary(self) -> Dict[str, Dict[str, Any]]:
        """A plain-data snapshot combining placement and statistics."""
        stats = self.statistics.summary()
        return {
            name: {
                "source": descriptor.source,
                "partitioning": list(descriptor.partitioning),
                "lifetime": descriptor.lifetime,
                **stats.get(name, {}),
            }
            for name, descriptor in self._tables.items()
        }
