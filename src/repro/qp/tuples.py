"""Self-describing tuples (paper Section 3.3.1) over interned schemas.

PIER keeps no system catalog, so every tuple carries its own table name,
column names, and values.  Column values are native Python objects (the
paper used native Java objects); type checking is deferred to the moment a
comparison or function accesses the value, and tuples that do not match a
query's expectations are discarded best-effort (Section 3.3.4, "Malformed
Tuples").

Self-description is a *logical* property, not a storage layout: tuples of
the same shape share one interned :class:`Schema` (table name, column
order, and an O(1) column->index map), and a :class:`Tuple` is just a
schema reference plus a value tuple.  The tuple itself is the wire object
— senders ship it as-is and receivers use it as-is (``to_wire`` /
``from_wire``).  Tuples are immutable once created, which is what lets
the codec memoize a tuple's encoding and its encoded size (see
:mod:`repro.runtime.sizing`) and lets the simulator pass tuples between
virtual nodes by reference.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple as PyTuple


class MalformedTupleError(Exception):
    """Raised internally when a tuple lacks a field or has an unusable type.

    Operators catch this and silently drop the tuple ("best effort").
    """


class Schema:
    """An interned (table, columns) descriptor shared by same-shape tuples.

    Interning makes the per-tuple cost of self-description one pointer:
    the column list, the column->position map, and the packed wire header
    are computed once per distinct shape and shared by every tuple of that
    shape.  Use :meth:`intern`; constructing ``Schema`` directly creates
    an un-shared instance.
    """

    __slots__ = ("table", "columns", "index", "_packed_header", "_positions")

    _interned: Dict[PyTuple[str, PyTuple[str, ...]], "Schema"] = {}

    def __init__(self, table: str, columns: PyTuple[str, ...]) -> None:
        self.table = table
        self.columns = columns
        self.index: Dict[str, int] = {
            column: position for position, column in enumerate(columns)
        }
        self._packed_header: Optional[bytes] = None
        self._positions: Dict[
            PyTuple[Optional[str], ...], Optional[PyTuple[Optional[int], ...]]
        ] = {}

    @classmethod
    def intern(cls, table: str, columns: Iterable[str]) -> "Schema":
        key = (table, tuple(columns))
        schema = cls._interned.get(key)
        if schema is None:
            schema = cls._interned.setdefault(key, cls(key[0], key[1]))
        return schema

    def positions(
        self, columns: PyTuple[Optional[str], ...]
    ) -> Optional[PyTuple[Optional[int], ...]]:
        """Where ``columns`` sit in this schema's value tuples, or None
        when one of them is missing; a None among ``columns`` ("no column
        read here", as for COUNT(*)) stays None.  Remembered per distinct
        ``columns``, so an operator that reads the same columns of every
        row resolves their names once per schema, not once per tuple."""
        try:
            return self._positions[columns]
        except KeyError:
            index = self.index
            try:
                resolved = tuple(
                    [None if column is None else index[column] for column in columns]
                )
            except KeyError:
                resolved = None
            self._positions[columns] = resolved
            return resolved

    @property
    def packed_header(self) -> bytes:
        """Cached binary header (table + column names) for the wire codec.

        Computed once per interned schema; every tuple of this shape
        reuses it, so the per-tuple encoding cost is just the values.
        """
        header = self._packed_header
        if header is None:
            from repro.runtime import codec

            header = codec.pack_schema(self)
            self._packed_header = header
        return header

    def __reduce__(self):  # legacy pickle fallback (codec is the wire format)
        return (Schema.intern, (self.table, self.columns))

    def __repr__(self) -> str:
        return f"Schema({self.table}: {', '.join(self.columns)})"


def _restore_tuple(table: str, columns: PyTuple[str, ...], values: PyTuple[Any, ...]) -> "Tuple":
    """Unpickle hook: re-intern the schema in the receiving process."""
    return Tuple._from_parts(Schema.intern(table, columns), values)


class Tuple:
    """An immutable, self-describing relational tuple: schema + values."""

    __slots__ = ("schema", "_values", "_wire_size", "_hash", "_encoded")

    def __init__(self, table: str, values: Mapping[str, Any]) -> None:
        self.schema = Schema.intern(table, values.keys())
        self._values: PyTuple[Any, ...] = tuple(values.values())
        self._wire_size: Optional[int] = None  # codec.encoded_size memo
        self._hash: Optional[int] = None
        self._encoded: Optional[bytes] = None

    @classmethod
    def _from_parts(cls, schema: Schema, values: PyTuple[Any, ...]) -> "Tuple":
        """Internal fast constructor: no dict round-trip, no re-intern."""
        tup = object.__new__(cls)
        tup.schema = schema
        tup._values = values
        tup._wire_size = None
        tup._hash = None
        tup._encoded = None
        return tup

    # -- construction ------------------------------------------------------ #
    @staticmethod
    def make(table: str, **values: Any) -> "Tuple":
        return Tuple(table, values)

    @staticmethod
    def from_wire(payload: Any) -> "Tuple":
        """Accept a wire payload: an interned tuple passes through as-is
        (zero-copy — tuples are immutable); anything else is malformed."""
        if isinstance(payload, Tuple):
            return payload
        raise MalformedTupleError(f"not a tuple payload: {payload!r}")

    def to_wire(self) -> "Tuple":
        """Wire representation: the tuple itself (schema reference + values)."""
        return self

    # -- access -------------------------------------------------------------- #
    @property
    def table(self) -> str:
        return self.schema.table

    @property
    def columns(self) -> PyTuple[str, ...]:
        return self.schema.columns

    def __contains__(self, column: str) -> bool:
        return column in self.schema.index

    def __getitem__(self, column: str) -> Any:
        try:
            return self._values[self.schema.index[column]]
        except KeyError as exc:
            raise MalformedTupleError(
                f"tuple of table {self.table!r} has no column {column!r}"
            ) from exc

    def get(self, column: str, default: Any = None) -> Any:
        position = self.schema.index.get(column)
        if position is None:
            return default
        return self._values[position]

    def require(self, column: str, expected_type: Optional[type] = None) -> Any:
        """Strict access used by operators: missing column or wrong type means
        the tuple is malformed for this query and must be dropped."""
        value = self[column]
        if expected_type is not None and not isinstance(value, expected_type):
            raise MalformedTupleError(
                f"column {column!r} of table {self.table!r} is "
                f"{type(value).__name__}, expected {expected_type.__name__}"
            )
        return value

    def values(self) -> PyTuple[Any, ...]:
        return self._values

    def as_mapping(self) -> Dict[str, Any]:
        return dict(zip(self.schema.columns, self._values))

    # -- derivation ------------------------------------------------------------ #
    def project(self, columns: Iterable[str], table: Optional[str] = None) -> "Tuple":
        """A new tuple with only ``columns`` (missing columns are malformed)."""
        index = self.schema.index
        kept: List[str] = []
        positions: List[int] = []
        for column in columns:
            position = index.get(column)
            if position is None:
                raise MalformedTupleError(
                    f"tuple of table {self.table!r} has no column {column!r}"
                )
            if column not in kept:
                kept.append(column)
                positions.append(position)
        schema = Schema.intern(table or self.table, tuple(kept))
        return Tuple._from_parts(
            schema, tuple(self._values[position] for position in positions)
        )

    def extend(self, table: Optional[str] = None, **extra: Any) -> "Tuple":
        values = self.as_mapping()
        values.update(extra)
        return Tuple(table or self.table, values)

    def rename(self, table: str) -> "Tuple":
        return Tuple._from_parts(Schema.intern(table, self.schema.columns), self._values)

    def join(self, other: "Tuple", table: Optional[str] = None) -> "Tuple":
        """Concatenate two tuples; colliding columns are prefixed with the
        source table name, which keeps both values visible."""
        columns: List[str] = list(self.schema.columns)
        values: List[Any] = list(self._values)
        position: Dict[str, int] = dict(self.schema.index)
        for column, value in zip(other.schema.columns, other._values):
            at = position.get(column)
            if at is not None and values[at] != value:
                column = f"{other.table}.{column}"
                at = position.get(column)
            if at is not None:
                values[at] = value
            else:
                position[column] = len(columns)
                columns.append(column)
                values.append(value)
        schema = Schema.intern(table or f"{self.table}*{other.table}", tuple(columns))
        return Tuple._from_parts(schema, tuple(values))

    # -- identity ---------------------------------------------------------------- #
    def key(self, columns: Iterable[str]) -> PyTuple[Any, ...]:
        """A hashable key built from the named columns (for joins/group-by)."""
        index = self.schema.index
        values = self._values
        try:
            if columns.__class__ is list and len(columns) == 1:
                return (values[index[columns[0]]],)
            return tuple(values[index[column]] for column in columns)
        except KeyError as exc:
            raise MalformedTupleError(
                f"tuple of table {self.table!r} has no column {exc.args[0]!r}"
            ) from exc

    # -- binary wire form --------------------------------------------------- #
    def to_bytes(self) -> bytes:
        """The codec's binary encoding of this tuple, memoized.

        The schema header (table + columns) comes from the interned
        schema's cached blob; only the values are packed per tuple.
        Tuples are immutable once created, so the encoding is computed
        at most once no matter how many messages carry the tuple.
        """
        encoded = self._encoded
        if encoded is None:
            from repro.runtime import codec

            parts: List[bytes] = [
                bytes((codec.TAG_WIRE_TUPLE,)),
                self.schema.packed_header,
            ]
            for value in self._values:
                codec._encode_value(value, parts)
            encoded = b"".join(parts)
            self._encoded = encoded
        return encoded

    @staticmethod
    def from_bytes(data: bytes) -> "Tuple":
        """Decode a tuple produced by :meth:`to_bytes`, re-interning the
        schema in the receiving process."""
        from repro.runtime import codec

        value = codec.decode(data)
        if not isinstance(value, Tuple):
            raise MalformedTupleError(f"not an encoded tuple: {value!r}")
        return value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tuple):
            return NotImplemented
        if self.schema is other.schema:
            return self._values == other._values
        return self.table == other.table and self.as_mapping() == other.as_mapping()

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            # Over (column, value) pairs in no order: tuples of one table
            # with equal mappings are equal whatever their column order.
            pairs = zip(self.schema.columns, _hashable(self._values))
            value = hash((self.table, frozenset(pairs)))
            self._hash = value
        return value

    def __reduce__(self):  # for the codec's counted pickle fallback, the only pickler
        return (_restore_tuple, (self.table, self.schema.columns, self._values))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{c}={v!r}" for c, v in zip(self.schema.columns, self._values)
        )
        return f"Tuple({self.table}: {inner})"


def _hashable(values: PyTuple[Any, ...]) -> PyTuple[Any, ...]:
    converted: List[Any] = []
    for value in values:
        if isinstance(value, (list, set)):
            converted.append(tuple(value))
        elif isinstance(value, dict):
            converted.append(tuple(sorted(value.items())))
        else:
            converted.append(value)
    return tuple(converted)


def malformed_guard(function: Callable[..., Any]) -> Callable[..., Any]:
    """Decorator implementing the best-effort policy: if evaluating
    ``function`` raises a malformed-tuple or type error, the caller sees
    ``None`` and should drop the tuple."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        try:
            return function(*args, **kwargs)
        except (MalformedTupleError, TypeError, KeyError, AttributeError):
            return None

    return wrapper
