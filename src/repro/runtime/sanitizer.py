"""SimSanitizer: opt-in runtime verification of the zero-copy simulator.

The simulator ships message payloads (including interned ``Tuple`` objects)
**by reference** between virtual nodes, so "wire objects are immutable once
sent" is a correctness contract rather than a property the runtime can
guarantee.  This module enforces it dynamically, plus the other invariants
the discrete-event model depends on:

* **Freeze-on-send** — every transmitted payload is fingerprinted
  (structural SHA-256) when it enters the network and re-verified when it
  is delivered; a mismatch means the *sender side* kept an alias and wrote
  through it while the message was in flight.
* **Aliasing writes after delivery** — delivered payloads are retained (a
  bounded window) and re-verified at the end of every ``run()`` call,
  catching a *receiver* that mutated a zero-copy payload it does not own.
  The routing-envelope keys ``hops``, ``final`` and ``path`` are exempt at
  any depth: the routing layer owns the envelope of a message in flight
  and updates those fields per hop by design (see ``overlay/wrapper.py``
  and the in-path operators in ``qp/hierarchical.py``).
* **Timer / buffer / registration ledgers** — every timer armed through an
  operator's ``ExecutionContext`` is recorded; after a query's operators
  are ``stop()``-ed, any timer still live, any tuple still buffered or any
  overlay registration still held by one of them is a leak and raises,
  naming the operator and callback.
* **Release ledger** — when a node drops the last install record of a
  query (one retention after it finished there), nothing of the query may
  still be reachable from the node: no install record, no overlay or
  local-table registration, no armed timer.  The node's opgraph template
  cache is audited on every sweep of it: a template expired by the sweep
  is gone, and no template left pins a query (its envelope, plan or
  handle) or anything that ran one (an operator, a context, a record).
* **Run-to-run determinism** — each dispatched event folds into a running
  digest; :func:`verify_determinism` runs a seeded scenario twice and
  compares digests.

Enable with ``SimulationEnvironment(sanitize=True)`` or ``PIER_SANITIZE=1``.
The sanitizer is entirely off the hot path when disabled (a ``None``
attribute check per send).
"""

from __future__ import annotations

import hashlib
import types
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Iterable, List, Optional, Tuple as PyTuple

__all__ = ["SanitizerError", "SimSanitizer", "payload_fingerprint", "verify_determinism"]

# Importing repro.qp.tuples runs the repro.qp package's imports (executor,
# operators), which import the runtime back; so that importing this module
# never depends on that order, the fingerprint walk resolves the classes
# on first use.
_TUPLE_CLASSES: Optional[PyTuple[type, type]] = None


def _tuple_classes() -> PyTuple[type, type]:
    global _TUPLE_CLASSES
    if _TUPLE_CLASSES is None:
        from repro.qp.tuples import Schema, Tuple

        _TUPLE_CLASSES = (Tuple, Schema)
    return _TUPLE_CLASSES


def _query_classes() -> PyTuple[type, ...]:
    """What a template shared across queries must never reach."""
    from repro.qp.executor import InstalledGraph
    from repro.qp.opgraph import QueryEnvelope, QueryPlan
    from repro.qp.operators.base import ExecutionContext, PhysicalOperator
    from repro.qp.proxy import QueryHandle

    return (QueryEnvelope, QueryPlan, QueryHandle, PhysicalOperator, ExecutionContext, InstalledGraph)


_LEAVES = (str, bytes, int, float, bool, type(None), type, types.ModuleType)


def _first_reachable(root: Any, classes: PyTuple[type, ...]) -> Any:
    """The first object of ``classes`` reachable from ``root`` through
    containers and instance fields, or None."""
    seen = set()
    stack = [root]
    while stack:
        value = stack.pop()
        if isinstance(value, _LEAVES) or id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, classes):
            return value
        if isinstance(value, dict):
            stack.extend(value.keys())
            stack.extend(value.values())
        elif isinstance(value, (list, tuple, set, frozenset)):
            stack.extend(value)
        else:
            stack.extend(getattr(value, "__dict__", {}).values())
            for klass in type(value).__mro__:
                slots = klass.__dict__.get("__slots__", ())
                for name in (slots,) if isinstance(slots, str) else slots:
                    if name not in ("__dict__", "__weakref__"):
                        stack.append(getattr(value, name, None))
    return None


class SanitizerError(RuntimeError):
    """An invariant of the zero-copy messaging contract was violated."""


# Routing-envelope fields legitimately rewritten per hop by the node that
# currently owns the message: the wrapper's hop counter and final-hop flag,
# and the hierarchical layer's accumulated routing path.  They are skipped
# at every dict depth — in-path operators carry their envelopes nested
# inside the overlay message's "value" field.  (The pierlint P02
# suppressions in overlay/wrapper.py and qp/hierarchical.py mark the
# matching write sites.)
_ENVELOPE_KEYS = frozenset({"hops", "final", "path"})
_MAX_DEPTH = 12


def payload_fingerprint(payload: Any) -> bytes:
    """A structural SHA-256 over ``payload`` (type-tagged, order-stable).

    ``hops``/``final``/``path`` dict keys are skipped at any depth — they
    belong to the routing envelope, not the frozen application payload.
    """
    digest = hashlib.sha256()
    _fold(digest, payload, 0)
    return digest.digest()


def _fold(digest: "hashlib._Hash", value: Any, depth: int) -> None:
    if depth > _MAX_DEPTH:
        digest.update(b"\x7fdeep")
        return
    if value is None:
        digest.update(b"\x00")
    elif value is True:
        digest.update(b"\x01T")
    elif value is False:
        digest.update(b"\x01F")
    elif isinstance(value, int):
        digest.update(b"\x02" + repr(value).encode())
    elif isinstance(value, float):
        digest.update(b"\x03" + repr(value).encode())
    elif isinstance(value, str):
        raw = value.encode("utf-8", "surrogatepass")
        digest.update(b"\x04%d:" % len(raw) + raw)
    elif isinstance(value, (bytes, bytearray)):
        digest.update(b"\x05%d:" % len(value) + bytes(value))
    elif isinstance(value, _tuple_classes()[0]):
        # Fold the schema identity and the value vector; the memoised
        # wire-size/hash caches are deliberately excluded (they are lazily
        # populated and not part of the payload's meaning).
        digest.update(b"\x08T")
        _fold(digest, value.schema.table, depth + 1)
        _fold(digest, list(value.schema.columns), depth + 1)
        for item in value.values():
            _fold(digest, item, depth + 1)
    elif isinstance(value, _tuple_classes()[1]):
        digest.update(b"\x09S")
        _fold(digest, value.table, depth + 1)
        _fold(digest, list(value.columns), depth + 1)
    elif isinstance(value, dict):
        digest.update(b"\x06{")
        entries = []
        for key, item in value.items():
            if key in _ENVELOPE_KEYS:
                continue
            entries.append((repr(key), key, item))
        entries.sort(key=lambda entry: entry[0])
        for _, key, item in entries:
            _fold(digest, key, depth + 1)
            _fold(digest, item, depth + 1)
        digest.update(b"}")
    elif isinstance(value, (list, tuple)):
        digest.update(b"\x07[")
        for item in value:
            _fold(digest, item, depth + 1)
        digest.update(b"]")
    elif isinstance(value, (set, frozenset)):
        digest.update(b"\x0a(")
        for item in sorted(repr(element) for element in value):
            digest.update(item.encode())
            digest.update(b",")
        digest.update(b")")
    else:
        # Arbitrary objects: class identity plus public instance fields
        # (underscore-prefixed attributes are treated as caches/bookkeeping
        # and excluded, matching the Tuple special case above).
        digest.update(b"\x0bO")
        digest.update(type(value).__qualname__.encode())
        fields = _public_fields(value)
        if fields is None:
            digest.update(repr(value).encode())
            return
        for name in sorted(fields):
            digest.update(name.encode())
            _fold(digest, fields[name], depth + 1)


def _public_fields(value: Any) -> Optional[dict]:
    slot_names: List[str] = []
    for klass in type(value).__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        slot_names.extend(
            name for name in slots if name not in ("__dict__", "__weakref__")
        )
    instance_dict = getattr(value, "__dict__", None)
    if instance_dict is None and not slot_names:
        return None
    fields = {
        name: item for name, item in (instance_dict or {}).items()
        if not name.startswith("_")
    }
    for name in slot_names:
        if name.startswith("_"):
            continue
        try:
            fields[name] = getattr(value, name)
        except AttributeError:
            continue
    return fields


def _summarize(payload: Any, limit: int = 160) -> str:
    if isinstance(payload, _tuple_classes()[0]):
        text = f"Tuple({payload.schema.table!r}, {dict(zip(payload.schema.columns, payload.values()))!r})"
    elif isinstance(payload, dict):
        kind = payload.get("type") or payload.get("namespace")
        text = f"dict(type/namespace={kind!r}, keys={sorted(map(repr, payload))})"
    else:
        text = repr(payload)
    return text if len(text) <= limit else text[: limit - 3] + "..."


@dataclass(slots=True)
class _WireRecord:
    """One fingerprinted in-flight (then delivered) message."""

    payload: Any
    digest: bytes
    source: int
    destination: int
    sent_at: float


class SimSanitizer:
    """Dynamic checker attached to one :class:`SimulationEnvironment`."""

    def __init__(self, retention: int = 1024) -> None:
        # Delivered payloads re-verified at final_check (receiver-side
        # aliasing); bounded so long simulations stay O(retention).
        self._retained: Deque[_WireRecord] = deque(maxlen=retention)
        self.sends_fingerprinted = 0
        self.deliveries_verified = 0
        self.final_checks = 0
        # Event-log digest for run-to-run determinism comparisons.
        self._event_digest = hashlib.sha256()
        self.events_observed = 0

    # -- wire-object freezing ------------------------------------------------ #
    def note_send(
        self, source: int, destination: int, payload: Any, now: float
    ) -> _WireRecord:
        """Fingerprint ``payload`` as it enters the network."""
        self.sends_fingerprinted += 1
        return _WireRecord(
            payload=payload,
            digest=payload_fingerprint(payload),
            source=source,
            destination=destination,
            sent_at=now,
        )

    def verify_delivery(self, record: _WireRecord, now: float) -> None:
        """Re-verify the fingerprint at the moment of delivery."""
        if payload_fingerprint(record.payload) != record.digest:
            raise SanitizerError(
                f"wire payload mutated in flight: message sent by node "
                f"{record.source} at t={record.sent_at:.3f} changed before its "
                f"delivery to node {record.destination} at t={now:.3f} — the "
                f"sender kept a live alias to a zero-copy payload; "
                f"payload={_summarize(record.payload)}"
            )
        self.deliveries_verified += 1
        self._retained.append(record)

    def final_check(self) -> None:
        """Re-verify retained delivered payloads (receiver-side writes)."""
        self.final_checks += 1
        while self._retained:
            record = self._retained.popleft()
            if payload_fingerprint(record.payload) != record.digest:
                raise SanitizerError(
                    f"delivered wire payload mutated after delivery: message "
                    f"from node {record.source} (t={record.sent_at:.3f}) was "
                    f"modified by its receiver, node {record.destination} — "
                    f"receivers must copy zero-copy payloads before writing; "
                    f"payload={_summarize(record.payload)}"
                )

    # -- per-query timer / buffer ledgers ------------------------------------- #
    def check_teardown(self, installed: Any, overlay: Any) -> None:
        """After ``stop()``: no armed timers, no buffered tuples and no
        overlay registrations may remain.

        ``installed`` is a :class:`repro.qp.executor.InstalledGraph`; its
        ``armed_events`` (its context's ledger, which the record keeps past
        finish) records every event armed through ``ExecutionContext
        .schedule`` while sanitizing.  ``overlay`` is the node's
        :class:`~repro.overlay.wrapper.OverlayNode`.
        """
        node_address = overlay.address
        leaked = self._live_timers(installed)
        if leaked:
            details = ", ".join(self._describe_timer(event) for event in leaked[:5])
            raise SanitizerError(
                f"timer leak: query {installed.query_id!r} graph "
                f"{installed.graph_id!r} on node {node_address!r} left "
                f"{len(leaked)} timer(s) armed after stop() — operators must "
                f"arm timers via PhysicalOperator.arm_timer (cancelled by "
                f"stop()); leaked: {details}"
            )
        if installed.armed_events:
            # Audited.  What the release ledger looks at is what gets armed
            # from here on — and the dispatched events' callbacks would tie
            # the stopped operators into a cycle with their context.
            installed.armed_events.clear()
        for operator_id, operator in installed.operators.items():
            residual = getattr(operator, "residual_buffered", lambda: 0)()
            if residual:
                raise SanitizerError(
                    f"buffer leak: query {installed.query_id!r} operator "
                    f"{operator_id!r} ({type(operator).__name__}) on node "
                    f"{node_address!r} still buffers {residual} tuple(s) "
                    f"after stop()"
                )
        operators = {id(operator) for operator in installed.operators.values()}
        for namespace, handler in overlay.registrations():
            owner = getattr(handler, "__self__", None)
            if id(owner) in operators:
                raise SanitizerError(
                    f"registration leak: query {installed.query_id!r} operator "
                    f"{owner.spec.operator_id!r} ({type(owner).__name__}) on node "
                    f"{node_address!r} is still registered for namespace "
                    f"{namespace!r} after stop() — operators must register through "
                    f"PhysicalOperator.listen / intercept (undone by stop())"
                )

    def check_released(self, query_id: str, executor: Any, released: Iterable[Any] = ()) -> None:
        """After a node dropped its last install record of ``query_id``:
        nothing of the query may still be reachable from the node.

        ``executor`` is the node's :class:`repro.qp.executor.QueryExecutor`;
        ``released`` are the records it just dropped, whose timer ledgers
        are checked for timers still armed.  Reachable means: an install record
        of the query, a handler in the overlay's ``new_data`` / ``upcall``
        maps or the executor's local-table listeners that belongs to one of
        its operators or sits under one of its private namespaces, or a
        live entry in an ``ExecutionContext.armed_events``.
        """
        node_address = executor.overlay.address
        prefix = f"{query_id}:"

        def of_query(callback: Any) -> bool:
            context = getattr(getattr(callback, "__self__", None), "context", None)
            return getattr(context, "query_id", None) == query_id

        held = [
            f"install record {install_key!r}"
            for install_key, installed in executor._installed.items()
            if installed.query_id == query_id
        ]
        held += [
            f"overlay registration for {namespace!r}"
            for namespace, handler in executor.overlay.registrations()
            if namespace.startswith(prefix) or of_query(handler)
        ]
        held += [
            f"local-table listener on {table!r}"
            for table, listeners in executor._table_listeners.items()
            if any(of_query(listener) for listener in listeners)
        ]
        held += [
            f"armed timer {self._describe_timer(event)}"
            for installed in released
            for event in self._live_timers(installed)
        ]
        if held:
            raise SanitizerError(
                f"release leak: node {node_address!r} dropped query "
                f"{query_id!r} but still holds {len(held)} thing(s) of it: "
                + ", ".join(held[:5])
            )

    def check_templates(self, templates: Any, expired: Iterable[bytes], node_address: Any) -> None:
        """After a node swept its template cache
        (:class:`repro.qp.dissemination.TemplateCache`): the digests the
        sweep expired are gone, and no template still held reaches a
        query object or an execution object."""
        kept = [digest.hex() for digest in expired if digest in templates]
        if kept:
            raise SanitizerError(
                f"release leak: node {node_address!r} expired template(s) "
                f"{', '.join(kept[:5])} but still holds them"
            )
        forbidden = _query_classes()
        for digest, decoded in templates.items():
            pinned = _first_reachable(decoded, forbidden)
            if pinned is not None:
                raise SanitizerError(
                    f"release leak: node {node_address!r} keeps template "
                    f"{digest.hex()} that pins a {type(pinned).__name__} — a "
                    f"template is shared by every query of its statement and "
                    f"must hold no query or execution state"
                )

    @staticmethod
    def _live_timers(installed: Any) -> List[Any]:
        armed = installed.armed_events or ()
        return [event for event in armed if event._in_heap and not event.cancelled]

    @staticmethod
    def _describe_timer(event: Any) -> str:
        callback = event.callback
        data = event.callback_data
        # Timers armed through the VRI are wrapped in the runtime's
        # _dispatch_timer trampoline with (client, data) as callback_data.
        bound = getattr(callback, "__self__", None)
        if (
            bound is not None
            and getattr(callback, "__name__", "") == "_dispatch_timer"
            and isinstance(data, tuple)
            and data
        ):
            callback = data[0]
        owner = getattr(callback, "__self__", None)
        name = getattr(callback, "__qualname__", None) or repr(callback)
        if owner is not None and not name.startswith(type(owner).__name__):
            name = f"{type(owner).__name__}.{getattr(callback, '__name__', name)}"
        return f"{name} (due t={event.time:.3f})"

    # -- determinism --------------------------------------------------------- #
    def observe_dispatch(self, event: Any) -> None:
        """Fold one dispatched event into the run's event-log digest."""
        self.events_observed += 1
        self._event_digest.update(
            f"{event.time!r}|{event.node_id!r}|{type(event).__name__}\n".encode()
        )

    def event_log_digest(self) -> str:
        return self._event_digest.hexdigest()


def verify_determinism(
    run: Callable[[int], Any], runs: int = 2
) -> str:
    """Run a seeded scenario ``runs`` times and compare event-log digests.

    ``run(index)`` must build, execute, and return a sanitizing
    :class:`~repro.runtime.simulation.SimulationEnvironment` (or any object
    with a ``sanitizer`` attribute).  Raises :class:`SanitizerError` when
    any two runs diverge; returns the common digest otherwise.
    """
    observed: List[tuple] = []
    for index in range(runs):
        environment = run(index)
        sanitizer = getattr(environment, "sanitizer", None)
        if sanitizer is None:
            raise ValueError(
                "verify_determinism requires sanitizing environments "
                "(SimulationEnvironment(..., sanitize=True))"
            )
        observed.append((sanitizer.event_log_digest(), sanitizer.events_observed))
    if len({digest for digest, _ in observed}) > 1:
        detail = "; ".join(
            f"run {index}: {count} events, digest {digest[:16]}"
            for index, (digest, count) in enumerate(observed)
        )
        raise SanitizerError(
            f"nondeterministic run: seeded replays diverged — {detail}. "
            "Simulator-driven code must draw randomness/time from the "
            "environment (see repro.runtime.rand)."
        )
    return observed[0][0]
