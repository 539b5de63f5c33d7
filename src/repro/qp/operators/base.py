"""Operator runtime: execution context, base class, and registry.

PIER's event-driven core cannot block, so the classic iterator ("pull")
model is replaced by a *non-blocking iterator*: probes (control) are pulled
from parent to child with ordinary function calls, while tuples (data) are
pushed from child to parent as they arrive (Section 3.3.5).  Each pushed
tuple carries the tag of the probe that requested it, which lets operators
match data with the state they set up for that probe even when nested
probes are arbitrarily reordered.

The unit of the data channel is the *batch*: a list of tuples that share
one input slot and one probe tag.  A producer builds the list, hands it to
:meth:`PhysicalOperator.emit`, and never touches it again; consumers read
it and may keep it, but do not mutate it.  What is bookkeeping — the
stopped check, the counters, the trace scope — happens once per batch;
what is policy — dropping a tuple that does not fit the query — stays per
row (docs/PERFORMANCE.md, "Batch data channel").

Beside the batches runs one punctuation (Tucker et al., TKDE 2003): a
source that has handed over its whole snapshot says so with
:meth:`PhysicalOperator.drained`.  A streaming operator passes it on once
every one of its inputs has said it; an operator that buffers for the
network ships what it holds first; a blocking operator keeps it
(docs/PERFORMANCE.md, "Sources punctuate their snapshots").
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple as PyTuple, Type

from repro.overlay.wrapper import OverlayNode
from repro.qp.opgraph import OperatorSpec
from repro.qp.tuples import MalformedTupleError, Tuple

DEFAULT_PROBE_TAG = "main"


@dataclass(slots=True)
class OperatorStats:
    """Per-operator counters (tuples in, out and dropped), plus the
    EXPLAIN ANALYZE actuals: network messages the operator caused and
    their codec-sized wire bytes (measured for traced queries only).

    A finished graph's install record keeps them packed
    (:class:`FinishedOperators`) and hands them back in this form, which
    reads like the operator did (``record.operators[id].stats.tuples_in``).
    """

    op_type: str = "abstract"
    tuples_in: int = 0
    tuples_out: int = 0
    tuples_dropped: int = 0
    messages_shipped: int = 0
    bytes_shipped: int = 0

    @property
    def stats(self) -> "OperatorStats":
        return self


class FinishedOperators(Mapping):
    """What a finished graph's install record keeps of its operators: their
    counters, packed into one flat tuple beside the ``(operator_id,
    op_type)`` pairs (:attr:`repro.qp.opgraph.DecodedGraph.names`, shared
    by every node that ran the graph).  Reads like the operator mapping it
    replaces: ``record.operators[operator_id].stats.tuples_in``."""

    __slots__ = ("_names", "_counts")

    def __init__(self, names: PyTuple[PyTuple[str, str], ...], operators: Iterable[Any]) -> None:
        self._names = names
        counts: List[int] = []
        for operator in operators:
            stats = operator.stats
            counts += (
                stats.tuples_in,
                stats.tuples_out,
                stats.tuples_dropped,
                stats.messages_shipped,
                stats.bytes_shipped,
            )
        self._counts = tuple(counts)

    def __getitem__(self, operator_id: str) -> OperatorStats:
        for index, (name, op_type) in enumerate(self._names):
            if name == operator_id:
                return OperatorStats(op_type, *self._counts[5 * index : 5 * index + 5])
        raise KeyError(operator_id)

    def __iter__(self) -> Iterator[str]:
        return (name for name, _ in self._names)

    def __len__(self) -> int:
        return len(self._names)


@dataclass
class ExecutionContext:
    """Everything an operator instance needs from its host node.

    ``overlay`` is the node's DHT wrapper; ``query_id`` scopes namespaces so
    concurrent queries do not collide; ``proxy_address`` is where result
    tuples must be shipped; ``deliver_result`` short-circuits delivery when
    the executing node *is* the proxy.
    """

    overlay: OverlayNode
    query_id: str
    timeout: float
    proxy_address: Any
    deliver_result: Optional[Callable[[Tuple], None]] = None
    lifetime: float = 120.0
    extras: Dict[str, Any] = field(default_factory=dict)
    # The node's progress reporter for this query (repro.qp.completion),
    # or None when the query's end does not come from its data.
    progress: Optional[Any] = None

    def __post_init__(self) -> None:
        # Timer ledger (SimSanitizer): when the runtime sanitizes, every
        # event armed through this context is recorded so that query
        # teardown can prove nothing stayed armed after stop().  ``None``
        # (the default) keeps the hot path a single branch.
        sanitizing = getattr(self.overlay.runtime, "sanitizer", None) is not None
        self.armed_events: Optional[List[Any]] = [] if sanitizing else None
        self.timers_armed_total = 0
        # Causal tracing (repro.obs): resolve the query's trace once per
        # installed graph.  ``tracer`` stays None when tracing is off or
        # this query's trace was sampled out, so per-operator hook sites
        # reduce to one attribute test.
        tracer = getattr(self.overlay.runtime, "tracer", None)
        trace_meta = self.extras.get("trace") if tracer is not None else None
        if trace_meta and tracer.sampled(trace_meta.get("trace_id")):
            self.tracer: Optional[Any] = tracer
            self.trace_id: Optional[str] = trace_meta["trace_id"]
            self.trace_parent: Optional[str] = trace_meta.get("span")
        else:
            self.tracer = None
            self.trace_id = None
            self.trace_parent = None

    def operator_activity(self, spec: OperatorSpec) -> Optional[Any]:
        """One per-operator work accumulator for this query's trace, or
        None when the query is untraced (the common case)."""
        if self.tracer is None:
            return None
        return self.tracer.operator_activity(
            self.trace_id,
            self.trace_parent,
            self.overlay.address,
            spec.operator_id,
            spec.op_type,
        )

    @property
    def now(self) -> float:
        return self.overlay.runtime.get_current_time()

    def schedule(self, delay: float, callback: Callable[[Any], None], data: Any = None) -> Any:
        event = self.overlay.runtime.schedule_event(delay, data, callback)
        armed = self.armed_events
        if armed is not None:
            self.timers_armed_total += 1
            if len(armed) >= 256:
                # Prune dispatched/cancelled entries; only live timers matter.
                armed[:] = [e for e in armed if e._in_heap and not e.cancelled]
            armed.append(event)
        return event

    def scoped_namespace(self, name: str) -> str:
        """A DHT namespace private to this query."""
        return f"{self.query_id}:{name}"


class PhysicalOperator:
    """Base class for all physical operators.

    Subclasses implement either :meth:`on_receive` (the body for one input
    row; the base class loops it over each batch) or :meth:`on_batch` (a
    body for the whole batch), and optionally :meth:`start`, :meth:`probe`,
    :meth:`flush` and :meth:`stop`.
    """

    op_type = "abstract"
    # Whether the operator emits as it receives (True) or holds state until
    # the deadline flush (False): only plans made of streaming operators
    # can end when their data does (repro.qp.completion), and only they
    # pass a drained input's punctuation on (on_drained).
    streaming = False
    # Input slots whose producers said they have handed everything over.
    _drained_slots: frozenset = frozenset()

    def __init__(self, spec: OperatorSpec, context: ExecutionContext) -> None:
        self.spec = spec
        self.context = context
        self.stats = OperatorStats(self.op_type)
        # Downstream consumers: (operator, input-slot index at the consumer).
        self._parents: List[PyTuple["PhysicalOperator", int]] = []
        self._stopped = False
        # Timers armed through arm_timer(), cancelled wholesale by stop().
        self._armed_timers: List[Any] = []
        # Unsubscribe callables of what listen()/intercept() registered,
        # called by stop().
        self._registrations: List[Callable[[], None]] = []
        # Trace accumulator (None when untraced): receive()/arm_timer()
        # touch it with two float stores instead of allocating spans.
        self._obs = context.operator_activity(spec) if context is not None else None

    @classmethod
    def streams(cls, spec: OperatorSpec) -> bool:
        """Whether an instance built from ``spec`` emits as it receives."""
        return cls.streaming

    # -- wiring ----------------------------------------------------------- #
    def add_parent(self, parent: "PhysicalOperator", slot: int) -> None:
        self._parents.append((parent, slot))

    @property
    def parents(self) -> List[PyTuple["PhysicalOperator", int]]:
        return list(self._parents)

    def param(self, name: str, default: Any = None) -> Any:
        return self.spec.params.get(name, default)

    def require_param(self, name: str) -> Any:
        if name not in self.spec.params:
            raise ValueError(f"operator {self.spec.operator_id!r} missing param {name!r}")
        return self.spec.params[name]

    # -- timers ------------------------------------------------------------ #
    def arm_timer(
        self, delay: float, callback: Callable[[Any], None], data: Any = None
    ) -> Any:
        """Schedule a timer whose lifetime is bound to this operator.

        Every timer an operator arms MUST go through here (pierlint rule
        P05): the event is tracked so the base :meth:`stop` cancels it,
        which is what keeps a torn-down query from firing callbacks into
        dead state — and what the SimSanitizer's teardown ledger verifies.
        Returns the :class:`~repro.runtime.events.Event` (re-arming
        operators may cancel it individually).
        """
        obs = self._obs
        if obs is not None:
            obs.note_timer(self.context.now)
            # Timer-driven work (flushes, watermark ticks) must run inside
            # the operator's trace scope, or the sends it issues would be
            # causally unattributed — receive-path and timer-path work has
            # to trace identically in both runtimes.
            inner = callback

            def callback(data: Any, _inner=inner, _obs=obs) -> None:
                previous = _obs.enter_timer(self.context.now)
                try:
                    _inner(data)
                finally:
                    _obs.exit(previous)

        timers = self._armed_timers
        if len(timers) >= 8:
            # Drop dispatched/cancelled entries so re-arming operators
            # (interval ticks, per-epoch watermarks) keep the list small.
            self._armed_timers = timers = [
                event for event in timers if event._in_heap and not event.cancelled
            ]
        event = self.context.schedule(delay, callback, data)
        timers.append(event)
        return event

    def disarm_timers(self) -> int:
        """Cancel every timer still armed; returns how many were live."""
        cancelled = 0
        for event in self._armed_timers:
            if event._in_heap and not event.cancelled:
                event.cancel()
                cancelled += 1
        self._armed_timers.clear()
        return cancelled

    # -- overlay registrations ---------------------------------------------- #
    def listen(
        self, namespace: str, callback: Callable[[str, object, Any], None], batched: bool = False
    ) -> None:
        """Have ``callback`` told of objects arriving in ``namespace`` at
        this node (the wrapper's ``newData``) until this operator stops.

        Every overlay registration an operator makes MUST go through here
        or :meth:`intercept` (pierlint rule P08): the base :meth:`stop`
        takes it back out, which is what keeps a finished query's operators
        from being held — and called — by the node for ever after, and
        what the SimSanitizer's teardown ledger verifies.
        """
        self._registrations.append(
            self.context.overlay.new_data(namespace, callback, batched=batched)
        )

    def intercept(self, namespace: str, handler: Callable[[str, object, object], bool]) -> None:
        """Have ``handler`` see ``send`` messages of ``namespace`` passing
        through this node (the wrapper's ``upcall``) until this operator
        stops."""
        self._registrations.append(self.context.overlay.upcall(namespace, handler))

    # -- lifecycle --------------------------------------------------------- #
    def start(self) -> None:
        """Called once when the opgraph is installed on this node."""

    def stop(self) -> None:
        """Called at query teardown (timeout).  Cancels armed timers and
        undoes overlay registrations; overriding subclasses must call
        ``super().stop()``."""
        self._stopped = True
        self.disarm_timers()
        for unregister in self._registrations:
            unregister()
        self._registrations.clear()

    def residual_buffered(self) -> int:
        """Tuples still buffered after :meth:`stop` (sanitizer ledger).

        Buffering operators override this; anything non-zero after
        teardown is reported as a leak when sanitizing.
        """
        return 0

    def flush(self) -> None:
        """Emit any buffered state (called in topological order at timeout,
        and by windowed operators when their window closes)."""

    def probe(self, tag: str = DEFAULT_PROBE_TAG) -> None:
        """Control-channel request for data, propagated parent -> child.

        The default implementation just records the request; stateful
        operators override it to set up per-probe state on the heap.
        Sources respond to probes by beginning to push tuples upward.
        """

    # -- dataflow ------------------------------------------------------------ #
    def receive(
        self, batch: List[Tuple], slot: int = 0, tag: str = DEFAULT_PROBE_TAG
    ) -> None:
        """Data-channel entry point: a child pushed ``batch`` into ``slot``."""
        if self._stopped or not batch:
            return
        self.stats.tuples_in += len(batch)
        obs = self._obs
        if obs is None:
            self.on_batch(batch, slot, tag)
            return
        previous = obs.enter(self.context.now, len(batch))
        try:
            self.on_batch(batch, slot, tag)
        finally:
            obs.exit(previous)

    def on_batch(self, batch: List[Tuple], slot: int, tag: str) -> None:
        """Consume one batch.  The default runs :meth:`on_receive` per row
        under the best-effort policy (Section 3.3.4): a row that does not
        match the query's expectations is dropped and counted, and its
        neighbours are processed.  An operator that overrides this applies
        the same policy to its own rows."""
        on_receive = self.on_receive
        for tup in batch:
            try:
                on_receive(tup, slot, tag)
            except (MalformedTupleError, TypeError, KeyError):
                self.stats.tuples_dropped += 1

    def on_receive(self, tup: Tuple, slot: int, tag: str) -> None:
        raise NotImplementedError

    def emit(self, batch: List[Tuple], tag: str = DEFAULT_PROBE_TAG) -> None:
        """Push ``batch`` to every downstream consumer."""
        if self._stopped:
            return
        self.stats.tuples_out += len(batch)
        for parent, slot in self._parents:
            parent.receive(batch, slot, tag)

    def drained(self) -> None:
        """Tell every downstream consumer that this operator has emitted
        all it has for now: nothing is gained by holding rows for more.
        Sources call it after handing over a snapshot; an operator that
        buffers overrides it to ship what it holds first."""
        if self._stopped:
            return
        for parent, slot in self._parents:
            parent.on_drained(slot)

    def on_drained(self, slot: int) -> None:
        """The producer feeding ``slot`` has drained.  A streaming operator
        has then emitted everything that input caused, and is drained
        itself once all its inputs are; a blocking one keeps the
        punctuation (its state waits for the deadline flush)."""
        if not self.streaming or self._stopped:
            return
        inputs = len(self.spec.inputs)
        if inputs > 1:
            self._drained_slots = drained = self._drained_slots | {slot}
            if len(drained) < inputs:
                return
        self.drained()


_OPERATOR_REGISTRY: Dict[str, Type[PhysicalOperator]] = {}


def register_operator(cls: Type[PhysicalOperator]) -> Type[PhysicalOperator]:
    """Class decorator adding a physical operator to the plan-time registry."""
    if not cls.op_type or cls.op_type == "abstract":
        raise ValueError(f"{cls.__name__} must define a concrete op_type")
    _OPERATOR_REGISTRY[cls.op_type] = cls
    return cls


def operator_class(op_type: str) -> Type[PhysicalOperator]:
    """The physical operator class registered under ``op_type``."""
    try:
        return _OPERATOR_REGISTRY[op_type]
    except KeyError as exc:
        raise ValueError(f"unknown operator type {op_type!r}") from exc


def build_operator(spec: OperatorSpec, context: ExecutionContext) -> PhysicalOperator:
    """Instantiate the physical operator named by ``spec.op_type``."""
    return operator_class(spec.op_type)(spec, context)


def registered_operator_types() -> List[str]:
    return sorted(_OPERATOR_REGISTRY)
