"""Causal tracing for PIER queries — simulation and physical alike.

The model is deliberately small: a **trace** is one submitted query, a
**span** is one unit of work attributed to that trace (an event span has
``start == end``).  Causality is parent links: the root span is stamped at
the proxy on submit, travels in the dissemination envelope as
``plan.metadata["trace"]`` (and over the wire under the well-known codec
keys ``trace``/``trace_id``/``span``), and every downstream stage records
its spans with the upstream span as parent.

Two properties matter more than feature count:

* **Clock-agnostic.**  The tracer never reads a clock itself — it is
  constructed with a ``clock`` callable (the environment's ``now``), so
  spans carry virtual seconds under the simulator and wall seconds under
  the physical runtime, and the span *topology* is identical in both
  modes (pierlint P03 enforces the no-wall-clock rule here too).
* **Near-zero cost when off.**  No tracer installed means every hook site
  is one attribute load and an ``is None`` branch; operator work is
  recorded through a pooled :class:`_OperatorActivity` accumulator (two
  float stores per received batch) instead of one span object per tuple,
  and the span buffer is bounded (drops are counted, never raised).

Sampling is deterministic: ``sampled(trace_id)`` hashes the trace id with
``zlib.crc32``, so every node of a deployment — and every rerun of a
seeded simulation — keeps or drops the *same* traces without coordination
(and without ``random``, which the simulator reserves for seeded streams).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

__all__ = ["Span", "TraceContext", "Tracer"]


@dataclass(frozen=True)
class TraceContext:
    """The portable part of a trace: what travels in the envelope.

    ``trace_id`` names the query's trace, ``span_id`` is the sender-side
    span that downstream spans should claim as parent, ``origin`` is the
    node that started the trace (the proxy).
    """

    trace_id: str
    span_id: str
    origin: Any = None

    def to_metadata(self) -> Dict[str, Any]:
        """The dict form stamped into ``plan.metadata["trace"]``."""
        return {"trace_id": self.trace_id, "span": self.span_id, "origin": self.origin}

    @classmethod
    def from_metadata(cls, metadata: Any) -> Optional["TraceContext"]:
        if not isinstance(metadata, dict):
            return None
        trace_id = metadata.get("trace_id")
        if not trace_id:
            return None
        return cls(
            trace_id=trace_id,
            span_id=metadata.get("span", ""),
            origin=metadata.get("origin"),
        )


@dataclass
class Span:
    """One unit of traced work.  ``start == end`` for point events."""

    span_id: str
    trace_id: str
    name: str
    node: Any
    start: float
    end: Optional[float] = None
    parent_id: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start


class _OperatorActivity:
    """Per-operator work accumulator: the cheap stand-in for per-tuple spans.

    One instance per installed operator per trace.  ``enter``/``exit``
    bracket each received batch (also swapping the tracer's ambient
    scope so downstream sends attribute to this operator), ``note_timer``
    counts ``arm_timer`` calls.  The tracer materializes each activity as
    a single ``operator.work`` span whose window is [first, last] touch.
    """

    __slots__ = (
        "tracer",
        "trace_id",
        "parent_id",
        "span_id",
        "node",
        "operator_id",
        "op_type",
        "first_time",
        "last_time",
        "tuples",
        "timer_arms",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        parent_id: Optional[str],
        node: Any,
        operator_id: str,
        op_type: str,
    ) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.span_id = tracer._new_id()
        self.node = node
        self.operator_id = operator_id
        self.op_type = op_type
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None
        self.tuples = 0
        self.timer_arms = 0

    def enter(self, now: float, tuples: int = 1) -> Optional[Tuple[str, str]]:
        """Start the work for ``tuples`` received rows; returns the
        previous ambient scope."""
        if self.first_time is None:
            self.first_time = now
        self.last_time = now
        self.tuples += tuples
        tracer = self.tracer
        previous = tracer._current
        tracer._current = (self.trace_id, self.span_id)
        return previous

    def exit(self, previous: Optional[Tuple[str, str]]) -> None:
        self.tracer._current = previous

    def note_timer(self, now: float) -> None:
        if self.first_time is None:
            self.first_time = now
        self.last_time = now
        self.timer_arms += 1

    def enter_timer(self, now: float) -> Optional[Tuple[str, str]]:
        """Start timer-driven work (a flush, a watermark tick): touches the
        busy window and swaps the ambient scope like :meth:`enter`, but a
        timer firing is not a tuple, so the tuple count stays put."""
        if self.first_time is None:
            self.first_time = now
        self.last_time = now
        tracer = self.tracer
        previous = tracer._current
        tracer._current = (self.trace_id, self.span_id)
        return previous

    def busy_window(self) -> float:
        if self.first_time is None or self.last_time is None:
            return 0.0
        return self.last_time - self.first_time


class Tracer:
    """Deployment-wide span recorder.

    One tracer per environment (installed with
    ``environment.enable_tracing()``); node runtimes expose it through
    their ``tracer`` property so hook sites reach it uniformly via
    ``getattr(runtime, "tracer", None)``.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        sample_rate: float = 1.0,
        max_spans: int = 50_000,
    ) -> None:
        self.clock = clock
        self.sample_rate = float(sample_rate)
        self.max_spans = int(max_spans)
        self.spans_dropped = 0
        self._spans: List[Span] = []
        self._activities: List[_OperatorActivity] = []
        self._next = 0
        # Ambient scope: (trace_id, span_id) of the work currently
        # executing, so transport-layer hooks can attribute sends without
        # threading a context argument through every call.
        self._current: Optional[Tuple[str, str]] = None

    # -- ids / sampling ---------------------------------------------------- #
    def _new_id(self) -> str:
        self._next += 1
        return f"s{self._next:06d}"

    def sampled(self, trace_id: Optional[str]) -> bool:
        """Deterministic head sampling: same verdict on every node/run."""
        if not trace_id:
            return False
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        bucket = zlib.crc32(trace_id.encode("utf-8")) % 10_000
        return bucket < self.sample_rate * 10_000

    # -- span recording ---------------------------------------------------- #
    def _store(self, span: Span) -> Span:
        if len(self._spans) >= self.max_spans:
            self.spans_dropped += 1
        else:
            self._spans.append(span)
        return span

    def begin(
        self,
        name: str,
        trace_id: Optional[str],
        parent_id: Optional[str] = None,
        node: Any = None,
        **attrs: Any,
    ) -> Span:
        span = Span(
            span_id=self._new_id(),
            trace_id=trace_id or "",
            name=name,
            node=node,
            start=self.clock(),
            parent_id=parent_id,
            attrs=attrs,
        )
        return self._store(span)

    def end(self, span: Span, **attrs: Any) -> Span:
        span.end = self.clock()
        if attrs:
            span.attrs.update(attrs)
        return span

    def event(
        self,
        name: str,
        trace_id: Optional[str],
        parent_id: Optional[str] = None,
        node: Any = None,
        **attrs: Any,
    ) -> Span:
        now = self.clock()
        span = Span(
            span_id=self._new_id(),
            trace_id=trace_id or "",
            name=name,
            node=node,
            start=now,
            end=now,
            parent_id=parent_id,
            attrs=attrs,
        )
        return self._store(span)

    # -- root context / ambient scope -------------------------------------- #
    def root_context(self, query_id: str, origin: Any = None) -> Optional[Dict[str, Any]]:
        """Start a trace for a submitted query (subject to sampling).

        Returns the envelope dict for ``plan.metadata["trace"]``, or
        ``None`` when the query is sampled out.  The trace id is derived
        from the query id so reruns of a seeded simulation trace the same
        queries.
        """
        trace_id = f"t-{query_id}"
        if not self.sampled(trace_id):
            return None
        root = self.event("query.submit", trace_id, node=origin, query_id=query_id)
        return TraceContext(trace_id, root.span_id, origin).to_metadata()

    def activate(self, trace_id: str, span_id: str) -> Optional[Tuple[str, str]]:
        """Swap in an ambient scope; returns the previous one for restore()."""
        previous = self._current
        self._current = (trace_id, span_id)
        return previous

    def restore(self, previous: Optional[Tuple[str, str]]) -> None:
        self._current = previous

    def current(self) -> Optional[Tuple[str, str]]:
        return self._current

    # -- operator activities ------------------------------------------------ #
    def operator_activity(
        self,
        trace_id: str,
        parent_id: Optional[str],
        node: Any,
        operator_id: str,
        op_type: str,
    ) -> _OperatorActivity:
        activity = _OperatorActivity(self, trace_id, parent_id, node, operator_id, op_type)
        self._activities.append(activity)
        return activity

    # -- reads -------------------------------------------------------------- #
    def spans(self) -> List[Span]:
        """All recorded spans, with operator activities materialized as
        one ``operator.work`` span each (touched activities only)."""
        materialized = list(self._spans)
        for activity in self._activities:
            if activity.first_time is None:
                continue
            materialized.append(
                Span(
                    span_id=activity.span_id,
                    trace_id=activity.trace_id,
                    name="operator.work",
                    node=activity.node,
                    start=activity.first_time,
                    end=activity.last_time,
                    parent_id=activity.parent_id,
                    attrs={
                        "operator": activity.operator_id,
                        "op_type": activity.op_type,
                        "tuples": activity.tuples,
                        "timer_arms": activity.timer_arms,
                    },
                )
            )
        return materialized

    def spans_for(self, trace_id: str) -> List[Span]:
        return [span for span in self.spans() if span.trace_id == trace_id]

    def span_names(self, trace_id: str) -> Set[str]:
        """The trace's span-name set: the mode-independent topology view."""
        return {span.name for span in self.spans_for(trace_id)}

    def operator_activities(self, trace_id: str) -> List[_OperatorActivity]:
        return [
            activity
            for activity in self._activities
            if activity.trace_id == trace_id and activity.first_time is not None
        ]

    def reset(self) -> None:
        self._spans.clear()
        self._activities.clear()
        self.spans_dropped = 0
        self._current = None
