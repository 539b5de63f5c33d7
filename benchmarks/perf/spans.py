"""Per-layer timing from outside the program: spans around the calls into
each layer.

``Tracer.install()`` replaces the entry points of every layer (class
attributes and module-level functions under ``repro``) with timing
wrappers; ``restore()`` puts the originals back.  No file under ``src/``
changes.  Three kinds of entry point are wrapped:

* methods and functions a layer exposes to the layer above it (the
  ``ENTRY_POINTS`` table);
* ``PhysicalOperator.receive``/``probe``/``flush``, attributed by the
  operator's class;
* callbacks a layer hands *down* — ``OverlayNode.upcall`` / ``new_data``
  handlers and ``schedule_event`` timers — attributed by the class of the
  object that owns the callback, because that is where control re-enters
  the upper layer.

There is one span stack (the program is single-threaded).  A span is
``(layer, start, end, parent)``; operation ``i`` owns the spans whose
index lies in ``[op_starts[i], op_starts[i + 1])``.  Spans stay in memory
as flat arrays until the run ends.  A layer's self time is the summed
duration of its spans minus the summed duration of their direct children.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import PIERNetwork
from repro.cq.continuous import ContinuousQuery
from repro.cq.sharing import SharedPlan
from repro.overlay.distribution_tree import DistributionTree
from repro.overlay.wrapper import OverlayNode
from repro.qp.dissemination import QueryDisseminator
from repro.qp.executor import QueryExecutor
from repro.qp.hierarchical import HierarchicalAggregate
from repro.qp.node import PIERNode
from repro.qp.operators.base import PhysicalOperator
from repro.qp.operators.exchange import ResultHandler
from repro.qp.proxy import ProxyService
from repro.runtime import codec, sizing
from repro.runtime.physical import PhysicalEnvironment, PhysicalNodeRuntime
from repro.runtime.scheduler import MainScheduler
from repro.runtime.simulation import SimulatedNodeRuntime, SimulationEnvironment

LAYERS = (
    "sql",
    "qp.proxy",
    "qp.dissemination",
    "qp.executor",
    "qp.operators.scan",
    "qp.operators.select_project",
    "qp.operators.join",
    "qp.operators.exchange",
    "qp.operators.groupby",
    "qp.operators.hierarchical",
    "qp.operators.result",
    "cq",
    "overlay",
    "runtime.scheduler",
    "runtime.simulation.transmit",
    "runtime.sizing",
    "runtime.codec.encode",
    "runtime.codec.decode",
    "runtime.physical.io",
)

# layer -> (owner, attribute) of what the layer above it calls.
ENTRY_POINTS: Dict[str, Tuple[Tuple[Any, str], ...]] = {
    "sql": ((PIERNetwork, "plan_sql"),),
    "qp.proxy": ((ProxyService, "submit"), (ProxyService, "deliver_local_result"), (ProxyService, "cancel")),
    "qp.dissemination": ((QueryDisseminator, "disseminate"), (QueryDisseminator, "broadcast_control")),
    "qp.executor": (
        (QueryExecutor, "install"),
        (QueryExecutor, "finish"),
        (QueryExecutor, "append_local_rows"),
        (QueryExecutor, "cancel_query"),
    ),
    "overlay": tuple(
        (OverlayNode, name)
        for name in (
            "handle_udp",
            "handle_udp_ack",
            "put",
            "put_batch",
            "get",
            "send",
            "lookup",
            "direct_message",
            "local_scan",
            "renew",
        )
    )
    + ((DistributionTree, "broadcast"),),
    "runtime.scheduler": ((MainScheduler, "run"), (MainScheduler, "step")),
    "runtime.simulation.transmit": ((SimulationEnvironment, "transmit"),),
    "runtime.sizing": ((sizing, "estimate_message_size"), (sizing, "wire_size")),
    "runtime.codec.encode": ((codec, "pack_datagram"), (codec, "encode")),
    "runtime.codec.decode": ((codec, "unpack_datagram"), (codec, "decode")),
    "runtime.physical.io": ((PhysicalEnvironment, "run"),),
}

# Who owns a callback decides which layer its time belongs to.  First
# match wins, so subclasses come before their bases.
CALLBACK_OWNERS: Tuple[Tuple[type, str], ...] = (
    (ContinuousQuery, "cq"),
    (SharedPlan, "cq"),
    (ProxyService, "qp.proxy"),
    (QueryDisseminator, "qp.dissemination"),
    (QueryExecutor, "qp.executor"),
    (PIERNode, "qp.executor"),
    (OverlayNode, "overlay"),
    (DistributionTree, "overlay"),
)

# Operator classes by the module that defines them; anything else an
# opgraph may hold (control-flow managers, eddies) is the executor's.
OPERATOR_MODULES = {
    "repro.qp.operators.access": "qp.operators.scan",
    "repro.qp.operators.relational": "qp.operators.select_project",
    "repro.qp.operators.joins": "qp.operators.join",
    "repro.qp.operators.exchange": "qp.operators.exchange",
    "repro.qp.operators.groupby": "qp.operators.groupby",
}
OPERATOR_METHODS = ("receive", "probe", "flush")
CALLBACK_REGISTRARS = (
    (OverlayNode, "upcall", 1),
    (OverlayNode, "new_data", 1),
    (SimulatedNodeRuntime, "schedule_event", 2),
    (PhysicalNodeRuntime, "schedule_event", 2),
)


def operator_layer(cls: type) -> str:
    if issubclass(cls, HierarchicalAggregate):
        return "qp.operators.hierarchical"
    if issubclass(cls, ResultHandler):
        return "qp.operators.result"
    for base in cls.__mro__:
        layer = OPERATOR_MODULES.get(base.__module__)
        if layer is not None:
            return layer
    return "qp.executor"


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.layers = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.op_starts: List[int] = []
        self._current = [-1]  # index of the open span, shared with every wrapper
        self._patched: List[Tuple[Any, str, Any]] = []  # (owner, attribute, original)
        self._layer_of_type: Dict[type, Optional[int]] = {}

    # -- recording ------------------------------------------------------------- #
    def _span(self, function: Callable[..., Any], layer: int) -> Callable[..., Any]:
        layers, starts, ends, parents = self.layers, self.starts, self.ends, self.parents
        current = self._current
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            layers.append(layer)
            parents.append(current[0])
            ends.append(0.0)
            current[0] = index
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                current[0] = parents[index]

        return traced

    def _span_by_class(self, function: Callable[..., Any]) -> Callable[..., Any]:
        """A span whose layer is looked up from ``type(self)`` per call."""
        spans: Dict[type, Callable[..., Any]] = {}

        def traced(instance: Any, *args: Any, **kwargs: Any) -> Any:
            span = spans.get(type(instance))
            if span is None:
                layer = LAYERS.index(operator_layer(type(instance)))
                span = spans[type(instance)] = self._span(function, layer)
            return span(instance, *args, **kwargs)

        return traced

    def _callback_layer(self, callback: Any) -> Optional[int]:
        owner = getattr(callback, "__self__", None)
        if owner is None:
            return None
        cls = type(owner)
        if cls not in self._layer_of_type:
            if isinstance(owner, PhysicalOperator):
                name = operator_layer(cls)
            else:
                name = next((layer for base, layer in CALLBACK_OWNERS if isinstance(owner, base)), None)
            self._layer_of_type[cls] = None if name is None else LAYERS.index(name)
        return self._layer_of_type[cls]

    def _registrar(self, function: Callable[..., Any], position: int) -> Callable[..., Any]:
        """Wrap the callback passed at ``position`` (after ``self``) before
        the layer below stores it."""

        def registering(instance: Any, *args: Any, **kwargs: Any) -> Any:
            if len(args) > position:
                layer = self._callback_layer(args[position])
                if layer is not None:
                    args = args[:position] + (self._span(args[position], layer),) + args[position + 1 :]
            return function(instance, *args, **kwargs)

        return registering

    def mark_operation(self) -> None:
        """An operation starts here (and the previous one, if any, ends);
        called once more after the last operation."""
        self.op_starts.append(len(self.starts))

    def reset(self) -> None:
        """Forget what was recorded so far (set-up and warm-up)."""
        for column in (self.layers, self.starts, self.ends, self.parents):
            del column[:]
        del self.op_starts[:]

    # -- patching ---------------------------------------------------------------- #
    def _replace(self, owner: Any, attribute: str, make: Callable[[Any], Any]) -> None:
        original = vars(owner)[attribute]
        replacement = make(original)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, replacement)
        if not isinstance(owner, type):
            # A module-level function: modules that did ``from x import f``
            # hold their own reference.
            for name, module in list(sys.modules.items()):
                if not name.startswith("repro") or module is owner or module is None:
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, alias, original))
                        setattr(module, alias, replacement)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer, targets in ENTRY_POINTS.items():
            index = LAYERS.index(layer)
            for owner, attribute in targets:
                self._replace(owner, attribute, lambda original, index=index: self._span(original, index))
        operator_classes = [PhysicalOperator]
        while operator_classes:
            cls = operator_classes.pop()
            operator_classes.extend(cls.__subclasses__())
            for attribute in OPERATOR_METHODS:
                if attribute in vars(cls):
                    self._replace(cls, attribute, self._span_by_class)
        for owner, attribute, position in CALLBACK_REGISTRARS:
            self._replace(
                owner, attribute, lambda original, position=position: self._registrar(original, position)
            )

    def restore(self) -> bool:
        """Put every original back; true when nothing of ours remains."""
        clean = True
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)
            clean = clean and vars(owner)[attribute] is original
        return clean

    # -- results ------------------------------------------------------------------- #
    def totals(self) -> Tuple[List[float], List[int]]:
        """Self seconds and span count per layer, over the marked operations."""
        self_s = [0.0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        layers, starts, ends, parents = self.layers, self.starts, self.ends, self.parents
        for index in range(self.op_starts[0], self.op_starts[-1]):
            duration = ends[index] - starts[index]
            layer = layers[index]
            self_s[layer] += duration
            calls[layer] += 1
            parent = parents[index]
            if parent >= 0:
                self_s[layers[parent]] -= duration
        return self_s, calls

    def operation_spans(self, operation: int = 0) -> Dict[str, Any]:
        """The spans of one operation, for writing beside the results."""
        low, high = self.op_starts[operation], self.op_starts[operation + 1]
        origin = self.starts[low] if high > low else 0.0
        return {
            "layers": list(LAYERS),
            "columns": ["layer", "start_s", "end_s", "parent"],  # parent: row in this list, -1 for none
            "spans": [
                [self.layers[i], self.starts[i] - origin, self.ends[i] - origin, max(self.parents[i] - low, -1)]
                for i in range(low, high)
            ],
        }
