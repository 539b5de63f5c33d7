"""UFL query plans: opgraphs of physical operators (paper Section 3.3.2).

A UFL query is a direct specification of a physical execution plan: one or
more *opgraphs*, each a connected DAG of dataflow operators.  Separate
opgraphs are formed wherever the query redistributes data around the
network; a producer in one opgraph and a consumer in another rendezvous
through a DHT namespace (the distributed Exchange pattern).  Opgraphs are
also the unit of dissemination: each one carries a dissemination spec that
says which nodes must run it.
"""

from __future__ import annotations

import hashlib
import itertools
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

_query_counter = itertools.count(1)


def next_query_id(prefix: str = "q") -> str:
    return f"{prefix}{next(_query_counter):06d}"


@dataclass(frozen=True)
class OperatorSpec:
    """Specification of one operator instance in an opgraph.

    ``inputs`` lists the operator ids whose output feeds this operator, in
    input-slot order (slot 0, slot 1, ...); joins use two slots.
    """

    operator_id: str
    op_type: str
    params: Mapping[str, Any] = field(default_factory=dict)
    inputs: Tuple[str, ...] = ()

    def with_params(self, **extra: Any) -> "OperatorSpec":
        params = dict(self.params)
        params.update(extra)
        return OperatorSpec(self.operator_id, self.op_type, params, self.inputs)


@dataclass(frozen=True)
class DisseminationSpec:
    """Which nodes must run an opgraph (paper Section 3.3.3).

    * ``broadcast`` — every node, via the distribution tree (true-predicate
      index).
    * ``equality`` — only the node(s) responsible for ``namespace``/``key``
      in the DHT (equality-predicate index).
    * ``local``    — only the proxy node itself (e.g. final result
      assembly).
    """

    strategy: str = "broadcast"
    namespace: Optional[str] = None
    key: Any = None

    def __post_init__(self) -> None:
        if self.strategy not in {"broadcast", "equality", "local"}:
            raise ValueError(f"unknown dissemination strategy {self.strategy!r}")


@dataclass
class OpGraph:
    """A connected DAG of operators plus its dissemination spec."""

    graph_id: str
    operators: Dict[str, OperatorSpec] = field(default_factory=dict)
    dissemination: DisseminationSpec = field(default_factory=DisseminationSpec)

    def add(self, spec: OperatorSpec) -> OperatorSpec:
        if spec.operator_id in self.operators:
            raise ValueError(f"duplicate operator id {spec.operator_id!r}")
        self.operators[spec.operator_id] = spec
        return spec

    def add_operator(
        self,
        operator_id: str,
        op_type: str,
        params: Optional[Mapping[str, Any]] = None,
        inputs: Iterable[str] = (),
    ) -> OperatorSpec:
        return self.add(
            OperatorSpec(operator_id, op_type, dict(params or {}), tuple(inputs))
        )

    def sources(self) -> List[OperatorSpec]:
        """Operators with no inputs (access methods)."""
        return [spec for spec in self.operators.values() if not spec.inputs]

    def sinks(self) -> List[OperatorSpec]:
        """Operators whose output no other operator consumes."""
        consumed = {
            input_id for spec in self.operators.values() for input_id in spec.inputs
        }
        return [
            spec for spec in self.operators.values() if spec.operator_id not in consumed
        ]

    def topological_order(self) -> List[OperatorSpec]:
        """Operators ordered so every input precedes its consumer."""
        # Depth-first post-order over an explicit stack: a nested function
        # that calls itself is a reference cycle (function <-> closure
        # cell) that would pin this graph until a collector pass, once per
        # call — and every install calls this.
        operators = self.operators
        order: List[OperatorSpec] = []
        done: Dict[str, bool] = {}  # absent: unseen, False: on the stack, True: ordered
        for root_id in operators:
            if root_id in done:
                continue
            done[root_id] = False
            stack = [(operators[root_id], iter(operators[root_id].inputs))]
            while stack:
                spec, remaining = stack[-1]
                input_id = next(remaining, None)
                if input_id is None:
                    stack.pop()
                    done[spec.operator_id] = True
                    order.append(spec)
                    continue
                if input_id not in operators:
                    raise ValueError(
                        f"operator {spec.operator_id!r} references unknown input {input_id!r}"
                    )
                state = done.get(input_id)
                if state is False:
                    raise ValueError("opgraph contains a dependency cycle")
                if state is None:
                    done[input_id] = False
                    stack.append((operators[input_id], iter(operators[input_id].inputs)))
        return order

    def validate(self) -> None:
        """Raise ``ValueError`` if the graph is malformed (cycles, bad refs)."""
        self.topological_order()

    # -- serialisation -------------------------------------------------------- #
    def to_wire(self) -> Tuple[Any, ...]:
        """The form an opgraph travels in to the nodes that run it:
        ``(graph_id, ((operator_id, op_type, params, inputs), ...))`` with
        each operator's inputs given as positions in that sequence.

        The dissemination spec stays with the plan: it chose which nodes
        receive the graph, and no receiving node reads it.  Operator ids
        travel, because trace spans and EXPLAIN ANALYZE name operators by
        them."""
        specs = list(self.operators.values())
        position = {spec.operator_id: index for index, spec in enumerate(specs)}
        return (
            self.graph_id,
            tuple(
                (
                    spec.operator_id,
                    spec.op_type,
                    dict(spec.params),
                    tuple(position[input_id] for input_id in spec.inputs),
                )
                for spec in specs
            ),
        )

    @staticmethod
    def from_wire(wire: Sequence[Any]) -> "OpGraph":
        """Rebuild an opgraph from :meth:`to_wire`'s form.  It has the
        default dissemination spec: the wire form carries none."""
        graph_id, operators = wire
        ids = [operator[0] for operator in operators]
        graph = OpGraph(graph_id)
        for operator_id, op_type, params, inputs in operators:
            graph.add_operator(operator_id, op_type, params, (ids[slot] for slot in inputs))
        return graph


@dataclass
class QueryPlan:
    """A full UFL query: opgraphs plus query-wide execution parameters.

    ``timeout`` is the paper's universal termination mechanism: each node
    executes an opgraph until the timeout expires, for both snapshot and
    continuous queries.
    """

    query_id: str = field(default_factory=next_query_id)
    opgraphs: List[OpGraph] = field(default_factory=list)
    timeout: float = 30.0
    metadata: Dict[str, Any] = field(default_factory=dict)

    def add_graph(self, graph: OpGraph) -> OpGraph:
        self.opgraphs.append(graph)
        return graph

    def new_graph(
        self, graph_id: Optional[str] = None, dissemination: Optional[DisseminationSpec] = None
    ) -> OpGraph:
        # Graph ids are query-relative: an install key already starts with
        # the query id, and a repeat of the statement then ships the same
        # opgraphs byte for byte (see QueryEnvelope.digest).
        graph = OpGraph(
            graph_id=graph_id or f"g{len(self.opgraphs)}",
            dissemination=dissemination or DisseminationSpec(),
        )
        return self.add_graph(graph)

    def validate(self) -> None:
        seen = set()
        for graph in self.opgraphs:
            if graph.graph_id in seen:
                raise ValueError(f"duplicate opgraph id {graph.graph_id!r}")
            seen.add(graph.graph_id)
            graph.validate()


# A template's digest: BLAKE2b of its codec encoding, this many bytes.
DIGEST_BYTES = 16


class DecodedGraph:
    """An opgraph with what installing it needs, worked out once: its
    operators in topological order, its source operators, and the
    ``(operator_id, op_type)`` pairs a finished install record keeps its
    counters under.  Graph ids are query-relative (``g0``), so it is
    shared, read-only, by every query of the statement that a node's
    template cache resolves to it, and by every simulated node that
    installs the same envelope (:meth:`QueryEnvelope.decoded`).  ``streams`` is whether
    every operator emits as it receives — None until
    :func:`repro.qp.completion.graphs_stream` first decides it."""

    __slots__ = ("graph", "order", "sources", "names", "streams", "__weakref__")

    def __init__(self, graph: OpGraph) -> None:
        self.graph = graph
        self.order = graph.topological_order()
        self.sources = graph.sources()
        self.names = tuple((spec.operator_id, spec.op_type) for spec in self.order)
        self.streams: Optional[bool] = None


class QueryEnvelope:
    """One query's opgraphs on their way to the nodes that run them.

    ``deadline`` is the proxy's absolute end of the query
    (``submitted_at + timeout``): every node tears the query's graphs down
    at that moment, however late the envelope reached it.  ``metadata``
    holds the execution settings an executing node acts on (the
    ``ENVELOPE_METADATA_KEYS`` of :mod:`repro.qp.dissemination`);
    ``graphs`` is the query's *template*: the opgraphs in
    :meth:`OpGraph.to_wire` form, with query-relative graph ids, so that
    every query of one statement carries the same template.

    A *header* (:meth:`reference`) is the same envelope with the template
    replaced by its :attr:`digest`, ``DIGEST_BYTES`` bytes: what a query
    sends down the distribution tree when the nodes already keep the
    template (:class:`repro.qp.dissemination.TemplateCache`).

    Immutable, like a :class:`~repro.qp.tuples.Tuple`, and for the same
    reason: a distribution-tree node hands one envelope to each of its
    children, so the codec memoizes its encoded size (and, for sockets,
    its bytes) on it and sizes or encodes it once, not once per edge; the
    digest is memoized the same way.  The decoded graphs are remembered
    too, but weakly: every simulated node that installs the envelope while
    another node still holds them shares them, and an envelope stored
    after the query ended (the tree root keeps a broadcast for a while)
    does not keep them alive.
    """

    __slots__ = (
        "query_id",
        "deadline",
        "proxy",
        "metadata",
        "graphs",
        "_wire_size",
        "_encoded",
        "_decoded",
        "_digest",
    )

    def __init__(
        self,
        query_id: str,
        deadline: float,
        proxy: Any,
        metadata: Dict[str, Any],
        graphs: Union[Tuple[Any, ...], bytes],
    ) -> None:
        init = object.__setattr__
        init(self, "query_id", query_id)
        init(self, "deadline", deadline)
        init(self, "proxy", proxy)
        init(self, "metadata", metadata)
        init(self, "graphs", graphs)
        init(self, "_wire_size", None)  # codec.encoded_size memo
        init(self, "_encoded", None)  # codec encoding memo
        init(self, "_decoded", ())  # decoded() memo: weak references
        init(self, "_digest", None)  # digest memo

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"QueryEnvelope is immutable: cannot set {name!r}")

    def fields(self) -> Tuple[Any, ...]:
        """The encoded fields, in wire order."""
        return (self.query_id, self.deadline, self.proxy, self.metadata, self.graphs)

    @property
    def by_reference(self) -> bool:
        """Whether this is a header: the template's digest, not the template."""
        return self.graphs.__class__ is bytes

    @property
    def digest(self) -> bytes:
        """The template's digest: BLAKE2b of its codec encoding, computed
        from what this envelope carries (a header carries nothing else)."""
        digest = self._digest
        if digest is None:
            if self.by_reference:
                digest = self.graphs
            else:
                from repro.runtime import codec

                digest = hashlib.blake2b(
                    codec.encode(self.graphs), digest_size=DIGEST_BYTES
                ).digest()
            object.__setattr__(self, "_digest", digest)
        return digest

    def reference(self) -> "QueryEnvelope":
        """This envelope's header: the same query, deadline, proxy and
        settings, and the template's digest in place of the template."""
        return QueryEnvelope(
            self.query_id, self.deadline, self.proxy, self.metadata, self.digest
        )

    def decoded(self) -> List[DecodedGraph]:
        """The envelope's opgraphs, decoded and ordered once for as long as
        something holds them.  A header has none: its node resolves the
        digest instead."""
        if self.by_reference:
            raise ValueError(f"query {self.query_id!r}: a header carries no opgraphs")
        decoded = [ref() for ref in self._decoded]
        if not decoded or None in decoded:
            decoded = [DecodedGraph(OpGraph.from_wire(wire)) for wire in self.graphs]
            object.__setattr__(self, "_decoded", tuple(map(weakref.ref, decoded)))
        return decoded

    def opgraphs(self) -> List[OpGraph]:
        return [entry.graph for entry in self.decoded()]

    def to_bytes(self) -> bytes:
        """The codec's encoding of this envelope, built at most once."""
        encoded = self._encoded
        if encoded is None:
            from repro.runtime import codec

            parts: List[bytes] = [bytes((codec.TAG_QUERY_ENVELOPE,))]
            for value in self.fields():
                codec._encode_value(value, parts)
            encoded = b"".join(parts)
            object.__setattr__(self, "_encoded", encoded)
        return encoded

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryEnvelope):
            return NotImplemented
        return self.fields() == other.fields()
