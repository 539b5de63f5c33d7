"""Per-query integrity policy: byzantine-resilient aggregation (Section 4.1.2).

Fail-stop churn (``repro.qp.resilience``) keeps a query answering when
nodes crash; this module keeps the *answer* trustworthy when nodes lie.
The paper sketches three defenses for malicious participants — spot-check
commitments (the SIA approach), redundant computation, and rate
limitation — and :class:`IntegrityPolicy` turns the first two on for one
query:

* ``spot_check`` — every origin sends the proxy a *commitment* over its
  cumulative local contribution (and, when sampled, the contribution
  itself); the aggregation-tree root sends per-origin *claims* instead of
  final rows.  The proxy verifies each claim against the matching
  commitment, flags violations per origin, repairs sampled origins from
  their own reports, and recomputes the result itself — so a hop that
  inflated, dropped, or forged a contribution is caught per origin.
* ``redundancy`` (k) — the plan's hierarchical aggregation opgraph is
  cloned into k independently-rooted trees (distinct DHT key salts, so
  root ownership lands on different nodes) and the proxy reconciles the
  k per-replica totals through :class:`~repro.security.redundancy.
  RedundantAggregation`'s median combiner: a minority of corrupted
  replicas is out-voted rather than fatal.

Threat model (see ``docs/SECURITY.md``): attackers misbehave in their
*aggregator* role — corrupting, dropping, or forging contributions that
pass through them — while shipping their own local data honestly.  A node
lying about its own rows is the classic bounded-influence residual the
SIA literature accepts; spot-checks cannot distinguish it from bad data.

The policy travels in ``plan.metadata["integrity"]`` (the same envelope
mechanism :class:`~repro.qp.resilience.ResiliencePolicy` uses) so every
executing node sees the same settings.  When the policy is disabled the
query path is byte-identical to before: no extra namespace, no messages,
no per-tuple work.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple as PyTuple, Union

from repro.qp.ledger import partial_pairs
from repro.qp.opgraph import OpGraph, QueryPlan
from repro.qp.operators.groupby import parse_aggregate_specs
from repro.qp.tuples import Tuple
from repro.security.redundancy import RedundantAggregation
from repro.security.spot_check import commit_to_states

INTEGRITY_METADATA_KEY = "integrity"

# Verification traffic (origin self-reports, root claims) rides its own
# namespace straight to the proxy via direct messages, so it shares no
# custody path with the aggregation tree an attacker may sit on.
INTEGRITY_NAMESPACE = "__integrity__"

HIERARCHICAL_OP_TYPE = "hierarchical_aggregate"


@dataclass(frozen=True)
class IntegrityPolicy:
    """Byzantine-integrity settings for one query (all off by default).

    ``spot_check_sample`` is the fraction of origins whose self-report
    carries full states (repairable) rather than just the commitment
    (detectable): 1.0 trades bandwidth for exact repair, lower values
    lean on redundancy to out-vote what cannot be repaired.
    """

    spot_check: bool = False
    redundancy: int = 1
    spot_check_sample: float = 1.0
    combiner: str = "median"
    outlier_threshold: float = 0.5

    @classmethod
    def enabled(cls, redundancy: int = 3, spot_check_sample: float = 1.0) -> "IntegrityPolicy":
        """The everything-on policy used when a deployment runs under attack."""
        return cls(
            spot_check=True,
            redundancy=redundancy,
            spot_check_sample=spot_check_sample,
        )

    @property
    def active(self) -> bool:
        return self.spot_check or self.redundancy > 1

    def to_metadata(self) -> Dict[str, Any]:
        return {
            "spot_check": self.spot_check,
            "redundancy": self.redundancy,
            "spot_check_sample": self.spot_check_sample,
            "combiner": self.combiner,
            "outlier_threshold": self.outlier_threshold,
        }

    @classmethod
    def from_metadata(cls, metadata: Optional[Mapping[str, Any]]) -> "IntegrityPolicy":
        payload = (metadata or {}).get(INTEGRITY_METADATA_KEY)
        if not isinstance(payload, Mapping):
            return cls()
        return cls(
            spot_check=bool(payload.get("spot_check", False)),
            redundancy=int(payload.get("redundancy", 1)),
            spot_check_sample=float(payload.get("spot_check_sample", 1.0)),
            combiner=str(payload.get("combiner", "median")),
            outlier_threshold=float(payload.get("outlier_threshold", 0.5)),
        )


def resolve_integrity(
    value: Union[None, bool, Mapping[str, Any], IntegrityPolicy],
    default: Optional[IntegrityPolicy] = None,
) -> Optional[IntegrityPolicy]:
    """Normalise the user-facing ``integrity=`` argument.

    ``None`` falls back to the deployment default, ``True``/``False`` pick
    the fully-enabled/disabled policies, and a mapping overrides individual
    fields of :class:`IntegrityPolicy`.
    """
    if value is None:
        return default
    if isinstance(value, IntegrityPolicy):
        return value
    if value is True:
        return IntegrityPolicy.enabled()
    if value is False:
        return IntegrityPolicy()
    if isinstance(value, Mapping):
        return IntegrityPolicy(**dict(value))
    raise TypeError(
        f"integrity must be an IntegrityPolicy, bool, or mapping, not {type(value)!r}"
    )


def replica_sampled(query_id: str, replica: int, origin: str, fraction: float) -> bool:
    """Whether ``origin``'s self-report for one replica carries full states.

    Hashed (not drawn from an RNG) so origin and proxy agree without
    coordination — the same trick trace sampling uses.
    """
    if fraction >= 1.0:
        return True
    if fraction <= 0.0:
        return False
    token = zlib.crc32(f"{query_id}|{replica}|{origin}".encode()) & 0xFFFFFFFF
    return token / 0x100000000 < fraction


def _hierarchical_specs(plan: QueryPlan) -> List[PyTuple[OpGraph, Any]]:
    found = []
    for graph in plan.opgraphs:
        for spec in graph.operators.values():
            if spec.op_type == HIERARCHICAL_OP_TYPE:
                found.append((graph, spec))
    return found


def apply_integrity(plan: QueryPlan, policy: IntegrityPolicy) -> None:
    """Stamp ``policy`` into ``plan.metadata`` and replicate the plan's
    hierarchical aggregation opgraph into ``policy.redundancy``
    independently-rooted trees.

    Replica 0 keeps the original namespace (so a policy of ``redundancy=1``
    is wire-identical to no policy); replicas 1..k-1 salt the aggregation
    namespace, which moves the root identifier — and therefore root
    ownership — to different nodes.
    """
    if not policy.active:
        return
    if plan.metadata.get("cq"):
        raise ValueError(
            "integrity verification covers snapshot queries only: a standing "
            "query has no single flush at which origins can commit to their "
            "cumulative contribution (see docs/SECURITY.md)"
        )
    sites = _hierarchical_specs(plan)
    if not sites:
        raise ValueError(
            "integrity verification requires a hierarchical aggregation plan "
            "(aggregation_strategy='hierarchical'); this plan has no "
            "hierarchical_aggregate operator"
        )
    plan.metadata[INTEGRITY_METADATA_KEY] = policy.to_metadata()
    already_replicated = any("~r" in graph.graph_id for graph in plan.opgraphs)
    if policy.redundancy <= 1 or already_replicated:
        return
    for base_graph, _spec in sites:
        payload = base_graph.to_dict()
        for replica in range(1, policy.redundancy):
            clone = OpGraph.from_dict(payload)
            clone.graph_id = f"{base_graph.graph_id}~r{replica}"
            for op_id, spec in list(clone.operators.items()):
                if spec.op_type == HIERARCHICAL_OP_TYPE:
                    clone.operators[op_id] = spec.with_params(replica=replica)
            plan.add_graph(clone)


# -- proxy-side verification ---------------------------------------------------- #
@dataclass
class IntegrityReport:
    """What the proxy's verification pass concluded (see ``QueryResult.integrity``).

    ``verification_failures`` is one entry per (replica, origin) whose
    root claim contradicted — or omitted — the origin's own commitment;
    ``suspected_nodes`` is the best-effort attribution (relay stamps on
    corrupted batches, roots of outlier replicas).  ``replica_disagreement``
    is the worst relative spread across replicas over all groups, and
    ``inconclusive_groups`` lists groups where no strict majority of
    replicas agreed (see :class:`~repro.security.redundancy.RedundantAggregation`).
    """

    replicas: int = 1
    origins_verified: int = 0
    verification_failures: List[Dict[str, Any]] = field(default_factory=list)
    suspected_nodes: List[Any] = field(default_factory=list)
    repaired_origins: int = 0
    unrepaired_origins: int = 0
    unreported_origins: int = 0
    missing_replicas: List[int] = field(default_factory=list)
    outlier_replicas: List[int] = field(default_factory=list)
    inconclusive_groups: List[Any] = field(default_factory=list)
    replica_disagreement: float = 0.0

    @property
    def failed_pairs(self) -> List[PyTuple[int, str]]:
        """(replica, origin) pairs whose claim failed verification."""
        return [
            (entry["replica"], entry["origin"]) for entry in self.verification_failures
        ]

    @property
    def clean(self) -> bool:
        return (
            not self.verification_failures
            and not self.outlier_replicas
            and not self.inconclusive_groups
        )



def mean_relative_error(
    rows: List[Tuple],
    reference: Mapping[Any, float],
    column: str,
    group_columns: List[str],
) -> float:
    """Mean relative error of result ``rows`` against a ground-truth mapping
    ``group key -> expected value`` (benchmark/ablation helper; a group
    missing from ``rows`` counts as fully wrong)."""
    if not reference:
        return 0.0
    observed: Dict[Any, Any] = {}
    for tup in rows:
        key = tup.key(group_columns) if group_columns else ()
        observed[key] = tup.get(column)
    errors = []
    for key, expected in reference.items():
        value = observed.get(key)
        if value is None or expected == 0:
            errors.append(0.0 if value == expected else 1.0)
        else:
            errors.append(abs(float(value) - expected) / abs(expected))
    return sum(errors) / len(errors)


class IntegrityCollector:
    """Proxy-side assembly and verification of one query's integrity traffic.

    Receives origin self-reports and root claims on
    :data:`INTEGRITY_NAMESPACE`, and at query completion verifies each
    claim against its commitment, repairs what the sampled self-reports
    allow, recomputes per-replica group totals with the plan's own merge
    functions, and reconciles replicas through the policy's combiner.
    ``finalize`` returns the recomputed result rows plus the
    :class:`IntegrityReport`.
    """

    def __init__(self, plan: QueryPlan, policy: IntegrityPolicy) -> None:
        self.plan = plan
        self.policy = policy
        sites = _hierarchical_specs(plan)
        if not sites:
            raise ValueError("plan has no hierarchical_aggregate operator")
        _graph, spec = sites[0]
        self.group_columns: List[str] = list(spec.params.get("group_columns", []))
        self.aggregate_specs = parse_aggregate_specs(list(spec.params["aggregates"]))
        self.output_table: str = spec.params.get("output_table", "aggregate")
        self._merge_functions = [agg.build() for agg in self.aggregate_specs]
        # replica -> {"node": root address, "origins": {origin: {"partials", "relays"}}}
        self._claims: Dict[int, Dict[str, Any]] = {}
        # replica -> origin -> newest self-report
        self._reports: Dict[int, Dict[str, Dict[str, Any]]] = {}
        self.messages_received = 0

    # -- ingestion -------------------------------------------------------- #
    def receive(self, payload: Any) -> None:
        if not isinstance(payload, dict):
            return
        kind = payload.get("kind")
        replica = int(payload.get("replica", 0))
        self.messages_received += 1
        if kind == "origin":
            origin = payload.get("origin")
            if origin is None:
                return
            reports = self._reports.setdefault(replica, {})
            previous = reports.get(origin)
            # A rejoined node's fresh incarnation supersedes its pre-failure
            # report, matching the root ledger's newest-incarnation rule.
            if previous is None or payload.get("inc_ts", 0.0) >= previous.get("inc_ts", 0.0):
                reports[origin] = payload
        elif kind == "root":
            origins = payload.get("origins")
            if not isinstance(origins, dict):
                return
            entry = self._claims.setdefault(replica, {"node": payload.get("node"), "origins": {}})
            entry["node"] = payload.get("node")
            entry["origins"].update(origins)

    def _merge_into(
        self,
        buffer: Dict[PyTuple[Any, ...], List[Any]],
        key: PyTuple[Any, ...],
        states: List[Any],
    ) -> None:
        existing = buffer.get(key)
        if existing is None:
            buffer[key] = list(states)
            return
        buffer[key] = [
            fn.merge(left, right)
            for fn, left, right in zip(self._merge_functions, existing, states)
        ]

    # -- verification ------------------------------------------------------- #
    def finalize(self) -> PyTuple[List[Tuple], IntegrityReport]:
        """Verify, repair, recompute, and reconcile; returns (rows, report)."""
        policy = self.policy
        report = IntegrityReport(replicas=max(1, policy.redundancy))
        suspected: set = set()
        replica_totals: Dict[int, Dict[PyTuple[Any, ...], List[Any]]] = {}
        replica_roots: Dict[int, Any] = {}
        for replica in range(report.replicas):
            claims = self._claims.get(replica)
            reports = self._reports.get(replica, {})
            if claims is None and not reports:
                report.missing_replicas.append(replica)
                continue
            origin_states: Dict[str, Dict[PyTuple[Any, ...], List[Any]]] = {}
            claimed_origins = claims["origins"] if claims is not None else {}
            for origin, claim in claimed_origins.items():
                origin_states[origin] = dict(partial_pairs(claim.get("partials") or []))
            if policy.spot_check:
                for origin, self_report in reports.items():
                    report.origins_verified += 1
                    claimed = origin_states.get(origin)
                    if claimed is not None and commit_to_states(origin, claimed) == self_report.get("commitment"):
                        continue
                    if claims is None:
                        # The whole replica's root never reported (died at
                        # flush, message lost): rebuild what the sampled
                        # reports allow without flagging every origin.
                        pass
                    else:
                        reason = "missing" if claimed is None else "mismatch"
                        report.verification_failures.append(
                            {"replica": replica, "origin": origin, "reason": reason}
                        )
                        for relay in (claimed_origins.get(origin) or {}).get("relays", []):
                            suspected.add(relay)
                    if "partials" in self_report:
                        origin_states[origin] = dict(partial_pairs(self_report["partials"]))
                        report.repaired_origins += 1
                    else:
                        # Detected but unrepairable: drop the corrupt claim
                        # and let redundancy out-vote the thinner replica.
                        origin_states.pop(origin, None)
                        report.unrepaired_origins += 1
                report.unreported_origins += sum(
                    1 for origin in claimed_origins if origin not in reports
                )
            if claims is None and not origin_states:
                report.missing_replicas.append(replica)
                continue
            totals: Dict[PyTuple[Any, ...], List[Any]] = {}
            for states_by_key in origin_states.values():
                for key, states in states_by_key.items():
                    self._merge_into(totals, key, states)
            replica_totals[replica] = totals
            if claims is not None:
                replica_roots[replica] = claims.get("node")
        rows = self._reconcile(replica_totals, replica_roots, report, suspected)
        report.suspected_nodes = sorted(suspected, key=repr)
        return rows, report

    def _reconcile(
        self,
        replica_totals: Dict[int, Dict[PyTuple[Any, ...], List[Any]]],
        replica_roots: Dict[int, Any],
        report: IntegrityReport,
        suspected: set,
    ) -> List[Tuple]:
        group_keys = sorted(
            {key for totals in replica_totals.values() for key in totals}, key=repr
        )
        combiner = RedundantAggregation(
            combiner=self.policy.combiner, outlier_threshold=self.policy.outlier_threshold
        )
        outliers: set = set()
        rows: List[Tuple] = []
        for key in group_keys:
            payload: Dict[str, Any] = {}
            for index, (agg, fn) in enumerate(zip(self.aggregate_specs, self._merge_functions)):
                per_replica = [
                    (replica, fn.result(totals[key][index]))
                    for replica, totals in sorted(replica_totals.items())
                    if key in totals
                ]
                values = [value for _replica, value in per_replica]
                numeric = values and all(
                    isinstance(value, (int, float)) and not isinstance(value, bool)
                    for value in values
                )
                if numeric and len(values) > 1:
                    combined = combiner.combine(values)
                    payload[agg.output] = combined.combined_value
                    for outlier_index in combined.suspected_outliers:
                        outliers.add(per_replica[outlier_index][0])
                    if combined.inconclusive and key not in report.inconclusive_groups:
                        report.inconclusive_groups.append(key)
                    center = abs(combined.combined_value) or 1.0
                    spread = (max(values) - min(values)) / center
                    report.replica_disagreement = max(report.replica_disagreement, spread)
                else:
                    payload[agg.output] = values[0] if values else None
            rows.append(self._group_tuple(key, payload))
        report.outlier_replicas = sorted(outliers)
        for replica in outliers:
            root = replica_roots.get(replica)
            if root is not None:
                suspected.add(root)
        return rows

    def _group_tuple(self, key: PyTuple[Any, ...], payload: Dict[str, Any]) -> Tuple:
        values = dict(zip(self.group_columns, key))
        values.update(payload)
        return Tuple(self.output_table, values)
