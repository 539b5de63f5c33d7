"""The integrity layer on the live query path (repro.qp.integrity).

End-to-end scenarios for byzantine-resilient aggregation: a seeded
:class:`~repro.runtime.churn.ByzantineProcess` flips nodes into attacker
roles on the real wire format, and an :class:`IntegrityPolicy` (spot-check
commitments + k independently-rooted aggregation trees) detects, repairs,
and out-votes what they corrupt.  Also covers the rate-limitation defense
(per-client query admission) and the disabled-policy equivalence the
module promises: integrity off must be bit-for-bit the old hot path.
"""

from __future__ import annotations

import pytest

from repro import PIERNetwork
from repro.qp.integrity import (
    IntegrityCollector,
    IntegrityPolicy,
    apply_integrity,
    mean_relative_error,
    resolve_integrity,
)
from repro.qp.ledger import wire_partials
from repro.qp.plans import hierarchical_aggregation_plan
from repro.qp.resilience import ResiliencePolicy
from repro.qp.tuples import Tuple
from repro.runtime.churn import ByzantineProcess
from repro.security.rate_limiter import QueryRejected
from repro.security.spot_check import commit_to_states

NODES = 20
ROWS_PER_NODE = 5


def _plan(query_id: str = None):
    plan = hierarchical_aggregation_plan(
        "events", ["src"], [("count", None, "n")],
        timeout=16, local_wait=1.0, hold=0.5,
    )
    if query_id is not None:
        # Pin the query id where the test depends on attack geometry: the
        # id feeds the namespace hashing that places the aggregation-tree
        # roots, so an unpinned id would make which batches cross attacker
        # custody depend on the process-global query counter (test order).
        plan.query_id = query_id
        plan.opgraphs[0].graph_id = f"{query_id}-g0"
    return plan


def _network(attack_fraction: float = 0.0, seed: int = 11, byz_seed: int = 3):
    network = PIERNetwork(NODES, seed=seed)
    network.default_resilience = ResiliencePolicy.enabled()
    adversary = None
    if attack_fraction:
        adversary = ByzantineProcess(
            network.environment, attack_fraction, seed=byz_seed, protected=[0]
        )
    for address in range(NODES):
        network.register_local_table(
            address,
            "events",
            [Tuple.make("events", src=f"s{address % 2}") for _ in range(ROWS_PER_NODE)],
        )
    return network, adversary


def _totals(result) -> dict:
    return {t.get("src"): t.get("n") for t in result.tuples}


REFERENCE = {("s0",): NODES // 2 * ROWS_PER_NODE * 1.0, ("s1",): NODES // 2 * ROWS_PER_NODE * 1.0}


def test_spot_check_detects_and_repairs_live_attack():
    """20% attackers (drop/inflate/forge mix) on the real aggregation tree:
    the verified result is exact, every tampered (replica, origin) pair is
    flagged, and the forger is named a suspect."""
    network, adversary = _network(attack_fraction=0.2)
    result = network.execute(_plan("q-integrity"), integrity=IntegrityPolicy.enabled())

    assert _totals(result) == {"s0": 50, "s1": 50}
    assert mean_relative_error(result.tuples, REFERENCE, "n", ["src"]) == 0.0

    report = result.integrity
    assert report is not None and report.replicas == 3
    attacked = adversary.attacked_pairs()
    assert attacked, "the seeded adversary must actually attack"
    flagged = set(report.failed_pairs)
    detection = len(flagged & attacked) / len(attacked)
    assert detection >= 0.9
    assert report.repaired_origins >= len(attacked & flagged)
    forgers = [
        a for a in adversary.attacker_addresses
        if adversary.role(a).attack == "forge_origin"
    ]
    for forger in forgers:
        assert forger in report.suspected_nodes

    metrics = network.metrics()
    assert metrics["security.byzantine_nodes"] == len(adversary.attacker_addresses)
    assert metrics["security.spot_check.verifications"] == report.origins_verified
    assert metrics["security.spot_check.failures"] == len(report.verification_failures)
    assert metrics["security.spot_check.repairs"] == report.repaired_origins


def test_attack_without_integrity_corrupts_the_answer():
    """The same adversary with the policy off visibly corrupts the result —
    the contrast that justifies the verification machinery."""
    network, adversary = _network(attack_fraction=0.2)
    result = network.execute(_plan("q-integrity"))
    assert result.integrity is None
    error = mean_relative_error(result.tuples, REFERENCE, "n", ["src"])
    assert error >= 0.2, f"attackers should visibly corrupt the answer, got {error}"


def test_spot_check_emits_trace_span():
    network, _adversary = _network(attack_fraction=0.2)
    network.enable_tracing()
    plan = _plan("q-integrity")
    network.execute(plan, integrity=IntegrityPolicy.enabled())
    spans = [
        span for span in network.tracer.spans_for(f"t-{plan.query_id}")
        if span.name == "security.spot_check"
    ]
    assert len(spans) == 1
    span = spans[0]
    assert span.attrs["replicas"] == 3
    assert span.attrs["origins_verified"] > 0
    assert span.attrs["failures"] >= 1


def test_redundancy_outvotes_corrupt_replica_claims():
    """Collector-level reconciliation: with spot-check off, a minority of
    corrupted replica roots is out-voted by the median combiner and the
    corrupt replica's root lands in the suspect list."""
    plan = _plan()
    policy = IntegrityPolicy(spot_check=False, redundancy=3)
    apply_integrity(plan, policy)
    collector = IntegrityCollector(plan, policy)
    for replica, count in ((0, 10), (1, 10), (2, 1000)):  # replica 2 inflates
        collector.receive(
            {
                "kind": "root",
                "replica": replica,
                "node": 100 + replica,
                "origins": {
                    "origin-a": {
                        "partials": wire_partials({("s0",): [count]}),
                        "relays": [],
                    }
                },
            }
        )
    rows, report = collector.finalize()
    assert [t.get("n") for t in rows] == [10]
    assert report.outlier_replicas == [2]
    assert 102 in report.suspected_nodes
    assert not report.inconclusive_groups


def test_collector_flags_missing_and_mismatched_claims():
    """Spot-check verification: a claim contradicting the origin's own
    commitment is flagged and repaired from the sampled self-report; an
    origin the root never claimed is flagged as missing."""
    plan = _plan()
    policy = IntegrityPolicy(spot_check=True, redundancy=1)
    apply_integrity(plan, policy)
    collector = IntegrityCollector(plan, policy)
    honest = {("s0",): [7]}
    for origin in ("origin-a", "origin-b"):
        collector.receive(
            {
                "kind": "origin",
                "replica": 0,
                "origin": origin,
                "node": origin,
                "inc_ts": 0.0,
                "commitment": commit_to_states(origin, honest),
                "partials": wire_partials({("s0",): [7]}),
            }
        )
    collector.receive(
        {
            "kind": "root",
            "replica": 0,
            "node": "root",
            "origins": {
                # origin-a's claim was inflated in flight; origin-b omitted.
                "origin-a": {
                    "partials": wire_partials({("s0",): [700]}),
                    "relays": ["relay-x"],
                },
            },
        }
    )
    rows, report = collector.finalize()
    reasons = {
        (entry["origin"], entry["reason"]) for entry in report.verification_failures
    }
    assert reasons == {("origin-a", "mismatch"), ("origin-b", "missing")}
    assert report.repaired_origins == 2
    assert "relay-x" in report.suspected_nodes
    assert [t.get("n") for t in rows] == [14]  # both repaired to truth


def test_rate_limiting_admission_control():
    """Per-client sliding-window admission at the proxy: the over-threshold
    client is rejected with its consumption, other clients are unaffected,
    and the throttle count lands in the deployment metrics."""
    network, _ = _network()
    network.enable_rate_limiting(window=60.0, threshold=3.0)
    plan = _plan()
    handles = [
        network.submit(plan, client="alice"),
        network.submit(plan, client="alice"),
        network.submit(plan, client="alice"),
    ]
    with pytest.raises(QueryRejected) as excinfo:
        network.submit(plan, client="alice")
    assert excinfo.value.client == "alice"
    assert excinfo.value.consumption >= 3.0
    # Other clients (and the anonymous default) still admit.
    other = network.submit(plan, client="bob")
    assert network.metrics()["security.rate_limiter.throttled"] == 1
    for handle in handles + [other]:
        network.cancel(handle)


def test_disabled_integrity_adds_no_verification_traffic():
    """integrity=None and an explicit integrity=False produce the same
    rows with no report, no replica opgraphs, zero proxy verification
    counters, and near-identical traffic — the zero-overhead-when-disabled
    contract.  (The stamped opt-out enlarges the dissemination envelope by
    a few bytes, which can shift the congestion model's packet timing by a
    handful of messages; anything beyond that would be integrity traffic.)"""
    runs = {}
    for label, integrity in (("default", None), ("opt_out", False)):
        network, _ = _network()
        plan = _plan("q-identical")
        result = network.execute(plan, integrity=integrity)
        runs[label] = (result, plan, network)
    default, opt_out = runs["default"][0], runs["opt_out"][0]
    assert _totals(default) == _totals(opt_out) == {"s0": 50, "s1": 50}
    assert abs(default.messages_sent - opt_out.messages_sent) <= 5
    assert default.integrity is None and opt_out.integrity is None
    assert len(runs["default"][1].opgraphs) == len(runs["opt_out"][1].opgraphs) == 1
    for run in runs.values():
        proxy = run[2].nodes[0].proxy
        assert proxy.integrity_verifications == 0
        assert proxy.integrity_failures == 0


def test_integrity_opt_out_survives_submit():
    """Regression guard (mirrors the resilience opt-out): an explicit
    integrity=False must not be re-resolved back to the deployment
    default inside submit()."""
    network, _ = _network()
    network.default_integrity = IntegrityPolicy.enabled()
    plan = _plan()
    stream = network.stream(plan, integrity=False)
    assert not IntegrityPolicy.from_metadata(plan.metadata).active
    assert len(plan.opgraphs) == 1, "no replica trees for an opted-out query"
    assert stream.handle.integrity is None
    stream.cancel()


def test_default_integrity_applies_to_unannotated_queries():
    network, _ = _network()
    network.default_integrity = IntegrityPolicy.enabled(redundancy=2)
    plan = _plan()
    result = network.execute(plan)
    assert result.integrity is not None and result.integrity.replicas == 2
    assert _totals(result) == {"s0": 50, "s1": 50}


def test_apply_integrity_rejects_unsupported_plans():
    policy = IntegrityPolicy.enabled()
    windowed = hierarchical_aggregation_plan(
        "events", ["src"], [("count", None, "n")],
        window_spec={"size": 5.0, "lifetime": 20.0},
    )
    windowed.metadata["cq"] = True
    with pytest.raises(ValueError, match="snapshot queries only"):
        apply_integrity(windowed, policy)
    from repro.qp.plans import flat_aggregation_plan

    flat = flat_aggregation_plan("events", ["src"], [("count", None, "n")])
    with pytest.raises(ValueError, match="hierarchical"):
        apply_integrity(flat, policy)


def test_resolve_integrity_surface():
    assert resolve_integrity(None, default=None) is None
    assert resolve_integrity(True).active
    assert not resolve_integrity(False).active
    policy = resolve_integrity({"spot_check": True, "redundancy": 5})
    assert policy.redundancy == 5 and policy.active
    with pytest.raises(TypeError):
        resolve_integrity(42)


def test_lint_scope_covers_security_modules():
    """The integrity collector handles wire payloads (P02) and the security
    modules' randomness must be deterministic (P03) — pin both scopes so a
    config edit cannot silently drop them."""
    from tools.pierlint.config import rules_for

    assert "P02" in rules_for("qp/integrity.py")
    assert "P03" in rules_for("security/spot_check.py")
    assert "P03" in rules_for("security/redundancy.py")
