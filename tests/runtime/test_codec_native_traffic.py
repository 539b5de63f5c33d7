"""Simulated traffic is codec-native.

The simulator charges every message the length of its codec encoding, so
a payload the codec can only pickle would be charged — and sent, on the
physical runtime — as a pickle frame.  One smoke-sized deployment runs
each query shape the planner ships, and no simulated message takes the
codec's counted pickle fallback.
"""

from repro import PIERNetwork
from repro.qp.integrity import IntegrityPolicy
from repro.qp.plans import (
    JoinStep,
    fetch_matches_join_plan,
    hierarchical_aggregation_plan,
    multi_join_plan,
)
from repro.qp.tuples import Tuple
from repro.runtime import codec

NODES = 8
GROUP_BY = "SELECT src, COUNT(*) AS n FROM events GROUP BY src"


def _network() -> PIERNetwork:
    net = PIERNetwork(NODES, seed=5)
    net.create_table("fact", partitioning=["id"])
    net.create_table("dim_k", partitioning=["k"])
    net.create_table("dim_j", partitioning=["j"])
    net.create_table("events", source="local")
    net.publish("fact", [Tuple.make("fact", id=i, k=i % 3, j=i % 4, tags=[i, "x"]) for i in range(12)])
    net.publish("dim_k", [Tuple.make("dim_k", k=i, kn=f"k{i}") for i in range(3)])
    net.publish("dim_j", [Tuple.make("dim_j", j=i, jn=f"j{i}") for i in range(4)])
    for address in range(NODES):
        net.register_local_table(
            address, "events", [Tuple.make("events", src=f"s{address % 3}") for _ in range(2)]
        )
    net.run(3.0)
    return net


def test_no_simulated_message_takes_the_pickle_fallback():
    net = _network()
    before = codec.FALLBACKS.total()

    assert len(net.query("SELECT id, tags FROM fact TIMEOUT 3")) == 12
    three_way = multi_join_plan(
        "fact", [JoinStep("dim_k", "k", "k"), JoinStep("dim_j", "j", "j")], timeout=5.0
    )
    assert len(net.execute(three_way)) == 12
    bloom = multi_join_plan("fact", [JoinStep("dim_k", "k", "k", strategy="bloom")], timeout=6.0)
    assert len(net.execute(bloom)) == 12
    assert len(net.execute(fetch_matches_join_plan("fact", "dim_k", ["k"], timeout=4.0))) == 12

    handoff = net.query(
        f"{GROUP_BY} TIMEOUT 8", resilience=True, aggregation_strategy="hierarchical"
    )
    assert sum(row["n"] for row in handoff.rows()) == 2 * NODES
    spot_checked = net.execute(
        hierarchical_aggregation_plan(
            "events", ["src"], [("count", None, "n")], timeout=16, local_wait=1.0, hold=0.5
        ),
        integrity=IntegrityPolicy.enabled(),
    )
    assert sum(row["n"] for row in spot_checked.tuples) == 2 * NODES

    standing = [
        net.subscribe(f"{GROUP_BY} WINDOW 2 LIFETIME 6", proxy=proxy, shared=True)
        for proxy in (0, 1)
    ]
    net.run(12.0)
    assert all(cq.epochs_delivered for cq in standing)

    assert codec.FALLBACKS.total() == before
