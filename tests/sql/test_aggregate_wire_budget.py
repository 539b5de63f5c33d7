"""A seeded wire budget for aggregate state, in tier-1.

Partial aggregate state travels in one column-wise form
(:func:`repro.qp.ledger.wire_partials`): hierarchical shipments toward the
aggregation root, and a shared standing plan's pane bursts down the
distribution tree.  The simulator's counters repeat exactly under a seed,
so a change that re-widens either fails here, not at the next benchmark
run.  ``test_join_wire_budget.py`` is the join path's twin.
"""

import itertools
import random

from repro import PIERNetwork
from repro.apps.network_monitor import FIREWALL_TABLE, NetworkMonitorApp
from repro.overlay import naming
from repro.overlay.distribution_tree import BROADCAST_NAMESPACE, DEFAULT_ROOT_KEY
from repro.qp import opgraph
from repro.qp.ledger import partial_pairs
from repro.qp.tuples import Tuple
from repro.runtime.codec import encoded_size
from repro.runtime.rand import derive_rng
from repro.runtime.sizing import wire_size
from repro.workloads.firewall import FirewallWorkload

NODES = 12
GROUPS = 40
# The partial shipments of the GROUP BY below, recorded when partials
# became column-wise blocks (the per-group {"key", "states"} form sent
# 15,496 bytes of messages, 13,471 of them partials): the messages, and
# the ``partials`` values inside them.  If a change moves them on purpose,
# re-record them here and say why in CHANGES.md.
SHIPMENTS = 15
SHIPMENT_BYTES = 6_396
PARTIALS_BYTES = 4_491
# One message of the first pane burst of the shared plan below (one per
# tree edge, all the same size).  As one partial-state Tuple per group it
# was 3,740 bytes.
PANE_BURST_BYTES = 655
PANE_BURST_GROUPS = 32


def _seeded(monkeypatch) -> None:
    """Query ids name namespaces and object suffixes pick DHT owners; both
    come from process-wide counters, reset to a fresh interpreter's."""
    monkeypatch.setattr(opgraph, "_query_counter", itertools.count(1))
    monkeypatch.setattr(naming, "_suffix_rng", derive_rng(1))


def _watch(net: PIERNetwork, wanted, run):
    """Call ``run()``; return its result and every transmitted payload
    ``wanted`` selects."""
    seen = []
    transmit = net.environment.transmit

    def watching(source, source_port, destination, payload, ack):  # noqa: ANN001
        if wanted(payload):
            seen.append(payload)
        transmit(source, source_port, destination, payload, ack)

    net.environment.transmit = watching
    try:
        result = run()
    finally:
        del net.environment.transmit
    return result, seen


def _is_shipment(payload) -> bool:
    value = payload.get("value")
    return isinstance(value, dict) and "partials" in value


def _as_group_dicts(blocks) -> list:
    """The same groups in the per-group form partials used to travel in."""
    return [{"key": list(key), "states": states} for key, states in partial_pairs(blocks)]


def test_hierarchical_partials_ship_as_columns_within_a_recorded_byte_budget(monkeypatch):
    _seeded(monkeypatch)
    rng = random.Random(1)
    net = PIERNetwork(NODES, seed=1)
    net.create_table("agg_t", partitioning=["id"])
    rows = [
        Tuple.make("agg_t", id=i, g=f"g{rng.randrange(GROUPS):02d}", v=rng.randrange(100))
        for i in range(480)
    ]
    net.publish("agg_t", rows)
    net.run(4.0)
    result, shipments = _watch(
        net,
        _is_shipment,
        lambda: net.query(
            "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM agg_t GROUP BY g TIMEOUT 10",
            aggregation_strategy="hierarchical",
        ),
    )
    truth = {}
    for row in rows:
        count, total = truth.get(row.get("g"), (0, 0))
        truth[row.get("g")] = (count + 1, total + row.get("v"))
    assert {row["g"]: (row["n"], row["s"]) for row in result.rows()} == truth
    assert len(truth) == GROUPS

    partials = [payload["value"]["partials"] for payload in shipments]
    assert len(shipments) == SHIPMENTS
    assert sum(map(wire_size, shipments)) == SHIPMENT_BYTES
    assert sum(map(encoded_size, partials)) == PARTIALS_BYTES
    as_dicts = sum(encoded_size(_as_group_dicts(blocks)) for blocks in partials)
    assert PARTIALS_BYTES <= 0.5 * as_dicts


def test_a_pane_burst_ships_as_columns_within_a_recorded_byte_budget(monkeypatch):
    _seeded(monkeypatch)
    net = PIERNetwork(NODES, seed=1)
    workload = FirewallWorkload(node_count=NODES, events_per_node=200, source_pool=40, seed=1)
    NetworkMonitorApp(net).attach_live_feed(
        workload, interval=1.0, events_per_tick=4, duration=20.0
    )
    tree_namespace = f"{BROADCAST_NAMESPACE}:{DEFAULT_ROOT_KEY}"

    def is_pane_burst(payload) -> bool:
        if payload.get("kind") != "direct" or payload.get("namespace") != tree_namespace:
            return False
        body = payload["value"]["payload"]
        return isinstance(body, dict) and "panes" in body

    sql = (
        f"SELECT source_ip, COUNT(*) AS events FROM {FIREWALL_TABLE} "
        "WINDOW 5 LIFETIME 20 GROUP BY source_ip"
    )

    def subscribe_and_run():
        cq = net.subscribe(sql, proxy=2)
        net.run(30.0)
        return cq

    cq, bursts = _watch(net, is_pane_burst, subscribe_and_run)
    assert cq.shared is not None and cq.epochs_delivered
    first = [
        payload
        for payload in bursts
        if payload["value"]["broadcast_id"] == f"{cq.shared.query_id}/panes/1"
    ]
    assert len(first) == NODES - 1, "a burst crosses every tree edge once"
    blocks = first[0]["value"]["payload"]["panes"]
    assert sum(block["count"] for block in blocks) == PANE_BURST_GROUPS
    assert {block["pane"] for block in blocks} == {0}
    assert [wire_size(payload) for payload in first] == [PANE_BURST_BYTES] * (NODES - 1)
