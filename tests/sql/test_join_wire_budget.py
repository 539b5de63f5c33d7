"""A seeded wire budget for the column-pruned join, in tier-1.

The same shape as pierbench's ``join64`` at smoke size — a 3-way rehash
join of wide fact rows against two small dimension tables on 12 nodes,
seed 1, ``exchange_batch_size=8`` — run through the public API.  The
simulator's counters repeat exactly under a seed, so a later change that
re-widens what a join ships fails here, not at the next benchmark run.
"""

import itertools
import random

from wire_watch import watch_put_batches

from repro import PIERNetwork
from repro.overlay import naming
from repro.overlay.distribution_tree import BROADCAST_NAMESPACE, DEFAULT_ROOT_KEY
from repro.qp import opgraph
from repro.qp.tuples import Tuple
from repro.runtime.rand import derive_rng

JOINS = "hp_fact JOIN hp_dim_k ON k = k JOIN hp_dim_j ON j = j"
NEEDED = {"k", "j"}  # the select list and the join keys
# What a rehashed row carries besides: nothing.  The join side rides in
# the row's table name and the key is the put's own partitioning key.
MARKERS: set = set()
# QueryResult.bytes_sent of the pruned query below.  Recorded as 259,845
# when column pruning landed; re-recorded (219,572) when the two marker
# columns (__join_key__, __source_table__) left the rehashed row, and again
# when the simulator began charging codec bytes instead of a structural
# estimate (SELECT * fell from 345,053 to 111,823 bytes in the same
# re-recording; both queries still send 310 messages), and again (60,055 to
# 47,020) when a query's three opgraphs began to travel the distribution
# tree as one envelope in the plan's well-known vocabulary: 22 fewer tree
# messages, so both queries send 288 (SELECT * 111,823 to 98,821 bytes).
# Re-recorded (47,020 to 48,646) when a streaming query began to end when
# its data does: the window now holds the nodes' progress reports and the
# first hop of the end broadcast, and no longer the idle tail up to
# TIMEOUT + 1; both queries send 310 messages (SELECT * 100,447 bytes).
# Re-recorded (48,646 to 48,152) when a node's quiet check moved onto the
# query's own ticks: fewer progress reports, so both queries send 303
# messages (SELECT * 99,953 bytes).
# Re-recorded (48,152 to 47,888) when graph ids became query-relative
# (`g0`, not `q000001-g0`): 8 bytes less per opgraph, three opgraphs on
# each of the 11 tree edges; still 303 messages (SELECT * 99,689 bytes).
# Re-recorded (47,888 to 42,070) when rows began to travel schema-once: a
# list of same-schema rows carries its table and column names once, and a
# put_batch one base suffix instead of a (suffix, row) pair per row; still
# 303 messages (SELECT * 99,689 to 81,573 bytes).  With the list form
# disabled and the pair body restored the old counts come back exactly.
# Re-recorded (42,070 to 41,087; 303 to 294 messages; SELECT * 81,573 to
# 80,526) when base-table scans began to punctuate their snapshots and
# the progress reports lost their tick grid.  By kind: put_batch 161 to
# 153 (the first rehash ships the same rows in the same batches, only
# earlier; the second rehash, fed from a rendezvous scan and still on
# its timer, now collects those rows in fewer batches), lookup 77 to 75,
# lookup_response 28 to 27, result batches 11 to 12, progress reports 14
# to 15, tree messages 12 unchanged.  With the punctuation disabled and
# the tick grid restored the old counts come back exactly; with the
# punctuation alone disabled it reads 42,597.
# If a change moves it on purpose, re-record it here and say why in
# CHANGES.md.
PRUNED_BYTES = 41_087
# The same query run again on the same deployment: every node keeps the
# first one's template, so its plan crosses the tree as a header.
# Recorded at 39,385 bytes in 308 messages when templates began to be
# kept by digest; re-recorded (39,385 to 33,880, still 308 messages) when
# rows began to travel schema-once, as above; re-recorded (33,880 to
# 32,080, 308 to 290 messages) with the punctuation, as above: put_batch
# 168 to 155, lookup 68 to 62, lookup_response 28 to 25, result batches
# 10 to 12, progress reports 12 to 14, tree messages 22 unchanged.
REPEATED_BYTES = 32_080


def _deployment(monkeypatch) -> PIERNetwork:
    """A fresh deployment with the tables loaded.  Query ids name the
    rendezvous namespaces (so they pick the owners rows are shipped to)
    and come from a process-wide counter, as do object suffixes: both
    start where a fresh interpreter would, so the counts depend neither
    on which tests ran before nor on which of the two queries this is."""
    monkeypatch.setattr(opgraph, "_query_counter", itertools.count(1))
    monkeypatch.setattr(naming, "_suffix_rng", derive_rng(1))
    rng = random.Random(1)
    net = PIERNetwork(12, seed=1, exchange_batch_size=8)
    facts = [
        Tuple.make(
            "hp_fact",
            f_id=index,
            k=rng.randrange(9),
            j=rng.randrange(44),
            src=f"10.0.{rng.randrange(256)}.{rng.randrange(256)}",
            dst=f"192.168.{rng.randrange(64)}.{rng.randrange(256)}",
            sport=1024 + rng.randrange(5000),
            dport=rng.randrange(1024),
            proto=rng.choice(("tcp", "tcp", "udp")),
            bytes=64 + rng.randrange(1400),
            packets=1 + rng.randrange(16),
            label=f"evt-{rng.randrange(97)}",
            flags=rng.randrange(32),
        )
        for index in range(120)
    ]
    tables = (
        ("hp_fact", "f_id", facts),
        ("hp_dim_k", "dk_id", [Tuple.make("hp_dim_k", dk_id=i, k=i, k_name=f"class-{i}") for i in range(8)]),
        ("hp_dim_j", "dj_id", [Tuple.make("hp_dim_j", dj_id=i, j=i, j_name=f"site-{i}") for i in range(40)]),
    )
    for table, key, rows in tables:
        net.create_table(table, partitioning=[key])
        net.publish(table, rows)
    net.run(4.0)
    return net


def _run(net: PIERNetwork, select: str):
    """Run ``SELECT select FROM JOINS``; also return the columns of every
    tuple the query's exchanges shipped."""
    result, shipped = watch_put_batches(
        net, lambda: net.query(f"SELECT {select} FROM {JOINS} TIMEOUT 10")
    )
    return result, [tup.columns for tup in shipped]


def test_pruned_join_ships_only_needed_columns_within_a_recorded_byte_budget(monkeypatch):
    pruned, shipped = _run(_deployment(monkeypatch), "k")
    assert shipped and all(set(columns) <= NEEDED | MARKERS for columns in shipped)
    assert pruned.rows() and all(list(row) == ["k"] for row in pruned.rows())
    assert pruned.bytes_sent == PRUNED_BYTES

    whole, shipped_whole = _run(_deployment(monkeypatch), "*")
    assert any("label" in columns for columns in shipped_whole)  # the watcher sees wide rows
    assert sorted(row["k"] for row in whole.rows()) == sorted(row["k"] for row in pruned.rows())
    assert pruned.bytes_sent < 0.70 * whole.bytes_sent
    # Pruning removes bytes, not messages.  (Not exactly none: a link's
    # serialisation time depends on size, so a few batches are cut at
    # other rows — 323 messages against 327 when this was recorded.)
    assert abs(pruned.messages_sent - whole.messages_sent) <= 0.02 * whole.messages_sent


def test_the_plan_crosses_each_tree_edge_once(monkeypatch):
    """All three opgraphs of the join travel down the distribution tree in
    one envelope: one message per tree edge, not one per opgraph.  The
    query's end — its deadline moved to the moment its data was done —
    follows the same edges once."""
    net = _deployment(monkeypatch)
    edges = sum(len(node.tree.children()) for node in net.nodes)
    assert edges == len(net.nodes) - 1  # the tree spans the deployment
    tree_namespace = f"{BROADCAST_NAMESPACE}:{DEFAULT_ROOT_KEY}"
    forwarded = []
    transmit = net.environment.transmit

    def watching(source, source_port, destination, payload, ack):  # noqa: ANN001
        if payload.get("kind") == "direct" and payload.get("namespace") == tree_namespace:
            forwarded.append(payload["value"]["payload"])
        transmit(source, source_port, destination, payload, ack)

    net.environment.transmit = watching
    try:
        result = net.query(f"SELECT k FROM {JOINS} TIMEOUT 10")
        net.run(2.0)  # the end crosses the tree
    finally:
        del net.environment.transmit
    assert result.rows() and result.completed_by == "data"
    envelopes = [payload for payload in forwarded if isinstance(payload, opgraph.QueryEnvelope)]
    assert len(envelopes) == edges == 11
    assert {envelope.query_id for envelope in envelopes} == {result.query_id}
    assert all(len(envelope.graphs) == 3 for envelope in envelopes)
    assert not any(envelope.by_reference for envelope in envelopes)  # the first of its statement
    ends = [payload for payload in forwarded if not isinstance(payload, opgraph.QueryEnvelope)]
    assert len(ends) == edges
    assert all(
        end["query_id"] == result.query_id
        and end["control"] == {"action": "renew", "deadline": result.finished_at}
        for end in ends
    )


def test_a_repeated_query_crosses_the_tree_by_reference(monkeypatch):
    """The second run of a statement sends its plan down the tree as a
    header — the query id, deadline, proxy, settings and the template's
    digest — on every edge, and answers the same rows for fewer bytes."""
    net = _deployment(monkeypatch)
    first, _ = _run(net, "k")
    tree_namespace = f"{BROADCAST_NAMESPACE}:{DEFAULT_ROOT_KEY}"
    forwarded = []
    transmit = net.environment.transmit

    def watching(source, source_port, destination, payload, ack):  # noqa: ANN001
        if payload.get("kind") == "direct" and payload.get("namespace") == tree_namespace:
            forwarded.append(payload["value"]["payload"])
        transmit(source, source_port, destination, payload, ack)

    net.environment.transmit = watching
    try:
        second = net.query(f"SELECT k FROM {JOINS} TIMEOUT 10")
    finally:
        del net.environment.transmit
    assert first.bytes_sent == PRUNED_BYTES
    assert second.bytes_sent == REPEATED_BYTES
    assert sorted(row["k"] for row in second.rows()) == sorted(row["k"] for row in first.rows())
    assert second.completed_by == "data" and second.coverage == 1.0
    headers = [payload for payload in forwarded if isinstance(payload, opgraph.QueryEnvelope)]
    assert len(headers) == len(net.nodes) - 1
    assert all(
        header.by_reference and header.query_id == second.query_id for header in headers
    )
    assert len({header.digest for header in headers}) == 1
    metrics = net.metrics()
    assert metrics["dissemination.templates_full"] == 1
    assert metrics["dissemination.templates_by_reference"] == 1
    assert metrics["dissemination.template_misses"] == 0
