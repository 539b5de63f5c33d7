"""Loopback tests for the physical deployment path.

The headline claim (paper Section 3.1, "native simulation"): the same
program code produces the same answers whether the VRI binds to the
discrete-event simulator or to real UDP sockets.  These tests run a full
workload under both bindings and compare results row for row, assert the
physical wire path never takes the codec's pickle fallback, and exercise
the socket-level behaviours the simulator cannot: datagram dedup + acks
observed from a raw socket, retransmission after a lost ACK, abandonment
of a send to a failed node, and TCP length-prefix framing reassembled
across short reads.
"""

import socket
import time

import pytest

from repro.api import PIERNetwork
from repro.qp.plans import broadcast_scan_plan, symmetric_hash_join_plan
from repro.qp.tuples import Tuple
from repro.runtime import codec
from repro.runtime.physical import PhysicalEnvironment

QUERY = (
    "SELECT source, COUNT(*) AS hits FROM events GROUP BY source TIMEOUT 2"
)
# A 2-way rehash join whose select list prunes what the exchange ships.
# The two sides name their key columns differently, so the one exchange
# they share is keyed per input.
JOIN_QUERY = "SELECT event_id, zone FROM events JOIN zones ON source = address TIMEOUT 2"
# A two-column key (SQL's ON takes one column, so the plan is hand-built):
# the key travels as a value tuple, in the put and through the codec.
READINGS = [("a", 1), ("a", 2), ("b", 1), ("a", "1"), ("c", None)]
SENSORS = [("a", 1), ("b", 1), ("c", 1), ("a", 3)]


def _run_workload(mode):
    """Publish the same rows and run the same aggregation, then the same
    two joins, under ``mode``."""
    net = PIERNetwork(4, seed=11, mode=mode)
    try:
        net.create_table("events", partitioning=["source"])
        rows = [
            Tuple.make("events", source=f"10.0.0.{i % 3}", event_id=i)
            for i in range(12)
        ]
        net.publish("events", rows)
        net.create_table("zones", partitioning=["zone"])
        net.publish(
            "zones", [Tuple.make("zones", zone=f"z{i}", address=f"10.0.0.{i}", rack=i) for i in range(2)]
        )
        net.create_table("readings", partitioning=["val"])
        net.publish(
            "readings",
            [Tuple.make("readings", site=site, slot=slot, val=i) for i, (site, slot) in enumerate(READINGS)],
        )
        net.create_table("sensors", partitioning=["name"])
        net.publish(
            "sensors",
            [Tuple.make("sensors", place=place, port=port, name=f"s-{place}{port}") for place, port in SENSORS],
        )
        net.run(0.5)
        result = net.query(QUERY)
        assert result.completed
        joined = net.query(JOIN_QUERY)
        assert joined.completed
        composite = net.execute(
            symmetric_hash_join_plan(
                "readings", "sensors", ["site", "slot"], ["place", "port"], timeout=2.0, columns=["val", "name"]
            )
        )
        assert composite.completed
        return (
            sorted((row["source"], row["hits"]) for row in result.rows()),
            sorted(tuple(sorted(row.items())) for row in joined.rows()),
            sorted((row["val"], row["name"]) for row in composite.rows()),
        )
    finally:
        net.close()


def test_physical_results_match_simulated_and_avoid_pickle():
    simulated = _run_workload("simulated")
    codec.FALLBACKS.reset()
    physical = _run_workload("physical")
    assert physical[0] == simulated[0] == [
        ("10.0.0.0", 4),
        ("10.0.0.1", 4),
        ("10.0.0.2", 4),
    ]
    # Eight events sit in a known zone; the rows carry the select list only.
    assert physical[1] == simulated[1] == sorted(
        (("event_id", i), ("zone", f"z{i % 3}")) for i in range(12) if i % 3 < 2
    )
    # ("a", 1) and ("b", 1) have a sensor; ("a", "1") is not ("a", 1).
    assert physical[2] == simulated[2] == [(0, "s-a1"), (2, "s-b1")]
    # The acceptance bar: zero pickle frames on the physical wire path.
    assert codec.FALLBACKS.total() == 0


def test_a_loopback_join_ends_when_its_data_does():
    """On real sockets a streaming join ends at its last row plus a quiet
    interval and a report, not at ``TIMEOUT + 1`` wall seconds."""
    net = PIERNetwork(4, seed=11, mode="physical")
    try:
        net.create_table("events", partitioning=["event_id"])
        net.publish("events", [Tuple.make("events", source=f"10.0.0.{i % 3}", event_id=i) for i in range(12)])
        net.create_table("zones", partitioning=["zone"])
        net.publish("zones", [Tuple.make("zones", zone=f"z{i}", address=f"10.0.0.{i}") for i in range(2)])
        net.run(0.5)
        timeout = 4.0
        started = time.perf_counter()
        result = net.query(f"SELECT event_id, zone FROM events JOIN zones ON source = address TIMEOUT {timeout:g}")
        elapsed = time.perf_counter() - started
        assert result.completed_by == "data"
        assert elapsed < timeout
        assert sorted(row["event_id"] for row in result.rows()) == [i for i in range(12) if i % 3 < 2]
    finally:
        net.close()


def test_a_repeated_loopback_join_installs_by_reference():
    """The second run of a join crosses the loopback tree as a header that
    every node resolves from the template it decoded the first time, and
    neither run takes the pickle fallback."""
    net = PIERNetwork(4, seed=11, mode="physical")
    try:
        net.create_table("events", partitioning=["event_id"])
        net.publish("events", [Tuple.make("events", source=f"10.0.0.{i % 3}", event_id=i) for i in range(12)])
        net.create_table("zones", partitioning=["zone"])
        net.publish("zones", [Tuple.make("zones", zone=f"z{i}", address=f"10.0.0.{i}") for i in range(2)])
        net.run(0.5)
        codec.FALLBACKS.reset()
        query = "SELECT event_id, zone FROM events JOIN zones ON source = address TIMEOUT 4"
        first = net.query(query)
        second = net.query(query, proxy=2)
        metrics = net.metrics()
        assert metrics["dissemination.templates_full"] == 1
        assert metrics["dissemination.templates_by_reference"] == 1
        assert metrics["dissemination.template_misses"] == 0
        assert all(
            any(graph.query_id == second.query_id for graph in node.executor.installed_graphs())
            for node in net.nodes
        )
        assert sorted(row["event_id"] for row in second.rows()) == sorted(
            row["event_id"] for row in first.rows()
        ) == [i for i in range(12) if i % 3 < 2]
        assert codec.FALLBACKS.total() == 0
    finally:
        net.close()


def test_a_loopback_result_batch_over_one_datagram_arrives_complete():
    """Sixteen rows of about 5 KB each fill one result batch of about
    80 KB, more than a datagram holds: the result handler cuts it into
    runs that fit, so every row reaches the proxy and the query ends
    when its data does instead of waiting out its deadline."""
    net = PIERNetwork(4, seed=11, mode="physical")
    try:
        net.create_table("blobs", partitioning=["bucket"])
        rows = [Tuple.make("blobs", bucket=0, seq=i, body=f"{i:02d}" + "x" * 5000) for i in range(16)]
        net.publish("blobs", rows)
        net.run(0.5)
        # Every row sits at the bucket's owner; ask from another node.
        owner = next(
            index for index, node in enumerate(net.nodes)
            if any(True for _ in node.overlay.object_manager.local_scan("blobs"))
        )
        dropped = net.environment.stats.messages_dropped
        result = net.query("SELECT seq, body FROM blobs TIMEOUT 4", proxy=(owner + 1) % len(net.nodes))
        assert result.completed_by == "data"
        assert sorted(row["seq"] for row in result.rows()) == list(range(16))
        assert {row["body"] for row in result.rows()} == {row["body"] for row in rows}
        assert net.environment.stats.messages_dropped == dropped
    finally:
        net.close()


def test_a_loopback_plan_over_one_datagram_is_refused_before_anything_is_sent():
    """The simulator refuses the same plan (tests/qp/test_plan_templates.py):
    both runtimes answer it alike, with a ValueError at submit."""
    net = PIERNetwork(3, seed=11, mode="physical")
    try:
        net.create_table("events", partitioning=["event_id"])
        net.run(0.2)
        plan = broadcast_scan_plan(
            "events", "dht_scan", predicate=["eq", ["col", "source"], ["lit", "x" * codec.MAX_DATAGRAM]],
            timeout=2.0,
        )
        sent = net.environment.stats.messages_sent
        with pytest.raises(ValueError, match="datagram"):
            net.execute(plan)
        assert net.environment.stats.messages_sent == sent
    finally:
        net.close()


def test_physical_network_rejects_simulation_only_knobs():
    with pytest.raises(ValueError):
        PIERNetwork(2, mode="physical", topology="transit_stub")
    with pytest.raises(ValueError):
        PIERNetwork(2, mode="plane")  # unknown mode


class _Listener:
    def __init__(self):
        self.payloads = []
        self.acks = []

    def handle_udp(self, source, payload):
        self.payloads.append(payload)

    def handle_udp_ack(self, callback_data, success):
        self.acks.append((callback_data, success))


@pytest.fixture
def environment():
    environment = PhysicalEnvironment(1)
    yield environment
    environment.close()


def _raw_peer():
    """A plain UDP socket on loopback that speaks the datagram envelope by
    hand: it acks only what the test tells it to."""
    peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    peer.bind(("127.0.0.1", 0))
    peer.settimeout(2.0)
    return peer


def test_duplicate_datagrams_are_acked_but_delivered_once(environment):
    node = environment.runtime(0)
    listener = _Listener()
    node.listen(4100, listener)
    wire = codec.pack_datagram(
        codec.KIND_DATA, 77, 9000, 4100, {"n": 1}
    )
    probe = _raw_peer()
    try:
        probe.sendto(wire, node.address)
        probe.sendto(wire, node.address)
        for _ in range(40):
            environment.run(0.05)
            if environment.duplicates_dropped:
                break
        assert listener.payloads == [{"n": 1}]
        assert environment.duplicates_dropped == 1
        # Both copies were acked — the retransmitter's view stays honest.
        for _ in range(2):
            ack, _peer = probe.recvfrom(65536)
            kind, transport_id, _sp, _dp, payload = codec.unpack_datagram(ack)
            assert (kind, transport_id, payload) == (codec.KIND_ACK, 77, None)
    finally:
        probe.close()


def test_a_frame_whose_ack_is_lost_is_sent_again_and_acked_once(environment):
    """The receiver ignores the first DATA frame, as if its ACK were lost:
    the sender's retry ladder sends the same transport id again, and the
    ACK for it completes the send exactly once."""
    environment.RETRY_TIMEOUT = 0.2
    node = environment.runtime(0)
    sender = _Listener()
    peer = _raw_peer()
    try:
        node.send(9000, (peer.getsockname(), 4100), {"n": 1}, "m1", sender)
        first, _ = peer.recvfrom(65536)  # ignored: no ACK goes back
        _kind, first_id, _sp, _dp, _payload = codec.unpack_datagram(first)
        peer.setblocking(False)
        again = None
        for _ in range(40):
            environment.run(0.05)
            try:
                again, _ = peer.recvfrom(65536)
                break
            except BlockingIOError:
                continue
        assert again is not None
        kind, transport_id, source_port, destination_port, payload = codec.unpack_datagram(again)
        assert (kind, transport_id, payload) == (codec.KIND_DATA, first_id, {"n": 1})
        assert environment.retransmits == 1
        ack = codec.pack_datagram(codec.KIND_ACK, transport_id, destination_port, source_port)
        peer.sendto(ack, node.address)
        for _ in range(40):
            environment.run(0.05)
            if sender.acks:
                break
        environment.run(0.5)  # past the next rung: nothing more is sent
        assert sender.acks == [("m1", True)]
        assert environment.retransmits == 1
    finally:
        peer.close()


def test_a_send_to_a_failed_node_is_abandoned_after_max_attempts():
    environment = PhysicalEnvironment(2)
    try:
        environment.RETRY_TIMEOUT = 0.01
        source, destination = environment.runtime(0), environment.runtime(1)
        receiver, sender = _Listener(), _Listener()
        destination.listen(4100, receiver)
        environment.fail_node(1)
        source.send(9000, (destination.address, 4100), {"n": 1}, "m2", sender)
        for _ in range(40):
            environment.run(0.05)
            if sender.acks:
                break
        assert sender.acks == [("m2", False)]
        assert environment.retransmits == environment.MAX_ATTEMPTS - 1
        assert receiver.payloads == []
    finally:
        environment.close()


def test_retry_delay_doubles_per_attempt_within_its_jitter(environment):
    node = environment.runtime(0)
    base = environment.RETRY_TIMEOUT
    for attempts in (1, 2, 3, 4):
        envelope = base * 2.0 ** (attempts - 1)
        for _ in range(20):
            assert envelope * 0.75 <= node._retry_delay(attempts) < envelope * 1.25


class _TcpSink:
    def __init__(self):
        self.frames = []
        self.errors = 0

    def handle_tcp_new(self, connection):
        pass

    def handle_tcp_data(self, connection):
        self.frames.append(connection.read())

    def handle_tcp_error(self, connection):
        self.errors += 1


def test_tcp_framing_reassembles_across_short_reads(environment):
    node = environment.runtime(0)
    sink = _TcpSink()
    node.tcp_listen(0, sink)
    port = node._tcp_servers[0].getsockname()[1]
    client = socket.create_connection((node.address[0], port))
    try:
        body = b"x" * 300
        frame = len(body).to_bytes(4, "big") + body
        # Dribble the frame: split header, then the body in two pieces.
        pieces = (frame[:2], frame[2:6], frame[6:150], frame[150:])
        for index, piece in enumerate(pieces):
            client.sendall(piece)
            environment.run(0.05)
            if index < len(pieces) - 1:
                assert sink.frames == []  # nothing until the frame completes
        for _ in range(20):
            if sink.frames:
                break
            environment.run(0.05)
        assert sink.frames == [body]
        # Two frames in one segment parse as two deliveries.
        client.sendall(frame + frame)
        for _ in range(20):
            environment.run(0.05)
            if len(sink.frames) == 3:
                break
        assert sink.frames == [body, body, body]
    finally:
        client.close()
    # Peer close reaps the connection and notifies the owner.
    for _ in range(20):
        environment.run(0.05)
        if sink.errors:
            break
    assert sink.errors == 1
    assert node._tcp_connections == {}
