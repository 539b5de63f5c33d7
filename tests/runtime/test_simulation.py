"""Tests for the discrete-event Simulation Environment."""

import pytest

from repro.runtime.codec import ENVELOPE_BYTES
from repro.runtime.congestion import FIFOQueueModel
from repro.runtime.simulation import SimulationEnvironment
from repro.runtime.sizing import estimate_message_size
from repro.runtime.topology import StarTopology


class _Recorder:
    """Minimal UDP listener used by the tests."""

    def __init__(self):
        self.messages = []
        self.acks = []

    def handle_udp(self, source, payload):
        self.messages.append((source, payload))

    def handle_udp_ack(self, callback_data, success):
        self.acks.append((callback_data, success))


def test_udp_delivery_between_nodes():
    env = SimulationEnvironment(4, seed=1)
    receiver = _Recorder()
    env.runtime(2).listen(9000, receiver)
    sender = _Recorder()
    env.runtime(0).send(9000, (2, 9000), {"hello": "world"}, "msg-1", sender)
    env.run(2.0)
    assert receiver.messages and receiver.messages[0][1] == {"hello": "world"}
    assert receiver.messages[0][0] == (0, 9000)
    assert sender.acks == [("msg-1", True)]


def test_delivery_latency_matches_topology():
    topology = StarTopology(3, min_access_latency=0.05, max_access_latency=0.05)
    env = SimulationEnvironment(3, topology=topology)
    receiver = _Recorder()
    env.runtime(1).listen(1, receiver)
    arrival_times = []

    class Tap:
        def handle_udp(self, source, payload):
            arrival_times.append(env.now)

    env.runtime(1).release(1)
    env.runtime(1).listen(1, Tap())
    env.runtime(0).send(1, (1, 1), "x")
    env.run(1.0)
    assert arrival_times and arrival_times[0] == pytest.approx(0.1, rel=0.2)


def test_send_to_dead_node_fails_ack():
    env = SimulationEnvironment(3)
    receiver = _Recorder()
    env.runtime(1).listen(5, receiver)
    env.fail_node(1)
    sender = _Recorder()
    env.runtime(0).send(5, (1, 5), "ping", "m", sender)
    env.run(1.0)
    assert receiver.messages == []
    assert sender.acks == [("m", False)]
    assert env.stats.messages_dropped == 1


def test_recovered_node_receives_again():
    env = SimulationEnvironment(3)
    receiver = _Recorder()
    env.runtime(1).listen(5, receiver)
    env.fail_node(1)
    env.recover_node(1)
    env.runtime(0).send(5, (1, 5), "ping")
    env.run(1.0)
    assert len(receiver.messages) == 1


def test_dead_node_timers_are_suppressed():
    env = SimulationEnvironment(2)
    fired = []
    env.runtime(1).schedule_event(1.0, "x", lambda d: fired.append(d))
    env.fail_node(1)
    env.run(2.0)
    assert fired == []


def test_unbound_port_drops_message():
    env = SimulationEnvironment(2)
    sender = _Recorder()
    env.runtime(0).send(404, (1, 404), "nobody home", "m", sender)
    env.run(1.0)
    assert sender.acks == [("m", False)]


def test_per_node_byte_accounting():
    env = SimulationEnvironment(3)
    receiver = _Recorder()
    env.runtime(2).listen(7, receiver)
    env.runtime(0).send(7, (2, 7), {"payload": "x" * 100})
    env.run(1.0)
    assert env.bytes_sent_by_node.get(0, 0) > 0
    assert env.bytes_received_by_node.get(2, 0) > 0


def test_congestion_model_delays_bulk_traffic():
    slow = StarTopology(3, access_bandwidth_bps=8_000.0)
    env = SimulationEnvironment(3, topology=slow, congestion_model=FIFOQueueModel())
    receiver = _Recorder()
    env.runtime(1).listen(2, receiver)
    for _ in range(5):
        env.runtime(0).send(2, (1, 2), "y" * 1000)
    env.run(0.5)
    early = len(receiver.messages)
    env.run(20.0)
    assert early < 5
    assert len(receiver.messages) == 5


def test_tcp_pipe_between_nodes():
    env = SimulationEnvironment(2)
    events = []

    class Server:
        def handle_tcp_new(self, connection):
            events.append("new")
            self.conn = connection

        def handle_tcp_data(self, connection):
            events.append(connection.read().decode())

        def handle_tcp_error(self, connection):
            events.append("error")

    class Client(Server):
        pass

    server = Server()
    env.runtime(1).tcp_listen(80, server)
    client = Client()
    connection = env.runtime(0).tcp_connect(1234, (1, 80), client)
    env.run(0.5)
    env.runtime(0).tcp_write(connection, b"hello pier")
    env.run(0.5)
    assert "new" in events and "hello pier" in events


def test_estimate_message_size_scales_with_payload():
    small = estimate_message_size({"a": 1})
    large = estimate_message_size({"a": "x" * 1000})
    assert large > small > 0


def test_message_size_handles_nested_and_odd_types():
    nested = {"a": [1, 2, {"b": (3, 4)}], "c": {1, 2, 3}}
    assert estimate_message_size(nested) > 0
    assert estimate_message_size(None) > 0


def test_bad_node_count_rejected():
    with pytest.raises(ValueError):
        SimulationEnvironment(0)


def test_per_node_byte_accounting_includes_ack_overhead():
    """A delivered message's UDP ack is traffic the *receiver* sends, so it
    is charged to that node's counter, keeping per-node accounting in
    parity with the global byte counter on drop-free runs."""
    env = SimulationEnvironment(3, seed=2)
    receiver = _Recorder()
    env.runtime(2).listen(9000, receiver)
    sender = _Recorder()
    env.runtime(0).send(9000, (2, 9000), {"hello": "world"}, "m", sender)
    env.run(1.0)
    assert sender.acks == [("m", True)]
    # Node 2 sent no data message, only the ack: a bare codec envelope.
    assert env.bytes_sent_by_node[2] == ENVELOPE_BYTES
    assert sum(env.bytes_sent_by_node.values()) == env.stats.bytes_sent


def test_failure_path_ack_is_not_charged_to_any_node():
    """Failure acks are synthesized by the environment — no node
    transmitted anything — so only the global counter moves and
    sum(per-node) stays below stats.bytes_sent under drops, by design."""
    env = SimulationEnvironment(3, seed=2)
    env.fail_node(2)
    sender = _Recorder()
    env.runtime(0).send(9000, (2, 9000), {"x": 1}, "m", sender)
    env.run(1.0)
    assert sender.acks == [("m", False)]
    assert env.bytes_sent_by_node.get(2, 0) == 0
    assert sum(env.bytes_sent_by_node.values()) < env.stats.bytes_sent
