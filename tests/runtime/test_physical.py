"""Tests for the Physical Runtime Environment (real sockets on loopback).

These tests exercise the "native simulation" claim from the other side:
the same VRI surface is available over real UDP sockets.  They are kept
small and time-bounded so the suite stays fast.
"""

import pytest

from repro.runtime.physical import PhysicalEnvironment


class _Listener:
    def __init__(self):
        self.messages = []
        self.acks = []

    def handle_udp(self, source, payload):
        self.messages.append(payload)

    def handle_udp_ack(self, callback_data, success):
        self.acks.append((callback_data, success))


@pytest.fixture
def two_nodes():
    environment = PhysicalEnvironment(2)
    yield environment.runtime(0), environment.runtime(1)
    environment.close()


def test_physical_udp_roundtrip(two_nodes):
    a, b = two_nodes
    listener = _Listener()
    b.listen(4000, listener)
    sender = _Listener()
    a.send(4000, (b.address, 4000), {"greeting": "hello"}, "m1", sender)
    for _ in range(40):
        a.environment.run(0.05)
        if listener.messages and sender.acks:
            break
    assert listener.messages == [{"greeting": "hello"}]
    assert sender.acks and sender.acks[0][1] is True


def test_physical_timers_fire_in_order(two_nodes):
    a, _b = two_nodes
    fired = []
    a.schedule_event(0.05, "second", fired.append)
    a.schedule_event(0.01, "first", fired.append)
    a.environment.run(0.3)
    assert fired == ["first", "second"]


def test_physical_clock_is_monotonic(two_nodes):
    a, _b = two_nodes
    t0 = a.get_current_time()
    a.environment.run(0.05)
    assert a.get_current_time() >= t0
