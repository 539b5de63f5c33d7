"""Table 1 conformance: the VRI exposes the clock/scheduler, UDP and TCP
methods the paper lists, in both runtime environments."""

import inspect

import pytest

from repro.runtime.physical import PhysicalEnvironment, PhysicalNodeRuntime
from repro.runtime.simulation import SimulatedNodeRuntime, SimulationEnvironment
from repro.runtime.vri import VirtualRuntime

# Table 1 of the paper, translated to Python naming.
TABLE_1_METHODS = [
    "get_current_time",   # long getCurrentTime()
    "schedule_event",     # void scheduleEvent(delay, callbackData, callbackClient)
    "listen",             # UDP listen(port, callbackClient)
    "release",            # UDP release(port)
    "send",               # UDP send(source, destination, payload, ...)
    "tcp_listen",         # TCP listen(port, callbackClient)
    "tcp_release",        # TCP release(port)
    "tcp_connect",        # TCPConnection connect(source, destination, callbackClient)
    "tcp_disconnect",     # disconnect(TCPConnection)
    "tcp_write",          # int write(byteArray)
]


@pytest.mark.parametrize("method", TABLE_1_METHODS)
def test_vri_declares_table1_method(method):
    assert hasattr(VirtualRuntime, method)


@pytest.mark.parametrize("runtime_cls", [SimulatedNodeRuntime, PhysicalNodeRuntime])
@pytest.mark.parametrize("method", TABLE_1_METHODS)
def test_both_environments_implement_table1(runtime_cls, method):
    implementation = getattr(runtime_cls, method, None)
    assert implementation is not None
    assert not getattr(implementation, "__isabstractmethod__", False)


def test_simulated_runtime_is_a_virtual_runtime():
    env = SimulationEnvironment(2)
    assert isinstance(env.runtime(0), VirtualRuntime)


def test_physical_runtime_is_a_virtual_runtime():
    environment = PhysicalEnvironment(1)
    try:
        runtime = environment.runtime(0)
        assert isinstance(runtime, VirtualRuntime)
        assert runtime.address[0] == "127.0.0.1"
    finally:
        environment.close()


def test_schedule_event_signature_matches_paper_shape():
    # scheduleEvent(delay, callbackData, callbackClient)
    signature = inspect.signature(VirtualRuntime.schedule_event)
    assert list(signature.parameters)[1:] == ["delay", "callback_data", "callback_client"]
