"""SimSanitizer tests: wire-object freezing, teardown ledgers, determinism.

The sanitizer is the runtime half of the zero-copy contract checks (the
static half is pierlint).  Each test seeds exactly the bug class the mode
exists to catch and asserts the diagnostic names the guilty party.
"""

from __future__ import annotations

import pytest

from repro import PIERNetwork
from repro.qp.dissemination import TemplateCache
from repro.qp.executor import FINISHED_RETENTION, QueryExecutor
from repro.qp.opgraph import OpGraph
from repro.qp.operators.base import PhysicalOperator, register_operator
from repro.runtime.sanitizer import (
    SanitizerError,
    SimSanitizer,
    payload_fingerprint,
    verify_determinism,
)
from repro.qp.tuples import Tuple
from repro.runtime.simulation import SimulationEnvironment
from repro.simnet import build_overlay


class _Listener:
    def __init__(self) -> None:
        self.received = []

    def handle_udp(self, source, payload) -> None:
        self.received.append(payload)

    def handle_udp_ack(self, callback_data, success) -> None:
        pass


def _two_node_env(**kwargs) -> SimulationEnvironment:
    return SimulationEnvironment(2, seed=7, **kwargs)


# -- wire-object freezing ----------------------------------------------------- #
def test_sender_side_mutation_caught_at_delivery():
    env = _two_node_env(sanitize=True)
    listener = _Listener()
    env.runtime(1).listen(9000, listener)
    payload = {"kind": "data", "items": [1, 2, 3]}
    env.runtime(0).send(9000, (1, 9000), payload)
    payload["items"].append(4)  # sender keeps writing through a live alias
    with pytest.raises(SanitizerError, match="mutated in flight.*sent by node 0"):
        env.run(5.0)


def test_receiver_side_mutation_caught_at_final_check():
    env = _two_node_env(sanitize=True)

    class Mutator(_Listener):
        def handle_udp(self, source, payload) -> None:
            payload["seen"] = True  # writes into the shared wire object

    env.runtime(1).listen(9000, Mutator())
    env.runtime(0).send(9000, (1, 9000), {"kind": "data", "items": [1]})
    with pytest.raises(SanitizerError, match="mutated after delivery.*node 1"):
        env.run(5.0)


def test_clean_traffic_passes_and_counts():
    env = _two_node_env(sanitize=True)
    listener = _Listener()
    env.runtime(1).listen(9000, listener)
    for i in range(5):
        env.runtime(0).send(9000, (1, 9000), {"kind": "data", "i": i})
    env.run(5.0)
    assert len(listener.received) == 5
    assert env.sanitizer.sends_fingerprinted == 5
    assert env.sanitizer.deliveries_verified == 5
    assert env.sanitizer.final_checks >= 1


def test_routing_envelope_keys_are_exempt():
    # "hops", "final" and "path" are per-hop routing state the overlay and
    # in-path operators mutate by design; the fingerprint must not cover
    # them — including nested occurrences (hierarchical envelopes ride
    # inside the overlay message's "value" field).
    base = {
        "kind": "lookup",
        "key": 42,
        "hops": 0,
        "final": False,
        "value": {"side": 0, "path": ["n1"]},
    }
    digest = payload_fingerprint(base)
    base["hops"] = 3
    base["final"] = True
    base["value"]["path"].append("n2")
    assert payload_fingerprint(base) == digest
    base["key"] = 43  # every other key is frozen
    assert payload_fingerprint(base) != digest


def test_pier_sanitize_env_var_toggles_mode(monkeypatch):
    monkeypatch.setenv("PIER_SANITIZE", "1")
    assert SimulationEnvironment(1).sanitizer is not None
    monkeypatch.setenv("PIER_SANITIZE", "0")
    assert SimulationEnvironment(1).sanitizer is None
    monkeypatch.delenv("PIER_SANITIZE")
    assert SimulationEnvironment(1).sanitizer is None
    # Explicit argument wins over the environment.
    monkeypatch.setenv("PIER_SANITIZE", "1")
    assert SimulationEnvironment(1, sanitize=False).sanitizer is None


# -- teardown ledgers --------------------------------------------------------- #
@register_operator
class _LeakyTimerOperator(PhysicalOperator):
    """Arms a far-future timer with raw context.schedule — exactly the bug
    P05 flags statically and the teardown ledger catches dynamically."""

    op_type = "test_leaky_timer"

    def start(self) -> None:
        self.context.schedule(120.0, self._never)  # pierlint: disable=P05

    def _never(self, _data) -> None:  # pragma: no cover - never fires
        pass


@register_operator
class _LeakyBufferOperator(PhysicalOperator):
    """Reports residual buffered tuples after stop()."""

    op_type = "test_leaky_buffer"

    def start(self) -> None:
        self._hoard = ["tuple"] * 3

    def residual_buffered(self) -> int:
        return len(getattr(self, "_hoard", ()))


@register_operator
class _ClingyOperator(PhysicalOperator):
    """Registers with the overlay directly and keeps no way to undo it —
    the bug P08 flags statically; a ``tracked`` one goes through listen()."""

    op_type = "test_clingy"

    def start(self) -> None:
        if self.param("tracked"):
            self.listen("clingy", self._on_data)
        else:
            self.context.overlay.new_data("clingy", self._on_data)  # pierlint: disable=P08

    def _on_data(self, _namespace, _key, _value) -> None:  # pragma: no cover - never called
        pass


def _install_and_finish(op_type: str):
    deployment = build_overlay(1, seed=3)
    executor = QueryExecutor(deployment.node(0))
    graph = OpGraph("g0")
    graph.add_operator("leaky", op_type)
    installed = executor.install(
        "q-leak", graph, timeout=5.0, proxy_address=deployment.node(0).address
    )
    executor.finish(installed)


def test_timer_leak_reported_at_teardown(monkeypatch):
    monkeypatch.setenv("PIER_SANITIZE", "1")
    with pytest.raises(SanitizerError, match="timer leak.*q-leak.*_never"):
        _install_and_finish("test_leaky_timer")


def test_buffer_leak_reported_at_teardown(monkeypatch):
    monkeypatch.setenv("PIER_SANITIZE", "1")
    with pytest.raises(SanitizerError, match="buffer leak.*_LeakyBufferOperator"):
        _install_and_finish("test_leaky_buffer")


def test_tracked_arm_timer_is_disarmed_by_stop(monkeypatch):
    monkeypatch.setenv("PIER_SANITIZE", "1")

    @register_operator
    class _TidyOperator(PhysicalOperator):
        op_type = "test_tidy_timer"

        def start(self) -> None:
            self.arm_timer(120.0, self._never)

        def _never(self, _data) -> None:  # pragma: no cover - cancelled
            pass

    _install_and_finish("test_tidy_timer")  # no SanitizerError


def test_registration_leak_reported_at_teardown(monkeypatch):
    monkeypatch.setenv("PIER_SANITIZE", "1")
    with pytest.raises(SanitizerError, match="registration leak.*'leaky'.*_ClingyOperator.*'clingy'"):
        _install_and_finish("test_clingy")


def test_release_ledger_names_what_a_dropped_query_still_holds():
    deployment = build_overlay(1, seed=3)
    overlay = deployment.node(0)
    executor = QueryExecutor(overlay)
    sanitizer = deployment.environment.sanitizer or SimSanitizer()

    def install(query_id: str, tracked: bool):
        graph = OpGraph("g0")
        graph.add_operator("clingy", "test_clingy", {"tracked": tracked})
        return executor.install(query_id, graph, timeout=5.0, proxy_address=overlay.address)

    running = install("q-running", tracked=True)
    with pytest.raises(SanitizerError, match="release leak.*q-running.*install record.*'clingy'"):
        sanitizer.check_released("q-running", executor, [running])
    executor.finish(running)
    deployment.run(FINISHED_RETENTION + 11.0)  # past the stabilization tick that drops it
    assert not executor.installed_graphs() and executor.released("q-running")
    sanitizer.check_released("q-running", executor, [running])  # nothing left: no error
    overlay.new_data("q-running:rendezvous", lambda *_: None)
    with pytest.raises(SanitizerError, match="release leak.*'q-running:rendezvous'"):
        sanitizer.check_released("q-running", executor)



def test_a_timer_armed_after_teardown_is_reported_at_release(monkeypatch):
    """A finished record lets go of its execution context, but not of the
    context's timer ledger: a timer armed through the context after the
    graph stopped is still reported when the node drops the query."""
    monkeypatch.setenv("PIER_SANITIZE", "1")
    deployment = build_overlay(1, seed=3)
    overlay = deployment.node(0)
    executor = QueryExecutor(overlay)
    graph = OpGraph("g0")
    graph.add_operator("clingy", "test_clingy", {"tracked": True})
    installed = executor.install("q-late", graph, timeout=5.0, proxy_address=overlay.address)
    context = installed.context
    executor.finish(installed)
    assert installed.context is None
    context.schedule(FINISHED_RETENTION + 60.0, lambda _data: None)
    with pytest.raises(SanitizerError, match="release leak.*q-late.*armed timer"):
        deployment.run(FINISHED_RETENTION + 11.0)


def _scanned_deployment(monkeypatch):
    """A sanitizing 4-node deployment that ran one scan: every node keeps
    its template."""
    monkeypatch.setenv("PIER_SANITIZE", "1")
    net = PIERNetwork(4, seed=3)
    net.create_table("t", partitioning=["v"])
    net.publish("t", [Tuple.make("t", v=i) for i in range(6)])
    net.run(2.0)
    result = net.query("SELECT v FROM t TIMEOUT 3")
    assert len(result) == 6 and all(len(node.templates) == 1 for node in net.nodes)
    return net, result


@pytest.mark.parametrize("pinned", ["handle", "record"])
def test_a_template_that_pins_a_query_object_is_reported_at_release(monkeypatch, pinned):
    """A template is shared by every query of its statement: one that
    reaches a query's handle or install record would keep the query
    alive for as long as the statement repeats."""
    net, result = _scanned_deployment(monkeypatch)
    node = net.nodes[2]
    ((digest, decoded),) = node.templates.items()
    if pinned == "handle":
        culprit = net.nodes[0].proxy.query(result.query_id)
    else:
        culprit = node.executor.installed_graphs()[0]
    node.templates._templates[digest] = [*decoded, {"why": [culprit]}]
    name = type(culprit).__name__
    with pytest.raises(SanitizerError, match=f"release leak.*template {digest.hex()} that pins a {name}"):
        net.run(FINISHED_RETENTION + 11.0)


def test_an_expired_template_still_held_is_reported(monkeypatch):
    net, _result = _scanned_deployment(monkeypatch)
    monkeypatch.setattr(TemplateCache, "sweep", lambda self: list(self._used))
    with pytest.raises(SanitizerError, match="release leak.*expired template"):
        net.run(FINISHED_RETENTION + 11.0)

# -- determinism -------------------------------------------------------------- #
def _seeded_run(seed: int) -> SimulationEnvironment:
    env = SimulationEnvironment(3, seed=seed, sanitize=True)
    listener = _Listener()
    env.runtime(1).listen(9000, listener)
    rng = env.rng("traffic")
    for i in range(10):
        env.runtime(0).send(9000, (1, 9000), {"kind": "data", "i": rng.random()})
    env.run(10.0)
    return env


def test_same_seed_runs_are_deterministic():
    digest = verify_determinism(lambda index: _seeded_run(1234), runs=2)
    assert len(digest) == 64


def test_divergent_runs_are_reported():
    with pytest.raises(SanitizerError, match="determinis"):
        verify_determinism(lambda index: _seeded_run(1000 + index), runs=2)
