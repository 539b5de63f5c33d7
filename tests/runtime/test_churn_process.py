"""Tests for the churn process."""

from repro.runtime.churn import ChurnProcess
from repro.runtime.simulation import SimulationEnvironment


def test_churn_process_fails_and_recovers_nodes():
    env = SimulationEnvironment(10)
    churn = ChurnProcess(env, interval=1.0, session_time=3.0, protected=[0], seed=1)
    churn.start()
    env.run(5.0)
    assert churn.history, "churn should have failed at least one node"
    assert all(event.address != 0 for event in churn.history if event.action == "fail")
    env.run(10.0)
    recoveries = [event for event in churn.history if event.action == "recover"]
    assert recoveries, "failed nodes should eventually recover"


def test_churn_callbacks_fire():
    env = SimulationEnvironment(6)
    churn = ChurnProcess(env, interval=0.5, session_time=100.0, recover=False, seed=2)
    failed = []
    churn.on_fail(failed.append)
    churn.start()
    env.run(3.0)
    assert failed
    assert set(failed) == set(churn.failed_nodes)
    churn.stop()
    count = len(failed)
    env.run(3.0)
    assert len(failed) == count
