"""Fixture: P07 violations — the attacker inside a production operator."""

from repro.runtime import churn
from repro.runtime.churn import corrupt_states


class Aggregator:
    def _attacked(self, states, origin):
        if self._attacker.attack == "suppress_sources" and churn.suppression_victim(origin):
            self._adversary.record(self._attacker.address, "suppress_sources", origin=origin)
            return {}
        return {key: corrupt_states(st, 10.0) for key, st in states.items()}
