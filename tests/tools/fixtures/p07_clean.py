"""Fixture: P07 clean twin — the operator holds a role object."""


class Aggregator:
    def __init__(self, context, replica):
        adversary = getattr(context.overlay.runtime, "adversary", None)
        self._attacker = adversary.attacker(context.overlay.address, replica) if adversary else None
        self.recorder.record("installed")  # some other ledger is fine

    def _reported(self, states, origin):
        if self._attacker is None:
            return states
        return self._attacker.tamper(states, origin) or {}
