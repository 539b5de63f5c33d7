"""Fixture: suppression comments silence specific rules."""
# pierlint: disable-file=P02


def inline(tuples):
    return tuples.Schema("t", ("a",))  # pierlint: disable=P01


def handle_udp(source, payload):
    payload["seen"] = True  # suppressed by the disable-file above


def still_flagged(tuples):
    return tuples.Schema("t", ("b",))
