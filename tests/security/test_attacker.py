"""The adversary on its own: ``Attacker`` over wire data, no network.

The aggregation operators expose other nodes' data to an attacker at four
sites; ``Attacker.tamper`` is the one place that decides what each attack
does there.  The table below pins the behaviour per site, including the
differences between sites that the single function has to keep.
"""

from __future__ import annotations

import copy
from types import SimpleNamespace

import pytest

from repro.qp.ledger import OriginLedger, wire_partials
from repro.runtime.churn import BYZANTINE_ATTACKS, ByzantineProcess, suppression_victim

VICTIM = next(f"origin-{i}" for i in range(99) if suppression_victim(f"origin-{i}"))
SPARED = next(f"origin-{i}" for i in range(99) if not suppression_victim(f"origin-{i}"))

GROUPS = {("g", 1): [3, 2.5], ("h",): [(4, 2), True]}
INFLATED = {("g", 1): [30, 25.0], ("h",): [(40, 20), True]}  # bools are not numbers


def _attacker(attack, address=2, replica=1):
    environment = SimpleNamespace(node_count=4, now=7.0)
    process = ByzantineProcess(environment, 1.0, attacks=[attack], seed=5)
    assert environment.adversary is process
    return process, process.attacker(address, replica)


def _expected(attack, origin, own):
    """What each attack does to data in an aggregator's hands."""
    if attack == "forge_origin":
        return "same"  # forgers relay honestly; their damage is injected
    if attack == "drop_partials":
        return "dropped"
    if attack == "inflate_partials":
        return "inflated"
    # suppress_sources: never on a node's own output; without origin
    # accounting (combined partials) nothing can be spared.
    if own or origin == SPARED:
        return "same"
    return "dropped"


@pytest.mark.parametrize("own", [False, True], ids=["foreign", "own"])
@pytest.mark.parametrize("origin", [None, VICTIM, SPARED], ids=["no-origin", "victim", "spared"])
@pytest.mark.parametrize("form", ["dict", "wire"])
@pytest.mark.parametrize("attack", BYZANTINE_ATTACKS)
def test_tamper_table(attack, form, origin, own):
    process, attacker = _attacker(attack)
    states = copy.deepcopy(GROUPS) if form == "dict" else wire_partials(copy.deepcopy(GROUPS))
    pristine = copy.deepcopy(states)
    expected = _expected(attack, origin, own)

    result = attacker.tamper(states, origin, own=own)

    assert states == pristine, "the input (a wire value) is never mutated"
    if expected == "same":
        assert result is states
        assert process.history == []
        return
    if expected == "dropped":
        assert result is None
    else:
        wanted = INFLATED if form == "dict" else wire_partials(INFLATED)
        assert result == wanted and type(result) is type(states)
        # Never aliases what it corrupted: scribbling on the output must
        # not reach the input's state lists.
        for item in result.values() if form == "dict" else [i["states"] for i in result]:
            item.append("scribble")
        assert states == pristine
    (event,) = process.history
    assert (event.attacker, event.attack, event.origin, event.replica) == (2, attack, origin, 1)
    assert event.time == 7.0
    assert process.attacked_pairs() == ({(1, origin)} if origin is not None else set())


@pytest.mark.parametrize("empty", [{}, []], ids=["dict", "wire"])
@pytest.mark.parametrize("attack", BYZANTINE_ATTACKS)
def test_tampering_with_nothing_is_never_recorded(attack, empty):
    """Recorded only when the input carried data: an unobservable act must
    not count against the detector."""
    process, attacker = _attacker(attack)
    result = attacker.tamper(empty, VICTIM)
    if attack in ("drop_partials", "suppress_sources"):
        assert result is None, "absorbed all the same"
    else:
        assert result == empty and type(result) is type(empty)
    assert process.history == [] and process.attacked_pairs() == set()


def _batches():
    return [
        {"origin": VICTIM, "inc": "a", "inc_ts": 1.0, "seq": 1, "cumulative": False,
         "partials": wire_partials({("g",): [2]}), "relays": [9]},
        {"origin": SPARED, "inc": "b", "inc_ts": 1.0, "seq": 4, "cumulative": True,
         "partials": wire_partials({("g",): [5]})},
        {"origin": SPARED, "inc": "b", "inc_ts": 1.0, "seq": 5, "cumulative": False,
         "partials": []},
    ]


def test_forgers_relay_honestly():
    process, attacker = _attacker("forge_origin")
    assert attacker.forges
    assert attacker.relay(_batches()) is None, "custody stays with the routing layer"
    assert process.history == []


def test_a_dropping_relay_absorbs_everything_and_records_what_carried_data():
    process, attacker = _attacker("drop_partials")
    assert attacker.relay(_batches()) == []
    assert [event.origin for event in process.history] == [VICTIM, SPARED]


def test_a_censoring_relay_discards_victims_and_restamps_the_rest():
    process, attacker = _attacker("suppress_sources")
    batches = _batches()
    batches.append({**batches[0], "seq": 2, "partials": []})  # an empty victim batch
    pristine = copy.deepcopy(batches)
    repacked = attacker.relay(batches)
    assert batches == pristine
    assert [batch["seq"] for batch in repacked] == [4, 5], "victims absorbed, empty ones too"
    assert [batch["relays"] for batch in repacked] == [[2], [2]]
    assert repacked[0]["partials"] is batches[1]["partials"], "spared data rides untouched"
    assert [event.origin for event in process.history] == [VICTIM]


def test_an_inflating_relay_corrupts_copies_under_its_own_relay_mark():
    process, attacker = _attacker("inflate_partials")
    batches = _batches()
    pristine = copy.deepcopy(batches)
    repacked = attacker.relay(batches)
    assert batches == pristine
    assert [batch["partials"] for batch in repacked] == [
        wire_partials({("g",): [20]}),
        wire_partials({("g",): [50]}),
        [],
    ]
    assert [batch["relays"] for batch in repacked] == [[9, 2], [2], [2]]
    assert [(batch["origin"], batch["seq"]) for batch in repacked] == [
        (VICTIM, 1), (SPARED, 4), (SPARED, 5)
    ]
    assert [event.origin for event in process.history] == [VICTIM, SPARED]


def test_forgeries_zero_the_victims_fold_in_every_replica():
    process, attacker = _attacker("forge_origin", replica=0)
    candidates = [f"origin-{i}" for i in range(6)]
    forged = attacker.forgeries(candidates, now=9.0)
    victims = [batch["origin"] for batch in forged]
    assert len(victims) == 2 and set(victims) <= set(candidates)
    again = process.attacker(2, replica=1).forgeries(candidates[::-1], now=9.5)
    assert [batch["origin"] for batch in again] == victims, "the same in every replica tree"
    assert process.attacked_pairs() == {(r, victim) for r in (0, 1) for victim in victims}
    for batch in forged:
        assert batch["cumulative"] and batch["partials"] == [] and batch["relays"] == [2]

    def merge_all(buffer, pairs):
        for key, states in pairs:
            buffer[key] = list(states)

    ledger = OriginLedger(merge_all)
    ledger.fold({"origin": victims[0], "inc": "zzzzzzzz", "inc_ts": 9.0, "seq": 3,
                 "cumulative": False, "partials": wire_partials({("g",): [5]})})
    assert ledger.fold(forged[0]), "~forged outranks any genuine incarnation at a tie"
    assert ledger.states(victims[0]) == {}
    assert ledger.relays(victims[0]) == {2}


def test_honest_nodes_get_no_attacker():
    environment = SimpleNamespace(node_count=10)
    process = ByzantineProcess(environment, 0.2, seed=3, protected=[0])
    assert process.attacker(0) is None
    for address in range(10):
        assert (process.attacker(address) is None) == (process.role(address) is None)
    assert [a for a in range(10) if process.attacker(a)] == process.attacker_addresses
