"""The origin ledger on its own: no overlay, no clock, no operator.

``OriginLedger`` is what makes origin-accounted aggregation exactly-once;
these tests feed it wire batches directly, the way
``tests/cq/test_shared_epoch_assembly.py`` feeds ``PaneBuffer``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.qp.ledger import OriginLedger, partial_keys, partial_pairs, wire_partials
from repro.runtime.codec import encode, encoded_size


def _sum_merge(buffer, pairs):
    """SUM states: one int per group (never aliasing the input lists)."""
    for key, states in pairs:
        held = buffer.get(key)
        buffer[key] = list(states) if held is None else [held[0] + states[0]]


def _batch(seq, groups, origin="o1", inc="a", inc_ts=1.0, cumulative=False, relays=()):
    batch = {
        "origin": origin,
        "inc": inc,
        "inc_ts": inc_ts,
        "seq": seq,
        "cumulative": cumulative,
        "partials": wire_partials({key: [value] for key, value in groups.items()}),
    }
    if relays:
        batch["relays"] = list(relays)
    return batch


def _ledger():
    return OriginLedger(_sum_merge)


def test_wire_form_round_trips():
    groups = {("g", 1): [3], (): [4]}
    assert dict(partial_pairs(wire_partials(groups))) == groups


_scalars = st.one_of(st.integers(-(2**40), 2**40), st.text(max_size=6), st.none(), st.booleans())
_states = st.one_of(
    st.integers(0, 2**33),
    st.floats(allow_nan=False),
    st.tuples(st.floats(allow_nan=False), st.integers(0, 999)),  # AVG's (sum, count)
    st.lists(st.integers(0, 9), max_size=2),
)
# Group keys of mixed widths: the global aggregate's empty key, plain
# group keys, and a standing query's epoch-prefixed ones.
_keys = st.one_of(
    st.just(()),
    st.tuples(_scalars),
    st.tuples(_scalars, _scalars),
    st.tuples(st.integers(0, 10**6), _scalars),
)


@st.composite
def _group_tables(draw):
    """A group table: every group carries one state per aggregate."""
    aggregates = draw(st.integers(0, 3))
    states = st.lists(_states, min_size=aggregates, max_size=aggregates)
    return draw(st.dictionaries(_keys, states, max_size=12))


@settings(max_examples=300, deadline=None)
@given(groups=_group_tables())
def test_any_group_table_round_trips_and_sizes_as_it_encodes(groups):
    wire = wire_partials(groups)
    assert dict(partial_pairs(wire)) == groups
    assert list(partial_keys(wire)) == [key for key, _states in partial_pairs(wire)]
    # One block per key width, each holding groups of its width only.
    widths = [{len(key) for key in partial_keys([block])} for block in wire]
    assert all(len(width) == 1 for width in widths)
    assert len(wire) == len({len(key) for key in groups})
    assert encoded_size(wire) == len(encode(wire))


def test_replay_is_dropped_by_seq_and_counted():
    ledger = _ledger()
    assert ledger.fold(_batch(1, {("g",): 2}))
    assert ledger.fold(_batch(2, {("g",): 3}))
    assert not ledger.fold(_batch(1, {("g",): 2}))
    assert not ledger.fold(_batch(2, {("g",): 3}))
    assert ledger.states("o1") == {("g",): [5]}
    assert ledger.replays_dropped == 2
    assert not ledger.fold({"seq": 9, "partials": []}), "a batch without an origin is ignored"
    assert [origin for origin, _states in ledger.folds()] == ["o1"]


def test_folded_states_never_alias_the_wire_batch():
    ledger = _ledger()
    batch = _batch(1, {("g",): 2})
    ledger.fold(batch)
    ledger.fold(_batch(2, {("g",): 1}))
    ledger.states("o1")[("g",)].append("scribble")
    assert batch["partials"][0]["states"] == [[2]]
    assert ledger.states("o1") == {("g",): [3]}


def test_cumulative_supersedes_deltas_at_or_below_its_seq():
    ledger = _ledger()
    for seq in (1, 2, 4):
        ledger.fold(_batch(seq, {("g",): 1}))
    # The origin re-ships everything it had before seq 3 as one batch.
    assert ledger.fold(_batch(3, {("g",): 2}, cumulative=True))
    assert ledger.states("o1") == {("g",): [3]}, "base (2) + delta 4 (1); deltas 1, 2 replaced"
    # Deltas the base covers are replays now, an older cumulative too.
    assert not ledger.fold(_batch(2, {("g",): 1}))
    assert not ledger.fold(_batch(3, {("g",): 9}, cumulative=True))
    assert not ledger.fold(_batch(1, {("g",): 9}, cumulative=True))
    assert ledger.states("o1") == {("g",): [3]}


def test_relayed_cumulative_replaces_a_delta_with_the_same_seq():
    """A root that loses ownership relays an origin's fold as a cumulative
    numbered with the *newest seq it folded* — which the new root may hold
    as a delta already.  The relay covers that delta: it must replace it,
    not be dropped as its replay, and not be added on top."""
    old_root, new_root = _ledger(), _ledger()
    for seq in (1, 2, 3):
        old_root.fold(_batch(seq, {("g",): 1}))
    new_root.fold(_batch(3, {("g",): 1}))  # the one delta routed to the new root
    (relay,) = old_root.relay_batches()
    assert relay["cumulative"] and relay["seq"] == 3
    assert new_root.fold(relay)
    assert new_root.states("o1") == {("g",): [3]}
    assert new_root.fold(_batch(4, {("g",): 1}))
    assert new_root.states("o1") == {("g",): [4]}


def test_relay_batches_skip_an_origin_and_the_empty_ones():
    ledger = _ledger()
    ledger.fold(_batch(1, {("g",): 1}, origin="me"))
    ledger.fold(_batch(1, {("g",): 2}, origin="o2", inc="b", inc_ts=2.0))
    ledger.fold(_batch(1, {}, origin="o3"))
    (relay,) = ledger.relay_batches(skip="me")
    assert (relay["origin"], relay["inc"], relay["inc_ts"]) == ("o2", "b", 2.0)
    assert dict(partial_pairs(relay["partials"])) == {("g",): [2]}


def test_newer_incarnation_replaces_and_stale_is_ignored():
    ledger = _ledger()
    ledger.fold(_batch(1, {("g",): 5}, inc="a", inc_ts=1.0))
    ledger.fold(_batch(2, {("g",): 5}, inc="a", inc_ts=1.0))
    # The origin's opgraph was re-installed: its full re-scan replaces.
    assert ledger.fold(_batch(1, {("g",): 7}, inc="b", inc_ts=4.0))
    assert ledger.states("o1") == {("g",): [7]}
    # What the dead incarnation still had in flight is ignored (not a replay).
    assert not ledger.fold(_batch(3, {("g",): 5}, inc="a", inc_ts=1.0))
    assert not ledger.fold(_batch(9, {("g",): 5}, inc="z", inc_ts=3.0))
    assert ledger.states("o1") == {("g",): [7]}
    assert ledger.replays_dropped == 0


def test_incarnation_timestamp_tie_is_broken_by_incarnation():
    ledger = _ledger()
    ledger.fold(_batch(1, {("g",): 1}, inc="m", inc_ts=2.0))
    assert not ledger.fold(_batch(1, {("g",): 2}, inc="c", inc_ts=2.0))
    assert ledger.states("o1") == {("g",): [1]}
    assert ledger.fold(_batch(1, {("g",): 3}, inc="x", inc_ts=2.0))
    assert ledger.states("o1") == {("g",): [3]}


def test_relays_accumulate_per_origin_even_from_replays():
    ledger = _ledger()
    ledger.fold(_batch(1, {("g",): 1}, relays=[3]))
    ledger.fold(_batch(2, {("g",): 1}, relays=[3, ["10.0.0.1", 9]]))
    ledger.fold(_batch(1, {("g",): 1}, relays=[5]))  # replay: custody still noted
    assert ledger.relays("o1") == {3, 5, ("10.0.0.1", 9)}
    ledger.fold(_batch(1, {("g",): 1}, inc="b", inc_ts=9.0))
    assert ledger.relays("o1") == set(), "a new incarnation starts a new trail"


def test_evict_sheds_keys_but_a_replay_of_an_evicted_seq_stays_dropped():
    ledger = _ledger()
    for epoch in (1, 2, 3):
        ledger.fold(_batch(epoch, {(epoch, "g"): 1, (epoch, "h"): 1}))
    entry = ledger._entries["o1"]
    assert ledger.evict(lambda key: key[0] <= 2) == 4
    assert ledger.states("o1") == {(3, "g"): [1], (3, "h"): [1]}
    assert sorted(entry.deltas) == [3], "emptied leading deltas are forgotten"
    assert not ledger.fold(_batch(1, {(1, "g"): 1}))
    assert not ledger.fold(_batch(2, {(2, "g"): 1}))
    assert ledger.replays_dropped == 2
    assert ledger.states("o1") == {(3, "g"): [1], (3, "h"): [1]}
    # A relay still numbers itself past everything the ledger accounted for.
    assert [relay["seq"] for relay in ledger.relay_batches()] == [3]
    assert ledger.evict(lambda key: True) == 2
    assert not entry.deltas and ledger.states("o1") == {}
    assert not ledger.fold(_batch(3, {(3, "g"): 1}))
    assert ledger.fold(_batch(4, {(4, "g"): 1}))


def test_evict_keeps_an_emptied_delta_registered_behind_a_live_one():
    ledger = _ledger()
    ledger.fold(_batch(1, {(9, "g"): 1}))  # a late window, shipped first
    ledger.fold(_batch(2, {(1, "g"): 1}))
    assert ledger.evict(lambda key: key[0] < 5) == 1
    assert sorted(ledger._entries["o1"].deltas) == [1, 2]
    assert not ledger.fold(_batch(2, {(1, "g"): 1}))
    assert ledger.states("o1") == {(9, "g"): [1]}


# One origin's life: each step either ships the groups it just drained as a
# delta, or re-ships everything drained so far as a cumulative batch.
_steps = st.lists(
    st.tuples(
        st.booleans(),
        st.dictionaries(st.sampled_from("abc"), st.integers(1, 9), max_size=3),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(steps=_steps, data=st.data())
def test_any_delivery_order_with_duplicates_folds_to_the_same_states(steps, data):
    shipped, total = [], {}
    for seq, (cumulative, drained) in enumerate(steps, start=1):
        for key, value in drained.items():
            total[(key,)] = total.get((key,), 0) + value
        groups = dict(total) if cumulative else {(key,): v for key, v in drained.items()}
        shipped.append(_batch(seq, groups, cumulative=cumulative))
    duplicates = data.draw(st.lists(st.sampled_from(shipped), max_size=8))
    delivery = data.draw(st.permutations(shipped + duplicates))

    ledger = _ledger()
    for batch in delivery:
        ledger.fold(batch)
    assert ledger.states("o1") == {key: [value] for key, value in total.items()}
    assert ledger.replays_dropped >= len(duplicates)
