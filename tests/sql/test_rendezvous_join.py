"""What the rehash-join rendezvous does, end to end on a simulated
deployment: a rehashed row carries its data and nothing else (the join
side is its table name, the key is the put's partitioning key), keys
compare as value tuples, and a table may be joined with itself.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from wire_watch import is_internal_column, watch_put_batches

from repro import PIERNetwork
from repro.qp.plans import JoinStep, multi_join_plan, symmetric_hash_join_plan
from repro.qp.tuples import Tuple

REHASH_BUILDERS = {
    "single": lambda left, right, lk, rk, **opts: symmetric_hash_join_plan(
        left, right, lk, rk, timeout=6.0, **opts
    ),
    "multi": lambda left, right, lk, rk, **opts: multi_join_plan(
        left, [JoinStep(right, lk[0], rk[0])], timeout=6.0, **opts
    ),
    "bloom": lambda left, right, lk, rk, **opts: multi_join_plan(
        left, [JoinStep(right, lk[0], rk[0], strategy="bloom")], timeout=8.0, **opts
    ),
}


def _dropped(net, result, operator_id):
    return sum(
        installed.operators[operator_id].stats.tuples_dropped
        for node in net.nodes
        for installed in node.executor.installed_graphs()
        if installed.query_id == result.query_id and operator_id in installed.operators
    )


# -- a table joined with itself ---------------------------------------------------------- #

@pytest.mark.parametrize("builder", sorted(REHASH_BUILDERS))
def test_self_join_returns_each_pair_once(builder):
    net = PIERNetwork(8, seed=3)
    net.create_table("s", partitioning=["id"])
    net.publish("s", [Tuple.make("s", id=i, k=i % 2, v=i) for i in range(4)])
    net.run(2.0)
    result = net.execute(REHASH_BUILDERS[builder]("s", "s", ["k"], ["k"]))
    # Two rows per key value on each side: 2 keys x 2 x 2 pairs.  (Both
    # sides used to be marked "s", so every row entered both join slots
    # and the answer had 32 rows.)
    assert len(result) == 8
    # Tuple.join keeps the right id apart (as s.id) only where it differs.
    pairs = Counter((row["id"], row.get("s.id", row["id"])) for row in result.rows())
    assert pairs == Counter((a, b) for a in range(4) for b in range(4) if a % 2 == b % 2)
    assert {tup.table for tup in result.tuples} == {"s*s"}
    assert not [tup for tup in result.tuples if "__left" in tup.table]


# -- composite keys ---------------------------------------------------------------------- #

def _composite_tables():
    left = [
        Tuple.make("l", id=0, a=1, c="x"),
        Tuple.make("l", id=1, a="p\x1f", c="q"),
        Tuple.make("l", id=2, a=7, c="y"),
    ]
    right = [
        Tuple.make("r", rid=0, b="1", d="x"),  # "1" is not 1
        Tuple.make("r", rid=1, b="p", d="\x1fq"),  # the parts glue to the same string
        Tuple.make("r", rid=2, b=7, d="y"),
    ]
    return left, right


def test_composite_join_keys_compare_as_tuples_not_as_glued_strings():
    net = PIERNetwork(8, seed=3)
    left, right = _composite_tables()
    net.create_table("l", partitioning=["id"])
    net.create_table("r", partitioning=["rid"])
    net.publish("l", left)
    net.publish("r", right)
    net.run(2.0)
    result = net.execute(symmetric_hash_join_plan("l", "r", ["a", "c"], ["b", "d"], timeout=6.0))
    assert result.rows() == [{"id": 2, "a": 7, "c": "y", "rid": 2, "b": 7, "d": "y"}]


# -- nothing internal on the wire or in the answer ---------------------------------------- #

@pytest.fixture
def star_network():
    net = PIERNetwork(12, seed=1, exchange_batch_size=8)
    net.create_table("hp_fact", partitioning=["f_id"])
    net.create_table("hp_dim_k", partitioning=["dk_id"])
    net.create_table("hp_dim_j", partitioning=["dj_id"])
    net.publish(
        "hp_fact",
        [Tuple.make("hp_fact", f_id=i, k=i % 9, j=i % 44, label=f"evt-{i % 7}") for i in range(60)],
    )
    net.publish("hp_dim_k", [Tuple.make("hp_dim_k", dk_id=i, k=i, k_name=f"class-{i}") for i in range(8)])
    net.publish("hp_dim_j", [Tuple.make("hp_dim_j", dj_id=i, j=i, j_name=f"site-{i}") for i in range(40)])
    net.run(3.0)
    return net


STAR_JOINS = "hp_fact JOIN hp_dim_k ON k = k JOIN hp_dim_j ON j = j"
STAR_ROWS = sum(1 for i in range(60) if i % 9 < 8 and i % 44 < 40)


@pytest.mark.parametrize("select", ["k", "*", None])
def test_no_internal_column_or_tag_on_the_wire_or_in_the_answer(star_network, select):
    """A named list, a catalog-known ``*``, and ``columns=None`` (the
    hand-built path, where nothing is projected away at the end)."""
    net = star_network

    def run():
        if select is None:
            steps = [JoinStep("hp_dim_k", "k", "k"), JoinStep("hp_dim_j", "j", "j")]
            return net.execute(multi_join_plan("hp_fact", steps, timeout=8.0))
        return net.query(f"SELECT {select} FROM {STAR_JOINS} TIMEOUT 8")

    result, shipped = watch_put_batches(net, run)
    assert len(result) == STAR_ROWS
    assert shipped and not [column for tup in shipped for column in tup.columns if is_internal_column(column)]
    assert not [column for row in result.rows() for column in row if is_internal_column(column)]
    # The tag says which side a rehashed row is on and stops at the join:
    # answers are named as they always were.
    assert {tup.table for tup in shipped} == {
        "__left_0__", "hp_dim_k", "__left_1__", "hp_dim_j"
    }
    assert {tup.table for tup in result.tuples} == {"hp_fact*hp_dim_k*hp_dim_j"}


def test_a_row_missing_its_join_key_is_dropped_and_counted_once(star_network):
    net = star_network
    net.publish("hp_fact", [Tuple.make("hp_fact", f_id=1000 + i, j=i) for i in range(3)])  # no k
    net.run(2.0)
    result = net.query(f"SELECT k FROM {STAR_JOINS} TIMEOUT 8")
    assert len(result) == STAR_ROWS
    assert _dropped(net, result, "rehash_0") == 3
    assert _dropped(net, result, "join_0") == _dropped(net, result, "join_1") == 0


# -- the distributed join against a nested loop -------------------------------------------- #

KEY_VALUES = st.sampled_from([None, 0, 1, 2, "1", "x"])


def _rows(table, key_names):
    """Rows of ``table``: each has an id, and for every key column either
    a value (NULL included) or no such column at all."""
    return st.lists(
        st.fixed_dictionaries({}, optional={name: KEY_VALUES for name in key_names}), max_size=6
    ).map(lambda dicts: [Tuple.make(table, **{f"{table}_id": i}, **d) for i, d in enumerate(dicts)])


def _nested_loop(left, right, left_columns, right_columns):
    """The reference answer: every (left, right) pair whose key tuples are
    equal, as a multiset of id pairs; rows lacking a key column join
    nothing.  (NULL = NULL joins here, as in the system: keys are Python
    values compared with ==.)"""
    pairs = Counter()
    for lrow in left:
        for rrow in right:
            if all(c in lrow for c in left_columns) and all(c in rrow for c in right_columns):
                if lrow.key(left_columns) == rrow.key(right_columns):
                    pairs[(lrow.values()[0], rrow.values()[0])] += 1
    return pairs


@pytest.fixture(scope="module")
def property_network():
    return PIERNetwork(6, seed=11, exchange_batch_size=4)


_example = itertools.count(1)  # every example registers tables of its own


@settings(max_examples=25, deadline=None)
@given(data=st.data(), width=st.sampled_from([1, 2]), same_names=st.booleans(), self_join=st.booleans())
def test_distributed_rehash_join_equals_a_nested_loop(property_network, data, width, same_names, self_join):
    net = property_network
    left_columns = ["a", "c"][:width]
    right_columns = left_columns if same_names or self_join else ["b", "d"][:width]
    serial = next(_example)
    left_table = f"pl{serial}"
    left = data.draw(_rows(left_table, left_columns))
    if self_join:
        right_table, right = left_table, left
    else:
        right_table = f"pr{serial}"
        right = data.draw(_rows(right_table, right_columns))
    for table, rows in {left_table: left, right_table: right}.items():
        # Node-local tables: the rows need no partitioning key of their own.
        net.create_table(table, source="local")
        for address in range(len(net.nodes)):
            net.register_local_table(address, table, rows[address :: len(net.nodes)])
    plan = symmetric_hash_join_plan(
        left_table, right_table, left_columns, right_columns, source="local_table", timeout=4.0
    )
    result = net.execute(plan)
    left_id, right_id = f"{left_table}_id", f"{right_table}_id"
    answer = Counter(
        (row[left_id], row.get(f"{right_table}.{right_id}", row[right_id])) for row in result.rows()
    )
    assert answer == _nested_loop(left, right, left_columns, right_columns)
    lacking = sum(1 for row in left if any(c not in row for c in left_columns)) + sum(
        1 for row in right if any(c not in row for c in right_columns)
    )
    assert _dropped(net, result, "rehash") == lacking
    assert _dropped(net, result, "join") == 0
    assert not [tup for tup in result.tuples if "__left" in tup.table]
