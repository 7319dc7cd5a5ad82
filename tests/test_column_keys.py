"""Column keys against the per-cell keys they stand in for.

An int, real or text column keys on its raw cells; bool and list columns
(and, for sorting, a column holding a null) key cell by cell. Each check
below compares the column-keyed result with the per-cell definition, on
seeded random tables plus edge cells: 2 and 2.0, -0.0 and 0.0, True and 1
in bool and int columns, nulls, lists and non-BMP text.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from adprep.agent import Trajectory
from adprep.operators import execute_operator, make_operator
from adprep.reward import cell_score, score_trajectory
from adprep.tables import (
    BOOL,
    INT,
    INT64_MAX,
    INT64_MIN,
    LIST,
    REAL,
    TEXT,
    Schema,
    Table,
    cell_hash_key,
    cell_sort_key,
    column_keys,
    make_table,
    row_keys,
    sort_order,
    tables_equal,
)

from conftest import random_table_set
from reference_ops import REF_HANDLERS, diff_states, plain_state, ref_cell_score

EDGE_CELLS = {
    INT: [2, 0, 1, -7, INT64_MAX, INT64_MIN],
    REAL: [2.0, -0.0, 0.0, 1.0, 0.5, -1e308],
    TEXT: ["", "a", "b", "\U0001F600", "a\U0001F600", "\U0010FFFF"],
    BOOL: [True, False],
    LIST: [(), (2, "a"), (2.0, "a"), (True,), (1,), ("\U0001F600",)],
}


def edge_table(rng: random.Random, name: str = "t") -> Table:
    """Columns named from a small pool, so two edge tables share some names
    under other dtypes; each column holds nulls only some of the time."""
    names = rng.sample(["a", "b", "c", "d"], rng.randint(1, 4))
    dtypes = [rng.choice(list(EDGE_CELLS)) for _ in names]
    null_rates = [rng.choice([0.0, 0.0, 0.3]) for _ in names]
    rows = [
        tuple(
            None if rng.random() < nr else rng.choice(EDGE_CELLS[dt])
            for dt, nr in zip(dtypes, null_rates)
        )
        for _ in range(rng.randint(0, 12))
    ]
    return make_table(name, list(zip(names, dtypes)), rows)


def table_pairs(seed: int, n: int):
    """Pairs (a, b) of random and edge tables, half of them b a shuffled,
    partly edited copy of a, so cell hits and exact matches occur."""
    rng = random.Random(seed)
    for _ in range(n):
        if rng.random() < 0.5:
            a, b = random_table_set(rng, 2, max_rows=10).values()
        else:
            a, b = edge_table(rng, "t0"), edge_table(rng, "t1")
        if rng.random() < 0.5:
            rows = list(a.rows)
            rng.shuffle(rows)
            if rows and rng.random() < 0.5:
                rows[0] = rng.choice(a.rows)
            b = Table(a.schema, tuple(rows))
        yield a, b


def per_cell_row_keys(t: Table, idxs: list[int]) -> list[tuple]:
    return [tuple(cell_hash_key(row[i]) for i in idxs) for row in t.rows]


def per_cell_tables_equal(a: Table, b: Table) -> bool:
    names = sorted(a.column_names)
    return names == sorted(b.column_names) and Counter(
        per_cell_row_keys(a, [a.column_index(c) for c in names])
    ) == Counter(per_cell_row_keys(b, [b.column_index(c) for c in names]))


def test_row_keys_equal_per_cell_hash_keys():
    rng = random.Random(7)
    for a, b in table_pairs(seed=11, n=400):
        for t in (a, b):
            n = len(t.column_names)
            idxs = rng.sample(range(n), rng.randint(0, n))
            assert row_keys(t, idxs) == per_cell_row_keys(t, idxs), (t, idxs)
        assert tables_equal(a, b) == per_cell_tables_equal(a, b), (a, b)


def test_row_keys_over_every_column_in_order_equal_per_cell_keys():
    # the order in which a table whose columns are all int, real or text keys
    # each row as itself; random idxs take it only about 1 time in n!
    for a, b in table_pairs(seed=14, n=400):
        for t in (a, b):
            idxs = list(range(len(t.column_names)))
            assert row_keys(t, idxs) == per_cell_row_keys(t, idxs), t


def test_tables_equal_across_a_column_permutation():
    # b holds a's columns in another order, so at most one side keys its rows
    # as they are, and bool or list columns put either side cell by cell
    rng = random.Random(15)
    seen = Counter()
    for a, _ in table_pairs(seed=16, n=600):
        order = list(range(len(a.column_names)))
        rng.shuffle(order)
        rows = [tuple(row[j] for j in order) for row in a.rows]
        rng.shuffle(rows)
        if rows and rng.random() < 0.3:
            rows[0] = tuple(rng.choice(a.rows)[j] for j in order)
        b = Table(Schema("u", tuple(a.schema.columns[j] for j in order)), tuple(rows))
        want = per_cell_tables_equal(a, b)
        assert tables_equal(a, b) == want == tables_equal(b, a), (a, b)
        dtypes = {c.dtype for c in a.schema.columns}
        seen[want, bool(dtypes & {BOOL, LIST}), order == sorted(order)] += 1
    for cell_by_cell in (False, True):
        for equal in (False, True):
            assert seen[equal, cell_by_cell, False] > 10, seen


def per_cell_sort_order(t: Table, idxs: list[int], ascending: list[bool]) -> list[int]:
    """Stable cell_sort_key passes from the last key to the first."""
    order = list(range(t.n_rows))
    for i, up in reversed(list(zip(idxs, ascending))):
        order.sort(key=lambda r: cell_sort_key(t.rows[r][i]), reverse=not up)
    return order


def test_index_sorts_by_column_keys_equal_sorts_by_cell_sort_key():
    rng = random.Random(5)
    for a, b in table_pairs(seed=12, n=300):
        for t in (a, b):
            n = len(t.column_names)
            passes = [(rng.randrange(n), rng.random() < 0.5) for _ in range(rng.randint(1, 3))]
            fast = list(range(t.n_rows))
            slow = list(range(t.n_rows))
            for i, reverse in passes:
                fast.sort(key=column_keys(t, i, sort=True).__getitem__, reverse=reverse)
                slow.sort(key=lambda r: cell_sort_key(t.rows[r][i]), reverse=reverse)
            assert fast == slow, (t, passes)
            # sort_order over random keys (repeats allowed), with random
            # directions and with the all-ascending default
            idxs = [rng.randrange(n) for _ in range(rng.randint(0, 3))]
            ups = [rng.random() < 0.5 for _ in idxs]
            assert sort_order(t, idxs, ups) == per_cell_sort_order(t, idxs, ups), (t, idxs, ups)
            assert sort_order(t, idxs) == per_cell_sort_order(t, idxs, [True] * len(idxs)), (t, idxs)


# first-key cells that are all distinct, by dtype, and pairs that tie
DISTINCT_FIRST = {
    INT: list(range(-100, 100)),
    REAL: [i / 4 for i in range(-100, 100)],
    TEXT: ["", "\U0001F600", *(f"w{i}" for i in range(198))],
    LIST: [(i,) for i in range(-100, 100)],
}
FIRST_TIES = {INT: (1, 1), REAL: (-0.0, 0.0), TEXT: ("w1", "w1"), LIST: ((1,), (1.0,))}


def test_sort_order_over_tie_free_and_tied_first_keys_equals_the_per_cell_order():
    """A first key whose cells are all distinct, or that tie by 1 / 1.0 in a
    list, -0.0 / 0.0, equal cells or two nulls, under mixed ascending flags,
    orders rows as the per-cell tuple sort does. Tables of up to 100 rows put
    some ties late in the first column."""
    rng = random.Random(31)
    seen = Counter()
    for _ in range(400):
        n = rng.choice([rng.randint(2, 12), rng.randint(65, 100)])
        first = rng.choice(list(DISTINCT_FIRST))
        cells = rng.sample(DISTINCT_FIRST[first], n)
        tie = rng.choice(["none", "none", "pair", "nulls"])
        j, k = rng.sample(range(n), 2)
        if tie == "pair":
            cells[j], cells[k] = FIRST_TIES[first]
        elif tie == "nulls":
            cells[j] = cells[k] = None
        later = [rng.choice(list(EDGE_CELLS)) for _ in range(rng.randint(1, 3))]
        rows = [
            (c, *(None if rng.random() < 0.2 else rng.choice(EDGE_CELLS[d]) for d in later))
            for c in cells
        ]
        t = make_table("t", [(f"c{i}", d) for i, d in enumerate([first, *later])], rows)
        idxs = list(range(len(later) + 1))
        ups = [rng.random() < 0.5 for _ in idxs]
        assert sort_order(t, idxs, ups) == per_cell_sort_order(t, idxs, ups), (t, ups)
        assert sort_order(t, idxs) == per_cell_sort_order(t, idxs, [True] * len(idxs)), t
        seen[tie] += 1
        seen["late tie"] += tie != "none" and max(j, k) >= 64
    assert min(seen.values()) > 30, seen


def test_cell_score_equals_the_per_cell_reference():
    for a, b in table_pairs(seed=13, n=400):
        assert cell_score(a, b) == ref_cell_score(a, b), (a, b)
        assert cell_score(b, a) == ref_cell_score(b, a), (b, a)


@pytest.mark.parametrize(
    "cols, rows",
    [
        ([("k", INT), ("v", REAL)], [(2, -0.0), (2, 0.0), (1, 2.0)]),
        ([("k", BOOL), ("v", TEXT)], [(True, "\U0001F600"), (None, ""), (False, None)]),
        ([("k", LIST)], [((2, "a"),), ((2.0, "a"),), (None,)]),
        ([("k", INT)], []),
        ([], [(), ()]),
    ],
    ids=["numbers", "bool-text-nulls", "lists", "zero-rows", "zero-columns"],
)
def test_cell_sim_of_an_exact_match_equals_cell_score(cols, rows):
    predicted = make_table("p", cols, rows)
    target = make_table("t", cols[::-1], [r[::-1] for r in reversed(rows)])
    assert tables_equal(predicted, target)
    traj = Trajectory(task_id="x", status="answered", turns=[], final_table=predicted)
    scores = score_trajectory(traj, target)
    assert scores.outcome == 1.0
    assert scores.cell_sim == cell_score(predicted, target) == ref_cell_score(predicted, target)


def test_tables_equal_keeps_bools_apart_from_ints_and_ints_with_reals():
    ints = make_table("a", [("x", INT)], [(1,), (2,), (None,)])
    bools = make_table("b", [("x", BOOL)], [(True,), (True,), (None,)])
    reals = make_table("c", [("x", REAL)], [(None,), (2.0,), (1.0,)])
    assert not tables_equal(ints, make_table("b", [("x", BOOL)], [(True,), (False,), (None,)]))
    assert not tables_equal(bools, make_table("a", [("x", INT)], [(1,), (1,), (None,)]))
    assert tables_equal(ints, reals)
    assert cell_score(ints, reals) == 1.0
    assert cell_score(bools, make_table("a", [("x", INT)], [(1,), (1,), (None,)])) == 1 / 3


def _engine_matches_reference(tables: dict[str, Table], kind: str, *args) -> dict:
    op = make_operator(kind, *args)
    out = execute_operator(op, dict(tables))
    assert diff_states(out, REF_HANDLERS[kind](op.params, plain_state(tables))) is None
    return out


def test_keyed_operators_on_edge_columns():
    t = make_table(
        "t",
        [("i", INT), ("r", REAL), ("b", BOOL), ("s", TEXT), ("l", LIST)],
        [
            (2, 2.0, True, "\U0001F600", (2, "a")),
            (1, -0.0, True, "a", (2.0, "a")),
            (2, 0.0, None, "\U0001F600", None),
            (None, 1.0, False, None, (True,)),
            (1, None, True, "a", (1,)),
            (2, 2.0, True, "\U0001F600", (2, "a")),
        ],
    )
    out = _engine_matches_reference({"t": t}, "GroupBy", "t", [], {"i": "sum", "s": "count"})
    assert out["t"].rows == ((8, 5),)
    for subset in ([], ["i"], ["r"], ["b"], ["l"], ["i", "b"]):
        for keep in ("first", "last"):
            _engine_matches_reference({"t": t}, "Deduplicate", "t", subset, keep)
    for by in (["i"], ["b"], ["l"], ["r", "s"]):
        _engine_matches_reference({"t": t}, "GroupBy", "t", by, {"s": "concat"})
        _engine_matches_reference({"t": t}, "Sort", "t", by, [False] * len(by))
    labelled = Table(t.schema, tuple(row for row in t.rows if row[3] is not None))
    for index in (["b"], ["b", "l"], ["r"]):
        _engine_matches_reference({"t": labelled}, "Pivot", "t", index, "s", "i", "sum")


def test_join_matches_ints_with_reals_and_never_nulls():
    left = make_table("l", [("k", INT), ("f", BOOL), ("x", TEXT)],
                      [(2, True, "a"), (None, None, "b"), (1, False, "c"), (2, None, "d")])
    right = make_table("r", [("k", REAL), ("f", BOOL), ("y", TEXT)],
                       [(2.0, True, "p"), (None, None, "q"), (-0.0, False, "s"), (1.0, False, "t")])
    for on in (["k"], ["f"], ["k", "f"]):
        for how in ("inner", "left", "right", "outer"):
            _engine_matches_reference({"l": left, "r": right}, "Join", "l", "r", on, how)
    inner = _engine_matches_reference({"l": left, "r": right}, "Join", "l", "r", ["k"], "inner")
    assert sorted(r[0] for r in inner["l_r_join"].rows) == [1.0, 2.0, 2.0]


def test_union_distinct_over_int_and_real_columns():
    a = make_table("a", [("v", INT), ("s", TEXT)], [(2, "x"), (0, "y"), (2, "x")])
    b = make_table("b", [("s", TEXT), ("v", REAL)], [("x", 2.0), ("y", -0.0), ("z", None)])
    out = _engine_matches_reference({"a": a, "b": b}, "Union", ["a", "b"], "distinct")
    assert out["a_b_union"].rows == ((2.0, "x"), (0.0, "y"), (None, "z"))
