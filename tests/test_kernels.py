"""Join, GroupBy and Pivot against the reference on seeded tables.

Tables of 6 and of 1000 rows: the small ones reach the edge cases, the large
ones many groups, many labels and keys that match many rows. A clean int or
real aggregate column skips _fold's per-group kind check; a text, bool or
list column keeps it, here with its first non-null cell in the last group.
Every call is run by the engine and by reference_ops (check_agreement); a
failing call also pins its ExecError text and detail.
"""

from __future__ import annotations

import random

import pytest

from conftest import WORDS, random_cell
from reference_ops import AGGS, check_agreement

from adprep.operators import make_operator
from adprep.tables import BOOL, INT, LIST, REAL, TEXT, make_table

SIZES = (6, 1000)
HOWS = ("inner", "left", "right", "outer")


def _group_ids(rng: random.Random, n: int) -> list[int]:
    """About n / 10 groups (at least two) in random order; the last row opens
    a group of its own, the last one seen."""
    groups = max(2, n // 10)
    return [rng.randrange(groups) for _ in range(n - 1)] + [groups]


def _values(rng: random.Random, dtype: str, n: int, nulls: str) -> list:
    """One column's cells. nulls: "none", "some", or "late" (every cell null
    but the last row's, which sits in the last group)."""
    if nulls == "late":
        return [None] * (n - 1) + [random_cell(rng, dtype, null_rate=0.0)]
    return [random_cell(rng, dtype, null_rate=0.3 if nulls == "some" else 0.0) for _ in range(n)]


# clean int and real columns, with and without nulls, then columns the
# per-group check reads: whole text, bool and list columns, and each of them
# null up to a cell in the last group
VALUE_COLUMNS = [(d, "none") for d in (INT, REAL)] + [(d, "some") for d in (INT, REAL)] + [
    (d, nulls) for d in (TEXT, BOOL, LIST) for nulls in ("some", "late")
]
COLUMN_IDS = [f"{d}-{nulls}" for d, nulls in VALUE_COLUMNS]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dtype, nulls", VALUE_COLUMNS, ids=COLUMN_IDS)
def test_group_by_folds_match_the_reference(n, dtype, nulls):
    rng = random.Random(f"group-by {n} {dtype} {nulls}")
    g = _group_ids(rng, n)
    cells = _values(rng, dtype, n, nulls)
    t = make_table("t", [("g", INT), ("v", dtype), ("w", INT)],
                   list(zip(g, cells, _values(rng, INT, n, "some"))))
    outcomes = set()
    for fn in AGGS:
        # the clean int column w rides along, folded after v in every group
        op = make_operator("GroupBy", "t", ["g"], {"v": fn, "w": rng.choice(AGGS)})
        outcomes.add(check_agreement({"t": t}, op, op.params, f"{fn} over {dtype}") is None)
    assert True in outcomes  # count, first, last and concat never fail


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dtype, nulls", VALUE_COLUMNS, ids=COLUMN_IDS)
def test_pivot_folds_match_the_reference(n, dtype, nulls):
    rng = random.Random(f"pivot {n} {dtype} {nulls}")
    rows = list(zip(_group_ids(rng, n), (rng.choice(WORDS) for _ in range(n)),
                    _values(rng, dtype, n, nulls)))
    t = make_table("t", [("g", INT), ("c", TEXT), ("v", dtype)], rows)
    for fn in AGGS + ("first_strict",):
        op = make_operator("Pivot", "t", ["g"], "c", "v", fn)
        check_agreement({"t": t}, op, op.params, f"{fn} over {dtype}")


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dtype", [INT, REAL, TEXT, BOOL, LIST])
def test_pivot_labels_of_every_kind_match_the_reference(n, dtype):
    """Labels rendered a column at a time; a null label fails on both sides."""
    rng = random.Random(f"labels {n} {dtype}")
    for null_rate in (0.0, 0.01):
        rows = [(rng.randrange(3), random_cell(rng, dtype, null_rate), rng.randint(0, 9))
                for _ in range(n)]
        t = make_table("t", [("g", INT), ("c", dtype), ("v", INT)], rows)
        op = make_operator("Pivot", "t", ["g"], "c", "v", "sum")
        check_agreement({"t": t}, op, op.params, f"labels of {dtype}")


def _join_tables(rng: random.Random, n: int, left_key: str, right_key: str) -> dict:
    """A left table of n rows and a right one of up to 40, keyed from one
    pool of n // 3 values (many rows per key on both sides) with a tenth of
    the keys null; both hold a rest column "v"."""
    pool = [rng.randint(-500, 500) for _ in range(max(2, n // 3))]

    def key(dtype):
        if rng.random() < 0.1:
            return None
        k = rng.choice(pool)
        return {INT: k, REAL: float(k), TEXT: f"k{k}"}[dtype]

    left = make_table("lhs", [("k", left_key), ("v", INT), ("w", TEXT)], [
        (key(left_key), rng.randint(0, 9), rng.choice(WORDS)) for _ in range(n)
    ])
    right = make_table("rhs", [("x", BOOL), ("k", right_key), ("v", REAL)], [
        (rng.random() < 0.5, key(right_key), rng.uniform(-1, 1)) for _ in range(min(n, 40))
    ])
    return {"lhs": left, "rhs": right}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("how", HOWS)
@pytest.mark.parametrize("keys", [(INT, INT), (INT, REAL), (REAL, INT), (TEXT, TEXT)],
                         ids=["int", "int-real", "real-int", "text"])
def test_join_matches_the_reference(n, how, keys):
    rng = random.Random(f"join {n} {how} {keys}")
    tables = _join_tables(rng, n, *keys)
    op = make_operator("Join", "lhs", "rhs", ["k"], how)
    assert check_agreement(tables, op, op.params, f"{how} join of {keys}") is None


def _late_group_table() -> dict:
    """1000 rows in groups 0-99, the last row in group 100. s (text) and b
    (bool) are null but in that last row; l (list) is null but in row 30,
    which falls in an early group."""
    rng = random.Random(7)
    g = _group_ids(rng, 1000)
    rows = [
        (gi, None, None, ((1, "a") if r == 30 else None), rng.choice(WORDS[:4]), rng.randint(0, 9))
        for r, gi in enumerate(g)
    ]
    rows[-1] = (g[-1], "x", True, None, "alpha", 1)
    return {"t": make_table("t", [("g", INT), ("s", TEXT), ("b", BOOL), ("l", LIST),
                                  ("c", TEXT), ("v", INT)], rows)}


def _with_labels(changes: dict[int, str | None]) -> dict:
    t = _late_group_table()["t"]
    rows = [row[:4] + (changes.get(r, row[4]),) + row[5:] for r, row in enumerate(t.rows)]
    return {"t": make_table("t", [(c.name, c.dtype) for c in t.schema.columns], rows)}


# each failing call, with the ExecError text and detail it must keep
FAILING = {
    "group-by-sum-over-late-text": (
        _late_group_table, ("GroupBy", "t", ["g"], {"s": "sum"}),
        "GroupBy: sum needs numeric values in column 's'", "column 's'",
    ),
    "group-by-avg-over-late-bool": (
        _late_group_table, ("GroupBy", "t", ["g"], {"v": "avg", "b": "avg"}),
        "GroupBy: avg needs numeric values in column 'b'", "column 'b'",
    ),
    "group-by-min-over-a-list": (
        _late_group_table, ("GroupBy", "t", ["g"], {"l": "min"}),
        "GroupBy: min needs values of one comparable kind in column 'l'", "column 'l'",
    ),
    # s fails only in the last group and l in an early one: the early group names the error
    "group-by-first-failing-group": (
        _late_group_table, ("GroupBy", "t", ["g"], {"s": "sum", "l": "max"}),
        "GroupBy: max needs values of one comparable kind in column 'l'", "column 'l'",
    ),
    "pivot-sum-over-late-text": (
        _late_group_table, ("Pivot", "t", ["g"], "c", "s", "sum"),
        "Pivot: sum needs numeric values in column 's'", "column 's'",
    ),
    "pivot-max-over-a-list": (
        _late_group_table, ("Pivot", "t", ["g"], "c", "l", "max"),
        "Pivot: max needs values of one comparable kind in column 'l'", "column 'l'",
    ),
    "pivot-first-strict-duplicate": (
        _late_group_table, ("Pivot", "t", ["g"], "c", "v", "first_strict"),
        "Pivot: duplicate entries for index/column pair ('alpha')", "alpha",
    ),
    "pivot-empty-label-before-a-null-one": (
        lambda: _with_labels({600: "", 800: None}), ("Pivot", "t", ["g"], "c", "v", "sum"),
        "Pivot: row 600: empty value in columns column", "c",
    ),
    "pivot-null-label-before-an-empty-one": (
        lambda: _with_labels({500: None, 800: ""}), ("Pivot", "t", ["g"], "c", "v", "sum"),
        "Pivot: row 500: null value in columns column", "c",
    ),
    "pivot-label-collides-with-the-index": (
        lambda: _with_labels({900: "g"}), ("Pivot", "t", ["g"], "c", "v", "sum"),
        "Pivot: pivot column 'g' collides with an index column", "g",
    ),
    "join-text-key-with-an-int-key": (
        lambda: {**_join_tables(random.Random(3), 1000, INT, INT),
                 "rhs": make_table("rhs", [("k", TEXT)], [("a",)])},
        ("Join", "lhs", "rhs", ["k"], "outer"),
        "Join: column 'k' has incompatible dtypes int and text", "k",
    ),
}


@pytest.mark.parametrize("case", list(FAILING))
def test_a_failing_kernel_keeps_its_error(case):
    build, call, message, detail = FAILING[case]
    op = make_operator(*call)
    err = check_agreement(build(), op, op.params, case)
    assert err is not None, f"{case}: both sides passed"
    assert (str(err), err.detail) == (message, detail)
