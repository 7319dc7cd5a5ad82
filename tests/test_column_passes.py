"""Differential tests for the operators' column passes.

CastType from text to int maps `int` over the whole column, and lower /
upper / trim of a text column map a str method over it. Each pass must
give what the per-cell loop gives: the same cells (and cell types), and on
a bad cell the same ExecError text and detail, which names the first bad
row. The loop is reached by turning the passes off (`operators._cast_column`
answers None, `operators.TEXT_METHODS` is emptied), so each case runs both
ways. All tables are seeded and 1000 rows long.
"""

from __future__ import annotations

import random

import pytest

from adprep import operators
from adprep.expr import cast_cell as _cast_cell
from adprep.expr import compile_expr, parse_expr
from adprep.operators import (
    ExecError,
    _cast_column,
    execute_operator,
    make_operator,
)
from adprep.tables import (
    BOOL,
    INT,
    INT64_MAX,
    INT64_MIN,
    REAL,
    TEXT,
    TableError,
    make_table,
    validate_cell,
)

ROWS = 1000
DTYPES = (INT, REAL, TEXT, BOOL)

# cells of each source dtype, among them every kind of text a C-level
# converter reads differently from a strict parser: padding, underscores,
# signs, non-ASCII digits, exponents, non-finite spellings
POOLS = {
    INT: [0, 1, -1, 7, 42, -999, 10**15, INT64_MAX, INT64_MIN, 2**53 + 1],
    REAL: [0.0, -0.0, 0.1, 2.5, -3.75, 1e16, 1e300, -1e300, 5e-324, 123456.0, 0.5],
    TEXT: [
        "12", "-7", "+5", "0", " 12 ", "1_000", "00012", "١٢", "1", "3.5",
        "1e3", "-0.0", " 2.5\n", "1e400", "nan", "inf", "-Infinity", "abc", "", "true",
        "FALSE", "ß", "99999999999999999999", "0x1f", "1.5e-3",
    ],
    BOOL: [True, False],
}


class Shout(str):
    """A str subclass: its cells stay in a table, but no column pass takes them."""


def _casts(v, dtype):
    """Whether the loop casts v to dtype into a valid cell."""
    try:
        validate_cell(_cast_cell(v, dtype), dtype, "")
    except (ValueError, TypeError, TableError):
        return False
    return True


def _column(rng, values, nulls=0.1):
    """ROWS cells drawn from values, about `nulls` of them null (all of
    them when no value casts)."""
    return [None if not values or rng.random() < nulls else rng.choice(values)
            for _ in range(ROWS)]


def _table(cells, dtype, other=None):
    """A three-column table whose middle column `c` holds `cells`."""
    rng = random.Random(len(cells))
    other = other or [rng.choice([None, "x", "Y"]) for _ in cells]
    rows = [(i, v, o) for i, (v, o) in enumerate(zip(cells, other))]
    return make_table("t", [("id", INT), ("c", dtype), ("o", TEXT)], rows)


def _outcome(op, t):
    """What the operator gives: its table's rows, with the type of every
    cell, and dtypes, or the ExecError's text and detail."""
    try:
        out = execute_operator(op, {"t": t})["t"]
    except ExecError as exc:
        return ("error", str(exc), exc.message, exc.detail)
    types = [tuple(map(type, row)) for row in out.rows]
    return ("table", out.schema, out.rows, types)


def _by_loop(monkeypatch, op, t):
    with monkeypatch.context() as m:
        m.setattr(operators, "_cast_column", lambda cells, source, dtype: None)
        m.setattr(operators, "TEXT_METHODS", {})
        return _outcome(op, t)


# --- CastType -----------------------------------------------------------------

@pytest.mark.parametrize("source", DTYPES)
@pytest.mark.parametrize("target", DTYPES)
def test_cast_type_equals_cast_cell_cell_for_cell(source, target, monkeypatch):
    rng = random.Random(f"{source}->{target}")
    good = [v for v in POOLS[source] if _casts(v, target)]
    cells = _column(rng, good)
    t = _table(cells, source)
    op = make_operator("CastType", "t", "c", target)
    got = _outcome(op, t)
    assert got[0] == "table"
    want = [None if v is None else _cast_cell(v, target) for v in cells]
    assert [row[1] for row in got[2]] == want
    assert [type(row[1]) for row in got[2]] == list(map(type, want))
    assert got == _by_loop(monkeypatch, op, t)
    if (source, target) == (TEXT, INT):
        assert _cast_column(cells, source, target) == want  # the pass took the column
    else:
        assert _cast_column(cells, source, target) is None


@pytest.mark.parametrize("bad", [
    "abc", "1.5", "", "1e400", "nan",
    "99999999999999999999",  # parses, then fails the 64-bit check
])
@pytest.mark.parametrize("late_row", [ROWS - 1, ROWS - 37])
def test_a_late_bad_cell_gives_the_loops_error(bad, late_row, monkeypatch):
    rng = random.Random(f"text->int:{bad}")
    good = [v for v in POOLS[TEXT] if _casts(v, INT)]
    cells = _column(rng, good)
    cells[late_row] = bad
    t = _table(cells, TEXT)
    op = make_operator("CastType", "t", "c", INT)
    got = _outcome(op, t)
    assert got[0] == "error"
    assert got == _by_loop(monkeypatch, op, t)
    try:
        _cast_cell(bad, INT)
    except (ValueError, TypeError):
        assert got[2].startswith(f"row {late_row}: cannot cast ")
    else:  # the cast gives an int that the 64-bit check refuses
        assert got[2] == "column 'c': integer out of 64-bit range"


def test_cast_of_an_all_null_or_empty_column(monkeypatch):
    for cells in ([None] * ROWS, []):
        t = _table(cells, TEXT)
        for target in DTYPES:
            op = make_operator("CastType", "t", "c", target)
            got = _outcome(op, t)
            assert got == _by_loop(monkeypatch, op, t)
            assert got[1].columns[1].dtype == target


def test_a_str_subclass_column_is_cast_by_the_loop():
    cells = [Shout("12")] * ROWS
    t = _table(cells, TEXT)
    assert type(t.rows[0][1]) is Shout
    assert _cast_column(list(cells), TEXT, INT) is None
    out = execute_operator(make_operator("CastType", "t", "c", INT), {"t": t})["t"]
    assert {row[1] for row in out.rows} == {12}


# --- lower / upper / trim -------------------------------------------------------

TEXTS = ["Ada", " bo ", "ß", "İ", "ǅ", "\tMiXeD case\n", "", "  ", "Straße", "ΣΑΣ", "x"]


def _closure_cells(func, t, null_idx=None):
    """The compiled row closure over t, null where column null_idx is null."""
    f = compile_expr(parse_expr(func), t.column_names)
    return [
        None if null_idx is not None and row[null_idx] is None else f(row)
        for row in t.rows
    ]


def _count_compiles(monkeypatch):
    compiled = []
    compile_expr_ = operators.compile_expr
    monkeypatch.setattr(
        operators, "compile_expr", lambda e, names: compiled.append(e) or compile_expr_(e, names)
    )
    return compiled


@pytest.mark.parametrize("fn", ["lower", "upper", "trim"])
@pytest.mark.parametrize("arg", ["c", "o"])  # the target column, or another one
def test_text_methods_equal_the_row_closure(fn, arg, monkeypatch):
    rng = random.Random(f"{fn}:{arg}")
    t = _table(_column(rng, TEXTS, nulls=0.2), TEXT, _column(rng, TEXTS, nulls=0.3))
    func = f'{fn}(col("{arg}"))'
    for kind, args, idx, null_idx in [
        ("ValueTransform", ("t", "c", func), 1, 1),
        ("AddNewColumn", ("t", "n", func), 3, None),
    ]:
        op = make_operator(kind, *args)
        compiled = _count_compiles(monkeypatch)
        got = _outcome(op, t)
        assert compiled == []  # the column pass ran, not the closure
        want = _closure_cells(func, t, null_idx)
        assert [row[idx] for row in got[2]] == want
        assert {type(v) for v in want} <= {str, type(None)}
        assert got == _by_loop(monkeypatch, op, t)


@pytest.mark.parametrize("kind", ["Filter", "ErrorDetection"])
def test_a_text_method_where_a_boolean_is_due_fails_at_the_same_row(kind, monkeypatch):
    cells = [None] * 40 + ["Ada"] * (ROWS - 40)
    t = _table(cells, TEXT)
    args = ("t", 'lower(col("c"))') if kind == "Filter" else ("t", "c", 'upper(col("c"))')
    op = make_operator(kind, *args)
    got = _outcome(op, t)
    assert got[0] == "error" and got[2].startswith("row 40: ")
    assert got == _by_loop(monkeypatch, op, t)


def test_a_text_method_of_a_non_text_or_all_null_column(monkeypatch):
    ints = make_table("t", [("c", INT)], [(i,) for i in range(ROWS)])
    op = make_operator("ValueTransform", "t", "c", 'trim(col("c"))')
    got = _outcome(op, ints)
    assert got[0] == "error" and got[2].startswith("row 0: trim() needs a text argument")
    assert got == _by_loop(monkeypatch, op, ints)
    nulls = _table([None] * ROWS, TEXT)
    op = make_operator("AddNewColumn", "t", "n", 'upper(col("c"))')
    assert _outcome(op, nulls) == _by_loop(monkeypatch, op, nulls)


def test_a_str_subclass_cell_goes_through_the_row_path(monkeypatch):
    rng = random.Random(4)
    cells = _column(rng, TEXTS)
    cells[500] = Shout("LOUD")
    t = _table(cells, TEXT)
    assert type(t.rows[500][1]) is Shout
    op = make_operator("ValueTransform", "t", "c", 'lower(col("c"))')
    compiled = _count_compiles(monkeypatch)
    got = _outcome(op, t)
    assert len(compiled) == 1  # no column pass: the closure ran
    assert [row[1] for row in got[2]] == _closure_cells('lower(col("c"))', t, 1)
    assert got[2][500][1] == "loud" and type(got[2][500][1]) is str

