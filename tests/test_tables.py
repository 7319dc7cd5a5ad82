"""Table model: canonical ordering, equality, rendering, file round trips."""

from __future__ import annotations

import ast
import csv
import io
import json
import math
import os
import random
import subprocess
from collections import Counter
from functools import cmp_to_key
from pathlib import Path

import pytest

from adprep import tables
from adprep.tables import (
    BOOL,
    DTYPES,
    INT,
    LIST,
    REAL,
    TEXT,
    Schema,
    ColumnSpec,
    Table,
    TableError,
    TableIOError,
    canonicalize,
    cell_hash_key,
    cell_sort_key,
    infer_column,
    make_table,
    markdown_row_cells,
    read_table,
    render_cell,
    schema_from_json,
    serialize_table,
    _csv_parse_column,
    sidecar_path,
    table_from_csv_text,
    table_from_json,
    table_to_csv_text,
    tables_equal,
    validate_cell,
    write_table,
)
from conftest import random_cell, random_table
import reference_csv
import reference_markdown
import reference_ops
from reference_expr import cells_equal
from reference_ops import compare_cells


def test_canonicalize_sorts_columns_and_rows():
    t = make_table(
        "t",
        [("b", "text"), ("a", "int")],
        [("x", 3), ("y", 1), ("a", 1)],
    )
    c = canonicalize(t)
    assert c.column_names == ("a", "b")
    # rows reordered to column order (a, b), then sorted lexicographically
    assert c.rows == ((1, "a"), (1, "y"), (3, "x"))


def test_canonicalize_cell_order_across_kinds():
    # ordering: Null < Boolean < numeric < Text < List
    cells = [None, False, True, -1, 0.5, 2, "a", "b", ("a",)]
    ordered = sorted(cells[::-1], key=cmp_to_key(compare_cells))
    assert ordered == cells


def test_canonicalize_idempotent_random():
    rng = random.Random(7)
    for _ in range(60):
        t = random_table(rng)
        c1 = canonicalize(t)
        c2 = canonicalize(c1)
        assert c1 == c2


def test_canonicalize_preserves_row_multiset():
    rng = random.Random(8)
    for _ in range(40):
        t = random_table(rng)
        c = canonicalize(t)
        assert len(c.rows) == len(t.rows)
        order = [t.column_names.index(n) for n in c.column_names]
        remapped = sorted(repr(tuple(row[i] for i in order)) for row in t.rows)
        assert remapped == sorted(repr(r) for r in c.rows)


CANONICAL_EDGE_CELLS = {
    INT: [2, 0, -1, 1, 2**63 - 1],
    REAL: [2.0, -0.0, 0.0, 0.5, -1.0],
    TEXT: ["", "a", "b", "\U0001F600"],
    BOOL: [True, False],
    LIST: [(), (2, "a"), (2.0, "a"), (-0.0,), (0,), (True,), (1,), (None,)],
}


def test_canonicalize_equals_the_reference_sort():
    # few distinct cells per column, so many rows tie on the keys sorted so
    # far, and equal keys hold unlike cells (2 and 2.0, -0.0 and 0.0); repr
    # tells those apart, so ties must keep their row order as the reference does
    rng = random.Random(31)
    for _ in range(300):
        if rng.random() < 0.5:
            t = random_table(rng, max_rows=10, min_cols=0)
        else:
            names = rng.sample("abcde", rng.randint(0, 5))
            dtypes = [rng.choice(DTYPES) for _ in names]
            rows = [
                tuple(
                    None if rng.random() < 0.2 else rng.choice(CANONICAL_EDGE_CELLS[dt])
                    for dt in dtypes
                )
                for _ in range(rng.randint(0, 12))
            ]
            t = make_table("t", list(zip(names, dtypes)), rows)
        got, want = canonicalize(t), reference_ops.ref_canonicalize(t)
        assert got.schema == want.schema, t
        assert repr(got.rows) == repr(want.rows), t


def test_tables_equal_ignores_permutations():
    a = make_table("x", [("a", "int"), ("b", "text")], [(1, "p"), (2, "q")])
    b = make_table("y", [("b", "text"), ("a", "int")], [("q", 2), ("p", 1)])
    assert tables_equal(a, b)


def test_tables_equal_int_real_cross_kind():
    a = make_table("x", [("a", "int")], [(2,)])
    b = make_table("x", [("a", "real")], [(2.0,)])
    assert tables_equal(a, b)


def test_tables_equal_multiset_multiplicity():
    a = make_table("x", [("a", "int")], [(1,), (1,)])
    b = make_table("x", [("a", "int")], [(1,)])
    assert not tables_equal(a, b)


def test_tables_equal_bool_is_not_int():
    a = make_table("x", [("a", "bool")], [(True,)])
    b = make_table("x", [("a", "int")], [(1,)])
    assert not tables_equal(a, b)


def test_cells_equal_lists():
    assert cells_equal((1, 2), (1, 2.0))
    assert not cells_equal((1, 2), (1, 2, 3))
    assert not cells_equal("a", ("a",))


# -- order key and hash key: seeded properties against the comparator spec ---

# values of each kind picked to collide: 2 / 2.0, -0.0 / 0.0, True / 1 (which
# must stay apart), 2**63-1 / float(2**63) (which differ by one), non-BMP text,
# () / (None,), and lists shaped like another kind's key
CELL_POOL = {
    INT: [0, 1, 2, -1, 2**63 - 1, -(2**63), 7],
    REAL: [0.0, -0.0, 1.0, 2.0, 2.5, float(2**63), -1e300, 0.1],
    BOOL: [True, False],
    TEXT: ["", "a", "ab", "b", "\u00e9", "\uffff", "\U0001f600", "\U0001f600a"],
}
EDGE_CELLS = [
    2, 2.0, -0.0, 0.0, True, 1, False, 0, 2**63 - 1, float(2**63),
    "\U0001f600", "\uffff", (), (None,), (2, "a"), (2.0, "a"), (True,), (1,), None,
    ("bool", 1), ("bool", True),
]


def _scalar(rng):
    kind = rng.choice([None, INT, REAL, BOOL, TEXT])
    return None if kind is None else rng.choice(CELL_POOL[kind])


def _any_cell(rng, depth=2):
    """A cell of any kind; lists mix kinds and may nest (the keys recurse)."""
    if depth and rng.random() < 0.3:
        return tuple(_any_cell(rng, depth - 1) for _ in range(rng.randint(0, 3)))
    return _scalar(rng)


def test_sort_key_orders_like_compare_cells():
    rng = random.Random(2024)
    for trial in range(300):
        cells = [_any_cell(rng) for _ in range(rng.randint(0, 25))]
        if trial % 10 == 0:
            cells += EDGE_CELLS
            rng.shuffle(cells)
        by_key = sorted(range(len(cells)), key=lambda i: cell_sort_key(cells[i]))
        by_cmp = sorted(
            range(len(cells)), key=cmp_to_key(lambda i, j: compare_cells(cells[i], cells[j]))
        )
        assert by_key == by_cmp, [cells[i] for i in by_cmp]


def test_keys_are_equal_exactly_when_cells_are():
    rng = random.Random(77)
    pool = EDGE_CELLS + [_any_cell(rng) for _ in range(120)]
    for a in pool:
        for b in pool:
            same = cells_equal(a, b)
            assert (cell_hash_key(a) == cell_hash_key(b)) == same, (a, b)
            assert (cell_sort_key(a) == cell_sort_key(b)) == same, (a, b)
            if same:
                assert hash(cell_hash_key(a)) == hash(cell_hash_key(b)), (a, b)
    assert cell_hash_key(2) == cell_hash_key(2.0)
    assert cell_hash_key(-0.0) == cell_hash_key(0.0)
    assert cell_hash_key(True) != cell_hash_key(1)
    assert cell_hash_key(2**63 - 1) != cell_hash_key(float(2**63))
    assert cell_hash_key(()) != cell_hash_key((None,))
    assert cell_hash_key(("bool", 1)) != cell_hash_key(True)


def _pool_table(rng):
    """A small table of CELL_POOL values, with some rows repeated."""
    n_cols = rng.randint(1, 4)
    names = rng.sample(["a", "b", "c", "d", "e"], n_cols)
    dtypes = [rng.choice([INT, REAL, BOOL, TEXT, LIST]) for _ in names]

    def cell(dtype):
        if rng.random() < 0.15:
            return None
        if dtype == LIST:
            return tuple(_scalar(rng) for _ in range(rng.randint(0, 2)))
        return rng.choice(CELL_POOL[dtype])

    rows = [tuple(cell(d) for d in dtypes) for _ in range(rng.randint(0, 6))]
    rows += [rng.choice(rows) for _ in range(rng.randint(0, 3))] if rows else []
    return make_table("t", list(zip(names, dtypes)), rows)


def _shuffled(rng, t):
    """Rows and columns permuted; an int column may turn into equal reals."""
    cols = list(range(len(t.schema.columns)))
    rng.shuffle(cols)
    specs = []
    columns = []
    for i in cols:
        spec, cells = t.schema.columns[i], [row[i] for row in t.rows]
        if spec.dtype == INT and rng.random() < 0.5 and all(c is None or float(c) == c for c in cells):
            spec, cells = ColumnSpec(spec.name, REAL), [None if c is None else float(c) for c in cells]
        specs.append(spec)
        columns.append(cells)
    rows = list(zip(*columns))
    rng.shuffle(rows)
    return Table(Schema("u", tuple(specs)), tuple(rows))


def _flipped(rng, t):
    """One cell replaced by a value that is not cells_equal to it."""
    r, c = rng.randrange(t.n_rows), rng.randrange(len(t.schema.columns))
    old, dtype = t.rows[r][c], t.schema.columns[c].dtype
    choices = [(), ("x",)] if dtype == LIST else CELL_POOL[dtype]
    new = rng.choice([v for v in choices if not cells_equal(v, old)])
    rows = [list(row) for row in t.rows]
    rows[r][c] = new
    return Table(t.schema, tuple(tuple(row) for row in rows))


def _reference_tables_equal(a, b):
    ca, cb = canonicalize(a), canonicalize(b)
    return (
        ca.column_names == cb.column_names
        and ca.n_rows == cb.n_rows
        and all(cells_equal(x, y) for ra, rb in zip(ca.rows, cb.rows) for x, y in zip(ra, rb))
    )


def test_tables_equal_matches_canonical_reference():
    rng = random.Random(31)
    for _ in range(300):
        t = _pool_table(rng)
        same = _shuffled(rng, t)
        assert tables_equal(t, same) and _reference_tables_equal(t, same)
        if t.n_rows:
            flipped = _flipped(rng, t)
            assert not tables_equal(t, flipped) and not _reference_tables_equal(t, flipped)
        other = _pool_table(rng)
        assert tables_equal(t, other) == _reference_tables_equal(t, other)


def _copied(t):
    """t with fresh row tuples, so row comparison cannot stop at identity."""
    return Table(t.schema, tuple(tuple([*row]) for row in t.rows))


def _multiset_equal(a, b):
    """tables_equal without its sequence shortcut: the two row multisets."""
    names = a.column_names
    return (
        sorted(names) == sorted(b.column_names)
        and tables._hashed_rows(a, names) == tables._hashed_rows(b, names)
    )


def test_same_order_tables_compare_as_sequences(monkeypatch):
    """Int, real and text tables whose columns and rows agree in order are
    equal without building a row multiset; any other pair builds both."""
    rng = random.Random(41)
    big = make_table("big", [("id", INT), ("x", REAL), ("s", TEXT)],
                     [(i, rng.random(), f"n{i % 97}") for i in range(20_000)])
    ints = make_table("a", [("a", INT), ("b", TEXT)], [(2, "p"), (None, "q"), (2, "p")])
    reals = make_table("b", [("a", REAL), ("b", TEXT)], [(2.0, "p"), (None, "q"), (2.0, "p")])

    def refuse(t, names):
        raise AssertionError("the row multisets were built")

    hashed_rows = tables._hashed_rows
    monkeypatch.setattr(tables, "_hashed_rows", refuse)
    assert tables_equal(big, _copied(big))
    assert tables_equal(ints, _copied(ints)) and tables_equal(ints, reals)

    built = []
    monkeypatch.setattr(tables, "_hashed_rows", lambda t, names: built.append(t) or hashed_rows(t, names))
    bools = make_table("c", [("a", BOOL), ("b", INT)], [(True, 1), (False, 0)])
    lists = make_table("d", [("a", LIST), ("b", INT)], [((1, "x"), 1), ((), 0)])
    swapped = make_table("e", [("b", TEXT), ("a", INT)], [("p", 2), ("q", None), ("p", 2)])
    one_off = make_table("f", [("a", INT), ("b", TEXT)], [(2, "p"), (None, "q"), (3, "p")])
    ab = make_table("g", [("a", INT), ("b", INT)], [(1, 2)])
    ba = make_table("h", [("b", INT), ("a", INT)], [(1, 2)])  # same rows, names swapped
    for a, b, equal in ((bools, _copied(bools), True), (lists, _copied(lists), True),
                        (ints, swapped, True), (ints, one_off, False), (ab, ba, False)):
        built.clear()
        assert tables_equal(a, b) == equal, (a, b)
        assert built == [a, b], (a, b)


def test_same_order_shortcut_agrees_with_the_multisets():
    """On pairs whose rows agree in order but for one column, tables_equal
    answers as the row multisets alone answer: 2 and 2.0 are equal, True
    and 1 are not, nor 2**53 + 1 and float(2**53); -0.0 and 0.0 are, and so
    are Nulls in the same cells."""
    cases = [
        (7, INT, 8, INT, False),
        ("p", TEXT, "q", TEXT, False),
        (2, INT, 2.0, REAL, True),
        (True, BOOL, 1, INT, False),
        (2**53 + 1, INT, float(2**53), REAL, False),
        (-0.0, REAL, 0.0, REAL, True),
        (None, INT, None, INT, True),
    ]
    rng = random.Random(43)
    for _ in range(60):
        for x, x_dtype, y, y_dtype, equal in cases:
            t = random_table(rng, dtypes=(INT, REAL, TEXT), min_rows=1, max_rows=10, max_cols=3)
            r, c = rng.randrange(t.n_rows), rng.randint(0, len(t.column_names))

            def with_column(value, dtype):
                # a column "z" at c, Null but in row r, where it holds value
                specs = list(t.schema.columns)
                specs.insert(c, ColumnSpec("z", dtype))
                rows = [(*row[:c], value if i == r else None, *row[c:]) for i, row in enumerate(t.rows)]
                return Table(Schema("t", tuple(specs)), tuple(rows))

            a, b = with_column(x, x_dtype), with_column(y, y_dtype)
            assert tables_equal(a, b) == _multiset_equal(a, b) == equal, (a, b)
            assert tables_equal(b, a) == equal, (a, b)


def test_nan_and_inf_rejected():
    with pytest.raises(TableError):
        make_table("t", [("a", "real")], [(float("nan"),)])
    with pytest.raises(TableError):
        make_table("t", [("a", "real")], [(math.inf,)])


def test_cell_kind_must_match_dtype():
    with pytest.raises(TableError):
        make_table("t", [("a", "int")], [("12",)])
    with pytest.raises(TableError):
        make_table("t", [("a", "int")], [(True,)])


def test_int64_bounds_enforced():
    make_table("t", [("a", "int")], [(2**63 - 1,)])
    with pytest.raises(TableError):
        make_table("t", [("a", "int")], [(2**63,)])


def test_cell_error_names_table_row_and_column():
    with pytest.raises(TableError, match="table 't' row 1 column 'b': non-finite"):
        make_table("t", [("a", INT), ("b", REAL)], [(1, 2.0), (3, math.nan)])


def test_make_table_takes_column_specs_as_they_are():
    spec = ColumnSpec("a", INT, "an id")
    t = make_table("t", [spec, ("b", TEXT)], [(1, "x")])
    assert t.schema.columns == (spec, ColumnSpec("b", TEXT))


def test_a_hand_built_cell_of_no_cell_type_is_a_table_error():
    """Every reader and operator builds cells of the five kinds; a value
    built by hand past them is refused where it is typed or rendered."""
    with pytest.raises(TableError, match="unsupported cell value of type object"):
        infer_column([1, object()])
    with pytest.raises(TableError, match="cannot render value of type dict as text"):
        render_cell({})


def test_schema_json_whose_columns_are_no_list_is_a_table_io_error():
    with pytest.raises(TableIOError, match="malformed schema json: 'columns' must be a list, got dict"):
        schema_from_json({"table_name": "t", "columns": {"a": "int"}})


def test_duplicate_column_names_rejected():
    with pytest.raises(TableError):
        Schema("t", (ColumnSpec("a", "int"), ColumnSpec("a", "text")))


def test_ragged_rows_rejected():
    with pytest.raises(TableError):
        make_table("t", [("a", "int"), ("b", "int")], [(1,)])


def test_serialize_empty_table():
    t = make_table("t", [("a", "int"), ("b", "text")], [])
    out = serialize_table(t, sample_rows=5)
    assert out.splitlines() == [
        "| a | b |",
        "| int | text |",
        "rows: 0",
    ]


def test_serialize_row_sampling_and_line_count():
    t = make_table("t", [("a", "int")], [(i,) for i in range(10)])
    out = serialize_table(t, sample_rows=5)
    lines = out.splitlines()
    assert len(lines) == 3 + 5
    assert lines[-1] == "rows: 10"
    assert lines[2] == "| 0 |"


def test_serialize_deterministic():
    rng = random.Random(11)
    t = random_table(rng)
    assert serialize_table(t) == serialize_table(t)


def test_serialize_escapes_pipes():
    t = make_table("t", [("a", "text")], [("x|y",)])
    assert "x\\|y" in serialize_table(t)


def test_serialize_escapes_carriage_returns():
    # a bare "\r" would split the row for any reader that splits on it
    t = make_table("t", [("a", "text"), ("b", "int")], [("x\ry", 1), ("z\r\n", 2)])
    assert serialize_table(t).splitlines() == [
        "| a | b |", "| text | int |", "| x\\ry | 1 |", "| z\\r\\n | 2 |", "rows: 2",
    ]


def test_csv_text_quotes_carriage_returns():
    t = make_table("t", [("a", "text")], [("1\r",), ("x",), ("q\rz",), ("\r\n",)])
    text = table_to_csv_text(t)
    assert table_from_csv_text(text, "t", t.schema).rows == t.rows
    assert text == 'a\r\n"1\r"\r\nx\r\n"q\rz"\r\n"\r\n"\r\n'
    # a table with no "\r" keeps "\n" line ends
    assert table_to_csv_text(make_table("t", [("a", "text")], [("x\ny",)])) == 'a\n"x\ny"\n'


def test_csv_round_trip_with_sidecar(tmp_path):
    rng = random.Random(13)
    for i in range(25):
        t = random_table(rng, name=f"t{i}")
        path = tmp_path / f"t{i}.csv"
        write_table(t, path)
        back = read_table(path)
        assert tables_equal(t, back), f"csv round trip failed for table {i}"
        assert back.schema == t.schema


def test_csv_inference_without_sidecar(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c,d\n1,2.5,true,hello\n2,,false,\n")
    t = read_table(path)
    assert [c.dtype for c in t.schema.columns] == ["int", "real", "bool", "text"]
    assert t.rows == ((1, 2.5, True, "hello"), (2, None, False, None))


def test_csv_inference_mixed_int_real(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a\n1\n2.5\n")
    t = read_table(path)
    assert t.schema.columns[0].dtype == "real"
    assert t.rows == ((1.0,), (2.5,))


def test_csv_inference_falls_back_to_text(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a\n1\nx\n")
    t = read_table(path)
    assert t.schema.columns[0].dtype == "text"
    assert t.rows == (("1",), ("x",))


def test_csv_empty_cell_is_null(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a\n\n1\n")
    t = read_table(path)
    assert t.rows == ((None,), (1,))


def test_csv_ragged_row_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1\n")
    with pytest.raises(TableIOError):
        read_table(path)


def test_csv_duplicate_header_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,a\n1,2\n")
    with pytest.raises(TableIOError):
        read_table(path)


def test_csv_quoting_round_trip(tmp_path):
    t = make_table(
        "t",
        [("a", "text")],
        [('say "hi", ok',), ("line1\nline2",), ("plain",)],
    )
    path = tmp_path / "t.csv"
    write_table(t, path)
    back = read_table(path)
    assert tables_equal(t, back)


def test_sidecar_dtype_beats_inference(tmp_path):
    t = make_table("t", [("a", "text")], [("12",), ("34",)])
    path = tmp_path / "t.csv"
    write_table(t, path)
    back = read_table(path)
    assert back.schema.columns[0].dtype == "text"
    assert back.rows == (("12",), ("34",))


def table_from_rows(name, column_names, rows):
    """A table whose column dtypes infer_column reads off its cells."""
    columns = [infer_column(list(cells)) for cells in zip(*rows)]
    return make_table(
        name,
        [(n, dtype) for n, (dtype, _, _) in zip(column_names, columns)],
        zip(*(cells for _, cells, _ in columns)),
    )


def test_table_from_rows_promotes_int_to_real():
    t = table_from_rows("t", ["a"], [(1,), (2.5,)])
    assert t.schema.columns[0].dtype == "real"
    assert t.rows == ((1.0,), (2.5,))


def test_table_from_rows_mixed_kinds_rejected():
    with pytest.raises(TableError):
        table_from_rows("t", ["a"], [(1,), ("x",)])


def test_read_tables_pass_the_checked_constructor(tmp_path):
    # csv reads build trusted tables; their cells must be exactly what the
    # checked constructor would accept and store
    rng = random.Random(15)
    for i in range(25):
        t = random_table(rng, name=f"t{i}")
        path = tmp_path / f"t{i}.csv"
        write_table(t, path)
        (tmp_path / f"bare{i}.csv").write_bytes(path.read_bytes())
        for back in (read_table(path), read_table(tmp_path / f"bare{i}.csv")):
            assert isinstance(back.rows, tuple)
            assert all(isinstance(row, tuple) for row in back.rows)
            assert Table(back.schema, back.rows) == back


def test_trusted_table_skips_the_check():
    schema = Schema("t", (ColumnSpec("a", INT),))
    t = Table.trusted(schema, ((1,), (2,)))
    assert t == make_table("t", [("a", INT)], [(1,), (2,)])
    with pytest.raises(TableError):
        Table(schema, (("x",),))


@pytest.mark.parametrize("dtype, text", [
    ("int", "9223372036854775808"),
    ("int", "-9223372036854775809"),
    ("list", '[{"k": 1}]'),
    ("list", "[[1]]"),
    ("list", "[NaN]"),
    ("list", "[1e999]"),
    ("list", "[99999999999999999999]"),
])
def test_bad_sidecar_csv_cell_is_a_table_io_error(tmp_path, dtype, text):
    path = tmp_path / "t.csv"
    write_table(make_table("t", [("a", dtype)], []), path)
    path.write_text("a\n" + ('"' + text.replace('"', '""') + '"') + "\n")
    with pytest.raises(TableIOError, match="row 0 column 'a'"):
        read_table(path)


@pytest.mark.parametrize("damaged", [
    pytest.param("table", id="csv-table"), pytest.param("sidecar", id="csv-sidecar"),
])
def test_non_utf8_file_is_a_table_io_error(tmp_path, damaged):
    path = tmp_path / "t.data"
    write_table(make_table("t", [("a", TEXT)], [("é",)]), path)
    assert "é".encode("utf-8") in path.read_bytes()  # utf-8 whatever the locale
    (Path(sidecar_path(path)) if damaged == "sidecar" else path).write_bytes(b"\xff\xfe")
    with pytest.raises(TableIOError, match="utf-8"):
        read_table(path)


@pytest.mark.parametrize("text", ["1_0", " 2", "2 "])
def test_sidecar_real_cell_takes_only_what_inference_takes(tmp_path, text):
    path = tmp_path / "t.csv"
    write_table(make_table("t", [("a", REAL)], []), path)
    path.write_text(f'a\n"{text}"\n')
    with pytest.raises(TableIOError, match=f"row 0 column 'a': cannot parse {text!r} as real"):
        read_table(path)
    # the same text is no number to an int column or to inference either
    write_table(make_table("t", [("a", INT)], []), path)
    path.write_text(f'a\n"{text}"\n')
    with pytest.raises(TableIOError, match="not an integer"):
        read_table(path)
    Path(sidecar_path(path)).unlink()
    assert read_table(path).schema.columns[0].dtype == TEXT


def test_non_ascii_digits_read_as_text_and_round_trip(tmp_path):
    text = "a,b\n\u0661\u0662,\u0663.\u0665\n"  # 12 and 3.5 in Arabic-Indic digits
    t = table_from_csv_text(text, "t")
    assert [c.dtype for c in t.schema.columns] == [TEXT, TEXT]
    assert t.rows == (("\u0661\u0662", "\u0663.\u0665"),)
    assert table_to_csv_text(t) == text
    path = tmp_path / "t.csv"
    write_table(make_table("t", [("a", INT)], []), path)
    path.write_text("a\n\u0661\u0662\n", encoding="utf-8")
    with pytest.raises(TableIOError, match="not an integer"):
        read_table(path)


def test_real_reprs_round_trip_through_csv(tmp_path):
    cells = [1e16, 1.5e-07, -2.5e-300, 1.7976931348623157e308, 5e-324, 0.1, -0.0, 123.0]
    t = make_table("t", [("a", REAL)], [(v,) for v in cells])
    path = tmp_path / "t.csv"
    write_table(t, path)
    assert "1e+16" in path.read_text() and "1.5e-07" in path.read_text()
    back = read_table(path)
    assert back == t
    assert [repr(v) for (v,) in back.rows] == [repr(v) for v in cells]


# -- the checked constructor's column kernel against a cell-by-cell reference --

def _reference_rows(schema, rows):
    """Rows as the checked constructor gave them when it checked every cell in
    row order with validate_cell; raises the same TableError."""
    cols = schema.columns
    checked = []
    for r, row in enumerate(rows):
        row = tuple(row)
        if len(row) != len(cols):
            raise TableError(
                f"table {schema.table_name!r} row {r}: expected {len(cols)} cells, got {len(row)}"
            )
        checked.append(tuple(
            validate_cell(v, c.dtype, f"table {schema.table_name!r} row {r} column {c.name!r}")
            for v, c in zip(row, cols)
        ))
    return tuple(checked)


def _typed(v):
    """A value with the type of every part, so True != 1 and 1 != 1.0 here."""
    if isinstance(v, (tuple, list)):
        return type(v), tuple(map(_typed, v))
    return type(v), v


def _outcome(build):
    try:
        return "rows", _typed(build())
    except TableError as exc:
        return "error", str(exc)


def _assert_kernel_matches_reference(schema, rows):
    want = _outcome(lambda: _reference_rows(schema, rows))
    got = _outcome(lambda: Table(schema, rows).rows)
    assert got == want, (schema, rows)
    return got


class _Int(int):
    pass


class _Str(str):
    pass


ODD_CELLS = [
    True, False, 0, 1, 2.5, -0.0, "x", "",
    2**63, -(2**63) - 1, 2**63 - 1, -(2**63),
    math.nan, math.inf, -math.inf, _Int(3), _Str("s"),
    [1, "a"], [], [[1]], (1, (2,)), (math.nan,), [2**63], b"raw", {"k": 1},
]


def _schema(*dtypes):
    return Schema("k", tuple(ColumnSpec(f"c{i}", d) for i, d in enumerate(dtypes)))


@pytest.mark.parametrize("dtypes, rows, error", [
    ((INT,), ((1,), (True,)), "row 1 column 'c0': bool cell in int column"),
    ((REAL,), ((1.5,), (2,)), "row 1 column 'c0': int cell in real column"),
    ((INT, TEXT), ((_Int(4), _Str("s")), (None, "t")), None),
    ((INT,), ((2**63 - 1,), (-(2**63),), (None,)), None),
    ((INT,), ((0,), (2**63,)), "row 1 column 'c0': integer out of 64-bit range"),
    ((INT,), ((None,), (-(2**63) - 1,)), "row 1 column 'c0': integer out of 64-bit range"),
    ((REAL,), ((1.0,), (math.nan,)), "row 1 column 'c0': non-finite real value"),
    ((REAL,), ((math.inf,),), "non-finite real value"),
    ((REAL,), ((None,), (-math.inf,)), "non-finite real value"),
    ((TEXT,), (("a",), (["a"],)), "row 1 column 'c0': list cell in text column"),
    ((LIST,), (([1, "a"],), ((2,),), (None,)), None),
    ((LIST,), (([1, [2]],),), "row 0 column 'c0': unsupported cell value of type list"),
    ((INT, BOOL), [[1, True], (2, False)], None),
    ((INT, INT), ((1, 2), (3,), ("x", 4)), "row 1: expected 2 cells, got 1"),
    ((INT, INT), ((1, 2), ("x", 4), (3,)), "row 1 column 'c0': text cell in int column"),
    ((INT, TEXT), ((1, 2), ("x", "y")), "row 0 column 'c1': int cell in text column"),
    ((), ((), (), ()), None),
])
def test_column_kernel_cases(dtypes, rows, error):
    kind, value = _assert_kernel_matches_reference(_schema(*dtypes), rows)
    if error is None:
        assert kind == "rows"
        assert len(value[1]) == len(rows)
    else:
        assert kind == "error" and error in value


def test_clean_rows_are_kept_as_given():
    rows = ((1, 2.5, "a", True), (None, None, None, None)) * 3
    t = Table(_schema(INT, REAL, TEXT, BOOL), rows)
    assert t.rows is rows
    assert Table(_schema(INT), (r for r in [(1,), (2,)])).rows == ((1,), (2,))


def _kernel_case(rng):
    """Random cells as the tests use them, plus odd cells, list-typed cells
    and rows, and ragged rows."""
    dtypes = [rng.choice((INT, REAL, TEXT, BOOL, LIST)) for _ in range(rng.randint(0, 5))]
    null_rate = rng.choice([0.0, 0.15, 0.9])
    rows = [[random_cell(rng, d, null_rate) for d in dtypes] for _ in range(rng.randint(0, 8))]
    for row in rows:
        for i, v in enumerate(row):
            if type(v) is tuple and rng.random() < 0.3:
                row[i] = list(v)
    if rows and dtypes:
        for _ in range(rng.choice([0, 0, 0, 1, 2])):
            rng.choice(rows)[rng.randrange(len(dtypes))] = rng.choice(ODD_CELLS)
    if rows and rng.random() < 0.1:
        row = rng.choice(rows)
        if row and rng.random() < 0.5:
            row.pop()
        else:
            row.append(1)
    rows = [tuple(row) if rng.random() < 0.95 else row for row in rows]
    return _schema(*dtypes), tuple(rows) if rng.random() < 0.9 else rows


def test_column_kernel_matches_cell_by_cell_reference():
    rng = random.Random(606)
    kinds = Counter()
    for _ in range(5000):
        schema, rows = _kernel_case(rng)
        kinds[_assert_kernel_matches_reference(schema, rows)[0]] += 1
    assert kinds["rows"] > 1000 and kinds["error"] > 500, kinds


# -- the column-at-once csv parser against the cell-by-cell reference ----------

CSV_ODD_CELLS = [
    "1\n2", "5\n", "\n5", "1\n", "\n", "1_0", " 2", "2 ", "\t1", "1\r", "+5", "-0", "-0.0",
    "1e400", "-1e400", "1" * 400, str(2**63), str(-(2**63)), str(2**63 - 1),
    str(-(2**63) - 1), "١٢", "٣.٥", "²", "TRUE", "False", "tRuE",
    "yes", "nan", "inf", "Infinity", "1e5", ".5", "5.", ".", "-", "+", "1.5.2", "0x10",
    "[1, 2]", "[]", '["a", null]', "[1e400]", "[[1]]", '{"k": 1}', "[", "1.5\n2", "1\n\n2",
]


def _csv_text(rng, dtype):
    if dtype == INT:
        return rng.choice([str(rng.randint(-50, 50)), str(rng.randint(-(2**63), 2**63 - 1))])
    if dtype == REAL:
        return rng.choice([repr(rng.uniform(-100, 100)), f"{rng.uniform(-1, 1):.3e}", "1.", ".5"])
    if dtype == BOOL:
        return "".join(c.upper() if rng.random() < 0.5 else c for c in rng.choice(["true", "false"]))
    if dtype == LIST:
        return json.dumps([rng.randint(-5, 5) for _ in range(rng.randint(0, 3))])
    return rng.choice(["alpha", "x y", "", "a,b", 'say "hi"'])


def _csv_column(rng):
    """Raw csv cells of one column: mostly one kind, sometimes mixed, with
    nulls and odd cells."""
    theme = rng.choice([INT, REAL, BOOL, TEXT, LIST, None])
    null_rate = rng.choice([0.0, 0.0, 0.2, 0.9, 1.0])
    odd_rate = rng.choice([0.0, 0.0, 0.1])
    cells = []
    for _ in range(rng.randint(0, 12)):
        if rng.random() < null_rate:
            cells.append("")
        elif rng.random() < odd_rate:
            cells.append(rng.choice(CSV_ODD_CELLS))
        else:
            cells.append(_csv_text(rng, theme or rng.choice([INT, REAL, BOOL, TEXT, LIST])))
    return cells


def _csv_outcome(parse):
    try:
        dtype, cells = parse()
        return dtype, _typed(list(cells))
    except TableError as exc:
        return "error", str(exc)


def test_csv_column_parser_matches_cell_by_cell_reference():
    rng = random.Random(909)
    seen = Counter()
    for _ in range(4000):
        cells = _csv_column(rng)
        for dtype in (None, INT, REAL, BOOL, TEXT, LIST):
            want_dtype = dtype or reference_csv.infer_dtype(cells)
            want = _csv_outcome(
                lambda: (want_dtype, reference_csv.parse_column(cells, want_dtype, "t.csv", "a"))
            )
            got = _csv_outcome(lambda: _csv_parse_column(tuple(cells), dtype, "t.csv", "a"))
            assert got == want, (cells, dtype)
            seen[dtype, want[0]] += 1
    # inference reaches every dtype it can give, and each sidecar dtype both
    # parses and fails
    for dtype in (INT, REAL, BOOL, TEXT):
        assert seen[None, dtype] > 100, seen
    for dtype in (INT, REAL, BOOL, LIST):
        assert seen[dtype, dtype] > 100 and seen[dtype, "error"] > 100, seen


@pytest.mark.parametrize("text", CSV_ODD_CELLS)
def test_odd_csv_cells_read_as_the_reference_reads_them(text):
    for cells in ([text], ["7", text, ""], ["", "1.5", text], ["true", text]):
        for dtype in (None, INT, REAL, BOOL, TEXT, LIST):
            want_dtype = dtype or reference_csv.infer_dtype(cells)
            want = _csv_outcome(
                lambda: (want_dtype, reference_csv.parse_column(cells, want_dtype, "t.csv", "a"))
            )
            got = _csv_outcome(lambda: _csv_parse_column(tuple(cells), dtype, "t.csv", "a"))
            assert got == want, (cells, dtype)


def test_csv_records_match_the_reference_table():
    rng = random.Random(910)
    for i in range(300):
        columns = [_csv_column(rng) for _ in range(rng.randint(1, 3))]
        n_rows = min(map(len, columns))
        header = [f"c{j}" for j in range(len(columns))]
        buf = io.StringIO()
        writer = csv.writer(buf)  # quotes a cell holding "\r" or "\n"
        writer.writerow(header)
        writer.writerows(zip(*(col[:n_rows] for col in columns)))
        raw = [col[:n_rows] for col in columns]
        sidecar = rng.random() < 0.5
        dtypes = [rng.choice(DTYPES) if sidecar else reference_csv.infer_dtype(c) for c in raw]
        schema = Schema("t", tuple(ColumnSpec(h, d) for h, d in zip(header, dtypes)))

        def reference():
            parsed = [
                reference_csv.parse_column(c, d, "table 't'", h)
                for c, d, h in zip(raw, dtypes, header)
            ]
            return schema, tuple(zip(*parsed))

        def engine():
            t = table_from_csv_text(buf.getvalue(), "t", schema if sidecar else None)
            return t.schema, t.rows

        assert _outcome(engine) == _outcome(reference), (i, buf.getvalue(), dtypes)


class _LoudInt(int):
    def __str__(self):
        return "loud-int"

    __repr__ = __str__


class _LoudReal(float):
    def __repr__(self):
        return "loud-real"

    __str__ = __repr__


class _LoudText(str):
    def __str__(self):
        return "loud-text"

    __repr__ = __str__


CSV_WRITER_EDGE_TABLES = [
    make_table("t", [("a", INT), ("b", TEXT)], []),
    make_table("t", [("a", BOOL), ("b", LIST)], []),
    make_table("t", [("a", TEXT)], [(None,), ("",), ("x",), (None,)]),
    make_table("t", [("a", INT)], [(None,), (0,)]),
    make_table("t", [("a", LIST)], [(None,), ((),)]),
    make_table("t", [], [(), ()]),
    make_table(
        "t",
        [("i", INT), ("r", REAL), ("s", TEXT)],
        [
            (tables.INT64_MAX, -0.0, "a,b"),
            (tables.INT64_MIN, 0.0, 'say "hi"'),
            (None, 1e-07, "two\nlines"),
            (0, 1e22, "cr\rhere"),
            (-1, -1e308, ""),
            (None, None, None),
        ],
    ),
    make_table(
        "t",
        [("i", INT), ("r", REAL), ("s", TEXT), ("b", BOOL), ("l", LIST)],
        [
            (_LoudInt(3), _LoudReal(2.5), _LoudText("quiet"), True, (_LoudInt(1), "x")),
            (_LoudInt(-4), _LoudReal(-0.0), _LoudText("a,\n"), None, None),
            (None, None, None, False, ()),
        ],
    ),
]


def test_csv_writer_matches_the_per_cell_reference():
    rng = random.Random(911)
    tables_seen = [
        random_table(rng, max_rows=12, max_cols=5, null_rate=rng.choice([0.0, 0.15, 0.5]))
        for _ in range(500)
    ]
    for t in [*tables_seen, *CSV_WRITER_EDGE_TABLES]:
        assert table_to_csv_text(t) == reference_csv.table_to_csv_text(t), t
    # both writer paths are taken: tables with and without bool or list columns
    plain = [t for t in tables_seen if not {c.dtype for c in t.schema.columns} & {BOOL, LIST}]
    assert 50 < len(plain) < 450
    assert "loud-int" in table_to_csv_text(CSV_WRITER_EDGE_TABLES[-1])


# header and cell texts that need escaping, or sit next to text that does
_MD_NAMES = ["a", "b c", "x|y", "back\\slash", "two\nlines", "cr\r", "naïve", "日付", "lone\udc80", "(p)"]
_MD_TEXTS = ["plain", "x|y", "a\\b", "two\nlines", "cr\rhere", "\\|", "|", "\\", "naïve", "日本", "\ud800", " "]


def _markdown_table(rng: random.Random) -> Table:
    names = rng.sample(_MD_NAMES, rng.randint(0, 5))
    dtypes = [rng.choice(DTYPES) for _ in names]
    specials = rng.random() < 0.5  # else every text is a plain word
    null_rate = rng.choice([0.0, 0.15, 0.5])

    def cell(dtype):
        if dtype == TEXT and specials and rng.random() < 0.5:
            return rng.choice(_MD_TEXTS)
        if dtype == LIST and specials and rng.random() < 0.5:
            return (rng.choice(_MD_TEXTS), rng.randint(-5, 5))
        return random_cell(rng, dtype, null_rate)

    rows = [tuple(cell(dt) for dt in dtypes) for _ in range(rng.randint(0, 8))]
    return make_table("t", list(zip(names, dtypes)), rows)


def test_markdown_matches_the_per_cell_reference():
    rng = random.Random(912)
    tables_seen = [_markdown_table(rng) for _ in range(1500)]
    subclassed = [
        Table(
            Schema("t", (ColumnSpec("i", INT), ColumnSpec("s|t", TEXT), ColumnSpec("r", REAL))),
            rows,
        )
        for rows in [
            ((_LoudInt(3), _LoudText("qu|iet"), _LoudReal(2.5)), (_LoudInt(-4), _LoudText("a"), 1.0)),
            ((3, _LoudText("x"), None), (_LoudInt(5), "y", _LoudReal(-0.0))),
            ((_LoudInt(1), _LoudText("plain"), None),),
        ]
    ]
    for t in [*tables_seen, *subclassed, *CSV_WRITER_EDGE_TABLES]:
        for n in (0, 1, 5, t.n_rows + 3):
            assert serialize_table(t, n) == reference_markdown.serialize_table(t, n), (t, n)
        # markdown_row_cells reads each line back to its unescaped texts
        lines = serialize_table(t, t.n_rows).split("\n")
        if t.schema.columns:
            assert markdown_row_cells(lines[0]) == list(t.column_names)
            assert [markdown_row_cells(ln) for ln in lines[2:-1]] == [
                [tables.render_cell(v) for v in row] for row in t.rows
            ]
    # both kernel paths are taken: tables that need escaping and tables that do not
    escaped = [t for t in tables_seen if "\\" in serialize_table(t, len(t.rows))]
    assert 300 < len(escaped) < 1200
    assert "loud-int" in serialize_table(subclassed[0]) and "qu\\|iet" in serialize_table(subclassed[0])
    with pytest.raises(ValueError, match="sample_rows must be >= 0"):
        serialize_table(tables_seen[0], -1)


def test_csv_ragged_row_and_blank_line_messages():
    with pytest.raises(TableIOError, match=r"^table 't': row 2 has 1 cells, expected 2$"):
        table_from_csv_text("a,b\n1,2\n3,4\n5\n6,7,8\n", "t")
    with pytest.raises(TableIOError, match=r"^table 't': row 1 has 1 cells, expected 2$"):
        table_from_csv_text("a,b\n1,2\n\n3,4\n", "t")
    with pytest.raises(TableIOError, match="empty column name in header"):
        table_from_csv_text("\na\n1\n", "t")
    t = table_from_csv_text("a\n1\n\n2\n", "t")
    assert t.schema.columns[0].dtype == INT and t.rows == ((1,), (None,), (2,))
    t = table_from_csv_text("a,b\n", "t")
    assert [c.dtype for c in t.schema.columns] == [TEXT, TEXT] and t.rows == ()
    limit = csv.field_size_limit()
    too_long = rf"^table 't': malformed csv: field larger than field limit \({limit}\)$"
    with pytest.raises(TableIOError, match=too_long):
        table_from_csv_text("a\n" + "x" * (limit + 1) + "\n", "t")
    t = table_from_csv_text("a,b\n" + "1,2\n" * (limit // 4 + 1), "t")
    assert t.n_rows == limit // 4 + 1 and t.rows[-1] == (1, 2)


def test_clean_csv_columns_parse_without_the_per_cell_parser(tmp_path, monkeypatch):
    """A clean column never reaches _csv_parse_cell, with or without a sidecar;
    a silent fall back to parsing cell by cell fails here."""
    rng = random.Random(911)
    rows = [
        tuple(None if rng.random() < 0.1 else v for v in (
            rng.randint(-(2**63), 2**63 - 1),
            rng.uniform(-1e6, 1e6),
            rng.random() < 0.5,
            rng.choice(["alpha", "bravo", "x y"]),
        ))
        for _ in range(1000)
    ]
    t = make_table("t", [("i", INT), ("r", REAL), ("b", BOOL), ("s", TEXT)], rows)
    path = tmp_path / "t.csv"
    write_table(t, path)
    calls = []
    per_cell = tables._csv_parse_cell
    monkeypatch.setattr(
        tables, "_csv_parse_cell", lambda text, dtype: calls.append(dtype) or per_cell(text, dtype)
    )
    assert read_table(path) == t
    Path(sidecar_path(path)).unlink()
    assert read_table(path) == t
    assert calls == []
    write_table(make_table("t", [("i", INT)], []), tmp_path / "bad.csv")
    (tmp_path / "bad.csv").write_text("i\n1\nx\n")
    with pytest.raises(TableIOError, match="row 1 column 'i': cannot parse 'x' as int"):
        read_table(tmp_path / "bad.csv")
    assert calls == [INT, INT]  # the fall back is what names the bad cell


# pieces of csv text: the characters csv.reader reads apart (comma, the line
# ends, quote, NUL) and characters it reads as any other (spaces, the line
# breaks of str.splitlines, non-ASCII)
_CSV_PIECES = [",", ",", "\n", "\n", '"', "\r", "\r\n", "\0", " ", " ", "\x85", "\x0b",
               "é", "日", "7", "-2", "3.5", "true", "[1]", "x y"]
_PLAIN_CSV_CELLS = ["", "", "7", "-2", "3.5", "1e3", "TRUE", "false", "[1, 2]", "x y", " ", "é",
                    "日本", "a b", "\x85", "\x0b", "9" * 25]
_CSV_HEADER_NAMES = ["a", "b", "c d", " e", "é", "日", "x y", "f\x85", "g\x0b"]


def _csv_sample(rng: random.Random) -> str:
    """Csv text: free text of csv pieces, or a header and rows of plain cells,
    at times with a ragged row, a blank line or one piece dropped in."""
    if rng.random() < 0.3:
        return "".join(rng.choice(_CSV_PIECES) for _ in range(rng.randint(0, 40)))
    width = rng.randint(1, 4)
    lines = [",".join(rng.sample(_CSV_HEADER_NAMES, width))]
    for _ in range(rng.randint(0, 8)):
        cells = width if rng.random() < 0.95 else rng.randint(0, width + 1)
        lines.append(",".join(rng.choice(_PLAIN_CSV_CELLS) for _ in range(cells)))
    text = "\n".join(lines) + rng.choice(["", "\n", "\n", "\n\n"])
    if rng.random() < 0.3:
        i = rng.randint(0, len(text))
        text = text[:i] + rng.choice(_CSV_PIECES) + text[i:]
    return text


def _csv_sidecar(rng: random.Random, text: str) -> Schema | None:
    """None, or a schema for the names of the text's first line (a random
    dtype each), at times one that names a column the text does not have."""
    names = text.split("\n")[0].split(",")
    if rng.random() < 0.4 or "" in names or len(set(names)) != len(names):
        return None
    if rng.random() < 0.1:
        names[rng.randrange(len(names))] += "?"
    return Schema("t", tuple(ColumnSpec(n, rng.choice(DTYPES)) for n in names))


def _csv_read_both(monkeypatch, text: str, schema: Schema | None):
    """The outcome of reading `text`, and of reading it with the plain split
    turned off, so that csv.reader reads every text."""
    read = lambda: (lambda t: (t.schema, t.rows))(table_from_csv_text(text, "t", schema))
    got = _outcome(read)
    with monkeypatch.context() as m:
        m.setattr(tables, "_plain_csv_columns", lambda text: None)
        return got, _outcome(read)


_LIMIT = csv.field_size_limit()
# (text, whether it is split without csv.reader)
CSV_SPLIT_EDGES = [
    ("a,b\n", True),  # header only
    ("a,b", True),
    ("a\n1\n\n2\n", True),  # one column: a blank line is a Null cell
    ("a,b\n1,2\n\n3,4\n", False),  # a blank line is a ragged row
    ("a,b\n1,2", True),  # no final newline
    ("a,b\n1,2\n3\n", False),  # ragged
    ("a,b\n1,2,3\n", False),
    ("\na\n1\n", True),  # the empty header name
    ("a,a\n1,2\n", True),
    ("", False),
    ("\n", True),
    ("a\n" + "x" * (_LIMIT + 1) + "\n", False),  # a field longer than the limit
    ("x" * (_LIMIT + 1) + ",b\n", False),
    ("a\n" + "x" * _LIMIT + "\n", True),
    ("a,b\n" + "1,2\n" * (_LIMIT // 4 + 1), True),  # a long text of short fields
    ('a,b\n1,"2"\n', False),
    ("a,b\r\n1,2\r\n", False),
    ("a,b\n1,\x002\n", False),
]


@pytest.mark.parametrize("text, plain", CSV_SPLIT_EDGES, ids=range(len(CSV_SPLIT_EDGES)))
def test_csv_split_edges_read_as_csv_reader_reads_them(monkeypatch, text, plain):
    assert (tables._plain_csv_columns(text) is not None) == plain
    names = text.split("\n")[0].split(",")
    schemas = [None]
    if "" not in names and len(set(names)) == len(names):
        schemas += [Schema("t", tuple(ColumnSpec(n, d) for n in names)) for d in (INT, TEXT)]
    for schema in schemas:
        got, want = _csv_read_both(monkeypatch, text, schema)
        assert got == want


def test_plain_csv_split_matches_csv_reader(monkeypatch):
    """The str.split reader gives the same table, or the same error text, as
    csv.reader for any csv text, with and without a sidecar."""
    rng = random.Random(913)
    seen = Counter()
    for i in range(3000):
        text = _csv_sample(rng)
        schema = _csv_sidecar(rng, text)
        got, want = _csv_read_both(monkeypatch, text, schema)
        assert got == want, (i, text, schema)
        plain = tables._plain_csv_columns(text) is not None
        seen[plain, got[0], schema is not None] += 1
    # both readers, tables and errors, with and without a sidecar
    assert min(seen.values()) >= 20 and len(seen) == 8, seen


def test_quote_free_csv_is_read_without_csv_reader(tmp_path, monkeypatch):
    """A demo bundle with no quote in its csv files and a 1000-row table are
    split with str.split; a silent fall back to csv.reader fails here."""
    from adprep.synthesis import read_bundle, synthesize_demo_task, verify_bundle, write_bundle

    for seed in range(20):
        bundle = synthesize_demo_task(random.Random(seed), "task")
        directory = write_bundle(bundle, tmp_path / f"b{seed}")
        if not any('"' in p.read_text(encoding="utf-8") for p in directory.rglob("*.csv")):
            break
    else:
        pytest.fail("no quote-free demo bundle in 20 seeds")
    rng = random.Random(914)
    big = make_table("big", [("i", INT), ("r", REAL), ("b", BOOL), ("s", TEXT), ("j", INT)], [
        (rng.randint(-99, 99), rng.uniform(-1, 1), rng.random() < 0.5, rng.choice(["x", "y z"]), None)
        for _ in range(1000)
    ])
    write_table(big, tmp_path / "big.csv")
    calls = []
    reader = csv.reader
    monkeypatch.setattr(csv, "reader", lambda *a, **k: calls.append(a) or reader(*a, **k))
    back = read_bundle(directory)
    assert read_table(tmp_path / "big.csv").rows == big.rows
    assert calls == []
    verify_bundle(back)
    assert back.sources == bundle.sources and back.target_table == bundle.target_table
    table_from_csv_text('a\n"1"\n', "t")
    assert len(calls) == 1  # the spy sees the reader when it runs


NUL_PROBE = """
import csv, io
from adprep.tables import TableIOError, table_from_csv_text
text = "a,b\\n1,\\x002\\n"
try:
    list(csv.reader(io.StringIO(text, newline="")))
    want = None
except csv.Error as exc:
    want = str(exc)
try:
    table_from_csv_text(text, "t")
    got = None
except TableIOError as exc:
    got = str(exc)
print(repr((want, got)))
"""


def test_nul_reads_as_the_oldest_pythons_csv_reads_it():
    """csv.reader rejects NUL before Python 3.11 ("line contains NUL") and
    reads it from 3.11 on; csv text holding NUL goes to csv.reader, so on the
    oldest Python that pyproject.toml admits it raises that csv error."""
    from test_imports import find_python, oldest_python

    version = "%d.%d" % oldest_python()
    exe = find_python(version)
    if exe is None:
        pytest.skip(f"no Python {version} interpreter on PATH or in pyenv")
    env = {**os.environ, "PYTHONPATH": str(Path(tables.__file__).parents[1]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([exe, "-c", NUL_PROBE], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    want, got = ast.literal_eval(done.stdout.strip())
    assert got == (None if want is None else f"table 't': malformed csv: {want}")


def test_deeply_nested_list_cell_is_a_table_io_error(tmp_path):
    path = tmp_path / "t.csv"
    write_table(make_table("t", [("a", LIST)], []), path)
    path.write_text("a\n[1]\n" + "[" * 100_000 + "\n")
    with pytest.raises(TableIOError, match="row 1 column 'a': cannot parse .* as list"):
        read_table(path)
    Path(sidecar_path(path)).write_text("[" * 100_000)
    with pytest.raises(TableIOError, match="recursion"):
        read_table(path)


def test_table_from_json_list_in_scalar_column_error_is_unchanged():
    data = {
        "schema": {"table_name": "t", "columns": [
            {"name": "n", "dtype": "int"}, {"name": "l", "dtype": "list"},
        ]},
        "rows": [[1, [1, "a"]], [2, None]],
    }
    assert table_from_json(data).rows == ((1, (1, "a")), (2, None))
    for dtype in (INT, TEXT):
        data = {"schema": {"table_name": "t", "columns": [{"name": "n", "dtype": dtype}]}}
        for cell in ([1, 2], (1, 2)):
            with pytest.raises(TableError) as exc:
                table_from_json({**data, "rows": [[None], [cell]]})
            assert str(exc.value) == f"table 't' row 1 column 'n': list cell in {dtype} column"
        with pytest.raises(TableIOError, match="malformed table json"):
            table_from_json({**data, "rows": [[1], 2]})
