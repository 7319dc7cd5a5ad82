"""Table model: canonical ordering, equality, rendering, file round trips."""

from __future__ import annotations

import json
import math
import random
from functools import cmp_to_key

import pytest

from adprep.tables import (
    BOOL,
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
    cells_equal,
    compare_cells,
    make_table,
    read_table,
    serialize_table,
    sidecar_path,
    table_from_rows,
    tables_equal,
    write_table,
)
from conftest import random_table


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


def test_csv_round_trip_with_sidecar(tmp_path):
    rng = random.Random(13)
    for i in range(25):
        t = random_table(rng, name=f"t{i}")
        path = tmp_path / f"t{i}.csv"
        write_table(t, path)
        back = read_table(path)
        assert tables_equal(t, back), f"csv round trip failed for table {i}"
        assert back.schema == t.schema


def test_json_rows_round_trip(tmp_path):
    rng = random.Random(14)
    for i in range(25):
        t = random_table(rng, name=f"t{i}")
        path = tmp_path / f"t{i}.json"
        write_table(t, path, fmt="json-rows")
        back = read_table(path, fmt="json-rows")
        assert tables_equal(t, back), f"json round trip failed for table {i}"


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


def test_bad_json_rows_cell_is_a_table_io_error(tmp_path):
    path = tmp_path / "t.json"
    write_table(make_table("t", [("a", INT)], [(1,)]), path, fmt="json-rows")
    for value in (2**63, "x", [1]):
        path.write_text(json.dumps([{"a": value}]))
        with pytest.raises(TableIOError):
            read_table(path, fmt="json-rows")



@pytest.mark.parametrize("fmt, damaged", [
    ("csv", "table"), ("csv", "sidecar"), ("json-rows", "table"),
])
def test_non_utf8_file_is_a_table_io_error(tmp_path, fmt, damaged):
    path = tmp_path / "t.data"
    write_table(make_table("t", [("a", TEXT)], [("é",)]), path, fmt=fmt)
    assert "é".encode("utf-8") in path.read_bytes()  # utf-8 whatever the locale
    (sidecar_path(path) if damaged == "sidecar" else path).write_bytes(b"\xff\xfe")
    with pytest.raises(TableIOError, match="utf-8"):
        read_table(path, fmt=fmt)
