"""Output schemas of the operators whose output is built from new rows:
each column's name, dtype and description, the dtype an all-null column
falls back to (a zero-row input gives every operator all-null columns), and
the list cells a reshaping operator moves.

The operator oracle compares plain tables, so descriptions and fallbacks
are pinned here: a column moved as it is keeps its source's dtype and
description, and a column the operator makes has no description."""

import pytest

from adprep.operators import execute_operator, parse_operator_call
from adprep.tables import INT, LIST, REAL, TEXT, ColumnSpec, Schema, Table

ID = ("id", INT, "row id")
TAGS = ("tags", LIST, "tag list")
EMAIL = ("email", TEXT, "address")
INC_1 = ("inc_1", INT, "first income")
INC_2 = ("inc_2", INT, "second income")

TAG_CELLS = [("a", "b"), (), None]


def table(name, columns, rows, description=None):
    """A checked table from (name, dtype, description) column triples."""
    return Table(Schema(name, tuple(ColumnSpec(*c) for c in columns), description), tuple(rows))


def source():
    return table(
        "t", [ID, TAGS, EMAIL, INC_1, INC_2],
        [(1, TAG_CELLS[0], "u@h", 10, 20), (2, TAG_CELLS[1], "v@g", 30, None),
         (3, TAG_CELLS[2], "w@h", 50, 60)],
        description="people",
    )


def other():
    """t's columns in another order, with other descriptions and an int
    column that is real here."""
    return table(
        "u", [("inc_2", INT, "x"), ("inc_1", REAL, "y"), ("email", TEXT, None),
              ("tags", LIST, None), ("id", INT, None)],
        [(7, 8.5, "w@k", ("c",), 4)],
        description="others",
    )


def run(call, state):
    return execute_operator(parse_operator_call(call), state)


def columns(t):
    return [(c.name, c.dtype, c.description) for c in t.schema.columns]


@pytest.mark.parametrize("call, out_name, expected, description", [
    ('SplitColumn("t", "email", ["user", "host"], "split(col(\\"email\\"), \\"@\\")")', "t",
     [ID, TAGS, ("user", TEXT, None), ("host", TEXT, None), INC_1, INC_2], "people"),
    ('GroupBy("t", ["tags"], {"inc_1": "sum", "id": "avg", "email": "count"})', "t",
     [TAGS, ("inc_1_sum", INT, None), ("id_avg", REAL, None), ("email_count", INT, None)],
     "people"),
    ('CalculateStatistic("t", "avg", "col(\\"inc_1\\")")', "t", [("avg", REAL, None)], "people"),
    ('Pivot("t", ["id"], "email", "inc_1", "sum")', "t_pivot",
     [ID, ("u@h", INT, None), ("v@g", INT, None), ("w@h", INT, None)], None),
    ('Stack("t", ["id", "tags"], ["inc_1", "inc_2"])', "t_stack",
     [ID, TAGS, ("variable", TEXT, None), ("value", INT, None)], None),
    ('WideToLong("t", ["inc"], ["id", "tags"], "year")', "t_widetolong",
     [ID, TAGS, ("year", TEXT, None), ("inc", INT, None)], None),
    ('Explode("t", "tags")', "t_explode",
     [ID, ("tags", TEXT, "tag list"), EMAIL, INC_1, INC_2], "people"),
    ('Union(["t", "u"], "all")', "t_u_union",
     [ID, TAGS, EMAIL, ("inc_1", REAL, "first income"), INC_2], None),
    ('Append("t", "u")', "t", [ID, TAGS, EMAIL, ("inc_1", REAL, "first income"), INC_2], "people"),
], ids=["SplitColumn", "GroupBy", "CalculateStatistic", "Pivot", "Stack", "WideToLong",
        "Explode", "Union", "Append"])
def test_moved_columns_keep_their_spec_and_new_ones_have_no_description(
    call, out_name, expected, description
):
    out = run(call, {"t": source(), "u": other()})[out_name]
    assert columns(out) == expected
    assert out.schema.description == description


@pytest.mark.parametrize("call, expected", [
    ('GroupBy("e", ["k"], {"v": "count", "w": "avg"})',
     [("k", LIST, "key"), ("v_count", INT, None), ("w_avg", REAL, None)]),
    ('Stack("e", ["k"], ["w"])',
     [("k", LIST, "key"), ("variable", TEXT, None), ("value", TEXT, None)]),
    ('SplitColumn("e", "v", ["a", "b"], "split(col(\\"v\\"), \\",\\")")',
     [("k", LIST, "key"), ("a", TEXT, None), ("b", TEXT, None), ("w", INT, None)]),
    ('Pivot("e", ["k"], "v", "w", "sum")', [("k", LIST, "key")]),
    ('WideToLong("e", ["w"], ["k"], "j")',
     [("k", LIST, "key"), ("j", TEXT, None), ("w", TEXT, None)]),
    ('Explode("e", "k")', [("k", TEXT, "key"), ("v", TEXT, None), ("w", INT, None)]),
    ('Union(["e", "e"], "all")', [("k", LIST, "key"), ("v", TEXT, None), ("w", INT, None)]),
    ('Append("e", "e")', [("k", LIST, "key"), ("v", TEXT, None), ("w", INT, None)]),
])
def test_an_all_null_column_takes_the_fallback(call, expected):
    # no rows, so every column is all-null: a moved column keeps its source
    # dtype, count is int, avg real, and Stack's value text
    empty = table("e", [("k", LIST, "key"), ("v", TEXT, None), ("w", INT, None)], [])
    out = next(iter(run(call, {"e": empty}).values()))
    assert columns(out) == expected and out.rows == ()


def test_a_sum_over_no_rows_is_one_int_row():
    empty = table("e", [("k", LIST, "key"), ("w", INT, None)], [], description="none")
    out = run('CalculateStatistic("e", "sum", "col(\\"w\\")")', {"e": empty})["e"]
    assert columns(out) == [("sum", INT, None)] and out.schema.description == "none"
    assert out.rows == ((0,),)


def test_explode_of_empty_lists_is_a_text_column_of_nulls():
    t = table("t", [ID, TAGS], [(1, ()), (2, None)])
    out = run('Explode("t", "tags")', {"t": t})["t_explode"]
    assert columns(out) == [ID, ("tags", TEXT, "tag list")]
    assert out.rows == ((1, None), (2, None))


@pytest.mark.parametrize("call, out_name, expected", [
    ('GroupBy("t", ["tags"], {"id": "count"})', "t", TAG_CELLS),
    ('Stack("t", ["tags"], ["inc_1", "inc_2"])', "t_stack",
     [cell for cell in TAG_CELLS for _ in range(2)]),
    ('Union(["t", "u"], "all")', "t_u_union", [*TAG_CELLS, ("c",)]),
], ids=["GroupBy", "Stack", "Union"])
def test_a_moved_list_column_keeps_equal_tuples(call, out_name, expected):
    out = run(call, {"t": source(), "u": other()})[out_name]
    cells = out.column("tags")
    assert list(cells) == expected
    assert all(c is None or type(c) is tuple for c in cells)
