"""CastType and the DSL casts share one rule, expr.cast_cell.

Each caller wraps a failed cast in its own error: the texts below are
pinned, so moving the rule between modules cannot change what a policy
reads. And over every edge cell of the column-pass pools, ValueTransform
with to_int / to_real / to_text and CastType to the same dtype give the
same cells, or both fail.
"""

from __future__ import annotations

import pytest

from adprep.expr import parse_expr
from adprep.operators import ExecError, execute_operator, make_operator
from adprep.tables import INT, LIST, REAL, TEXT, make_table
from test_column_passes import POOLS

OVERFLOW = "99999999999999999999"


def _run(op_kind, dtype, value, arg):
    """The operator over a one-column table `t.c` holding `value`: its
    column c's dtype and cells, or the ExecError's message and detail."""
    t = make_table("t", [("c", dtype)], [(value,)])
    op = make_operator(op_kind, "t", "c", arg)
    try:
        out = execute_operator(op, {"t": t})["t"]
    except ExecError as exc:
        return ("error", exc.message, exc.detail)
    return ("table", out.schema.columns[0].dtype, [(v, type(v)) for (v,) in out.rows])


def _to(dtype):
    return parse_expr(f'to_{dtype}(col("c"))')


@pytest.mark.parametrize("fn, dtype, value, message", [
    ("to_int", TEXT, "abc", "row 0: cannot cast 'abc' to int in 'to_int(col(\"c\"))'"),
    # int() reads the text; past 64 bits it still does not cast
    ("to_int", TEXT, OVERFLOW, f"row 0: cannot cast '{OVERFLOW}' to int in 'to_int(col(\"c\"))'"),
    ("to_int", REAL, 1e300, "row 0: integer overflow in 'to_int(col(\"c\"))'"),
    ("to_real", TEXT, "inf", "row 0: cannot cast 'inf' to real in 'to_real(col(\"c\"))'"),
    ("to_text", LIST, (1, 2), "row 0: to_text() cannot take a list in 'to_text(col(\"c\"))'"),
])
def test_a_failed_dsl_cast_names_the_call(fn, dtype, value, message):
    call = f'{fn}(col("c"))'
    assert _run("ValueTransform", dtype, value, parse_expr(call)) == ("error", message, call)


@pytest.mark.parametrize("dtype, value, target, message, detail", [
    (TEXT, "abc", INT, "row 0: cannot cast 'abc' to int", "abc"),
    (TEXT, OVERFLOW, INT, "column 'c': integer out of 64-bit range", "c"),
    (REAL, 1e300, INT, "column 'c': integer out of 64-bit range", "c"),
    (LIST, (1, 2), TEXT, "row 0: cannot cast '[1, 2]' to text", "[1, 2]"),
])
def test_a_failed_cast_type_names_the_cell_or_column(dtype, value, target, message, detail):
    assert _run("CastType", dtype, value, target) == ("error", message, detail)


@pytest.mark.parametrize("target", [INT, REAL, TEXT])
def test_dsl_cast_and_cast_type_agree_on_every_edge_cell(target):
    for source, values in POOLS.items():
        for v in values:
            by_dsl = _run("ValueTransform", source, v, _to(target))
            by_cast = _run("CastType", source, v, target)
            assert by_dsl[0] == by_cast[0], (source, v)
            if by_dsl[0] == "table":
                assert by_dsl == by_cast, (source, v)
