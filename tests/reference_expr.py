"""The recursive tree walker that `adprep.expr.compile_expr` replaced, kept
as a reference, `eval_expr` over one row binding, the elementwise cell
equality, and the column-reference helper only tests use.

`walk_expr` evaluates an expression against a name -> cell binding the way
expressions were evaluated before they were compiled: one recursive call per
node, with the node kind found by an isinstance chain. The value-level
bodies (`_arith`, `_compare`, the strict functions) are the package's own;
what the walker checks is the wiring around them: null propagation, the
order operands run in, lazy branches and column lookup. The differential
tests in test_expr.py hold the compiler to it case by case. Its `==` and
`!=` compare with `cells_equal`, written out case by case, where the package
compares `tables.cell_hash_key`s, so the two equalities check each other.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from adprep.expr import (
    Binary,
    Call,
    ColRef,
    Expr,
    Lit,
    Unary,
    _STRICT_FUNCTIONS,
    _arith,
    _check_int,
    _compare,
    _fail,
    _is_number,
    _unknown_function,
    compile_expr,
)
from adprep.tables import Cell


def cells_equal(a: Cell, b: Cell) -> bool:
    """Exact cell equality; ints equal int-valued reals, bools match only bools."""
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(cells_equal(x, y) for x, y in zip(a, b))
    return False


def eval_expr(e: Expr, row: Mapping[str, Cell]) -> Cell:
    """Evaluate an expression against one row binding: compile_expr over
    the binding's names, applied to its cells. Pure."""
    return compile_expr(e, list(row))(tuple(row.values()))


def walk_expr(e: Expr, row: Mapping[str, Cell]) -> Cell:
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, ColRef):
        if e.name not in row:
            raise _fail(f"unknown column {e.name!r}", e)
        return row[e.name]
    if isinstance(e, Unary):
        v = walk_expr(e.operand, row)
        if v is None:
            return None
        if e.op == "-":
            if not _is_number(v):
                raise _fail("unary - needs a numeric operand", e)
            if isinstance(v, int):
                return _check_int(-v, e)
            return -v
        if not isinstance(v, bool):
            raise _fail("not needs a boolean operand", e)
        return not v
    if isinstance(e, Binary):
        left = walk_expr(e.left, row)
        right = walk_expr(e.right, row)
        if e.op == "==":
            if left is None or right is None:
                return None
            return cells_equal(left, right)
        if e.op == "!=":
            if left is None or right is None:
                return None
            return not cells_equal(left, right)
        if left is None or right is None:
            return None
        if e.op in ("and", "or"):
            if not isinstance(left, bool) or not isinstance(right, bool):
                raise _fail(f"{e.op} needs boolean operands", e)
            return (left and right) if e.op == "and" else (left or right)
        if e.op in ("<", "<=", ">", ">="):
            return _compare(e.op, left, right, e)
        return _arith(e.op, left, right, e)
    if isinstance(e, Call):
        return _walk_call(e, row)
    raise TypeError(f"not an expression node: {e!r}")


def _walk_call(e: Call, row: Mapping[str, Cell]) -> Cell:
    if e.name == "if":
        cond = walk_expr(e.args[0], row)
        if cond is not None and not isinstance(cond, bool):
            raise _fail("if() condition must be boolean or null", e)
        # a Null condition selects the else branch; branches are lazy
        return walk_expr(e.args[1] if cond is True else e.args[2], row)
    if e.name == "coalesce":
        for arg in e.args:
            v = walk_expr(arg, row)
            if v is not None:
                return v
        return None
    if e.name == "is_null":
        return walk_expr(e.args[0], row) is None
    args = [walk_expr(a, row) for a in e.args]
    if any(a is None for a in args):
        return None
    return _STRICT_FUNCTIONS.get(e.name, _unknown_function)(e, *args)


def column_refs(e: Expr) -> set[str]:
    """All column names referenced by an expression."""
    if isinstance(e, ColRef):
        return {e.name}
    if isinstance(e, Unary):
        return column_refs(e.operand)
    if isinstance(e, Binary):
        return column_refs(e.left) | column_refs(e.right)
    if isinstance(e, Call):
        out: set[str] = set()
        for a in e.args:
            out |= column_refs(a)
        return out
    return set()


def expr_nodes(e: Expr) -> Iterator[Expr]:
    """Every node of an expression, the root first."""
    yield e
    if isinstance(e, Unary):
        yield from expr_nodes(e.operand)
    elif isinstance(e, Binary):
        yield from expr_nodes(e.left)
        yield from expr_nodes(e.right)
    elif isinstance(e, Call):
        for a in e.args:
            yield from expr_nodes(a)
