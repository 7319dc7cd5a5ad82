"""Tabular operator registry, call syntax, and executor.

Thirty operators across eight categories transform a table set (a dict of
name -> Table). Calls are written positionally, one per line in pipeline
text, e.g.:

    Deduplicate("movies", ["id"], "first")
    Join("movies", "directors", ["director_id"], "inner")

Strings may be double- or single-quoted; bare identifiers are accepted
wherever text is expected, so unquoted table and column names also parse.
A scalar is accepted where a list is expected and becomes a one-element
list. `func` parameters carry expression DSL source (see expr); ExeCode's
`func` is raw script text for the pluggable backend.

Execution is pure: a handler returns a new table set in which only the
operator's own tables changed. Input tables named by the operator are
consumed, i.e. replaced by the output table (which keeps the input name for
single-table operators and takes a derived name for Join, Union, the
reshaping operators, and ExeCode). Tables not named by the operator are
carried over by reference. Any failure raises ExecError and leaves the
input state untouched.
"""

from __future__ import annotations

import math
import re
import subprocess
import tempfile
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Any, Callable, Collection, Protocol

from .expr import (
    MAX_DEPTH,
    EvalError,
    Expr,
    ExprParseError,
    eval_expr,
    parse_expr,
    print_expr,
    _string_literal as _quote,
)
from .tables import (
    BOOL,
    INT,
    REAL,
    TEXT,
    Cell,
    ColumnSpec,
    Schema,
    Table,
    TableError,
    cell_hash_key,
    cell_sort_key,
    coerce_cells,
    infer_column_dtype,
    render_cell,
    render_scalar,
    table_from_csv_text,
    table_to_csv_text,
    validate_cell,
)

TableSet = dict[str, Table]

AGG_FNS = ("sum", "avg", "min", "max", "count", "count_distinct", "first", "last", "concat")

# date input patterns tried in order; patterns with %Y only accept four-digit years
DATE_PATTERNS = (
    "%Y-%m-%d",
    "%Y-%m-%dT%H:%M:%S",
    "%Y-%m-%d %H:%M:%S",
    "%Y/%m/%d",
    "%m/%d/%Y",
    "%d-%m-%Y",
    "%m/%d/%y",
    "%B %d, %Y",
    "%d %B %Y",
    "%b %d, %Y",
    "%d %b %Y",
)

# regex per strptime directive, each accepting at least what CPython's
# strptime accepts there (its %d also takes a space-padded day, " 5")
_DATE_SHAPE_PARTS = {
    "%Y": r"\d{4}", "%y": r"\d\d", "%d": r" ?\d{1,2}", "%m": r"\d{1,2}",
    "%H": r"\d{1,2}", "%M": r"\d{1,2}", "%S": r"\d{1,2}", "%B": ".+?", "%b": ".+?",
}


def _date_shape(pattern: str) -> re.Pattern:
    """A regex that fullmatches every string strptime accepts for the pattern.

    It may accept more (strptime still decides); it only lets a cell skip
    patterns that cannot parse it, without paying for a raised ValueError.
    strptime matches case-insensitively and reads a whitespace run as \\s+.
    """
    parts = []
    for token in re.findall(r"%.|\s+|.", pattern):
        if token[0] == "%":
            parts.append(_DATE_SHAPE_PARTS[token])  # a new directive needs an entry above
        elif token.isspace():
            parts.append(r"\s+")
        else:
            parts.append(re.escape(token))
    return re.compile("".join(parts), re.IGNORECASE)


_DATE_SHAPES = tuple((pattern, _date_shape(pattern)) for pattern in DATE_PATTERNS)


class OpParseError(ValueError):
    """Malformed operator call text."""


class ExecError(Exception):
    """Operator execution failure. The input state is left unchanged.

    `detail` holds the most specific offending token (a missing column name,
    an unparseable cell, ...) so feedback can point at it directly.
    """

    def __init__(self, op: "OperatorInstance | None", message: str, detail: str = ""):
        self.op = op
        self.message = message
        self.detail = detail
        kind = op.kind if op is not None else "?"
        suffix = f" ({detail})" if detail and detail not in message else ""
        super().__init__(f"{kind}: {message}{suffix}")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# parameter kinds drive parsing, serialization, and which values count as
# table/column names for plan-consistency checks
P_TABLE = "table"
P_TABLE_LIST = "table_list"
P_COLUMN = "column"
P_COLUMN_LIST = "column_list"
P_NEW_COLUMN = "new_column"
P_NEW_COLUMN_LIST = "new_column_list"
P_RENAME_MAP = "rename_map"
P_AGG_MAP = "agg_map"
P_EXPR = "expr"
P_CODE = "code"
P_TEXT = "text"
P_NAME_LIST = "name_list"  # name-bearing text list (WideToLong stubs)
P_ENUM = "enum"
P_INT = "int"
P_ASCENDING = "ascending"  # bool or list of bools

_NAME_BEARING = {
    P_TABLE, P_TABLE_LIST, P_COLUMN, P_COLUMN_LIST,
    P_NEW_COLUMN, P_NEW_COLUMN_LIST, P_RENAME_MAP, P_NAME_LIST,
}


@dataclass(frozen=True)
class Param:
    name: str
    kind: str
    options: tuple[str, ...] = ()


@dataclass(frozen=True)
class OperatorSig:
    kind: str
    category: str
    params: tuple[Param, ...]
    doc: str


def _sig(kind: str, category: str, doc: str, *params: Param) -> OperatorSig:
    return OperatorSig(kind, category, tuple(params), doc)


REGISTRY: dict[str, OperatorSig] = {
    s.kind: s
    for s in [
        # cleaning
        _sig("DropNA", "cleaning",
             "drop rows with nulls in the subset columns ([] means all columns); how is any|all",
             Param("table", P_TABLE), Param("subset", P_COLUMN_LIST),
             Param("how", P_ENUM, ("any", "all"))),
        _sig("MissingValueImputation", "cleaning",
             "fill nulls in a column with its mean, median, or mode",
             Param("table", P_TABLE), Param("column", P_COLUMN),
             Param("mode", P_ENUM, ("mean", "median", "mode"))),
        _sig("Deduplicate", "cleaning",
             "drop rows whose subset columns repeat ([] means all columns); keep is first|last",
             Param("table", P_TABLE), Param("subset", P_COLUMN_LIST),
             Param("keep", P_ENUM, ("first", "last"))),
        _sig("ErrorDetection", "cleaning",
             "evaluate a boolean func per row into a new <column>_invalid flag (true = invalid)",
             Param("table", P_TABLE), Param("column", P_COLUMN), Param("func", P_EXPR)),
        _sig("OutlierDetection", "cleaning",
             "flag or remove rows more than 3 standard deviations from the column mean",
             Param("table", P_TABLE), Param("column", P_COLUMN),
             Param("action", P_ENUM, ("remove", "flag"))),
        # normalization
        _sig("ValueTransform", "normalization",
             "rewrite a column by evaluating func per row; nulls pass through untouched",
             Param("table", P_TABLE), Param("column", P_COLUMN), Param("func", P_EXPR)),
        _sig("StandardizeDatetime", "normalization",
             "parse heterogeneous date text in a column and render it with the given format",
             Param("table", P_TABLE), Param("column", P_COLUMN), Param("format", P_TEXT)),
        _sig("CastType", "normalization",
             "cast every non-null cell of a column to int|real|text|bool; any failure aborts",
             Param("table", P_TABLE), Param("column", P_COLUMN),
             Param("dtype", P_ENUM, (INT, REAL, TEXT, BOOL))),
        # schema editing
        _sig("RenameColumn", "schema",
             "rename columns via an {old: new} map",
             Param("table", P_TABLE), Param("rename_map", P_RENAME_MAP)),
        _sig("AddNewColumn", "schema",
             "append a column computed by func",
             Param("table", P_TABLE), Param("name", P_NEW_COLUMN), Param("func", P_EXPR)),
        _sig("DropColumn", "schema",
             "remove the listed columns",
             Param("table", P_TABLE), Param("columns", P_COLUMN_LIST)),
        _sig("SplitColumn", "schema",
             "func must yield a list per row; elements fill the target columns and the source is dropped",
             Param("table", P_TABLE), Param("source", P_COLUMN),
             Param("target", P_NEW_COLUMN_LIST), Param("func", P_EXPR)),
        _sig("Concatenate", "schema",
             "combine the listed columns via func into a new target column, keeping the sources",
             Param("table", P_TABLE), Param("columns", P_COLUMN_LIST),
             Param("target", P_NEW_COLUMN), Param("func", P_EXPR)),
        _sig("SelectColumn", "schema",
             "keep only the listed columns, in their original order",
             Param("table", P_TABLE), Param("columns", P_COLUMN_LIST)),
        _sig("Subtitle", "schema",
             "append a constant text column",
             Param("table", P_TABLE), Param("title", P_TEXT), Param("target_col", P_NEW_COLUMN)),
        # row selection
        _sig("Filter", "rows",
             "keep rows where func evaluates to boolean true; null or false drops the row",
             Param("table", P_TABLE), Param("func", P_EXPR)),
        _sig("Sort", "rows",
             "stable multi-key sort; ascending is one bool or one per key; nulls sort first ascending",
             Param("table", P_TABLE), Param("by", P_COLUMN_LIST), Param("ascending", P_ASCENDING)),
        _sig("TopK", "rows",
             "keep the first k rows in stored order",
             Param("table", P_TABLE), Param("k", P_INT)),
        # aggregation
        _sig("GroupBy", "aggregation",
             "group by key columns; agg maps column -> sum|avg|min|max|count|count_distinct|first|last|concat",
             Param("table", P_TABLE), Param("by", P_COLUMN_LIST), Param("agg", P_AGG_MAP)),
        _sig("Count", "aggregation",
             "reduce the table to a 1x1 count of rows",
             Param("table", P_TABLE)),
        _sig("CalculateStatistic", "aggregation",
             "fold func over all rows with sum|avg|min|max into a 1x1 table whose column is the stat name",
             Param("table", P_TABLE), Param("stat", P_ENUM, ("sum", "avg", "min", "max")),
             Param("func", P_EXPR)),
        # combination
        _sig("Join", "combination",
             "join two tables on key columns; how is inner|left|right|outer; output <left>_<right>_join",
             Param("left", P_TABLE), Param("right", P_TABLE),
             Param("on", P_COLUMN_LIST), Param("how", P_ENUM, ("inner", "left", "right", "outer"))),
        _sig("Union", "combination",
             "stack tables with identical column-name sets; how is all|distinct",
             Param("tables", P_TABLE_LIST), Param("how", P_ENUM, ("all", "distinct"))),
        _sig("Append", "combination",
             "append another table's rows below this one; the result keeps this table's name",
             Param("table", P_TABLE), Param("other", P_TABLE)),
        # reshaping
        _sig("Pivot", "reshaping",
             "one row per index tuple; the columns column's values become new columns; "
             "aggfunc adds first_strict, which errors on duplicate pairs",
             Param("table", P_TABLE), Param("index", P_COLUMN_LIST),
             Param("columns", P_COLUMN), Param("values", P_COLUMN),
             Param("aggfunc", P_ENUM, AGG_FNS + ("first_strict",))),
        _sig("Stack", "reshaping",
             "melt value_vars into (variable, value) rows keyed by id_vars",
             Param("table", P_TABLE), Param("id_vars", P_COLUMN_LIST),
             Param("value_vars", P_COLUMN_LIST)),
        _sig("WideToLong", "reshaping",
             "collapse <stub><sep?><suffix> columns into stub columns keyed by a new column j",
             Param("table", P_TABLE), Param("stubnames", P_NAME_LIST),
             Param("i", P_COLUMN_LIST), Param("j", P_NEW_COLUMN)),
        _sig("Transpose", "reshaping",
             "turn columns into rows; output columns are 'column', r0, r1, ... with text cells",
             Param("table", P_TABLE)),
        _sig("Explode", "reshaping",
             "expand a list column to one row per element; an empty list yields one null row",
             Param("table", P_TABLE), Param("column", P_COLUMN)),
        # program synthesis
        _sig("ExeCode", "program",
             "run func as a script over the named tables via the configured backend (off by default)",
             Param("tables", P_TABLE_LIST), Param("target", P_TEXT), Param("func", P_CODE)),
    ]
}


@dataclass(frozen=True)
class OperatorInstance:
    kind: str
    params: dict[str, Any]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return serialize_operator_call(self)


def registry_help() -> str:
    """One line per operator, grouped by category; used in the system preamble."""
    lines = []
    current = None
    for sig in REGISTRY.values():
        if sig.category != current:
            current = sig.category
            lines.append(f"[{current}]")
        args = ", ".join(p.name for p in sig.params)
        lines.append(f"  {sig.kind}({args}): {sig.doc}")
    return "\n".join(lines)


def name_bearing_values(op: OperatorInstance) -> list[str]:
    """Table and column names mentioned by an operator's parameters."""
    sig = REGISTRY[op.kind]
    out: list[str] = []
    for p in sig.params:
        v = op.params[p.name]
        if p.kind in (P_TABLE, P_COLUMN, P_NEW_COLUMN):
            out.append(v)
        elif p.kind in (P_TABLE_LIST, P_COLUMN_LIST, P_NEW_COLUMN_LIST, P_NAME_LIST):
            out.extend(v)
        elif p.kind == P_RENAME_MAP:
            out.extend(v.keys())
            out.extend(v.values())
        elif p.kind == P_AGG_MAP:
            out.extend(v.keys())
    return out


# ---------------------------------------------------------------------------
# call parsing
# ---------------------------------------------------------------------------

_PUNCT = {
    "(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK",
    "{": "LBRACE", "}": "RBRACE", ",": "COMMA", ":": "COLON",
}
_OP_ESCAPES = {"\\": "\\", '"': '"', "'": "'", "n": "\n", "t": "\t", "r": "\r"}


def _scan_call(src: str) -> list[tuple[str, Any]]:
    tokens: list[tuple[str, Any]] = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((_PUNCT[ch], ch))
            i += 1
            continue
        if ch in "\"'":
            quote = ch
            i += 1
            out = []
            while i < n and src[i] != quote:
                if src[i] == "\\":
                    if i + 1 >= n or src[i + 1] not in _OP_ESCAPES:
                        raise OpParseError(f"bad escape sequence at position {i}")
                    out.append(_OP_ESCAPES[src[i + 1]])
                    i += 2
                else:
                    out.append(src[i])
                    i += 1
            if i >= n:
                raise OpParseError("unterminated string literal")
            tokens.append(("STRING", "".join(out)))
            i += 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and (src[i + 1].isdigit() or src[i + 1] == ".")) \
                or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            start = i
            if ch == "-":
                i += 1
            while i < n and (src[i].isdigit() or src[i] in ".eE" or (src[i] in "+-" and src[i - 1] in "eE")):
                i += 1
            text = src[start:i]
            try:
                if any(c in text for c in ".eE"):
                    tokens.append(("REAL", float(text)))
                else:
                    tokens.append(("INT", int(text)))
            except ValueError:
                raise OpParseError(f"bad number literal {text!r}") from None
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (src[i].isalnum() or src[i] == "_"):
                i += 1
            tokens.append(("IDENT", src[start:i]))
            continue
        raise OpParseError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("EOF", None))
    return tokens


class _CallParser:
    def __init__(self, src: str):
        self.tokens = _scan_call(src)
        self.i = 0

    @property
    def cur(self) -> tuple[str, Any]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, Any]:
        tok = self.cur
        self.i += 1
        return tok

    def expect(self, kind: str) -> Any:
        k, v = self.cur
        if k != kind:
            raise OpParseError(f"expected {kind}, found {v!r}")
        return self.advance()[1]

    def value(self, depth: int = 0) -> Any:
        k, v = self.cur
        if k in ("STRING", "INT", "REAL"):
            self.advance()
            return v
        if k == "IDENT":
            self.advance()
            if v == "true":
                return True
            if v == "false":
                return False
            if v == "null":
                return None
            return v  # bare identifier reads as text
        if k == "LBRACK":
            if depth >= MAX_DEPTH:
                raise OpParseError(f"lists nest deeper than {MAX_DEPTH} levels")
            self.advance()
            items = []
            if self.cur[0] != "RBRACK":
                items.append(self.value(depth + 1))
                while self.cur[0] == "COMMA":
                    self.advance()
                    items.append(self.value(depth + 1))
            self.expect("RBRACK")
            return items
        if k == "LBRACE":
            self.advance()
            entries = {}
            if self.cur[0] != "RBRACE":
                while True:
                    key = self._map_text("map key")
                    self.expect("COLON")
                    entries[key] = self._map_text("map value")
                    if self.cur[0] != "COMMA":
                        break
                    self.advance()
            self.expect("RBRACE")
            return entries
        raise OpParseError(f"expected a value, found {v!r}")

    def _map_text(self, what: str) -> str:
        k, v = self.cur
        if k in ("STRING", "IDENT"):
            self.advance()
            return v
        raise OpParseError(f"expected text for {what}, found {v!r}")


def _coerce_text(v: Any, p: Param, kind: str) -> str:
    if not isinstance(v, str):
        raise OpParseError(f"parameter {p.name!r} expects {kind}, got {v!r}")
    if not v:
        raise OpParseError(f"parameter {p.name!r} must be non-empty")
    return v


def _coerce_param(v: Any, p: Param, op_kind: str) -> Any:
    if p.kind in (P_TABLE, P_COLUMN, P_NEW_COLUMN):
        return _coerce_text(v, p, "a name")
    if p.kind in (P_TEXT, P_CODE):
        if not isinstance(v, str):
            raise OpParseError(f"parameter {p.name!r} expects text, got {v!r}")
        return v
    if p.kind in (P_TABLE_LIST, P_COLUMN_LIST, P_NEW_COLUMN_LIST, P_NAME_LIST):
        if isinstance(v, str):
            v = [v]
        if not isinstance(v, list):
            raise OpParseError(f"parameter {p.name!r} expects a list of names, got {v!r}")
        out = [_coerce_text(x, p, "names") for x in v]
        if p.kind != P_COLUMN_LIST and not out:
            raise OpParseError(f"parameter {p.name!r} must not be empty")
        return out
    if p.kind == P_RENAME_MAP:
        if not isinstance(v, dict):
            raise OpParseError(f"parameter {p.name!r} expects a map, got {v!r}")
        return dict(v)
    if p.kind == P_AGG_MAP:
        if not isinstance(v, dict):
            raise OpParseError(f"parameter {p.name!r} expects a map, got {v!r}")
        for col, fn in v.items():
            if fn not in AGG_FNS:
                raise OpParseError(
                    f"unknown aggregate {fn!r} for column {col!r}; choose from {', '.join(AGG_FNS)}"
                )
        return dict(v)
    if p.kind == P_EXPR:
        if isinstance(v, Expr):
            return v
        if not isinstance(v, str):
            raise OpParseError(f"parameter {p.name!r} expects DSL text, got {v!r}")
        try:
            return parse_expr(v)
        except ExprParseError as exc:
            raise OpParseError(f"{op_kind} {p.name}: embedded DSL error: {exc}") from None
    if p.kind == P_ENUM:
        if not isinstance(v, str) or v not in p.options:
            raise OpParseError(
                f"parameter {p.name!r} expects one of {', '.join(p.options)}, got {v!r}"
            )
        return v
    if p.kind == P_INT:
        if isinstance(v, bool) or not isinstance(v, int):
            raise OpParseError(f"parameter {p.name!r} expects an integer, got {v!r}")
        return v
    if p.kind == P_ASCENDING:
        if isinstance(v, bool):
            return v
        if isinstance(v, list) and v and all(isinstance(x, bool) for x in v):
            return v
        raise OpParseError(f"parameter {p.name!r} expects a bool or list of bools, got {v!r}")
    raise AssertionError(f"unhandled param kind {p.kind}")


def make_operator(kind: str, *args: Any) -> OperatorInstance:
    """Build an operator instance from positional parameter values."""
    sig = REGISTRY.get(kind)
    if sig is None:
        raise OpParseError(f"unknown operator {kind!r}")
    if len(args) != len(sig.params):
        raise OpParseError(
            f"{kind} takes {len(sig.params)} parameters "
            f"({', '.join(p.name for p in sig.params)}), got {len(args)}"
        )
    params = {
        p.name: _coerce_param(v, p, kind) for p, v in zip(sig.params, args)
    }
    return OperatorInstance(kind, params)


def parse_operator_call(src: str) -> OperatorInstance:
    """Parse one operator call like Deduplicate("movies", ["id"], "first")."""
    parser = _CallParser(src)
    k, v = parser.cur
    if k != "IDENT":
        raise OpParseError(f"expected an operator name, found {v!r}")
    parser.advance()
    if v not in REGISTRY:
        raise OpParseError(f"unknown operator {v!r}")
    parser.expect("LPAREN")
    args = []
    if parser.cur[0] != "RPAREN":
        args.append(parser.value())
        while parser.cur[0] == "COMMA":
            parser.advance()
            args.append(parser.value())
    parser.expect("RPAREN")
    if parser.cur[0] != "EOF":
        raise OpParseError(f"unexpected trailing input {parser.cur[1]!r}")
    return make_operator(v, *args)


def _render_value(v: Any, p: Param) -> str:
    if p.kind == P_EXPR:
        return _quote(print_expr(v))
    if p.kind in (P_TABLE, P_COLUMN, P_NEW_COLUMN, P_TEXT, P_CODE, P_ENUM):
        return _quote(v)
    if p.kind in (P_TABLE_LIST, P_COLUMN_LIST, P_NEW_COLUMN_LIST, P_NAME_LIST):
        return "[" + ", ".join(_quote(x) for x in v) + "]"
    if p.kind in (P_RENAME_MAP, P_AGG_MAP):
        return "{" + ", ".join(f"{_quote(k)}: {_quote(val)}" for k, val in v.items()) + "}"
    if p.kind == P_INT:
        return str(v)
    if p.kind == P_ASCENDING:
        if isinstance(v, bool):
            return "true" if v else "false"
        return "[" + ", ".join("true" if x else "false" for x in v) + "]"
    raise AssertionError(f"unhandled param kind {p.kind}")


def serialize_operator_call(op: OperatorInstance) -> str:
    """Canonical call text; parse_operator_call round-trips it."""
    sig = REGISTRY[op.kind]
    rendered = ", ".join(_render_value(op.params[p.name], p) for p in sig.params)
    return f"{op.kind}({rendered})"


# ---------------------------------------------------------------------------
# execution helpers
# ---------------------------------------------------------------------------

def _get_table(state: TableSet, name: str, op: OperatorInstance) -> Table:
    t = state.get(name)
    if t is None:
        raise ExecError(op, f"no table named {name!r}", detail=name)
    return t


def _col_index(t: Table, name: str, op: OperatorInstance) -> int:
    try:
        return t.column_index(name)
    except TableError:
        raise ExecError(op, f"table {t.name!r} has no column {name!r}", detail=name) from None


def _col_indexes(t: Table, names: list[str], op: OperatorInstance) -> list[int]:
    return [_col_index(t, n, op) for n in names]


def _with(state: TableSet, remove: list[str], add: list[Table]) -> TableSet:
    out = dict(state)
    for name in remove:
        out.pop(name, None)
    for t in add:
        out[t.name] = t
    return out


def _is_number(v: Cell) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _row_binding(t: Table, row: tuple) -> dict[str, Cell]:
    return dict(zip(t.column_names, row))


def _eval_cell(func: Expr, t: Table, row: tuple, r: int, op: OperatorInstance) -> Cell:
    try:
        return eval_expr(func, _row_binding(t, row))
    except EvalError as exc:
        raise ExecError(op, f"row {r}: {exc}", detail=exc.expr_text) from None


def _resolve_column(
    name: str, cells: list[Cell], op: OperatorInstance, fallback: str,
    *, computed: bool, dtype: str | None = None,
) -> tuple[str, list[Cell]]:
    """Dtype and cells of an output column: the dtype is inferred unless given,
    and ints in a real column become floats. Computed cells are also checked
    with validate_cell; moved cells already passed it. A bad cell raises
    ExecError naming the column."""
    try:
        if dtype is None:
            dtype = infer_column_dtype(cells, fallback)
            cells = coerce_cells(dtype, cells)
        if computed:
            where = f"column {name!r}"
            cells = [validate_cell(v, dtype, where) for v in cells]
    except TableError as exc:
        raise ExecError(op, str(exc), detail=name) from None
    return dtype, cells


def _rebuild_column(
    t: Table, idx: int, cells: list[Cell], op: OperatorInstance,
    fallback: str | None = None, dtype: str | None = None,
) -> Table:
    """Replace one column with computed cells, re-inferring its dtype unless given."""
    old = t.schema.columns[idx]
    dtype, cells = _resolve_column(
        old.name, cells, op, fallback or old.dtype, computed=True, dtype=dtype
    )
    cols = list(t.schema.columns)
    cols[idx] = ColumnSpec(old.name, dtype, old.description)
    rows = [row[:idx] + (cell,) + row[idx + 1:] for row, cell in zip(t.rows, cells)]
    return _build_table(t.name, cols, rows, t.schema.description)


def _append_column(
    t: Table, name: str, cells: list[Cell], op: OperatorInstance,
    fallback: str = TEXT, dtype: str | None = None,
) -> Table:
    if name in t.column_names:
        raise ExecError(op, f"column {name!r} already exists in table {t.name!r}", detail=name)
    dtype, cells = _resolve_column(name, cells, op, fallback, computed=True, dtype=dtype)
    cols = t.schema.columns + (ColumnSpec(name, dtype),)
    rows = [row + (cell,) for row, cell in zip(t.rows, cells)]
    return _build_table(t.name, cols, rows, t.schema.description)


def _subset_indexes(t: Table, subset: list[str], op: OperatorInstance) -> list[int]:
    """Column indexes for a subset parameter; an empty subset means all columns."""
    if not subset:
        return list(range(len(t.schema.columns)))
    return _col_indexes(t, subset, op)


def _build_table(
    name: str, cols: list[ColumnSpec], rows: list[tuple], description: str | None = None
) -> Table:
    """An operator's output table. Its cells are not checked again: each was
    moved from a checked table or, if computed, checked by _resolve_column."""
    return Table.trusted(Schema(name, tuple(cols), description), tuple(rows))


def _infer_output_columns(
    names: list[str],
    columns_cells: list[list[Cell]],
    fallbacks: list[str],
    op: OperatorInstance,
    descriptions: list[str | None] | None = None,
    computed: Collection[str] = (),
) -> tuple[list[ColumnSpec], list[tuple]]:
    """Output columns from per-column cells; the `computed` ones are checked."""
    descs = descriptions or [None] * len(names)
    specs = []
    fixed = []
    for name, cells, fb, desc in zip(names, columns_cells, fallbacks, descs):
        dtype, cells = _resolve_column(name, cells, op, fb, computed=name in computed)
        fixed.append(cells)
        specs.append(ColumnSpec(name, dtype, desc))
    return specs, list(zip(*fixed))


# ---------------------------------------------------------------------------
# cleaning
# ---------------------------------------------------------------------------

def _exec_dropna(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    idxs = _subset_indexes(t, p["subset"], op)
    if p["how"] == "any":
        rows = [r for r in t.rows if all(r[i] is not None for i in idxs)]
    else:
        rows = [r for r in t.rows if any(r[i] is not None for i in idxs)]
    return _with(state, [], [Table.trusted(t.schema, tuple(rows))])


def _exec_imputation(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    idx = _col_index(t, p["column"], op)
    cells = [row[idx] for row in t.rows]
    present = [c for c in cells if c is not None]
    if not present:
        raise ExecError(op, f"column {p['column']!r} has no non-null values", detail=p["column"])
    mode = p["mode"]
    if mode in ("mean", "median"):
        if not all(_is_number(c) for c in present):
            raise ExecError(op, f"{mode} needs a numeric column", detail=p["column"])
        if mode == "mean":
            fill = sum(present) / len(present)
            if not math.isfinite(fill):
                raise ExecError(op, "mean is not finite", detail=p["column"])
        else:
            # lower middle element on even counts
            ordered = sorted(present)
            fill = ordered[(len(ordered) - 1) // 2]
    else:
        counts: dict[Any, int] = {}
        rep: dict[Any, Cell] = {}
        for c in present:
            k = cell_hash_key(c)
            counts[k] = counts.get(k, 0) + 1
            rep.setdefault(k, c)
        best = max(counts.values())
        fill = min((rep[k] for k, n in counts.items() if n == best), key=cell_sort_key)
    new_cells = [fill if c is None else c for c in cells]
    return _with(state, [], [_rebuild_column(t, idx, new_cells, op)])


def _dedupe_rows(rows, key_idxs, keep):
    seen = set()
    source = rows if keep == "first" else list(reversed(rows))
    kept = []
    for row in source:
        k = tuple(cell_hash_key(row[i]) for i in key_idxs)
        if k in seen:
            continue
        seen.add(k)
        kept.append(row)
    return kept if keep == "first" else list(reversed(kept))


def _exec_deduplicate(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    idxs = _subset_indexes(t, p["subset"], op)
    rows = _dedupe_rows(list(t.rows), idxs, p["keep"])
    return _with(state, [], [Table.trusted(t.schema, tuple(rows))])


def _exec_error_detection(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    _col_index(t, p["column"], op)
    flags = []
    for r, row in enumerate(t.rows):
        v = _eval_cell(p["func"], t, row, r, op)
        if v is not None and not isinstance(v, bool):
            raise ExecError(op, f"row {r}: func must return boolean or null", detail=p["column"])
        flags.append(v)
    out = _append_column(t, f"{p['column']}_invalid", flags, op, dtype=BOOL)
    return _with(state, [], [out])


def _exec_outlier_detection(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    idx = _col_index(t, p["column"], op)
    if t.schema.columns[idx].dtype not in (INT, REAL):
        raise ExecError(op, "outlier detection needs a numeric column", detail=p["column"])
    present = [row[idx] for row in t.rows if row[idx] is not None]
    if present:
        mean = sum(present) / len(present)
        sd = math.sqrt(sum((x - mean) ** 2 for x in present) / len(present))
    else:
        mean, sd = 0.0, 0.0
    def is_outlier(v):
        return v is not None and abs(v - mean) > 3 * sd
    if p["action"] == "remove":
        rows = [row for row in t.rows if not is_outlier(row[idx])]
        return _with(state, [], [Table.trusted(t.schema, tuple(rows))])
    flags = [is_outlier(row[idx]) for row in t.rows]
    out = _append_column(t, f"{p['column']}_outlier", flags, op, dtype=BOOL)
    return _with(state, [], [out])


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _exec_value_transform(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    idx = _col_index(t, p["column"], op)
    cells = []
    for r, row in enumerate(t.rows):
        if row[idx] is None:
            cells.append(None)  # nulls pass through without evaluating func
        else:
            cells.append(_eval_cell(p["func"], t, row, r, op))
    return _with(state, [], [_rebuild_column(t, idx, cells, op)])


def _parse_any_date(text: str) -> datetime | None:
    for pattern, shape in _DATE_SHAPES:
        if shape.fullmatch(text) is None:
            continue  # strptime would raise here
        try:
            dt = datetime.strptime(text, pattern)
        except ValueError:
            continue
        if "%Y" in pattern and dt.year < 1000:
            continue  # a two-digit year matched a four-digit pattern
        return dt
    return None


def _exec_standardize_datetime(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    idx = _col_index(t, p["column"], op)
    cells = []
    for r, row in enumerate(t.rows):
        v = row[idx]
        if v is None:
            cells.append(None)
            continue
        if not isinstance(v, str):
            raise ExecError(op, f"row {r}: expected text, got {render_cell(v)!r}", detail=p["column"])
        dt = _parse_any_date(v)
        if dt is None:
            raise ExecError(op, f"row {r}: cannot parse date {v!r}", detail=v)
        cells.append(dt.strftime(p["format"]))
    return _with(state, [], [_rebuild_column(t, idx, cells, op, fallback=TEXT)])


def _cast_cell(v: Cell, dtype: str) -> Cell:
    if isinstance(v, tuple):
        raise ValueError("cannot cast a list cell")
    if dtype == INT:
        if isinstance(v, bool):
            return 1 if v else 0
        if isinstance(v, int):
            return v
        if isinstance(v, float):
            return int(v)  # truncates toward zero
        return int(v, 10)
    if dtype == REAL:
        if isinstance(v, bool):
            return 1.0 if v else 0.0
        if isinstance(v, (int, float)):
            return float(v)
        out = float(v)
        if not math.isfinite(out):
            raise ValueError("non-finite real")
        return out
    if dtype == TEXT:
        return render_scalar(v)
    # bool
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        if v in (0, 1):
            return bool(v)
        raise ValueError("only 0 and 1 cast to bool")
    if isinstance(v, str):
        low = v.lower()
        if low == "true" or v == "1":
            return True
        if low == "false" or v == "0":
            return False
        raise ValueError("not a boolean text")
    raise ValueError(f"cannot cast {type(v).__name__} to bool")


def _exec_cast_type(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    idx = _col_index(t, p["column"], op)
    dtype = p["dtype"]
    cells = []
    for r, row in enumerate(t.rows):
        v = row[idx]
        if v is None:
            cells.append(None)
            continue
        try:
            cells.append(_cast_cell(v, dtype))
        except (ValueError, TypeError):
            raise ExecError(
                op, f"row {r}: cannot cast {render_cell(v)!r} to {dtype}", detail=render_cell(v)
            ) from None
    return _with(state, [], [_rebuild_column(t, idx, cells, op, dtype=dtype)])


# ---------------------------------------------------------------------------
# schema editing
# ---------------------------------------------------------------------------

def _exec_rename_column(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    mapping = p["rename_map"]
    for old in mapping:
        _col_index(t, old, op)
    new_names = [mapping.get(c.name, c.name) for c in t.schema.columns]
    if len(set(new_names)) != len(new_names):
        dupes = sorted({n for n in new_names if new_names.count(n) > 1})
        raise ExecError(op, f"rename collides on {dupes}", detail=dupes[0])
    cols = [
        ColumnSpec(n, c.dtype, c.description)
        for n, c in zip(new_names, t.schema.columns)
    ]
    return _with(state, [], [_build_table(t.name, cols, list(t.rows), t.schema.description)])


def _exec_add_new_column(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    cells = [_eval_cell(p["func"], t, row, r, op) for r, row in enumerate(t.rows)]
    return _with(state, [], [_append_column(t, p["name"], cells, op)])


def _exec_drop_column(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    _col_indexes(t, p["columns"], op)
    drop = set(p["columns"])
    keep = [i for i, c in enumerate(t.schema.columns) if c.name not in drop]
    if not keep:
        raise ExecError(op, "cannot drop every column", detail=p["table"])
    cols = [t.schema.columns[i] for i in keep]
    rows = [tuple(row[i] for i in keep) for row in t.rows]
    return _with(state, [], [_build_table(t.name, cols, rows, t.schema.description)])


def _exec_split_column(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    src_idx = _col_index(t, p["source"], op)
    targets = p["target"]
    remaining = [c.name for i, c in enumerate(t.schema.columns) if i != src_idx]
    if len(set(targets)) != len(targets):
        raise ExecError(op, "duplicate target column names", detail=targets[0])
    for name in targets:
        if name in remaining:
            raise ExecError(op, f"target column {name!r} already exists", detail=name)
    pieces = []
    for r, row in enumerate(t.rows):
        if row[src_idx] is None:
            pieces.append((None,) * len(targets))
            continue
        v = _eval_cell(p["func"], t, row, r, op)
        if not isinstance(v, tuple):
            raise ExecError(op, f"row {r}: func must yield a list", detail=p["source"])
        padded = tuple(v[: len(targets)]) + (None,) * max(0, len(targets) - len(v))
        pieces.append(padded)
    names, cells, fallbacks, descs = [], [], [], []
    for j, c in enumerate(t.schema.columns):
        if j == src_idx:
            for k, target in enumerate(targets):
                names.append(target)
                cells.append([piece[k] for piece in pieces])
                fallbacks.append(TEXT)
                descs.append(None)
        else:
            names.append(c.name)
            cells.append([row[j] for row in t.rows])
            fallbacks.append(c.dtype)
            descs.append(c.description)
    specs, rows = _infer_output_columns(names, cells, fallbacks, op, descs, computed=targets)
    return _with(state, [], [_build_table(t.name, specs, rows, t.schema.description)])


def _exec_concatenate(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    if not p["columns"]:
        raise ExecError(op, "columns must not be empty", detail=p["table"])
    _col_indexes(t, p["columns"], op)
    cells = [_eval_cell(p["func"], t, row, r, op) for r, row in enumerate(t.rows)]
    return _with(state, [], [_append_column(t, p["target"], cells, op)])


def _exec_select_column(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    if not p["columns"]:
        raise ExecError(op, "must keep at least one column", detail=p["table"])
    _col_indexes(t, p["columns"], op)
    keep_set = set(p["columns"])
    keep = [i for i, c in enumerate(t.schema.columns) if c.name in keep_set]
    cols = [t.schema.columns[i] for i in keep]
    rows = [tuple(row[i] for i in keep) for row in t.rows]
    return _with(state, [], [_build_table(t.name, cols, rows, t.schema.description)])


def _exec_subtitle(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    cells = [p["title"]] * t.n_rows
    return _with(state, [], [_append_column(t, p["target_col"], cells, op, dtype=TEXT)])


# ---------------------------------------------------------------------------
# row selection
# ---------------------------------------------------------------------------

def _exec_filter(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    rows = []
    for r, row in enumerate(t.rows):
        v = _eval_cell(p["func"], t, row, r, op)
        if v is True:
            rows.append(row)
        elif v is not None and not isinstance(v, bool):
            raise ExecError(
                op, f"row {r}: func returned {render_cell(v)!r}, expected boolean",
                detail=render_cell(v),
            )
    return _with(state, [], [Table.trusted(t.schema, tuple(rows))])


def _exec_sort(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    if not p["by"]:
        raise ExecError(op, "sort needs at least one key column", detail=p["table"])
    idxs = _col_indexes(t, p["by"], op)
    asc = p["ascending"]
    if isinstance(asc, bool):
        asc = [asc] * len(idxs)
    if len(asc) != len(idxs):
        raise ExecError(
            op, f"ascending has {len(asc)} entries for {len(idxs)} keys", detail=p["table"]
        )

    # stable passes from the last key to the first; reverse=True keeps ties stable
    rows = list(t.rows)
    for i, up in reversed(list(zip(idxs, asc))):
        rows.sort(key=lambda row: cell_sort_key(row[i]), reverse=not up)
    return _with(state, [], [Table.trusted(t.schema, tuple(rows))])


def _exec_topk(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    if p["k"] < 0:
        raise ExecError(op, f"k must be non-negative, got {p['k']}", detail=str(p["k"]))
    return _with(state, [], [Table.trusted(t.schema, t.rows[: p["k"]])])


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _fold(fn: str, cells: list[Cell], op: OperatorInstance, where: str) -> Cell:
    present = [c for c in cells if c is not None]
    if fn == "count":
        return len(present)
    if fn == "count_distinct":
        return len({cell_hash_key(c) for c in present})
    if fn == "first":
        return cells[0] if cells else None
    if fn == "last":
        return cells[-1] if cells else None
    if fn == "concat":
        return ",".join(render_cell(c) for c in present)
    if not present:
        return None
    if fn in ("sum", "avg"):
        if not all(_is_number(c) for c in present):
            raise ExecError(op, f"{fn} needs numeric values in {where}", detail=where)
        total = sum(present)
        if fn == "sum":
            return total
        return total / len(present)
    # min / max need one comparable kind
    kinds = {type(True) if isinstance(c, bool) else (float if _is_number(c) else type(c)) for c in present}
    if len(kinds) > 1 or next(iter(kinds)) is tuple:
        raise ExecError(op, f"{fn} needs values of one comparable kind in {where}", detail=where)
    return (min if fn == "min" else max)(present, key=cell_sort_key)


def _agg_fallback(fn: str, src_dtype: str) -> str:
    if fn in ("count", "count_distinct"):
        return INT
    if fn == "avg":
        return REAL
    if fn == "concat":
        return TEXT
    return src_dtype


def _exec_group_by(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    key_idxs = _col_indexes(t, p["by"], op)
    agg: dict[str, str] = p["agg"]
    agg_idxs = {col: _col_index(t, col, op) for col in agg}

    out_names = list(p["by"]) + [f"{col}_{fn}" for col, fn in agg.items()]
    if not out_names:
        raise ExecError(op, "group by needs key columns or aggregates", detail=p["table"])
    if len(set(out_names)) != len(out_names):
        dupes = sorted({n for n in out_names if out_names.count(n) > 1})
        raise ExecError(op, f"duplicate output column {dupes[0]!r}", detail=dupes[0])

    groups: dict[tuple, list[tuple]] = {}
    for row in t.rows:
        k = tuple(cell_hash_key(row[i]) for i in key_idxs)
        groups.setdefault(k, []).append(row)

    key_cells = [[] for _ in key_idxs]
    agg_cells = [[] for _ in agg]
    for rows in groups.values():
        for j, i in enumerate(key_idxs):
            key_cells[j].append(rows[0][i])
        for j, (col, fn) in enumerate(agg.items()):
            cells = [row[agg_idxs[col]] for row in rows]
            agg_cells[j].append(_fold(fn, cells, op, f"column {col!r}"))

    fallbacks = [t.schema.columns[i].dtype for i in key_idxs]
    descs: list[str | None] = [t.schema.columns[i].description for i in key_idxs]
    for col, fn in agg.items():
        fallbacks.append(_agg_fallback(fn, t.schema.columns[agg_idxs[col]].dtype))
        descs.append(None)
    specs, rows = _infer_output_columns(
        out_names, key_cells + agg_cells, fallbacks, op, descs, computed=out_names[len(key_idxs):]
    )
    return _with(state, [], [_build_table(t.name, specs, rows, t.schema.description)])


def _exec_count(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    cols = [ColumnSpec("count", INT)]
    return _with(state, [], [_build_table(t.name, cols, [(t.n_rows,)], t.schema.description)])


def _exec_calculate_statistic(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    stat = p["stat"]
    values = [_eval_cell(p["func"], t, row, r, op) for r, row in enumerate(t.rows)]
    present = [v for v in values if v is not None]
    if not present and stat != "sum":
        raise ExecError(op, f"{stat} over no values", detail=stat)
    if stat == "sum" and not present:
        result: Cell = 0
    else:
        result = _fold(stat, present, op, "func values")
    dtype, (result,) = _resolve_column(stat, [result], op, INT, computed=True)
    cols = [ColumnSpec(stat, dtype)]
    return _with(state, [], [_build_table(t.name, cols, [(result,)], t.schema.description)])


# ---------------------------------------------------------------------------
# combination
# ---------------------------------------------------------------------------

def _reconcile_dtype(a: ColumnSpec, b: ColumnSpec, op: OperatorInstance) -> str:
    if a.dtype == b.dtype:
        return a.dtype
    if {a.dtype, b.dtype} == {INT, REAL}:
        return REAL
    raise ExecError(
        op, f"column {a.name!r} has incompatible dtypes {a.dtype} and {b.dtype}", detail=a.name
    )


def _exec_join(op, state, backend):
    p = op.params
    left = _get_table(state, p["left"], op)
    right = _get_table(state, p["right"], op)
    on = p["on"]
    if not on:
        raise ExecError(op, "join needs at least one key column", detail=p["left"])
    l_keys = _col_indexes(left, on, op)
    r_keys = _col_indexes(right, on, op)
    how = p["how"]

    l_rest = [i for i in range(len(left.schema.columns)) if i not in l_keys]
    r_rest = [i for i in range(len(right.schema.columns)) if i not in r_keys]
    l_rest_names = {left.schema.columns[i].name for i in l_rest}
    r_rest_names = {right.schema.columns[i].name for i in r_rest}

    cols: list[ColumnSpec] = []
    for li, ri in zip(l_keys, r_keys):
        lc, rc = left.schema.columns[li], right.schema.columns[ri]
        cols.append(ColumnSpec(lc.name, _reconcile_dtype(lc, rc, op), lc.description))
    for i in l_rest:
        c = left.schema.columns[i]
        name = f"{c.name}_left" if c.name in r_rest_names else c.name
        cols.append(ColumnSpec(name, c.dtype, c.description))
    for i in r_rest:
        c = right.schema.columns[i]
        name = f"{c.name}_right" if c.name in l_rest_names else c.name
        cols.append(ColumnSpec(name, c.dtype, c.description))
    seen = set()
    for c in cols:
        if c.name in seen:
            raise ExecError(op, f"duplicate output column {c.name!r}", detail=c.name)
        seen.add(c.name)

    def key_of(row, idxs):
        key = tuple(row[i] for i in idxs)
        if any(v is None for v in key):
            return None  # null keys never match
        return tuple(cell_hash_key(v) for v in key)

    r_index: dict[tuple, list[tuple]] = {}
    for row in right.rows:
        k = key_of(row, r_keys)
        if k is not None:
            r_index.setdefault(k, []).append(row)

    rows = []
    matched_right_keys = set()
    if how in ("inner", "left", "outer"):
        for l_row in left.rows:
            k = key_of(l_row, l_keys)
            matches = r_index.get(k, []) if k is not None else []
            if matches:
                matched_right_keys.add(k)
                for r_row in matches:
                    rows.append(
                        tuple(l_row[i] for i in l_keys)
                        + tuple(l_row[i] for i in l_rest)
                        + tuple(r_row[i] for i in r_rest)
                    )
            elif how in ("left", "outer"):
                rows.append(
                    tuple(l_row[i] for i in l_keys)
                    + tuple(l_row[i] for i in l_rest)
                    + (None,) * len(r_rest)
                )
        if how == "outer":
            for r_row in right.rows:
                k = key_of(r_row, r_keys)
                if k is None or k not in matched_right_keys:
                    rows.append(
                        tuple(r_row[i] for i in r_keys)
                        + (None,) * len(l_rest)
                        + tuple(r_row[i] for i in r_rest)
                    )
    else:  # right join: every right row survives, in right order
        l_index: dict[tuple, list[tuple]] = {}
        for row in left.rows:
            k = key_of(row, l_keys)
            if k is not None:
                l_index.setdefault(k, []).append(row)
        for r_row in right.rows:
            k = key_of(r_row, r_keys)
            matches = l_index.get(k, []) if k is not None else []
            if matches:
                for l_row in matches:
                    rows.append(
                        tuple(l_row[i] for i in l_keys)
                        + tuple(l_row[i] for i in l_rest)
                        + tuple(r_row[i] for i in r_rest)
                    )
            else:
                rows.append(
                    tuple(r_row[i] for i in r_keys)
                    + (None,) * len(l_rest)
                    + tuple(r_row[i] for i in r_rest)
                )

    # coerce int cells in promoted key columns
    fixed_rows = []
    real_keys = [
        j for j in range(len(l_keys))
        if cols[j].dtype == REAL
    ]
    for row in rows:
        row = list(row)
        for j in real_keys:
            if isinstance(row[j], int) and not isinstance(row[j], bool):
                row[j] = float(row[j])
        fixed_rows.append(tuple(row))

    name = f"{p['left']}_{p['right']}_join"
    out = _build_table(name, cols, fixed_rows)
    return _with(state, [p["left"], p["right"]], [out])


def _exec_union(op, state, backend):
    p = op.params
    names = p["tables"]
    tabs = [_get_table(state, n, op) for n in names]
    first = tabs[0]
    base_names = first.column_names
    all_rows: list[tuple] = []
    for t in tabs:
        if set(t.column_names) != set(base_names):
            raise ExecError(
                op, f"table {t.name!r} columns {sorted(t.column_names)} do not match "
                    f"{sorted(base_names)}", detail=t.name,
            )
        order = [t.column_index(n) for n in base_names]
        all_rows.extend(tuple(row[i] for i in order) for row in t.rows)
    if p["how"] == "distinct":
        all_rows = _dedupe_rows(all_rows, list(range(len(base_names))), "first")
    cells = [[row[j] for row in all_rows] for j in range(len(base_names))]
    fallbacks = [c.dtype for c in first.schema.columns]
    descs = [c.description for c in first.schema.columns]
    specs, rows = _infer_output_columns(list(base_names), cells, fallbacks, op, descs)
    out_name = "_".join(names) + "_union"
    out = _build_table(out_name, specs, rows)
    return _with(state, list(dict.fromkeys(names)), [out])


def _exec_append(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    other = _get_table(state, p["other"], op)
    if set(other.column_names) != set(t.column_names):
        raise ExecError(
            op, f"table {other.name!r} columns {sorted(other.column_names)} do not match "
                f"{sorted(t.column_names)}", detail=other.name,
        )
    order = [other.column_index(n) for n in t.column_names]
    all_rows = list(t.rows) + [tuple(row[i] for i in order) for row in other.rows]
    cells = [[row[j] for row in all_rows] for j in range(len(t.column_names))]
    fallbacks = [c.dtype for c in t.schema.columns]
    descs = [c.description for c in t.schema.columns]
    specs, rows = _infer_output_columns(list(t.column_names), cells, fallbacks, op, descs)
    out = _build_table(t.name, specs, rows, t.schema.description)
    remove = [p["other"]] if p["other"] != p["table"] else []
    return _with(state, remove, [out])


# ---------------------------------------------------------------------------
# reshaping
# ---------------------------------------------------------------------------

def _exec_pivot(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    idx_idxs = _col_indexes(t, p["index"], op)
    col_idx = _col_index(t, p["columns"], op)
    val_idx = _col_index(t, p["values"], op)
    aggfunc = p["aggfunc"]

    index_keys: list[tuple] = []
    index_reps: dict[tuple, tuple] = {}
    labels: list[str] = []
    buckets: dict[tuple, dict[str, list[Cell]]] = {}
    for r, row in enumerate(t.rows):
        cv = row[col_idx]
        if cv is None:
            raise ExecError(op, f"row {r}: null value in columns column", detail=p["columns"])
        label = render_cell(cv)
        ik = tuple(cell_hash_key(row[i]) for i in idx_idxs)
        if ik not in index_reps:
            index_reps[ik] = tuple(row[i] for i in idx_idxs)
            index_keys.append(ik)
        if label not in buckets.setdefault(ik, {}):
            buckets[ik][label] = []
        if label not in labels:
            labels.append(label)
        buckets[ik][label].append(row[val_idx])

    for label in labels:
        if label in p["index"]:
            raise ExecError(op, f"pivot column {label!r} collides with an index column", detail=label)
    if len(set(labels)) != len(labels):
        raise ExecError(op, "duplicate pivot column label", detail=labels[0])

    if aggfunc == "first_strict":
        for ik in index_keys:
            for label, vals in buckets[ik].items():
                if len(vals) > 1:
                    raise ExecError(
                        op, f"duplicate entries for index/column pair ({label!r})", detail=label
                    )

    fold_fn = "first" if aggfunc == "first_strict" else aggfunc
    label_cells: dict[str, list[Cell]] = {label: [] for label in labels}
    for ik in index_keys:
        for label in labels:
            vals = buckets[ik].get(label)
            if vals is None:
                label_cells[label].append(None)  # no match
            else:
                label_cells[label].append(_fold(fold_fn, vals, op, f"column {p['values']!r}"))

    names = list(p["index"]) + labels
    cells = [[index_reps[ik][j] for ik in index_keys] for j in range(len(idx_idxs))]
    cells += [label_cells[label] for label in labels]
    fallbacks = [t.schema.columns[i].dtype for i in idx_idxs]
    fallbacks += [_agg_fallback(fold_fn, t.schema.columns[val_idx].dtype)] * len(labels)
    descs: list[str | None] = [t.schema.columns[i].description for i in idx_idxs]
    descs += [None] * len(labels)
    specs, rows = _infer_output_columns(names, cells, fallbacks, op, descs, computed=labels)
    out = _build_table(f"{t.name}_pivot", specs, rows)
    return _with(state, [p["table"]], [out])


def _exec_stack(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    id_idxs = _col_indexes(t, p["id_vars"], op)
    if not p["value_vars"]:
        raise ExecError(op, "value_vars must not be empty", detail=p["table"])
    val_idxs = _col_indexes(t, p["value_vars"], op)
    overlap = set(p["id_vars"]) & set(p["value_vars"])
    if overlap:
        raise ExecError(op, f"columns {sorted(overlap)} are in both id_vars and value_vars",
                        detail=sorted(overlap)[0])
    for reserved in ("variable", "value"):
        if reserved in p["id_vars"]:
            raise ExecError(op, f"id_vars column {reserved!r} collides with an output column",
                            detail=reserved)

    names = list(p["id_vars"]) + ["variable", "value"]
    id_cells: list[list[Cell]] = [[] for _ in id_idxs]
    var_cells: list[Cell] = []
    val_cells: list[Cell] = []
    for row in t.rows:
        for name, vi in zip(p["value_vars"], val_idxs):
            for j, ii in enumerate(id_idxs):
                id_cells[j].append(row[ii])
            var_cells.append(name)
            val_cells.append(row[vi])
    fallbacks = [t.schema.columns[i].dtype for i in id_idxs] + [TEXT, TEXT]
    descs: list[str | None] = [t.schema.columns[i].description for i in id_idxs] + [None, None]
    specs, rows = _infer_output_columns(names, id_cells + [var_cells, val_cells], fallbacks, op, descs)
    out = _build_table(f"{t.name}_stack", specs, rows)
    return _with(state, [p["table"]], [out])


def _exec_wide_to_long(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    stubs = p["stubnames"]
    i_idxs = _col_indexes(t, p["i"], op)
    j_name = p["j"]
    if len(set(stubs)) != len(stubs):
        raise ExecError(op, "duplicate stub names", detail=stubs[0])

    # map each column to (stub, suffix); the longest matching stub wins
    by_len = sorted(stubs, key=lambda s: (-len(s), stubs.index(s)))
    col_map: dict[tuple[str, str], int] = {}
    suffixes: list[str] = []
    matched_cols = set()
    for idx, c in enumerate(t.schema.columns):
        for stub in by_len:
            if not c.name.startswith(stub):
                continue
            rest = c.name[len(stub):]
            if rest[:1] in ("_", "-"):
                rest = rest[1:]
            key = (stub, rest)
            if key in col_map:
                raise ExecError(op, f"columns collide on stub/suffix pair {key}", detail=c.name)
            col_map[key] = idx
            matched_cols.add(c.name)
            if rest not in suffixes:
                suffixes.append(rest)
            break
    for stub in stubs:
        if not any(k[0] == stub for k in col_map):
            raise ExecError(op, f"stub {stub!r} matches no columns", detail=stub)
    for name in p["i"]:
        if name in matched_cols:
            raise ExecError(op, f"id column {name!r} matches a stub", detail=name)
    if j_name in p["i"] or j_name in stubs:
        raise ExecError(op, f"j column {j_name!r} collides", detail=j_name)

    names = list(p["i"]) + [j_name] + list(stubs)
    i_cells: list[list[Cell]] = [[] for _ in i_idxs]
    j_cells: list[Cell] = []
    stub_cells: list[list[Cell]] = [[] for _ in stubs]
    for row in t.rows:
        for suffix in suffixes:
            for k, ii in enumerate(i_idxs):
                i_cells[k].append(row[ii])
            j_cells.append(suffix)
            for k, stub in enumerate(stubs):
                idx = col_map.get((stub, suffix))
                stub_cells[k].append(None if idx is None else row[idx])
    fallbacks = [t.schema.columns[i].dtype for i in i_idxs] + [TEXT] + [TEXT] * len(stubs)
    descs: list[str | None] = [t.schema.columns[i].description for i in i_idxs] + [None] * (1 + len(stubs))
    specs, rows = _infer_output_columns(names, i_cells + [j_cells] + stub_cells, fallbacks, op, descs)
    out = _build_table(f"{t.name}_widetolong", specs, rows)
    return _with(state, [p["table"]], [out])


def _exec_transpose(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    names = ["column"] + [f"r{i}" for i in range(t.n_rows)]
    cols = [ColumnSpec(n, TEXT) for n in names]
    rows = []
    for j, c in enumerate(t.schema.columns):
        row: list[Cell] = [c.name]
        for r in range(t.n_rows):
            v = t.rows[r][j]
            row.append(None if v is None else render_cell(v))
        rows.append(tuple(row))
    out = _build_table(f"{t.name}_transpose", cols, rows)
    return _with(state, [p["table"]], [out])


def _exec_explode(op, state, backend):
    p = op.params
    t = _get_table(state, p["table"], op)
    idx = _col_index(t, p["column"], op)
    exploded: list[tuple] = []
    for row in t.rows:
        v = row[idx]
        if isinstance(v, tuple):
            elements = list(v) if v else [None]  # empty list yields one null row
        else:
            elements = [v]  # non-list cells survive as a single row
        for e in elements:
            exploded.append(tuple(e if j == idx else row[j] for j in range(len(row))))
    names = [c.name for c in t.schema.columns]
    cells = [[row[j] for row in exploded] for j in range(len(names))]
    fallbacks = [TEXT if j == idx else c.dtype for j, c in enumerate(t.schema.columns)]
    descs = [c.description for c in t.schema.columns]
    specs, rows = _infer_output_columns(names, cells, fallbacks, op, descs)
    out = _build_table(f"{t.name}_explode", specs, rows, t.schema.description)
    return _with(state, [p["table"]], [out])


# ---------------------------------------------------------------------------
# program synthesis
# ---------------------------------------------------------------------------

class ScriptBackend(Protocol):
    """Runs ExeCode scripts. Implementations raise ExecError on failure."""

    def run(self, code: str, tables: dict[str, Table], target: str) -> Table:
        ...


@dataclass
class SubprocessScriptBackend:
    """Runs the script as `argv + [script_path]` in a subprocess.

    Input tables arrive on stdin as csv sections, each preceded by a
    `--- table: <name>` line. The script must write a single csv table to
    stdout and exit 0 within the wall-clock timeout.
    """

    argv: list[str]
    timeout: float = 10.0

    def run(self, code: str, tables: dict[str, Table], target: str) -> Table:
        sections = []
        for name, t in tables.items():
            sections.append(f"--- table: {name}\n{table_to_csv_text(t)}")
        stdin_text = "".join(sections)
        script = tempfile.NamedTemporaryFile(
            "w", suffix=".script", delete=False, encoding="utf-8"
        )
        try:
            script.write(code)
            script.close()
            try:
                proc = subprocess.run(
                    self.argv + [script.name],
                    input=stdin_text,
                    capture_output=True,
                    text=True,
                    timeout=self.timeout,
                )
            except subprocess.TimeoutExpired:
                raise ExecError(
                    None, f"script timed out after {self.timeout}s", detail="timeout"
                ) from None
            except OSError as exc:
                raise ExecError(None, f"cannot launch script backend: {exc}") from None
            if proc.returncode != 0:
                tail = (proc.stderr or "").strip().splitlines()[-3:]
                raise ExecError(
                    None,
                    f"script exited with code {proc.returncode}: {' | '.join(tail)}",
                    detail=str(proc.returncode),
                )
            try:
                return table_from_csv_text(proc.stdout, target)
            except TableError as exc:
                raise ExecError(None, f"script output is not a csv table: {exc}") from None
        finally:
            Path(script.name).unlink(missing_ok=True)


def _exec_execode(op, state, backend: ScriptBackend | None):
    p = op.params
    tabs = {name: _get_table(state, name, op) for name in p["tables"]}
    if not p["target"]:
        raise ExecError(op, "target table name must be non-empty", detail="target")
    if backend is None:
        raise ExecError(op, "script backend is disabled", detail="backend")
    try:
        result = backend.run(p["func"], tabs, p["target"])
    except ExecError as exc:
        raise ExecError(op, exc.message, exc.detail) from None
    except Exception as exc:  # backend bug or script misbehavior
        raise ExecError(op, f"script backend failed: {exc}") from None
    if not isinstance(result, Table):
        raise ExecError(op, "script backend returned a non-table")
    # script output is untrusted: the checked constructor re-validates every cell
    out = Table(Schema(p["target"], result.schema.columns, result.schema.description), result.rows)
    return _with(state, list(dict.fromkeys(p["tables"])), [out])


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_HANDLERS: dict[str, Callable[[OperatorInstance, TableSet, ScriptBackend | None], TableSet]] = {
    "DropNA": _exec_dropna,
    "MissingValueImputation": _exec_imputation,
    "Deduplicate": _exec_deduplicate,
    "ErrorDetection": _exec_error_detection,
    "OutlierDetection": _exec_outlier_detection,
    "ValueTransform": _exec_value_transform,
    "StandardizeDatetime": _exec_standardize_datetime,
    "CastType": _exec_cast_type,
    "RenameColumn": _exec_rename_column,
    "AddNewColumn": _exec_add_new_column,
    "DropColumn": _exec_drop_column,
    "SplitColumn": _exec_split_column,
    "Concatenate": _exec_concatenate,
    "SelectColumn": _exec_select_column,
    "Subtitle": _exec_subtitle,
    "Filter": _exec_filter,
    "Sort": _exec_sort,
    "TopK": _exec_topk,
    "GroupBy": _exec_group_by,
    "Count": _exec_count,
    "CalculateStatistic": _exec_calculate_statistic,
    "Join": _exec_join,
    "Union": _exec_union,
    "Append": _exec_append,
    "Pivot": _exec_pivot,
    "Stack": _exec_stack,
    "WideToLong": _exec_wide_to_long,
    "Transpose": _exec_transpose,
    "Explode": _exec_explode,
    "ExeCode": _exec_execode,
}

assert set(_HANDLERS) == set(REGISTRY)


def execute_operator(
    op: OperatorInstance,
    state: TableSet,
    *,
    script_backend: ScriptBackend | None = None,
) -> TableSet:
    """Apply one operator to a table set, returning a new table set.

    Tables the operator does not name are carried over by reference. Raises
    ExecError on any failure; the input state is never mutated.
    """
    handler = _HANDLERS.get(op.kind)
    if handler is None:
        raise ExecError(op, f"unknown operator {op.kind!r}", detail=op.kind)
    try:
        return handler(op, state, script_backend)
    except ExecError:
        raise
    except (TableError, EvalError) as exc:
        raise ExecError(op, str(exc)) from None
