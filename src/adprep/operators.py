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
`func` is raw script text for the pluggable backend. expr.parse_call reads
call text, expr.print_value writes it, and make_operator types the values by
the operator's signature; a `func` tree is printed and parsed again.

Execution is pure. Each handler maps the tables its operator names to one
output table, and execute_operator alone applies the consume rule: every
table the operator names leaves the table set, and the output joins it under
its own name (single-table operators keep their input's table name; Join,
Union, the reshaping operators and ExeCode derive one). Tables not named by
the operator are carried over by reference. Any failure raises ExecError and
leaves the input state untouched.
"""

from __future__ import annotations

import functools
import math
import re
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Protocol, Sequence

from .expr import (
    TEXT_METHODS,
    Call,
    ColRef,
    EvalError,
    Expr,
    ExprParseError,
    cast_cell,
    compile_expr,
    date_reader,
    date_writer,
    parse_call,
    parse_expr,
    print_expr,
    print_value,
    read_date_column,
    write_date_column,
    _is_number,
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
    clean_column_kind,
    column_texts,
    infer_column,
    render_cell,
    row_keys,
    sort_order,
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
        super().__init__(f"{kind}: {with_detail(message, detail)}")


def with_detail(message: str, detail: str) -> str:
    """The message, plus " (detail)" when it does not already hold the detail."""
    return f"{message} ({detail})" if detail and detail not in message else message


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# parameter kinds drive how make_operator types a value, and which values
# count as table/column names for plan-consistency checks
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
# the kinds whose value is one name, and those whose value is a list of names
NAME_KINDS = (P_TABLE, P_COLUMN, P_NEW_COLUMN)
NAME_LIST_KINDS = (P_TABLE_LIST, P_COLUMN_LIST, P_NEW_COLUMN_LIST, P_NAME_LIST)

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
    # handler(op, one Table per P_TABLE / list per P_TABLE_LIST param in order,
    # and for ExeCode the backend) returns the operator's one output table
    handler: Callable[..., Table]


def _sig(kind: str, category: str, handler: Callable[..., Table], doc: str,
         *params: Param) -> OperatorSig:
    return OperatorSig(kind, category, tuple(params), doc, handler)


@dataclass(frozen=True)
class OperatorInstance:
    """One operator call. `text` is its canonical call text, which
    parse_operator_call reads back as an equal instance. Instances from
    parse_operator_call are shared between its callers, so `params` is
    read-only."""

    kind: str
    params: dict[str, Any]

    @functools.cached_property
    def text(self) -> str:
        # make_operator writes params in the order of the signature
        return f"{self.kind}({', '.join(map(print_value, self.params.values()))})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.text


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
        if p.kind in NAME_KINDS:
            out.append(v)
        elif p.kind in NAME_LIST_KINDS:
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

def _coerce_text(v: Any, p: Param, kind: str) -> str:
    if not isinstance(v, str):
        raise OpParseError(f"parameter {p.name!r} expects {kind}, got {v!r}")
    if not v:
        raise OpParseError(f"parameter {p.name!r} must be non-empty")
    return v


def _coerce_param(v: Any, p: Param, op_kind: str) -> Any:
    if p.kind in NAME_KINDS:
        return _coerce_text(v, p, "a name")
    if p.kind in (P_TEXT, P_CODE):
        if not isinstance(v, str):
            raise OpParseError(f"parameter {p.name!r} expects text, got {v!r}")
        return v
    if p.kind in NAME_LIST_KINDS:
        if isinstance(v, str):
            v = [v]
        if not isinstance(v, list):
            raise OpParseError(f"parameter {p.name!r} expects a list of names, got {v!r}")
        out = [_coerce_text(x, p, "names") for x in v]
        if p.kind != P_COLUMN_LIST and not out:
            raise OpParseError(f"parameter {p.name!r} must not be empty")
        return out
    if p.kind in (P_RENAME_MAP, P_AGG_MAP):
        # call text writes a map's keys and values as text, and only text
        if not isinstance(v, dict) or not all(
            isinstance(x, str) for entry in v.items() for x in entry
        ):
            raise OpParseError(f"parameter {p.name!r} expects a map of text to text, got {v!r}")
        if p.kind == P_AGG_MAP:
            for col, fn in v.items():
                if fn not in AGG_FNS:
                    raise OpParseError(
                        f"unknown aggregate {fn!r} for column {col!r}; "
                        f"choose from {', '.join(AGG_FNS)}"
                    )
        return dict(v)
    if p.kind == P_EXPR:
        if isinstance(v, Expr):
            v = print_expr(v)  # a built tree gets the checks parsed text gets
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


# how many distinct call texts parse_operator_call remembers
PARSE_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=PARSE_MEMO_SIZE)
def parse_operator_call(src: str) -> OperatorInstance:
    """Parse one operator call like Deduplicate("movies", ["id"], "first").

    A bounded memo keyed on the text hands every caller of one text the same
    instance, so treat it as read-only. A malformed text raises OpParseError
    on every call: errors are not remembered."""
    try:
        kind, args = parse_call(src, REGISTRY)
    except ExprParseError as exc:
        raise OpParseError(str(exc)) from None
    return make_operator(kind, *args)


_LINE_BREAK = re.compile(r"\r\n?|\n")


def split_lines(text: str) -> list[str]:
    """Split call text at CR LF, CR and LF: the breaks a string literal escapes.

    str.splitlines also breaks at U+2028, U+0085, \\x0b and more, which a
    literal holds raw."""
    return _LINE_BREAK.split(text)


def serialize_operator_call(op: OperatorInstance) -> str:
    """Canonical call text, rendered once per instance; parse_operator_call
    round-trips it."""
    return op.text


# ---------------------------------------------------------------------------
# execution helpers
# ---------------------------------------------------------------------------

def _col_index(t: Table, name: str, op: OperatorInstance) -> int:
    try:
        return t.column_index(name)
    except TableError:
        raise ExecError(op, f"table {t.name!r} has no column {name!r}", detail=name) from None


def _col_indexes(t: Table, names: list[str], op: OperatorInstance) -> list[int]:
    return [_col_index(t, n, op) for n in names]


def _func_cells(op: OperatorInstance, t: Table, null_idx: int | None = None) -> Iterable[Cell]:
    """The op's func over each row of t; null wherever column null_idx is
    null, without evaluating func. A text method of a text column is one
    column pass (_text_method_cells); any other func runs row by row."""
    cells = _text_method_cells(op.params["func"], t, null_idx)
    return _row_cells(op, t, null_idx) if cells is None else cells


def _with_nulls(values: list[Cell], cells: Sequence[Cell]) -> list[Cell]:
    """`values`, one for each non-null cell of `cells`, with the nulls of
    `cells` put back in place."""
    if len(values) == len(cells):
        return values
    fill = iter(values).__next__
    return [None if v is None else fill() for v in cells]


def _text_method_cells(func: Expr, t: Table, null_idx: int | None) -> list[Cell] | None:
    """lower, upper or trim of a column, when clean_column_kind vouches for
    the column as text: its str method mapped over the non-null cells at C
    speed, which cannot fail. None for any other func or column (one holding
    a subclass of str included), which runs row by row."""
    if not (isinstance(func, Call) and func.name in TEXT_METHODS
            and len(func.args) == 1 and isinstance(func.args[0], ColRef)
            and func.args[0].name in t.column_names):
        return None
    arg_idx = t.column_names.index(func.args[0].name)
    cells = list(map(itemgetter(arg_idx), t.rows))
    if clean_column_kind(cells) not in (None, TEXT):
        return None
    present = [v for v in cells if v is not None]
    out = _with_nulls(list(map(TEXT_METHODS[func.name], present)), cells)
    if null_idx is None or null_idx == arg_idx:
        return out
    return [None if row[null_idx] is None else v for row, v in zip(t.rows, out)]


def _row_cells(op: OperatorInstance, t: Table, null_idx: int | None) -> Iterator[Cell]:
    """The op's func, compiled once against t's column names, over each row
    of t, as _func_cells. Lazy, so a caller's check on row r runs before row
    r+1 is evaluated and the first failing row names the error."""
    func = compile_expr(op.params["func"], t.column_names)
    if null_idx is not None:
        strict = func
        func = lambda row: None if row[null_idx] is None else strict(row)
    r = 0
    try:
        for v in map(func, t.rows):
            yield v
            r += 1
    except EvalError as exc:
        raise ExecError(op, f"row {r}: {exc}", detail=exc.expr_text) from None


def _resolve_column(
    name: str, cells: list[Cell], op: OperatorInstance, fallback: str
) -> tuple[str, list[Cell]]:
    """Dtype and checked cells of an output column: the dtype is inferred,
    the fallback for an all-null column, and ints in a real column become
    floats. The check is the pass inference makes when clean_column_kind
    vouches for the column; any other column (a list column, subclasses) is
    checked with validate_cell per cell. A bad cell raises ExecError naming
    the column."""
    try:
        dtype, cells, clean = infer_column(cells, fallback)
        if not clean:
            where = f"column {name!r}"
            cells = [validate_cell(v, dtype, where) for v in cells]
    except TableError as exc:
        raise ExecError(op, str(exc), detail=name) from None
    return dtype, cells


def _rebuild_column(
    t: Table, idx: int, cells: list[Cell], op: OperatorInstance, fallback: str | None = None
) -> Table:
    """Replace one column with computed cells, re-inferring its dtype; the
    other columns move as they are. Synthesis builds its column corruptions
    with it too."""
    old = t.schema.columns[idx]
    dtype, cells = _resolve_column(old.name, cells, op, fallback or old.dtype)
    cols = list(t.schema.columns)
    cols[idx] = ColumnSpec(old.name, dtype, old.description)
    columns: list[Iterable[Cell]] = [map(itemgetter(i), t.rows) for i in range(len(cols))]
    columns[idx] = cells
    return _build_table(t.name, cols, zip(*columns), t.schema.description)


def _append_column(
    t: Table, name: str, cells: list[Cell], op: OperatorInstance, fallback: str = TEXT
) -> Table:
    if name in t.column_names:
        raise ExecError(op, f"column {name!r} already exists in table {t.name!r}", detail=name)
    dtype, cells = _resolve_column(name, cells, op, fallback)
    cols = t.schema.columns + (ColumnSpec(name, dtype),)
    rows = [row + (cell,) for row, cell in zip(t.rows, cells)]
    return _build_table(t.name, cols, rows, t.schema.description)


def _duplicates(names: Sequence[str]) -> list[str]:
    """The names that occur more than once, sorted; an error names the first."""
    return sorted({n for n in names if names.count(n) > 1})


def _subset_indexes(t: Table, subset: list[str], op: OperatorInstance) -> list[int]:
    """Column indexes for a subset parameter; an empty subset means all columns."""
    if not subset:
        return list(range(len(t.schema.columns)))
    return _col_indexes(t, subset, op)


def _build_table(
    name: str, cols: Sequence[ColumnSpec], rows: Iterable[tuple], description: str | None = None
) -> Table:
    """An operator's output table, or a synthesis column corruption's
    (through _rebuild_column), its cells not checked again. A cell either
    moved as it is from a checked table (whole rows, or the columns
    _rebuild_column and _append_column leave in place) or sits in a column
    _resolve_column checked. Every output built from new rows
    (_table_of_rows) takes that check column by column: a moved clean column
    passes it at C speed, and a list column is checked cell by cell."""
    return Table.trusted(Schema(name, tuple(cols), description), tuple(rows))


def _table_of_rows(
    name: str, specs: Sequence[ColumnSpec], rows: Iterable[tuple],
    op: OperatorInstance, description: str | None = None,
) -> Table:
    """An output table built from new rows. Each spec names a column, gives
    the dtype an all-null column falls back to and its description: a
    column moved as it is passes its source's spec, a new column
    ColumnSpec(name, fallback). Every column goes through _resolve_column,
    which infers its dtype and checks its cells; a moved clean column passes
    in the one pass inference makes."""
    rows = list(rows)
    cols, resolved = [], []
    for j, spec in enumerate(specs):
        dtype, cells = _resolve_column(spec.name, list(map(itemgetter(j), rows)), op, spec.dtype)
        cols.append(ColumnSpec(spec.name, dtype, spec.description))
        resolved.append(cells)
    return _build_table(name, cols, zip(*resolved), description)


# ---------------------------------------------------------------------------
# cleaning
# ---------------------------------------------------------------------------

def _exec_dropna(op, t):
    p = op.params
    idxs = _subset_indexes(t, p["subset"], op)
    if p["how"] == "any":
        rows = [r for r in t.rows if all(r[i] is not None for i in idxs)]
    else:
        rows = [r for r in t.rows if any(r[i] is not None for i in idxs)]
    return Table.trusted(t.schema, tuple(rows))


def _exec_imputation(op, t):
    p = op.params
    idx = _col_index(t, p["column"], op)
    cells = [row[idx] for row in t.rows]
    present = [c for c in cells if c is not None]
    if not present:
        raise ExecError(op, f"column {p['column']!r} has no non-null values", detail=p["column"])
    mode = p["mode"]
    if mode in ("mean", "median"):
        if t.schema.columns[idx].dtype not in (INT, REAL):
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
    return _rebuild_column(t, idx, new_cells, op)


def _dedupe_rows(rows, keys, keep):
    """The first (or last) row of each distinct key, in row order."""
    n = len(rows)
    if keep == "first":  # later entries overwrite earlier ones, so go backwards
        pos = dict(zip(reversed(keys), range(n - 1, -1, -1)))
    else:
        pos = dict(zip(keys, range(n)))
    return [rows[i] for i in sorted(pos.values())]


def _exec_deduplicate(op, t):
    p = op.params
    idxs = _subset_indexes(t, p["subset"], op)
    rows = _dedupe_rows(t.rows, row_keys(t, idxs), p["keep"])
    return Table.trusted(t.schema, tuple(rows))


def _exec_error_detection(op, t):
    p = op.params
    _col_index(t, p["column"], op)
    flags = []
    for r, v in enumerate(_func_cells(op, t)):
        if v is not None and not isinstance(v, bool):
            raise ExecError(op, f"row {r}: func must return boolean or null", detail=p["column"])
        flags.append(v)
    return _append_column(t, f"{p['column']}_invalid", flags, op, fallback=BOOL)


def _exec_outlier_detection(op, t):
    p = op.params
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
        return Table.trusted(t.schema, tuple(rows))
    flags = [is_outlier(row[idx]) for row in t.rows]
    return _append_column(t, f"{p['column']}_outlier", flags, op, fallback=BOOL)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _exec_value_transform(op, t):
    p = op.params
    idx = _col_index(t, p["column"], op)
    return _rebuild_column(t, idx, list(_func_cells(op, t, idx)), op)


# a %Y pattern takes no zero-padded year below 1000, such as "0099"
_read_any_date = date_reader(DATE_PATTERNS, min_year=1000)


def _exec_standardize_datetime(op, t):
    p = op.params
    idx = _col_index(t, p["column"], op)
    column = list(map(itemgetter(idx), t.rows))
    fields = read_date_column(_read_any_date, column)
    if isinstance(fields, int):
        r, v = fields, column[fields]
        if not isinstance(v, str):
            raise ExecError(op, f"row {r}: expected text, got {render_cell(v)!r}", detail=p["column"])
        raise ExecError(op, f"row {r}: cannot parse date {v!r}", detail=v)
    try:
        cells = write_date_column(date_writer(p["format"]), column, fields)
    except UnicodeEncodeError as exc:
        message = f"cannot write a date with format {p['format']!r}: {exc.reason}"
        raise ExecError(op, message, detail=p["format"]) from None
    return _rebuild_column(t, idx, cells, op, fallback=TEXT)


def _cast_column(cells: list[Cell], source: str, dtype: str) -> list[Cell] | None:
    """The cells of a text column cast to int at C speed, when
    clean_column_kind vouches for them as text; None for any other cast, or
    when some cell fails, for the loop to name the first."""
    if (source, dtype) != (TEXT, INT) or clean_column_kind(cells) != TEXT:
        return None
    try:
        out = list(map(int, [v for v in cells if v is not None]))
    except ValueError:
        return None
    return _with_nulls(out, cells)


def _exec_cast_type(op, t):
    p = op.params
    idx = _col_index(t, p["column"], op)
    dtype = p["dtype"]
    column = list(map(itemgetter(idx), t.rows))
    cells = _cast_column(column, t.schema.columns[idx].dtype, dtype)
    if cells is None:
        cells = []
        for r, v in enumerate(column):
            if v is None:
                cells.append(None)
                continue
            try:
                cells.append(cast_cell(v, dtype))
            except (ValueError, TypeError):
                raise ExecError(
                    op, f"row {r}: cannot cast {render_cell(v)!r} to {dtype}",
                    detail=render_cell(v),
                ) from None
    return _rebuild_column(t, idx, cells, op, fallback=dtype)


# ---------------------------------------------------------------------------
# schema editing
# ---------------------------------------------------------------------------

def _exec_rename_column(op, t):
    p = op.params
    mapping = p["rename_map"]
    for old in mapping:
        _col_index(t, old, op)
    new_names = [mapping.get(c.name, c.name) for c in t.schema.columns]
    if dupes := _duplicates(new_names):
        raise ExecError(op, f"rename collides on {dupes}", detail=dupes[0])
    cols = [
        ColumnSpec(n, c.dtype, c.description)
        for n, c in zip(new_names, t.schema.columns)
    ]
    return _build_table(t.name, cols, list(t.rows), t.schema.description)


def _exec_add_new_column(op, t):
    return _append_column(t, op.params["name"], list(_func_cells(op, t)), op)


def _exec_drop_column(op, t):
    p = op.params
    _col_indexes(t, p["columns"], op)
    drop = set(p["columns"])
    keep = [i for i, c in enumerate(t.schema.columns) if c.name not in drop]
    if not keep:
        raise ExecError(op, "cannot drop every column", detail=p["table"])
    cols = [t.schema.columns[i] for i in keep]
    rows = list(map(_picker(keep), t.rows))
    return _build_table(t.name, cols, rows, t.schema.description)


def _exec_split_column(op, t):
    p = op.params
    src_idx = _col_index(t, p["source"], op)
    targets = p["target"]
    remaining = [c.name for i, c in enumerate(t.schema.columns) if i != src_idx]
    if dupes := _duplicates(targets):
        raise ExecError(op, f"duplicate target column name {dupes[0]!r}", detail=dupes[0])
    for name in targets:
        if name in remaining:
            raise ExecError(op, f"target column {name!r} already exists", detail=name)
    nulls, rows = (None,) * len(targets), []
    for r, (row, v) in enumerate(zip(t.rows, _func_cells(op, t, src_idx))):
        if row[src_idx] is None:
            piece = nulls
        elif not isinstance(v, tuple):
            raise ExecError(op, f"row {r}: func must yield a list", detail=p["source"])
        else:
            piece = (v + nulls)[: len(targets)]  # cut or padded with nulls to the targets
        rows.append(row[:src_idx] + piece + row[src_idx + 1:])
    specs = list(t.schema.columns)
    specs[src_idx:src_idx + 1] = [ColumnSpec(target, TEXT) for target in targets]
    return _table_of_rows(t.name, specs, rows, op, t.schema.description)


def _exec_concatenate(op, t):
    p = op.params
    if not p["columns"]:
        raise ExecError(op, "columns must not be empty", detail=p["table"])
    _col_indexes(t, p["columns"], op)
    return _append_column(t, p["target"], list(_func_cells(op, t)), op)


def _exec_select_column(op, t):
    p = op.params
    if not p["columns"]:
        raise ExecError(op, "must keep at least one column", detail=p["table"])
    _col_indexes(t, p["columns"], op)
    keep_set = set(p["columns"])
    keep = [i for i, c in enumerate(t.schema.columns) if c.name in keep_set]
    cols = [t.schema.columns[i] for i in keep]
    rows = list(map(_picker(keep), t.rows))
    return _build_table(t.name, cols, rows, t.schema.description)


def _exec_subtitle(op, t):
    p = op.params
    cells = [p["title"]] * t.n_rows
    return _append_column(t, p["target_col"], cells, op)


# ---------------------------------------------------------------------------
# row selection
# ---------------------------------------------------------------------------

def _exec_filter(op, t):
    rows = []
    for r, (row, v) in enumerate(zip(t.rows, _func_cells(op, t))):
        if v is True:
            rows.append(row)
        elif v is not None and not isinstance(v, bool):
            raise ExecError(
                op, f"row {r}: func returned {render_cell(v)!r}, expected boolean",
                detail=render_cell(v),
            )
    return Table.trusted(t.schema, tuple(rows))


def _exec_sort(op, t):
    p = op.params
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
    return Table.trusted(t.schema, tuple(map(t.rows.__getitem__, sort_order(t, idxs, asc))))


def _exec_topk(op, t):
    p = op.params
    if p["k"] < 0:
        raise ExecError(op, f"k must be non-negative, got {p['k']}", detail=str(p["k"]))
    return Table.trusted(t.schema, t.rows[: p["k"]])


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _fold(fn: str, cells: list[Cell], op: OperatorInstance, where: str,
          numeric: bool = False) -> Cell:
    """One aggregate of one group's cells. `numeric`: the cells' column is
    INT or REAL, so every non-null cell is a finite non-bool number (the
    Table invariant) and needs no kind check."""
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
        if not numeric and not all(_is_number(c) for c in present):
            raise ExecError(op, f"{fn} needs numeric values in {where}", detail=where)
        total = sum(present)
        if fn == "sum":
            return total
        return total / len(present)
    if numeric:
        return (min if fn == "min" else max)(present)
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


def _exec_group_by(op, t):
    p = op.params
    key_idxs = _col_indexes(t, p["by"], op)
    agg: dict[str, str] = p["agg"]
    agg_idxs = {col: _col_index(t, col, op) for col in agg}

    specs = [t.schema.columns[i] for i in key_idxs] + [
        ColumnSpec(f"{col}_{fn}", _agg_fallback(fn, t.schema.columns[agg_idxs[col]].dtype))
        for col, fn in agg.items()
    ]
    if not specs:
        raise ExecError(op, "group by needs key columns or aggregates", detail=p["table"])
    if dupes := _duplicates([c.name for c in specs]):
        raise ExecError(op, f"duplicate output column {dupes[0]!r}", detail=dupes[0])

    groups: defaultdict[tuple, list[tuple]] = defaultdict(list)
    for k, row in zip(row_keys(t, key_idxs), t.rows):
        groups[k].append(row)

    pick_keys = _picker(key_idxs)
    folds = [
        (itemgetter(i), fn, f"column {col!r}", t.schema.columns[i].dtype in (INT, REAL))
        for (col, fn), i in zip(agg.items(), agg_idxs.values())
    ]
    # group by group, so a failing fold names the first group that fails
    rows = [
        pick_keys(group[0])
        + tuple([_fold(fn, list(map(get, group)), op, where, num) for get, fn, where, num in folds])
        for group in groups.values()
    ]
    return _table_of_rows(t.name, specs, rows, op, t.schema.description)


def _exec_count(op, t):
    cols = [ColumnSpec("count", INT)]
    return _build_table(t.name, cols, [(t.n_rows,)], t.schema.description)


def _exec_calculate_statistic(op, t):
    p = op.params
    stat = p["stat"]
    present = [v for v in _func_cells(op, t) if v is not None]
    if not present and stat != "sum":
        raise ExecError(op, f"{stat} over no values", detail=stat)
    if stat == "sum" and not present:
        result: Cell = 0
    else:
        result = _fold(stat, present, op, "func values")
    return _table_of_rows(t.name, [ColumnSpec(stat, INT)], [(result,)], op, t.schema.description)


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


def _picker(idxs: Sequence[int]) -> Callable[[tuple], tuple]:
    """Tuple row -> the tuple of its cells at idxs. itemgetter returns a bare
    cell for one index and takes no empty list, so those two get a slice of
    the row, which is a tuple."""
    if len(idxs) > 1:
        return itemgetter(*idxs)
    return itemgetter(slice(idxs[0], idxs[0] + 1) if idxs else slice(0))


def _exec_join(op, left, right):
    p = op.params
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
    promoted = []  # key positions where an int key meets a real one
    for j, (li, ri) in enumerate(zip(l_keys, r_keys)):
        lc, rc = left.schema.columns[li], right.schema.columns[ri]
        cols.append(ColumnSpec(lc.name, _reconcile_dtype(lc, rc, op), lc.description))
        if lc.dtype != rc.dtype:
            promoted.append(j)
    for i in l_rest:
        c = left.schema.columns[i]
        name = f"{c.name}_left" if c.name in r_rest_names else c.name
        cols.append(ColumnSpec(name, c.dtype, c.description))
    for i in r_rest:
        c = right.schema.columns[i]
        name = f"{c.name}_right" if c.name in l_rest_names else c.name
        cols.append(ColumnSpec(name, c.dtype, c.description))
    if dupes := _duplicates([c.name for c in cols]):
        raise ExecError(op, f"duplicate output column {dupes[0]!r}", detail=dupes[0])

    def index(keys, parts):
        """Row parts by key; a key holding a null never matches, so it is left out."""
        out: dict[tuple, list[tuple]] = {}
        for k, part in zip(keys, parts):
            if None not in k:
                out.setdefault(k, []).append(part)
        return out

    # an output row is the left keys and rest, then the right rest; a right
    # row without a match leads with its own keys
    l_part, r_part, r_lead = _picker(l_keys + l_rest), _picker(r_rest), _picker(r_keys)
    l_pad, r_pad = (None,) * len(l_rest), (None,) * len(r_rest)
    l_row_keys = row_keys(left, l_keys)
    r_row_keys = row_keys(right, r_keys)
    if how != "right":
        r_index = index(r_row_keys, map(r_part, right.rows))
        get = r_index.get
        # an unmatched left row is padded in a left or outer join, dropped in an inner one
        pads = () if how == "inner" else (r_pad,)
        rows = [lp + rp for k, lp in zip(l_row_keys, map(l_part, left.rows))
                for rp in get(k) or pads]
        if how == "outer":
            matched = r_index.keys() & l_row_keys
            rows += [r_lead(r_row) + l_pad + r_part(r_row)
                     for k, r_row in zip(r_row_keys, right.rows) if k not in matched]
    else:  # right join: every right row survives, in right order
        get = index(l_row_keys, map(l_part, left.rows)).get
        rows = [lp + rp for k, r_row, rp in zip(r_row_keys, right.rows, map(r_part, right.rows))
                for lp in get(k) or (r_lead(r_row) + l_pad,)]

    for j in promoted:  # the int cells of a promoted key become floats
        rows = [row[:j] + (float(row[j]) if type(row[j]) is int else row[j],) + row[j + 1:]
                for row in rows]

    return _build_table(f"{p['left']}_{p['right']}_join", cols, rows)


def _stack(
    op: OperatorInstance, tables: list[Table], name: str,
    description: str | None = None, distinct: bool = False,
) -> Table:
    """The tables' rows one below another, in the first table's column order;
    every table must have its column names. `distinct` keeps the first of
    equal rows."""
    first = tables[0]
    base_names = first.column_names
    all_rows: list[tuple] = []
    keys: list[tuple] = []
    for t in tables:
        if set(t.column_names) != set(base_names):
            raise ExecError(
                op, f"table {t.name!r} columns {sorted(t.column_names)} do not match "
                    f"{sorted(base_names)}", detail=t.name,
            )
        idxs = [t.column_index(n) for n in base_names]
        all_rows.extend(map(_picker(idxs), t.rows))
        if distinct:
            # hash keys are equal exactly when cells are, whichever table keyed them
            keys.extend(row_keys(t, idxs))
    if distinct:
        all_rows = _dedupe_rows(all_rows, keys, "first")
    return _table_of_rows(name, first.schema.columns, all_rows, op, description)


def _exec_union(op, tables):
    p = op.params
    return _stack(op, tables, "_".join(p["tables"]) + "_union", distinct=p["how"] == "distinct")


def _exec_append(op, t, other):
    return _stack(op, [t, other], t.name, t.schema.description)


# ---------------------------------------------------------------------------
# reshaping
# ---------------------------------------------------------------------------

def _exec_pivot(op, t):
    p = op.params
    idx_idxs = _col_indexes(t, p["index"], op)
    col_idx = _col_index(t, p["columns"], op)
    val_idx = _col_index(t, p["values"], op)
    aggfunc = p["aggfunc"]

    col_cells = list(map(itemgetter(col_idx), t.rows))
    if bad := [col_cells.index(v) for v in (None, "") if v in col_cells]:
        r = min(bad)  # a label names an output column
        what = "null" if col_cells[r] is None else "empty"
        raise ExecError(op, f"row {r}: {what} value in columns column", detail=p["columns"])
    row_labels = column_texts(col_cells)
    labels = list(dict.fromkeys(row_labels))
    for label in labels:
        if label in p["index"]:
            raise ExecError(op, f"pivot column {label!r} collides with an index column", detail=label)

    # index key -> label -> values, both in the order first seen
    index_keys = row_keys(t, idx_idxs)
    buckets: defaultdict[tuple, defaultdict[str, list[Cell]]] = defaultdict(lambda: defaultdict(list))
    for ik, label, v in zip(index_keys, row_labels, map(itemgetter(val_idx), t.rows)):
        buckets[ik][label].append(v)

    if aggfunc == "first_strict":
        for by_label in buckets.values():
            for label, vals in by_label.items():
                if len(vals) > 1:
                    raise ExecError(
                        op, f"duplicate entries for index/column pair ({label!r})", detail=label
                    )

    fold_fn = "first" if aggfunc == "first_strict" else aggfunc
    where, numeric = f"column {p['values']!r}", t.schema.columns[val_idx].dtype in (INT, REAL)
    # a key's last write in reverse row order is its first row
    first_rows = dict(zip(reversed(index_keys), reversed(t.rows)))
    pick_index = _picker(idx_idxs)
    # index key by index key, so a failing fold names the first key that fails
    rows = [
        pick_index(first_rows[ik]) + tuple(
            [_fold(fold_fn, by_label[label], op, where, numeric) if label in by_label else None
             for label in labels]
        )
        for ik, by_label in buckets.items()
    ]

    label_dtype = _agg_fallback(fold_fn, t.schema.columns[val_idx].dtype)
    specs = [t.schema.columns[i] for i in idx_idxs]
    specs += [ColumnSpec(label, label_dtype) for label in labels]
    return _table_of_rows(f"{t.name}_pivot", specs, rows, op)


def _exec_stack(op, t):
    p = op.params
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

    pick_ids, pairs = _picker(id_idxs), list(zip(p["value_vars"], val_idxs))
    rows = [pick_ids(row) + (name, row[vi]) for row in t.rows for name, vi in pairs]
    specs = [t.schema.columns[i] for i in id_idxs]
    specs += [ColumnSpec("variable", TEXT), ColumnSpec("value", TEXT)]
    return _table_of_rows(f"{t.name}_stack", specs, rows, op)


def _exec_wide_to_long(op, t):
    p = op.params
    stubs = p["stubnames"]
    i_idxs = _col_indexes(t, p["i"], op)
    j_name = p["j"]
    if dupes := _duplicates(stubs):
        raise ExecError(op, f"duplicate stub name {dupes[0]!r}", detail=dupes[0])

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

    # a row gains a null and the suffix; one picker per suffix reads the id
    # cells, the suffix and each stub's column, or the null where it has none
    n = len(t.schema.columns)
    pickers = [
        (suffix, _picker([*i_idxs, n + 1, *[col_map.get((stub, suffix), n) for stub in stubs]]))
        for suffix in suffixes
    ]
    rows = [pick(row + (None, suffix)) for row in t.rows for suffix, pick in pickers]
    specs = [t.schema.columns[i] for i in i_idxs] + [ColumnSpec(n, TEXT) for n in [j_name, *stubs]]
    return _table_of_rows(f"{t.name}_widetolong", specs, rows, op)


def _exec_transpose(op, t):
    names = ["column"] + [f"r{i}" for i in range(t.n_rows)]
    cols = [ColumnSpec(n, TEXT) for n in names]
    rows = []
    for j, c in enumerate(t.schema.columns):
        row: list[Cell] = [c.name]
        for r in range(t.n_rows):
            v = t.rows[r][j]
            row.append(None if v is None else render_cell(v))
        rows.append(tuple(row))
    return _build_table(f"{t.name}_transpose", cols, rows)


def _exec_explode(op, t):
    p = op.params
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
    specs = list(t.schema.columns)
    specs[idx] = ColumnSpec(specs[idx].name, TEXT, specs[idx].description)
    return _table_of_rows(f"{t.name}_explode", specs, exploded, op, t.schema.description)


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

    Input tables arrive on stdin as UTF-8 csv sections, each preceded by a
    `--- table: <name>` line. The script must write a single UTF-8 csv table
    to stdout and exit 0 within the wall-clock timeout.
    """

    argv: list[str]
    timeout: float = 10.0

    def run(self, code: str, tables: dict[str, Table], target: str) -> Table:
        import subprocess
        import tempfile

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
                    input=stdin_text.encode("utf-8"),
                    capture_output=True,
                    timeout=self.timeout,
                )
            except subprocess.TimeoutExpired:
                raise ExecError(
                    None, f"script timed out after {self.timeout}s", detail="timeout"
                ) from None
            except OSError as exc:
                raise ExecError(None, f"cannot launch script backend: {exc}") from None
            if proc.returncode != 0:
                tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
                raise ExecError(
                    None,
                    f"script exited with code {proc.returncode}: {' | '.join(tail)}",
                    detail=str(proc.returncode),
                )
            try:
                # no newline translation, so a quoted \r in a cell stays a \r
                return table_from_csv_text(proc.stdout.decode("utf-8"), target)
            except UnicodeDecodeError as exc:
                raise ExecError(
                    None, f"script output is not UTF-8: {exc}", detail="stdout"
                ) from None
            except TableError as exc:
                raise ExecError(None, f"script output is not a csv table: {exc}") from None
        finally:
            Path(script.name).unlink(missing_ok=True)


def _exec_execode(op, tables, backend: ScriptBackend | None):
    p = op.params
    if not p["target"]:
        raise ExecError(op, "target table name must be non-empty", detail="target")
    if backend is None:
        raise ExecError(op, "script backend is disabled", detail="backend")
    try:
        result = backend.run(p["func"], dict(zip(p["tables"], tables)), p["target"])
    except ExecError as exc:
        raise ExecError(op, exc.message, exc.detail) from None
    except Exception as exc:  # backend bug or script misbehavior
        raise ExecError(op, f"script backend failed: {exc}") from None
    if not isinstance(result, Table):
        raise ExecError(op, "script backend returned a non-table")
    # script output is untrusted: the checked constructor re-validates every cell
    return Table(Schema(p["target"], result.schema.columns, result.schema.description), result.rows)


# ---------------------------------------------------------------------------
# the registry: each operator's signature and handler
# ---------------------------------------------------------------------------

REGISTRY: dict[str, OperatorSig] = {
    s.kind: s
    for s in [
        # cleaning
        _sig("DropNA", "cleaning", _exec_dropna,
             "drop rows with nulls in the subset columns ([] means all columns); how is any|all",
             Param("table", P_TABLE), Param("subset", P_COLUMN_LIST),
             Param("how", P_ENUM, ("any", "all"))),
        _sig("MissingValueImputation", "cleaning", _exec_imputation,
             "fill nulls in a column with its mean, median, or mode",
             Param("table", P_TABLE), Param("column", P_COLUMN),
             Param("mode", P_ENUM, ("mean", "median", "mode"))),
        _sig("Deduplicate", "cleaning", _exec_deduplicate,
             "drop rows whose subset columns repeat ([] means all columns); keep is first|last",
             Param("table", P_TABLE), Param("subset", P_COLUMN_LIST),
             Param("keep", P_ENUM, ("first", "last"))),
        _sig("ErrorDetection", "cleaning", _exec_error_detection,
             "evaluate a boolean func per row into a new <column>_invalid flag (true = invalid)",
             Param("table", P_TABLE), Param("column", P_COLUMN), Param("func", P_EXPR)),
        _sig("OutlierDetection", "cleaning", _exec_outlier_detection,
             "flag or remove rows more than 3 standard deviations from the column mean",
             Param("table", P_TABLE), Param("column", P_COLUMN),
             Param("action", P_ENUM, ("remove", "flag"))),
        # normalization
        _sig("ValueTransform", "normalization", _exec_value_transform,
             "rewrite a column by evaluating func per row; nulls pass through untouched",
             Param("table", P_TABLE), Param("column", P_COLUMN), Param("func", P_EXPR)),
        _sig("StandardizeDatetime", "normalization", _exec_standardize_datetime,
             "parse heterogeneous date text in a column and render it with the given format",
             Param("table", P_TABLE), Param("column", P_COLUMN), Param("format", P_TEXT)),
        _sig("CastType", "normalization", _exec_cast_type,
             "cast every non-null cell of a column to int|real|text|bool; any failure aborts",
             Param("table", P_TABLE), Param("column", P_COLUMN),
             Param("dtype", P_ENUM, (INT, REAL, TEXT, BOOL))),
        # schema editing
        _sig("RenameColumn", "schema", _exec_rename_column,
             "rename columns via an {old: new} map",
             Param("table", P_TABLE), Param("rename_map", P_RENAME_MAP)),
        _sig("AddNewColumn", "schema", _exec_add_new_column,
             "append a column computed by func",
             Param("table", P_TABLE), Param("name", P_NEW_COLUMN), Param("func", P_EXPR)),
        _sig("DropColumn", "schema", _exec_drop_column,
             "remove the listed columns",
             Param("table", P_TABLE), Param("columns", P_COLUMN_LIST)),
        _sig("SplitColumn", "schema", _exec_split_column,
             "func must yield a list per row; elements fill the target columns and the source is dropped",
             Param("table", P_TABLE), Param("source", P_COLUMN),
             Param("target", P_NEW_COLUMN_LIST), Param("func", P_EXPR)),
        _sig("Concatenate", "schema", _exec_concatenate,
             "combine the listed columns via func into a new target column, keeping the sources",
             Param("table", P_TABLE), Param("columns", P_COLUMN_LIST),
             Param("target", P_NEW_COLUMN), Param("func", P_EXPR)),
        _sig("SelectColumn", "schema", _exec_select_column,
             "keep only the listed columns, in their original order",
             Param("table", P_TABLE), Param("columns", P_COLUMN_LIST)),
        _sig("Subtitle", "schema", _exec_subtitle,
             "append a constant text column",
             Param("table", P_TABLE), Param("title", P_TEXT), Param("target_col", P_NEW_COLUMN)),
        # row selection
        _sig("Filter", "rows", _exec_filter,
             "keep rows where func evaluates to boolean true; null or false drops the row",
             Param("table", P_TABLE), Param("func", P_EXPR)),
        _sig("Sort", "rows", _exec_sort,
             "stable multi-key sort; ascending is one bool or one per key; nulls sort first ascending",
             Param("table", P_TABLE), Param("by", P_COLUMN_LIST), Param("ascending", P_ASCENDING)),
        _sig("TopK", "rows", _exec_topk,
             "keep the first k rows in stored order",
             Param("table", P_TABLE), Param("k", P_INT)),
        # aggregation
        _sig("GroupBy", "aggregation", _exec_group_by,
             "group by key columns; agg maps column -> " + "|".join(AGG_FNS),
             Param("table", P_TABLE), Param("by", P_COLUMN_LIST), Param("agg", P_AGG_MAP)),
        _sig("Count", "aggregation", _exec_count,
             "reduce the table to a 1x1 count of rows",
             Param("table", P_TABLE)),
        _sig("CalculateStatistic", "aggregation", _exec_calculate_statistic,
             "fold func over all rows with sum|avg|min|max into a 1x1 table whose column is the stat name",
             Param("table", P_TABLE), Param("stat", P_ENUM, ("sum", "avg", "min", "max")),
             Param("func", P_EXPR)),
        # combination
        _sig("Join", "combination", _exec_join,
             "join two tables on key columns; how is inner|left|right|outer; output <left>_<right>_join",
             Param("left", P_TABLE), Param("right", P_TABLE),
             Param("on", P_COLUMN_LIST), Param("how", P_ENUM, ("inner", "left", "right", "outer"))),
        _sig("Union", "combination", _exec_union,
             "stack tables with identical column-name sets; how is all|distinct",
             Param("tables", P_TABLE_LIST), Param("how", P_ENUM, ("all", "distinct"))),
        _sig("Append", "combination", _exec_append,
             "append another table's rows below this one; the result keeps this table's name",
             Param("table", P_TABLE), Param("other", P_TABLE)),
        # reshaping
        _sig("Pivot", "reshaping", _exec_pivot,
             "one row per index tuple; the columns column's values become new columns; "
             "aggfunc adds first_strict, which errors on duplicate pairs",
             Param("table", P_TABLE), Param("index", P_COLUMN_LIST),
             Param("columns", P_COLUMN), Param("values", P_COLUMN),
             Param("aggfunc", P_ENUM, AGG_FNS + ("first_strict",))),
        _sig("Stack", "reshaping", _exec_stack,
             "melt value_vars into (variable, value) rows keyed by id_vars",
             Param("table", P_TABLE), Param("id_vars", P_COLUMN_LIST),
             Param("value_vars", P_COLUMN_LIST)),
        _sig("WideToLong", "reshaping", _exec_wide_to_long,
             "collapse <stub><sep?><suffix> columns into stub columns keyed by a new column j",
             Param("table", P_TABLE), Param("stubnames", P_NAME_LIST),
             Param("i", P_COLUMN_LIST), Param("j", P_NEW_COLUMN)),
        _sig("Transpose", "reshaping", _exec_transpose,
             "turn columns into rows; output columns are 'column', r0, r1, ... with text cells",
             Param("table", P_TABLE)),
        _sig("Explode", "reshaping", _exec_explode,
             "expand a list column to one row per element; an empty list yields one null row",
             Param("table", P_TABLE), Param("column", P_COLUMN)),
        # program synthesis
        _sig("ExeCode", "program", _exec_execode,
             "run func as a script over the named tables via the configured backend (off by default)",
             Param("tables", P_TABLE_LIST), Param("target", P_TEXT), Param("func", P_CODE)),
    ]
}


def execute_operator(
    op: OperatorInstance,
    state: TableSet,
    *,
    script_backend: ScriptBackend | None = None,
) -> TableSet:
    """Apply one operator to a table set, returning a new table set.

    The tables the operator names are consumed: they leave the set, and the
    handler's one output takes their place under its own name. Tables the
    operator does not name are carried over by reference. Raises ExecError
    on any failure; the input state is never mutated.
    """
    sig = REGISTRY.get(op.kind)
    if sig is None:
        raise ExecError(op, f"unknown operator {op.kind!r}", detail=op.kind)
    named: list[str] = []
    args: list[Any] = []
    for param in sig.params:
        if param.kind in (P_TABLE, P_TABLE_LIST):
            value = op.params[param.name]
            names = [value] if param.kind == P_TABLE else value
            for name in names:
                if name not in state:
                    raise ExecError(op, f"no table named {name!r}", detail=name)
            named += names
            tables = [state[name] for name in names]
            args.append(tables[0] if param.kind == P_TABLE else tables)
    if op.kind == "ExeCode":
        args.append(script_backend)
    try:
        out = sig.handler(op, *args)
    except ExecError:
        raise
    except (TableError, EvalError, OverflowError) as exc:
        # OverflowError: an int literal past a float's range met float math
        raise ExecError(op, str(exc)) from None
    # an output named like a table already in the set keeps that table's slot
    new_state = {k: t for k, t in state.items() if k == out.name or k not in named}
    new_state[out.name] = out
    return new_state
