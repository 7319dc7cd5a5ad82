"""Typed in-memory tables with canonical ordering and order-insensitive equality.

A Table is an immutable (schema, rows) pair. Cells are plain Python values:
None, bool, int, float, str, or a tuple of scalars (one nesting level only).
Integers must fit in 64 bits, reals must be finite, and each cell's kind must
match its column dtype. Table equality ignores row order and column order
but requires exact cell values, with integers and integer-valued reals
comparing equal (2 == 2.0). Cells have one order key, cell_sort_key (Null <
Boolean < numeric < Text < List), which every sort uses, and one hash key,
cell_hash_key, under which tables_equal compares the two row multisets.
Whole columns are keyed at once (column_keys, row_keys): an int, real or
text column holds only Null and its one kind, so its cells are their own
hash keys and, when it holds no Null, their own sort keys; only bool and
list columns, and for sorting a column holding a Null, are keyed cell by
cell.

Cells are checked once, where they enter. Table(schema, rows) checks every
cell and is the constructor for untrusted input: make_table, table_from_json
(logs and final tables) and synthesis corruption use it. It checks a column in
one pass at C speed (clean_column_kind) when every non-null cell is exactly
the column's Python type (int, float, str or bool), with the 64-bit range
of an int column read off its min and max and the reals tested with
math.isfinite; the rows are then kept as given. Any other table (a list
column, a bool in an int column, a subclass of int or str, a bad cell, a
ragged row) is checked row by row with validate_cell, which gives the same
rows and the same error text. The csv reader types and checks a column at a
time as it parses it (_csv_typed): one regex over the joined texts of an
int or real column, then int / float and the range check over all of them,
or one set of lowered texts for a bool column. A column that pass does not
take (a list column, a bad cell) is parsed cell by cell, which names the
first bad cell. Table.trusted skips the check; it is for tables whose cells
are already valid for their columns: operator outputs that move cells from
checked tables, plus columns an operator computes, which it checks with the
same column kernel first.

The module also provides a deterministic markdown rendering used for agent
observations, and csv file I/O with an optional JSON sidecar schema. A csv
file and csv text (ExeCode's output) go through one parser, so the same
text reads the same either way. Without a sidecar, a csv column's dtype is
the first of integer, real and boolean that parses the whole column, else
text; an empty csv cell always reads as Null. Every schema file is read by
read_schema, which names the file in each error.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Sequence

Cell = Any  # None | bool | int | float | str | tuple of scalars

INT = "int"
REAL = "real"
TEXT = "text"
BOOL = "bool"
LIST = "list"
DTYPES = (INT, REAL, TEXT, BOOL, LIST)

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# ASCII digits only: int() and float() also read other Unicode digits, which
# would then write back as different text
_INT_RE = re.compile(r"[+-]?[0-9]+")
_REAL_RE = re.compile(r"[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?")


class TableError(ValueError):
    """Invalid table construction or cell data."""


class TableIOError(TableError):
    """Malformed table file: csv text or a JSON schema."""


def value_kind(value: Cell) -> str | None:
    """Dtype name for a cell value, or None for Null."""
    if value is None:
        return None
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return REAL
    if isinstance(value, str):
        return TEXT
    if isinstance(value, (tuple, list)):
        return LIST
    raise TableError(f"unsupported cell value of type {type(value).__name__}")


def _validate_scalar(value: Cell, where: str) -> Cell:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        if not INT64_MIN <= value <= INT64_MAX:
            raise TableError(f"{where}: integer out of 64-bit range")
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise TableError(f"{where}: non-finite real value")
        return value
    raise TableError(f"{where}: unsupported cell value of type {type(value).__name__}")


def validate_cell(value: Cell, dtype: str, where: str) -> Cell:
    """Check a cell against a column dtype and return its normalized form.

    Lists are normalized to tuples. Null is accepted in any column.
    """
    if value is None:
        return None
    if isinstance(value, (tuple, list)):
        if dtype != LIST:
            raise TableError(f"{where}: list cell in {dtype} column")
        return tuple(_validate_scalar(v, where) for v in value)
    _validate_scalar(value, where)
    kind = value_kind(value)
    if kind != dtype:
        raise TableError(f"{where}: {kind} cell in {dtype} column")
    return value


_CLEAN_KINDS = {int: INT, float: REAL, str: TEXT, bool: BOOL}  # exact type -> dtype
_NULL_TYPE = type(None)


def clean_column_kind(cells: Sequence[Cell]) -> str | None:
    """The dtype of a column that one pass at C speed shows to be valid as it
    stands: every non-null cell is exactly int, float, str or bool (one of
    them), ints fit in 64 bits and reals are finite, so validate_cell would
    return each cell unchanged. None for an all-null column. "" when the pass
    cannot vouch for the column (list cells, mixed kinds, subclasses, a bad
    cell): such a column is checked cell by cell."""
    types = set(map(type, cells))
    has_nulls = _NULL_TYPE in types
    types.discard(_NULL_TYPE)
    if len(types) != 1:
        return "" if types else None
    kind = _CLEAN_KINDS.get(types.pop(), "")
    if kind in (INT, REAL):
        values = [v for v in cells if v is not None] if has_nulls else cells
        if kind == INT:
            fits = INT64_MIN <= min(values) and max(values) <= INT64_MAX
        else:
            fits = all(map(math.isfinite, values))
        if not fits:
            return ""
    return kind


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    dtype: str
    description: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise TableError("column name must be non-empty")
        if self.dtype not in DTYPES:
            raise TableError(f"unknown dtype {self.dtype!r} for column {self.name!r}")


@dataclass(frozen=True)
class Schema:
    table_name: str
    columns: tuple[ColumnSpec, ...]
    description: str | None = None

    def __post_init__(self) -> None:
        if not self.table_name:
            raise TableError("table name must be non-empty")
        object.__setattr__(self, "columns", tuple(self.columns))
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise TableError(f"duplicate column names in table {self.table_name!r}")

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)


@dataclass(frozen=True)
class Table:
    schema: Schema
    rows: tuple[tuple[Cell, ...], ...]

    def __post_init__(self) -> None:
        cols = self.schema.columns
        dtypes = [c.dtype for c in cols]
        rows = self.rows if type(self.rows) is tuple else tuple(self.rows)
        if (
            LIST not in dtypes  # list cells are normalized cell by cell
            and set(map(type, rows)) <= {tuple}
            and set(map(len, rows)) <= {len(cols)}
            and all(clean_column_kind(col) in (None, dt) for col, dt in zip(zip(*rows), dtypes))
        ):
            object.__setattr__(self, "rows", rows)
            return
        # some column needs a cell-by-cell look: check row by row, so the first
        # error is the first bad cell in row order
        checked = []
        for r, row in enumerate(rows):
            row = tuple(row)
            if len(row) != len(cols):
                raise TableError(
                    f"table {self.name!r} row {r}: expected {len(cols)} cells, got {len(row)}"
                )
            try:
                checked.append(tuple(map(validate_cell, row, dtypes, repeat(""))))
            except TableError:
                # check the row again, naming each cell, so the error says where
                for v, c in zip(row, cols):
                    validate_cell(v, c.dtype, f"table {self.name!r} row {r} column {c.name!r}")
                raise
        object.__setattr__(self, "rows", tuple(checked))

    @classmethod
    def trusted(cls, schema: Schema, rows: tuple[tuple[Cell, ...], ...]) -> "Table":
        """Build without checking cells. `rows` must be a tuple of tuples whose
        cells already pass validate_cell for their column dtypes."""
        t = object.__new__(cls)
        object.__setattr__(t, "schema", schema)
        object.__setattr__(t, "rows", rows)
        return t

    @property
    def name(self) -> str:
        return self.schema.table_name

    @property
    def column_names(self) -> tuple[str, ...]:
        return self.schema.column_names

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def column_index(self, name: str) -> int:
        for i, c in enumerate(self.schema.columns):
            if c.name == name:
                return i
        raise TableError(f"table {self.name!r} has no column {name!r}")

    def column(self, name: str) -> tuple[Cell, ...]:
        i = self.column_index(name)
        return tuple(row[i] for row in self.rows)


def column_specs(cols: Sequence[ColumnSpec | tuple]) -> tuple[ColumnSpec, ...]:
    out = []
    for c in cols:
        if isinstance(c, ColumnSpec):
            out.append(c)
        else:
            out.append(ColumnSpec(*c))
    return tuple(out)


def make_table(
    name: str,
    cols: Sequence[ColumnSpec | tuple],
    rows: Iterable[Sequence[Cell]],
    description: str | None = None,
) -> Table:
    """Build a table from (name, dtype[, description]) column specs."""
    return Table(Schema(name, column_specs(cols), description), tuple(tuple(r) for r in rows))


def infer_column(cells: list[Cell], fallback: str = TEXT) -> tuple[str, list[Cell], bool]:
    """Resolve a column from its cells: its dtype, its cells with ints cast to
    float when it resolved to real, and whether clean_column_kind vouches for
    those cells (validate_cell would then pass each as it stands).

    All-null columns take the fallback. A pure int / real mix promotes to
    real; any other mix is an error. Unless the column is an int / real mix,
    one clean_column_kind pass serves both the dtype and the check.
    """
    kind = clean_column_kind(cells)
    if kind != "":
        return kind or fallback, cells, True
    kinds = {value_kind(c) for c in cells if c is not None}
    if len(kinds) == 1:
        return kinds.pop(), cells, False
    if kinds <= {INT, REAL}:
        cells = [float(c) if isinstance(c, int) else c for c in cells]
        return REAL, cells, clean_column_kind(cells) == REAL
    raise TableError(f"mixed cell kinds {sorted(kinds)} in one column")


# ---------------------------------------------------------------------------
# ordering and equality
# ---------------------------------------------------------------------------

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


def cell_sort_key(v: Cell) -> tuple:
    """Sort key for the total order over cells: Null < Boolean < numeric <
    Text < List. Numbers stay raw, so int / real order stays exact; text keys
    on the str, as code-point order is UTF-8 order; lists compare elementwise,
    then by length."""
    if v is None:
        return (0,)
    if isinstance(v, bool):
        return (1, v)
    if isinstance(v, (int, float)):
        return (2, v)
    if isinstance(v, str):
        return (3, v)
    return (4, tuple(map(cell_sort_key, v)))


def cell_hash_key(v: Cell) -> Any:
    """Hashable key, equal exactly when cells_equal holds. Null, numbers and text
    key as themselves (2 == 2.0 and -0.0 == 0.0, with equal hashes); bools and
    lists are tagged, so True stays apart from 1 and no list meets a scalar."""
    if isinstance(v, bool):
        return ("bool", v)
    if isinstance(v, tuple):
        return ("list", tuple(map(cell_hash_key, v)))
    return v


def canonicalize(t: Table) -> Table:
    """Reorder columns by name and rows lexicographically. Idempotent."""
    cols = t.schema.columns
    order = sorted(range(len(cols)), key=lambda i: cols[i].name)
    new_cols = tuple(cols[i] for i in order)
    new_rows = [tuple(row[i] for i in order) for row in t.rows]
    new_rows.sort(key=lambda row: tuple(map(cell_sort_key, row)))
    return Table.trusted(Schema(t.name, new_cols, t.schema.description), tuple(new_rows))


_SELF_KEYED = (INT, REAL, TEXT)


def self_keyed(dtype: str, cells: Sequence[Cell], sort: bool = False) -> bool:
    """Whether a column's cells are their own keys. A checked or trusted int,
    real or text column holds only Null and its one kind, and cell_hash_key
    returns such a cell as it is. Raw cells also order as their cell_sort_key
    tuples do, unless a Null (which orders against nothing) is among them."""
    return dtype in _SELF_KEYED and not (sort and None in cells)


def column_keys(t: Table, i: int, sort: bool = False) -> list:
    """Column i's keys: cell_sort_key if `sort`, else cell_hash_key, per cell,
    except that a self_keyed column is returned as its raw cells."""
    cells = list(map(itemgetter(i), t.rows))
    if self_keyed(t.schema.columns[i].dtype, cells, sort):
        return cells
    return list(map(cell_sort_key if sort else cell_hash_key, cells))


def row_keys(t: Table, idxs: Sequence[int]) -> list[tuple]:
    """Each row's tuple of hash keys (column_keys) over the columns idxs."""
    if not idxs:
        return [()] * t.n_rows
    return list(zip(*[column_keys(t, i) for i in idxs]))


def _hashed_rows(t: Table, names: Sequence[str]) -> Counter:
    """Multiset of rows projected onto `names`, keyed as cell_hash_key keys them."""
    return Counter(row_keys(t, [t.column_index(n) for n in names]))


def tables_equal(a: Table, b: Table) -> bool:
    """Order-insensitive table equality.

    Compares the column-name sets and the exact row multiset, with rows
    hashed by cell_hash_key. Dtype labels are not compared; cell values decide.
    """
    names = sorted(a.column_names)
    if names != sorted(b.column_names) or a.n_rows != b.n_rows:
        return False
    # plain dict equality: Counter's own == walks every key in Python, and
    # counts taken from rows are all positive, so the two tests agree
    return dict.__eq__(_hashed_rows(a, names), _hashed_rows(b, names))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_scalar(v: Cell) -> str:
    """Canonical text for a non-null scalar: 2 -> "2", 2.5 -> "2.5", True -> "true"."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, str):
        return v
    raise TableError(f"cannot render value of type {type(v).__name__} as text")


def _jsonable(v: Cell) -> Any:
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    return v


def render_cell(v: Cell) -> str:
    """Cell text for csv and markdown output. Null renders as the empty string."""
    if v is None:
        return ""
    if isinstance(v, tuple):
        return json.dumps(_jsonable(v), ensure_ascii=False)
    return render_scalar(v)


def _md_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace("|", "\\|").replace("\n", "\\n").replace("\r", "\\r")


def serialize_table(t: Table, sample_rows: int = 5) -> str:
    """Deterministic markdown rendering: header, dtype row, sample rows, row count.

    The output always has 3 + min(sample_rows, n_rows) lines.
    """
    if sample_rows < 0:
        raise ValueError("sample_rows must be >= 0")
    lines = [
        "| " + " | ".join(_md_escape(c.name) for c in t.schema.columns) + " |",
        "| " + " | ".join(c.dtype for c in t.schema.columns) + " |",
    ]
    for row in t.rows[:sample_rows]:
        lines.append("| " + " | ".join(_md_escape(render_cell(v)) for v in row) + " |")
    lines.append(f"rows: {t.n_rows}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def schema_to_json(schema: Schema) -> dict:
    return {
        "table_name": schema.table_name,
        "description": schema.description,
        "columns": [
            {"name": c.name, "dtype": c.dtype, "description": c.description}
            for c in schema.columns
        ],
    }


def _json_type(value: Any) -> str:
    return "null" if value is None else type(value).__name__


def _json_text(obj: Any, key: str, null_ok: bool = False) -> str | None:
    """obj[key] from a schema's JSON form: text, or null (or absent) if null_ok."""
    if not isinstance(obj, dict):
        raise TableError(f"expected an object, got {_json_type(obj)}")
    value = obj.get(key)
    if isinstance(value, str) or (null_ok and value is None):
        return value
    raise TableError(f"{key!r} must be text{' or null' if null_ok else ''}, got {_json_type(value)}")


def schema_from_json(data: Any) -> Schema:
    """The Schema of a JSON object. Table and column names and dtypes must be
    text, descriptions text or null; anything else is a TableIOError."""
    try:
        name = _json_text(data, "table_name")
        columns = data.get("columns")
        if not isinstance(columns, list):
            raise TableError(f"'columns' must be a list, got {_json_type(columns)}")
        cols = tuple(
            ColumnSpec(
                _json_text(c, "name"), _json_text(c, "dtype"), _json_text(c, "description", True)
            )
            for c in columns
        )
        return Schema(name, cols, _json_text(data, "description", True))
    except TableError as exc:
        raise TableIOError(f"malformed schema json: {exc}") from None


def table_to_json(t: Table) -> dict:
    """Full-fidelity embedding for logs: schema plus typed rows."""
    rows = list(map(list, t.rows))
    lists = [i for i, c in enumerate(t.schema.columns) if c.dtype == LIST]
    if lists:  # only a list cell is a tuple to turn into a json list
        for row in rows:
            for i in lists:
                row[i] = _jsonable(row[i])
    return {"schema": schema_to_json(t.schema), "rows": rows}


def table_from_json(data: dict) -> Table:
    schema = schema_from_json(data["schema"])
    try:
        # the checked constructor turns a list cell of a list column into a
        # tuple, and rejects a list in a scalar column as it rejects a tuple
        rows = tuple(map(tuple, data["rows"]))
    except TypeError as exc:
        raise TableIOError(f"malformed table json: {exc}") from None
    return Table(schema, rows)


def sidecar_path(path: str | Path) -> str:
    return f"{path}.schema.json"


def _read_text(path: str | Path) -> str | None:
    """The UTF-8 text of the file at `path`, or None if there is no such file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _write_text(path: str | Path, text: str) -> None:
    """Write `text` as UTF-8, its line endings as given."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def write_schema(schema: Schema, path: str | Path) -> None:
    _write_text(path, json.dumps(schema_to_json(schema), indent=2, sort_keys=True) + "\n")


def read_schema(path: str | Path) -> Schema:
    """The schema in the JSON file at `path`. Every schema file, a table's
    sidecar or a bundle's target_schema.json, is read here, and each error
    names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return schema_from_json(json.load(fh))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise TableIOError(f"cannot read schema {path}: {exc}") from None
    except TableIOError as exc:
        raise TableIOError(f"{path}: {exc}") from None


def _column_re(cell: re.Pattern) -> re.Pattern:
    """A whole column of `cell`-shaped texts joined with newlines."""
    return re.compile(f"{cell.pattern}(?:\n{cell.pattern})*")


# A quoted csv cell may hold a newline. It then breaks the joined pattern (an
# empty line) or has digits on both sides of it, which int / float reject.
_CSV_NUMBERS = {INT: (_column_re(_INT_RE), int), REAL: (_column_re(_REAL_RE), float)}
_CSV_BOOLS = {"true": True, "false": False}


def _csv_typed(values: Sequence[str], dtype: str) -> Sequence[Cell] | None:
    """Typed cells of a column of non-empty csv cells, parsed a column at a
    time at C speed: int and real columns by one regex over the joined
    column, then int / float and a range check over all cells at once; bool
    columns by one set of lowered texts. Exactly when every cell parses as
    _csv_parse_cell would parse it, the result is those cells; else (and for
    list columns) it is None."""
    if dtype == TEXT or not values:
        return values
    if dtype == BOOL:
        lowered = list(map(str.lower, values))
        if set(lowered) <= _CSV_BOOLS.keys():
            return list(map(_CSV_BOOLS.__getitem__, lowered))
        return None
    if dtype not in _CSV_NUMBERS:
        return None
    shape, convert = _CSV_NUMBERS[dtype]
    if shape.fullmatch("\n".join(values)) is None:
        return None
    try:
        typed = list(map(convert, values))
    except ValueError:
        return None
    if dtype == INT:
        fits = INT64_MIN <= min(typed) and max(typed) <= INT64_MAX
    else:
        fits = all(map(math.isfinite, typed))
    return typed if fits else None


def _csv_parse_cell(text: str, dtype: str) -> Cell:
    """Typed value of a non-empty csv cell, checked as validate_cell would;
    raises ValueError (or RecursionError for a deeply nested list)."""
    if dtype == INT:
        if not _INT_RE.fullmatch(text):
            raise ValueError("not an integer")
        v = int(text)
        if not INT64_MIN <= v <= INT64_MAX:
            raise ValueError("integer out of 64-bit range")
        return v
    if dtype == REAL:
        if not _REAL_RE.fullmatch(text):  # float() alone also takes "1_0", " 2", "inf"
            raise ValueError("not a real number")
        v = float(text)
        if not math.isfinite(v):
            raise ValueError("non-finite")
        return v
    if dtype == BOOL:
        low = text.lower()
        if low == "true":
            return True
        if low == "false":
            return False
        raise ValueError("not a boolean")
    if dtype == LIST:
        v = json.loads(text)
        if not isinstance(v, list):
            raise ValueError("not a json list")
        return tuple(_validate_scalar(x, "list element") for x in v)
    return text


def _csv_parse_column(
    cells: Sequence[str], dtype: str | None, origin: str, name: str
) -> tuple[str, Sequence[Cell]]:
    """Dtype and typed cells of one csv column; an empty cell is Null.

    Without a dtype (no sidecar) the column is the first of int, real and
    bool that parses it, else text; an all-null column is text. A column
    that _csv_typed does not take is parsed cell by cell, which names the
    first bad cell in a TableIOError.
    """
    values = [c for c in cells if c != ""] if "" in cells else cells
    if dtype is not None:
        typed = _csv_typed(values, dtype)
    else:
        for dtype in (INT, REAL, BOOL, TEXT) if values else (TEXT,):
            typed = _csv_typed(values, dtype)
            if typed is not None:
                break
    if typed is None:
        parsed = []
        for r, text in enumerate(cells):
            try:
                parsed.append(None if text == "" else _csv_parse_cell(text, dtype))
            # JSONDecodeError and TableError are ValueErrors
            except (ValueError, RecursionError) as exc:
                raise TableIOError(
                    f"{origin} row {r} column {name!r}: cannot parse {text!r} as {dtype}: {exc}"
                ) from None
        return dtype, parsed
    if len(typed) == len(cells):
        return dtype, typed
    fill = iter(typed).__next__
    return dtype, [fill() if c else None for c in cells]


def _parse_csv(text: str, origin: str, name: str, schema: Schema | None) -> Table:
    """The table csv `text` holds; `origin` (a file path, or "table 'name'")
    starts every error message. A record ends at "\n", "\r\n" or "\r"
    outside quotes."""
    try:
        data = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise TableIOError(f"{origin}: malformed csv: {exc}") from None
    if not data:
        raise TableIOError(f"{origin}: empty input, expected a header row")
    if [] in data:  # a blank line is a record with a single empty field
        data = [row or [""] for row in data]
    header, raw_rows = data[0], data[1:]
    if "" in header:
        raise TableIOError(f"{origin}: empty column name in header")
    if len(set(header)) != len(header):
        raise TableIOError(f"{origin}: duplicate column names in header")
    if set(map(len, raw_rows)) - {len(header)}:
        i, row = next((i, row) for i, row in enumerate(raw_rows) if len(row) != len(header))
        raise TableIOError(f"{origin}: row {i} has {len(row)} cells, expected {len(header)}")
    if schema is not None and tuple(header) != schema.column_names:
        raise TableIOError(
            f"{origin}: header {header} does not match sidecar columns "
            f"{list(schema.column_names)}"
        )

    columns = list(zip(*raw_rows)) or [()] * len(header)
    dtypes = [None] * len(header) if schema is None else [c.dtype for c in schema.columns]
    typed = [
        _csv_parse_column(cells, dtype, origin, h)
        for cells, dtype, h in zip(columns, dtypes, header)
    ]
    if schema is None:
        schema = Schema(name, tuple(ColumnSpec(h, dtype) for h, (dtype, _) in zip(header, typed)))
    # every cell was typed and checked above, so the table skips the re-check
    return Table.trusted(schema, tuple(zip(*(cells for _, cells in typed))))


def table_from_csv_text(text: str, name: str, schema: Schema | None = None) -> Table:
    """Parse csv text in memory, with the same rules as read_table."""
    return _parse_csv(text, f"table {name!r}", name, schema)


def table_to_csv_text(t: Table) -> str:
    r"""Render a table as csv text (header plus rows, RFC 4180 quoting); this
    is also the text write_table puts in a csv file.

    Lines end in "\n", or in "\r\n" when a cell holds "\r": the csv writer
    quotes only cells holding a character of its line terminator, and an
    unquoted "\r" would end the row when the text is read back.
    """
    rows = [t.column_names, *([render_cell(v) for v in row] for row in t.rows)]
    for ending in ("\n", "\r\n"):
        buf = io.StringIO()
        csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator=ending).writerows(rows)
        text = buf.getvalue()
        if "\r" not in text:
            break
    return text


def read_table(path: str | Path, *, schema: Schema | None = None) -> Table:
    """Read a csv table file.

    When no schema is given, a `<path>.schema.json` sidecar is used if
    present; otherwise dtypes are inferred and the table is named after the
    file stem.
    """
    sidecar = sidecar_path(path)
    if schema is None and os.path.exists(sidecar):
        schema = read_schema(sidecar)
    try:
        # newline="" keeps the text as written; the csv parser finds the ends
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise TableIOError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise TableIOError(f"{path}: malformed csv: {exc}") from None
    return _parse_csv(text, str(path), schema.table_name if schema else Path(path).stem, schema)


def write_table(t: Table, path: str | Path, *, sidecar: bool = True) -> None:
    """Write a table as csv, plus a sidecar schema by default.

    The sidecar preserves dtypes so that read_table round-trips exactly.
    One csv caveat: an empty text cell is indistinguishable from Null and
    reads back as Null.
    """
    _write_text(path, table_to_csv_text(t))
    if sidecar:
        write_schema(t.schema, sidecar_path(path))
