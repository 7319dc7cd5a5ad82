"""Typed in-memory tables with canonical ordering and order-insensitive equality.

A Table is an immutable (schema, rows) pair. Cells are plain Python values:
None, bool, int, float, str, or a tuple of scalars (one nesting level only).
Integers must fit in 64 bits, reals must be finite, and each cell's kind must
match its column dtype. Table equality ignores row order and column order
but requires exact cell values, with integers and integer-valued reals
comparing equal (2 == 2.0). Cells have one order key, cell_sort_key (Null <
Boolean < numeric < Text < List), by which sort_order, the one row sort,
orders rows, and one hash key, cell_hash_key, under which tables_equal
compares the two row multisets.
Whole columns are keyed at once (column_keys, row_keys): an int, real or
text column holds only Null and its one kind, so its cells are their own
hash keys and, when it holds no Null, their own sort keys; only bool and
list columns, and for sorting a column holding a Null, are keyed cell by
cell. When every column is int, real or text, a row taken over all columns
in order is its own key tuple, and row_keys returns the rows as they are;
tables_equal keys both tables in the first one's column order, so the
common comparison takes that path. When, besides, both tables list their
columns in one order and hold their rows in one order, as a correct answer
and a cleaner's output usually do, tables_equal compares the rows as
sequences and builds no multiset: over such cells == is cell_hash_key
equality, and two equal sequences are equal multisets.

Cells are checked once, where they enter. Table(schema, rows) checks every
cell and is the constructor for untrusted input: make_table and
table_from_json (logs and final tables) use it. It checks a column in
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
are already valid for their columns: operator outputs and synthesis
corruptions. An operator or corruption that keeps rows or leaves columns in
place moves cells from checked tables. Every other column of its output,
each one it computes and each one of an output it builds from new rows,
goes through infer_column, and through validate_cell when that cannot vouch
for it: a moved clean column passes in the one pass at C speed, and a list
column is checked cell by cell.

The module also provides a deterministic markdown rendering used for agent
observations (serialize_table). It renders the sampled rows a column at a
time, with one map per column whose cells are all exactly int, float or
str (any other column cell by cell through render_cell), and escapes only
when one regex search finds a character that needs it; the text is that of
escaping every cell's render_cell, row by row. The agent renders each table
object once per episode. The module also does csv file I/O with an optional
JSON sidecar schema. A csv file and csv text (ExeCode's output) go through
one parser, so the same text reads the same either way. Text with no quote,
carriage return or NUL is split with str.split: lines at newlines, one
comma count per line checked at C speed, then the joined body split once and
each column taken as a slice, with no list per row and no transpose. Any
other text, and a ragged row or a field longer than csv.field_size_limit(),
goes to csv.reader, which gives each error its text; NUL goes there because
csv rejects it before Python 3.11 and reads it from 3.11 on. The csv module
writes Null, int, real and text cells as render_cell renders them, so the
writer renders only bool and list columns and hands every other cell to it
as it is. Without a sidecar, a csv column's dtype is the first of integer,
real and boolean that parses the whole column, else text; an empty csv cell
always reads as Null. Every schema file is read by read_schema, which names
the file in each error.
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
from itertools import chain, repeat
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


def value_kind(value: Cell) -> str:
    """Dtype name for a non-null cell value; every caller handles Null first."""
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
        if not _numbers_fit(values, kind):
            return ""
    return kind


def _numbers_fit(values: Sequence[int | float], dtype: str) -> bool:
    """Whether a non-empty column of ints fits in 64 bits (dtype INT), or a
    column of floats is finite (REAL); one pass at C speed."""
    if dtype == INT:
        return INT64_MIN <= min(values) and max(values) <= INT64_MAX
    return all(map(math.isfinite, values))


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
        # error is the first bad cell in row order, and name each cell's place
        table, names = f"table {self.name!r} row ", [f" column {c.name!r}" for c in cols]
        checked = []
        for r, row in enumerate(rows):
            row = tuple(row)
            if len(row) != len(cols):
                raise TableError(f"{table}{r}: expected {len(cols)} cells, got {len(row)}")
            at = f"{table}{r}"
            checked.append(tuple(map(validate_cell, row, dtypes, map(at.__add__, names))))
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
        return tuple(map(itemgetter(self.column_index(name)), self.rows))


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
    """Hashable key; two cells are equal exactly when their keys are. Null,
    numbers and text key as themselves (2 == 2.0 and -0.0 == 0.0, with equal
    hashes); bools and lists are tagged, so True stays apart from 1, no list
    meets a scalar and lists are equal elementwise."""
    if isinstance(v, bool):
        return ("bool", v)
    if isinstance(v, tuple):
        return ("list", tuple(map(cell_hash_key, v)))
    return v


_SELF_KEYED = (INT, REAL, TEXT)


def column_keys(t: Table, i: int, sort: bool = False) -> list:
    """Column i's keys: cell_sort_key if `sort`, else cell_hash_key, per cell.
    An int, real or text column holds only Null and its one kind, whose cells
    are their own hash keys and, with no Null (which orders against nothing)
    among them, their own sort keys; it is then returned as its cells."""
    cells = list(map(itemgetter(i), t.rows))
    if t.schema.columns[i].dtype in _SELF_KEYED and not (sort and None in cells):
        return cells
    return list(map(cell_sort_key if sort else cell_hash_key, cells))


def sort_order(t: Table, idxs: Sequence[int], ascending: Sequence[bool] = ()) -> list[int]:
    """Row indexes in cell order over the columns idxs, ties in row order.
    `ascending` holds one flag per key; left empty, every key ascends."""
    ups = ascending or [True] * len(idxs)
    # stable passes from the last key to the first; reverse=True keeps ties stable
    order = list(range(t.n_rows))
    for i, up in reversed(list(zip(idxs, ups))):
        order.sort(key=column_keys(t, i, sort=True).__getitem__, reverse=not up)
    return order


def canonicalize(t: Table) -> Table:
    """Reorder columns by name and rows lexicographically. Idempotent."""
    cols = t.schema.columns
    idxs = sorted(range(len(cols)), key=lambda i: cols[i].name)
    rows = tuple(tuple(map(t.rows[r].__getitem__, idxs)) for r in sort_order(t, idxs))
    return Table.trusted(Schema(t.name, tuple(cols[i] for i in idxs), t.schema.description), rows)


def row_keys(t: Table, idxs: Sequence[int]) -> list[tuple]:
    """Each row's tuple of hash keys (column_keys) over the columns idxs.
    Over all columns in order, every one int, real or text, each row is its
    own key tuple."""
    if not idxs:
        return [()] * t.n_rows
    cols = t.schema.columns
    if list(idxs) == list(range(len(cols))) and all(c.dtype in _SELF_KEYED for c in cols):
        return list(t.rows)
    return list(zip(*[column_keys(t, i) for i in idxs]))


def _hashed_rows(t: Table, names: Sequence[str]) -> Counter:
    """Multiset of rows projected onto `names`, keyed as cell_hash_key keys them."""
    return Counter(row_keys(t, [t.column_index(n) for n in names]))


def tables_equal(a: Table, b: Table) -> bool:
    """Order-insensitive table equality.

    Compares the column-name sets and the exact row multiset, with rows
    hashed by cell_hash_key. Dtype labels are not compared; cell values decide.
    Tables whose columns, all int, real or text, and rows agree in order are
    equal at once: such a row is its own key tuple, and equal sequences are
    equal multisets.
    """
    # rows are projected onto a's column order, so a keys its rows as they are
    names = a.column_names
    if sorted(names) != sorted(b.column_names) or a.n_rows != b.n_rows:
        return False
    if (
        names == b.column_names
        and all(c.dtype in _SELF_KEYED for c in chain(a.schema.columns, b.schema.columns))
        and a.rows == b.rows
    ):
        return True
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


def render_cell(v: Cell) -> str:
    """Cell text for csv and markdown output. Null renders as the empty string."""
    if v is None:
        return ""
    if isinstance(v, tuple):
        return json.dumps(v, ensure_ascii=False)  # a tuple writes as a json list
    return render_scalar(v)


def _md_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace("|", "\\|").replace("\n", "\\n").replace("\r", "\\r")


_MD_SPECIAL = re.compile(r"[\\|\n\r]")  # what _md_escape rewrites
_TEXT_OF_TYPE = {int: str, float: repr}  # render_cell of an exact int or float


def column_texts(cells: Sequence[Cell]) -> Sequence[str]:
    """render_cell of each cell of one column, with one map when every cell is
    exactly int, float or str; any other column goes cell by cell."""
    kinds = set(map(type, cells))
    if kinds == {str}:
        return cells
    render = _TEXT_OF_TYPE.get(kinds.pop(), render_cell) if len(kinds) == 1 else render_cell
    return list(map(render, cells))


def serialize_table(t: Table, sample_rows: int = 5) -> str:
    """Deterministic markdown rendering: header, dtype row, sample rows, row count.

    The output always has 3 + min(sample_rows, n_rows) lines. The sample is
    rendered a column at a time, and escaped only when a header or cell text
    holds a character _md_escape rewrites.
    """
    if sample_rows < 0:
        raise ValueError("sample_rows must be >= 0")
    cols = t.schema.columns
    sample = t.rows[:sample_rows]
    header = [c.name for c in cols]
    columns = [column_texts(cells) for cells in zip(*sample)]
    if _MD_SPECIAL.search("".join(chain(header, *columns))):
        header = list(map(_md_escape, header))
        columns = [list(map(_md_escape, texts)) for texts in columns]
    # a table of no columns still shows one (empty) line per sampled row
    rows = zip(*columns) if columns else repeat((), len(sample))
    return "\n".join([
        "| " + " | ".join(header) + " |",
        "| " + " | ".join(c.dtype for c in cols) + " |",
        *["| " + " | ".join(texts) + " |" for texts in rows],
        f"rows: {t.n_rows}",
    ])


_MD_CELL = re.compile(r"\|((?:\\.|[^\\|])*)(?=\|)")  # a cell, up to the next unescaped "|"
_MD_ESCAPED = re.compile(r"\\(.)")
_MD_UNESCAPED = {"n": "\n", "r": "\r"}  # any other escaped character stands for itself


def markdown_row_cells(line: str) -> list[str]:
    """The texts of one header or row line of serialize_table, unescaped:
    "| a\\|b | c |" gives ["a|b", "c"]."""
    return [
        _MD_ESCAPED.sub(lambda m: _MD_UNESCAPED.get(m[1], m[1]), cell[1:-1])
        for cell in _MD_CELL.findall(line)
    ]


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
    """Full-fidelity embedding for logs: schema plus typed rows. The rows are
    the table's own tuples, which json writes as lists, a list cell too."""
    return {"schema": schema_to_json(t.schema), "rows": t.rows}


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
    """Write `text` as UTF-8, its line endings as given. Every file the
    package writes is written here.

    An existing file is rewritten in place: cut to the new length, never to
    zero, then overwritten. On ext4 (auto_da_alloc, the default) a file
    truncated to zero is flushed when it is closed and the next truncate
    waits on that writeback, which would cost a rerun into the same
    directory a flush per file. The text is encoded before the file is
    opened, so text a UTF-8 file cannot hold raises and leaves the old bytes
    as they were. A process stopped between the truncate and the write
    leaves the old bytes, cut short or padded with NUL bytes; a log cut or
    padded so does not load (load_trajectory_log needs a whole result record
    last)."""
    data = text.encode("utf-8")
    # O_BINARY (Windows only) keeps os.write from turning "\n" into "\r\n"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        os.ftruncate(fd, len(data))
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def write_schema(schema: Schema, path: str | Path) -> None:
    _write_text(path, json.dumps(schema_to_json(schema), indent=2, sort_keys=True) + "\n")


def read_schema(path: str | Path) -> Schema:
    """The schema in the JSON file at `path`. Every schema file, a table's
    sidecar or a bundle's target_schema.json, is read here, and each error
    names the file. A schema file must list a column: it describes a csv
    file, and a csv file cannot hold a table of no columns."""
    try:
        with open(path, encoding="utf-8") as fh:
            schema = schema_from_json(json.load(fh))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise TableIOError(f"cannot read schema {path}: {exc}") from None
    except TableIOError as exc:
        raise TableIOError(f"{path}: {exc}") from None
    if not schema.columns:
        raise TableIOError(f"{path}: malformed schema json: 'columns' must not be empty")
    return schema


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
    return typed if _numbers_fit(typed, dtype) else None


def _csv_parse_cell(text: str, dtype: str) -> Cell:
    """Typed value of a non-empty csv cell of an int, real, bool or list
    column (_csv_typed takes every text column), checked as validate_cell
    would; raises ValueError (or RecursionError for a deeply nested list)."""
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
    v = json.loads(text)
    if not isinstance(v, list):
        raise ValueError("not a json list")
    return tuple(_validate_scalar(x, "list element") for x in v)


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


def _plain_csv_columns(text: str) -> tuple[list[str], list[list[str]]] | None:
    r"""The header and the columns of csv `text` split with str.split, or None
    when the text is left to csv.reader: it is empty, holds a quote, a "\r"
    (a line end csv.reader also takes) or a NUL (which csv.reader rejects
    before Python 3.11 and reads from 3.11 on), has a line whose comma count
    differs from the header's, or has a field longer than
    csv.field_size_limit(). Any other text is lines ending at "\n", each a
    record of the fields between its commas, as csv.reader reads it; a blank
    line is one empty field there and here."""
    if not text or '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    if not lines[-1]:  # the last line's "\n"
        lines.pop()
    if len(set(map(str.count, lines, repeat(",")))) != 1:
        return None
    fields = ",".join(lines).split(",")
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, fields)) > limit:
        return None
    width = lines[0].count(",") + 1
    return fields[:width], [fields[i::width] for i in range(width, 2 * width)]


def _parse_csv(text: str, origin: str, name: str, schema: Schema | None) -> Table:
    r"""The table csv `text` holds; `origin` (a file path, or "table 'name'")
    starts every error message. A record ends at "\n", "\r\n" or "\r"
    outside quotes. Plain text is split by _plain_csv_columns, any other by
    csv.reader; both give the same header and cells, and the checks below
    are shared."""
    plain = _plain_csv_columns(text)
    if plain is not None:
        header, columns = plain
    else:
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
    if plain is None:  # the plain split took only rows as wide as the header
        if set(map(len, raw_rows)) - {len(header)}:
            i, row = next((i, row) for i, row in enumerate(raw_rows) if len(row) != len(header))
            raise TableIOError(f"{origin}: row {i} has {len(row)} cells, expected {len(header)}")
        columns = list(zip(*raw_rows)) or [()] * len(header)
    if schema is not None and tuple(header) != schema.column_names:
        raise TableIOError(
            f"{origin}: header {header} does not match sidecar columns "
            f"{list(schema.column_names)}"
        )

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

    The csv writer already writes an int, real or text cell as render_cell
    does (str, repr and the text itself, "" for Null), so only bool and list
    columns are rendered first; a table without them is written as it is.
    """
    cols = t.schema.columns
    rows = t.rows
    if any(c.dtype in (BOOL, LIST) for c in cols):
        rows = list(zip(*[
            list(map(render_cell, cells)) if c.dtype in (BOOL, LIST) else cells
            for c, cells in zip(cols, zip(*rows))
        ]))
    for ending in ("\n", "\r\n"):
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator=ending)
        writer.writerow(t.column_names)
        writer.writerows(rows)
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


def find_empty_text(t: Table) -> tuple[int, str] | None:
    """The row and column of the first text "" cell, which csv spells as it
    spells Null, or None when the table holds none."""
    for r, row in enumerate(t.rows):
        if "" in row:  # only a text cell equals ""
            return r, t.column_names[row.index("")]
    return None


def write_table(t: Table, path: str | Path, *, sidecar: bool = True) -> None:
    """Write a table as csv, plus a sidecar schema by default.

    The sidecar preserves dtypes so that read_table round-trips exactly. An
    empty text cell would read back as Null, so it is refused.
    """
    found = find_empty_text(t)
    if found is not None:
        raise TableIOError(
            f"{path}: row {found[0]} column {found[1]!r} holds empty text, "
            "which csv reads back as null"
        )
    _write_text(path, table_to_csv_text(t))
    if sidecar:
        write_schema(t.schema, sidecar_path(path))
