"""Typed in-memory tables with canonical ordering and order-insensitive equality.

A Table is an immutable (schema, rows) pair. Cells are plain Python values:
None, bool, int, float, str, or a tuple of scalars (one nesting level only).
Integers must fit in 64 bits, reals must be finite, and each cell's kind must
match its column dtype. Table equality ignores row order and column order
but requires exact cell values, with integers and integer-valued reals
comparing equal (2 == 2.0). Cells have one order key, cell_sort_key (Null <
Boolean < numeric < Text < List), which every sort uses, and one hash key,
cell_hash_key, under which tables_equal compares the two row multisets.

Cells are checked once, where they enter. Table(schema, rows) checks every
cell and is the constructor for untrusted input: make_table,
table_from_rows, table_from_json (logs and final tables), json-rows reads,
ExeCode output and synthesis corruption all use it. The csv readers type
and check each cell as they parse it. Table.trusted skips the check; it is
for tables whose cells are already valid for their columns: operator
outputs that move cells from checked tables, plus columns an operator
computes, which it checks with validate_cell first.

The module also provides a deterministic markdown rendering used for agent
observations, and csv / json-rows file I/O with an optional JSON sidecar
schema. Without a sidecar, csv dtypes are inferred per column by trying
integer, then real, then boolean, then falling back to text; an empty csv
cell always reads as Null.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
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

_INT_RE = re.compile(r"[+-]?\d+")
_REAL_RE = re.compile(r"[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")


class TableError(ValueError):
    """Invalid table construction or cell data."""


class TableIOError(TableError):
    """Malformed table file (csv, json-rows, or sidecar schema)."""


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
        checked = []
        for r, row in enumerate(self.rows):
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


def infer_column_dtype(cells: Iterable[Cell], fallback: str = TEXT) -> str:
    """Resolve a column dtype from cell kinds.

    All-null columns take the fallback. A pure int / real mix promotes to
    real; any other mix is an error.
    """
    kinds = {value_kind(c) for c in cells if c is not None}
    if not kinds:
        return fallback
    if len(kinds) == 1:
        return kinds.pop()
    if kinds <= {INT, REAL}:
        return REAL
    raise TableError(f"mixed cell kinds {sorted(kinds)} in one column")


def coerce_cells(dtype: str, cells: Sequence[Cell]) -> list[Cell]:
    """Cast int cells to float when a column resolved to real."""
    if dtype != REAL:
        return list(cells)
    return [float(c) if isinstance(c, int) and not isinstance(c, bool) else c for c in cells]


def table_from_rows(
    name: str,
    column_names: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    description: str | None = None,
    column_descriptions: Sequence[str | None] | None = None,
) -> Table:
    """Build a table inferring each column dtype from its cells."""
    rows = [tuple(r) for r in rows]
    n = len(column_names)
    for r, row in enumerate(rows):
        if len(row) != n:
            raise TableError(f"table {name!r} row {r}: expected {n} cells, got {len(row)}")
    descs = column_descriptions or [None] * n
    cols = []
    coerced_cols = []
    for i, cname in enumerate(column_names):
        cells = [row[i] for row in rows]
        dtype = infer_column_dtype(cells)
        cols.append(ColumnSpec(cname, dtype, descs[i]))
        coerced_cols.append(coerce_cells(dtype, cells))
    fixed_rows = [tuple(coerced_cols[i][r] for i in range(n)) for r in range(len(rows))]
    return Table(Schema(name, tuple(cols), description), tuple(fixed_rows))


# ---------------------------------------------------------------------------
# ordering and equality
# ---------------------------------------------------------------------------

def _cell_rank(v: Cell) -> int:
    if v is None:
        return 0
    if isinstance(v, bool):
        return 1
    if isinstance(v, (int, float)):
        return 2
    if isinstance(v, str):
        return 3
    return 4  # tuple


def compare_cells(a: Cell, b: Cell) -> int:
    """Total order over cells: Null < Boolean < numeric < Text < List.

    Numeric comparison is exact across int and real. Text compares by
    UTF-8 byte order. Lists compare elementwise, then by length.

    The engine orders cells with cell_sort_key; this comparator spells the
    order out and is the reference the tests check that key against.
    """
    ra, rb = _cell_rank(a), _cell_rank(b)
    if ra != rb:
        return -1 if ra < rb else 1
    if ra == 0:
        return 0
    if ra in (1, 2):
        if a == b:
            return 0
        return -1 if a < b else 1
    if ra == 3:
        ba, bb = a.encode("utf-8"), b.encode("utf-8")
        if ba == bb:
            return 0
        return -1 if ba < bb else 1
    for x, y in zip(a, b):
        c = compare_cells(x, y)
        if c != 0:
            return c
    return (len(a) > len(b)) - (len(a) < len(b))


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
    """Sort key giving compare_cells' order. Numbers stay raw, so int / real
    order stays exact; text keys on the str, as code-point order is UTF-8 order."""
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


def _hashed_rows(t: Table, names: Sequence[str]) -> Counter:
    """Multiset of rows projected onto `names`, each cell keyed by cell_hash_key."""
    columns = [map(cell_hash_key, t.column(n)) for n in names]
    return Counter(zip(*columns))


def tables_equal(a: Table, b: Table) -> bool:
    """Order-insensitive table equality.

    Compares the column-name sets and the exact row multiset, with rows
    hashed by cell_hash_key. Dtype labels are not compared; cell values decide.
    """
    names = sorted(a.column_names)
    if names != sorted(b.column_names) or a.n_rows != b.n_rows:
        return False
    return _hashed_rows(a, names) == _hashed_rows(b, names)


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
    return s.replace("\\", "\\\\").replace("|", "\\|").replace("\n", "\\n")


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


def schema_from_json(data: dict) -> Schema:
    try:
        cols = tuple(
            ColumnSpec(c["name"], c["dtype"], c.get("description"))
            for c in data["columns"]
        )
        return Schema(data["table_name"], cols, data.get("description"))
    except (KeyError, TypeError) as exc:
        raise TableIOError(f"malformed schema json: {exc}") from None


def table_to_json(t: Table) -> dict:
    """Full-fidelity embedding for logs: schema plus typed rows."""
    return {
        "schema": schema_to_json(t.schema),
        "rows": [[_jsonable(cell) for cell in row] for row in t.rows],
    }


def table_from_json(data: dict) -> Table:
    schema = schema_from_json(data["schema"])
    try:
        rows = tuple(
            tuple(tuple(c) if isinstance(c, list) else c for c in row)
            for row in data["rows"]
        )
    except TypeError as exc:
        raise TableIOError(f"malformed table json: {exc}") from None
    return Table(schema, rows)


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".schema.json")


def write_schema(schema: Schema, path: str | Path) -> None:
    text = json.dumps(schema_to_json(schema), indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def read_schema(path: str | Path) -> Schema:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TableIOError(f"cannot read schema {path}: {exc}") from None
    return schema_from_json(data)


def _csv_parse_cell(text: str, dtype: str) -> Cell:
    """Typed value of a non-empty csv cell, checked as validate_cell would;
    raises ValueError."""
    if dtype == INT:
        if not _INT_RE.fullmatch(text):
            raise ValueError("not an integer")
        v = int(text)
        if not INT64_MIN <= v <= INT64_MAX:
            raise ValueError("integer out of 64-bit range")
        return v
    if dtype == REAL:
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


def _csv_parse_column(cells: list[str], dtype: str, origin: str, name: str) -> list[Cell]:
    """Typed cells of one csv column; an empty cell is Null."""
    if dtype == TEXT:
        return [None if c == "" else c for c in cells]
    parsed = []
    for r, text in enumerate(cells):
        try:
            parsed.append(None if text == "" else _csv_parse_cell(text, dtype))
        except ValueError as exc:  # JSONDecodeError and TableError are ValueErrors
            raise TableIOError(
                f"{origin} row {r} column {name!r}: cannot parse {text!r} as {dtype}: {exc}"
            ) from None
    return parsed


def _infer_cell_kind(text: str) -> str | None:
    """Inference order for a raw csv cell: Null, integer, real, boolean, text."""
    if text == "":
        return None
    if _INT_RE.fullmatch(text) and INT64_MIN <= int(text) <= INT64_MAX:
        return INT
    if _REAL_RE.fullmatch(text):
        try:
            if math.isfinite(float(text)):
                return REAL
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return BOOL
    return TEXT


def _infer_csv_dtype(cells: list[str]) -> str:
    """Column dtype from the observed cell kinds; all-null and mixed columns are text."""
    kinds = {_infer_cell_kind(c) for c in cells} - {None}
    if kinds == {INT}:
        return INT
    if kinds and kinds <= {INT, REAL}:
        return REAL
    if kinds == {BOOL}:
        return BOOL
    return TEXT


def _parse_csv_records(
    data: list[list[str]], origin: str, name: str, schema: Schema | None
) -> Table:
    if not data:
        raise TableIOError(f"{origin}: empty input, expected a header row")
    # a blank line is a record with a single empty field
    data = [row if row else [""] for row in data]
    header, raw_rows = data[0], data[1:]
    if not header or any(h == "" for h in header):
        raise TableIOError(f"{origin}: empty column name in header")
    if len(set(header)) != len(header):
        raise TableIOError(f"{origin}: duplicate column names in header")
    for i, row in enumerate(raw_rows):
        if len(row) != len(header):
            raise TableIOError(
                f"{origin}: row {i} has {len(row)} cells, expected {len(header)}"
            )
    if schema is not None and tuple(header) != schema.column_names:
        raise TableIOError(
            f"{origin}: header {header} does not match sidecar columns "
            f"{list(schema.column_names)}"
        )

    columns = [[row[i] for row in raw_rows] for i in range(len(header))]
    if schema is None:  # no sidecar: per-column inference over the observed cell kinds
        specs = (ColumnSpec(h, _infer_csv_dtype(cells)) for h, cells in zip(header, columns))
        schema = Schema(name, tuple(specs))
    parsed = [
        _csv_parse_column(cells, c.dtype, origin, c.name)
        for cells, c in zip(columns, schema.columns)
    ]
    # every cell was typed and checked above, so the table skips the re-check
    return Table.trusted(schema, tuple(zip(*parsed)))


def _table_from_csv(path: Path, name: str, schema: Schema | None) -> Table:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            data = list(csv.reader(fh))
    except OSError as exc:
        raise TableIOError(f"cannot read {path}: {exc}") from None
    except (csv.Error, UnicodeDecodeError) as exc:
        raise TableIOError(f"{path}: malformed csv: {exc}") from None
    return _parse_csv_records(data, str(path), name, schema)


def table_from_csv_text(text: str, name: str, schema: Schema | None = None) -> Table:
    """Parse csv text in memory, with the same inference rules as read_table."""
    import io

    try:
        data = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise TableIOError(f"table {name!r}: malformed csv: {exc}") from None
    return _parse_csv_records(data, f"table {name!r}", name, schema)


def table_to_csv_text(t: Table) -> str:
    """Render a table as csv text (header plus rows, RFC 4180 quoting)."""
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(t.column_names)
    for row in t.rows:
        writer.writerow([render_cell(v) for v in row])
    return buf.getvalue()


def _table_from_json_rows(path: Path, name: str, schema: Schema | None) -> Table:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TableIOError(f"cannot read {path}: {exc}") from None
    if not isinstance(data, list) or any(not isinstance(r, dict) for r in data):
        raise TableIOError(f"{path}: json-rows file must be a list of objects")
    if schema is not None:
        names = list(schema.column_names)
    elif data:
        names = list(data[0].keys())
    else:
        raise TableIOError(f"{path}: empty json-rows file needs a sidecar schema")
    rows = []
    for r, obj in enumerate(data):
        if set(obj.keys()) != set(names):
            raise TableIOError(f"{path}: row {r} keys do not match columns {names}")
        row = []
        for n in names:
            v = obj[n]
            if isinstance(v, list):
                v = tuple(v)
            elif isinstance(v, dict):
                raise TableIOError(f"{path}: row {r} column {n!r}: nested objects not allowed")
            row.append(v)
        rows.append(tuple(row))
    try:
        if schema is not None:
            return Table(schema, tuple(rows))
        return table_from_rows(name, names, rows)
    except TableError as exc:
        raise TableIOError(f"{path}: {exc}") from None


def read_table(
    path: str | Path,
    fmt: str = "csv",
    *,
    schema: Schema | None = None,
    name: str | None = None,
) -> Table:
    """Read a table from csv or json-rows.

    When no schema is given, a `<path>.schema.json` sidecar is used if
    present; otherwise dtypes are inferred. The table name defaults to the
    file stem.
    """
    path = Path(path)
    if schema is None and sidecar_path(path).exists():
        schema = read_schema(sidecar_path(path))
    table_name = name or (schema.table_name if schema else path.stem)
    if schema is not None and schema.table_name != table_name:
        schema = Schema(table_name, schema.columns, schema.description)
    if fmt == "csv":
        return _table_from_csv(path, table_name, schema)
    if fmt == "json-rows":
        return _table_from_json_rows(path, table_name, schema)
    raise ValueError(f"unknown table format {fmt!r}")


def write_table(t: Table, path: str | Path, fmt: str = "csv", *, sidecar: bool = True) -> None:
    """Write a table to csv or json-rows, plus a sidecar schema by default.

    The sidecar preserves dtypes so that read_table round-trips exactly.
    One csv caveat: an empty text cell is indistinguishable from Null and
    reads back as Null.
    """
    path = Path(path)
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
            writer.writerow(t.column_names)
            for row in t.rows:
                writer.writerow([render_cell(v) for v in row])
    elif fmt == "json-rows":
        data = [
            {c.name: _jsonable(v) for c, v in zip(t.schema.columns, row)}
            for row in t.rows
        ]
        path.write_text(json.dumps(data, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown table format {fmt!r}")
    if sidecar:
        write_schema(t.schema, sidecar_path(path))
