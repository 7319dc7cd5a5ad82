"""The cell-by-cell csv column parser and csv writer, kept as references.

`parse_cell`, `parse_column` and `infer_dtype` are the csv column parser and
its per-cell dtype inference as they stood before `adprep.tables` read csv
columns a column at a time. The differential test in test_tables.py checks
the column-at-once parser against them column by column: the same dtype,
the same cells and the same first error.

`table_to_csv_text` is the csv writer as it stood before `adprep.tables`
handed int, real and text cells to the csv module as they are: it renders
every cell with render_cell. The differential test checks that both write
the same text.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

from adprep.tables import BOOL, INT, INT64_MAX, INT64_MIN, LIST, REAL, TEXT, Table, TableIOError
from adprep.tables import _validate_scalar, render_cell

INT_RE = re.compile(r"[+-]?[0-9]+")
REAL_RE = re.compile(r"[+-]?([0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)([eE][+-]?[0-9]+)?")


def parse_cell(text: str, dtype: str):
    """Typed value of a non-empty csv cell, checked as validate_cell would;
    raises ValueError."""
    if dtype == INT:
        if not INT_RE.fullmatch(text):
            raise ValueError("not an integer")
        v = int(text)
        if not INT64_MIN <= v <= INT64_MAX:
            raise ValueError("integer out of 64-bit range")
        return v
    if dtype == REAL:
        if not REAL_RE.fullmatch(text):
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


def parse_column(cells: list[str], dtype: str, origin: str, name: str) -> list:
    """Typed cells of one csv column; an empty cell is Null."""
    if dtype == TEXT:
        return [None if c == "" else c for c in cells]
    parsed = []
    for r, text in enumerate(cells):
        try:
            parsed.append(None if text == "" else parse_cell(text, dtype))
        except ValueError as exc:  # JSONDecodeError and TableError are ValueErrors
            raise TableIOError(
                f"{origin} row {r} column {name!r}: cannot parse {text!r} as {dtype}: {exc}"
            ) from None
    return parsed


def infer_cell_kind(text: str) -> str | None:
    """Inference order for a raw csv cell: Null, integer, real, boolean, text."""
    if text == "":
        return None
    if INT_RE.fullmatch(text) and INT64_MIN <= int(text) <= INT64_MAX:
        return INT
    if REAL_RE.fullmatch(text):
        try:
            if math.isfinite(float(text)):
                return REAL
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return BOOL
    return TEXT


def infer_dtype(cells: list[str]) -> str:
    """Column dtype from the observed cell kinds; all-null and mixed columns are text."""
    kinds = {infer_cell_kind(c) for c in cells} - {None}
    if kinds == {INT}:
        return INT
    if kinds and kinds <= {INT, REAL}:
        return REAL
    if kinds == {BOOL}:
        return BOOL
    return TEXT


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
