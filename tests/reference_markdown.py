"""The cell-by-cell markdown renderer, kept as a reference.

`serialize_table` is `adprep.tables.serialize_table` as it stood before it
rendered a column at a time: every cell through render_cell, then
_md_escape, row by row. The differential test in test_tables.py checks
that both write the same text.
"""

from __future__ import annotations

from adprep.tables import Table, _md_escape, render_cell


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
