"""Task synthesis: corrupt clean sources so the fix is known in advance.

A task starts from clean source tables and a short pipeline that builds the
target table. The sources are then damaged with reversible corruptions,
each carrying the exact operator that undoes it. The ground-truth pipeline
is those cleaning operators (newest damage first) followed by the original
task operators.

Every corruption is accepted only if its cleaner restores the table it
damaged cell for cell. Anything ambiguous gets rejected: duplicating a row
in a table that already had duplicates, uppercasing a column that was not
uniformly lowercase ("USA" would come back "usa"), reformatting dates the
parser could misread. Corrupted rows are appended at the end so row order
survives the round trip.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .expr import Call, ColRef, date_reader, date_writer, read_date_column, write_date_column
from .operators import (
    OperatorInstance,
    OpParseError,
    TableSet,
    execute_operator,
    ExecError,
    make_operator,
    parse_operator_call,
    serialize_operator_call,
    split_lines,
)
from .tables import (
    BOOL,
    INT,
    REAL,
    TEXT,
    Schema,
    Table,
    _read_text,
    _write_text,
    find_empty_text,
    make_table,
    read_schema,
    read_table,
    render_scalar,
    tables_equal,
    write_schema,
    write_table,
)
from .tree import run_pipeline

CANONICAL_DATE = "%Y-%m-%d"
_read_canonical_date = date_reader([CANONICAL_DATE])
ALTERNATE_DATE_FORMATS = ("%m/%d/%Y", "%d %B %Y", "%B %d, %Y", "%Y/%m/%d")


class SynthesisError(Exception):
    pass


@dataclass(frozen=True)
class Corruption:
    """One accepted piece of damage and the operator that undoes it."""

    name: str
    cleaner: OperatorInstance


@dataclass
class CorruptionResult:
    table: Table
    applied: list[Corruption] = field(default_factory=list)
    rejected: list[str] = field(default_factory=list)


@dataclass
class TaskBundle:
    task_id: str
    sources: TableSet
    target_table: Table
    gt_pipeline: tuple[OperatorInstance, ...]
    provenance: dict = field(default_factory=dict)

    @property
    def target_schema(self) -> Schema:
        return self.target_table.schema


# ---------------------------------------------------------------------------
# corruption catalog
# ---------------------------------------------------------------------------

def _swap_column(t: Table, col: str, cells, dtype=None) -> Table:
    i = t.column_index(col)
    specs = [(c.name, dtype if (c.name == col and dtype) else c.dtype, c.description)
             for c in t.schema.columns]
    rows = [list(r) for r in t.rows]
    for r, cell in zip(rows, cells):
        r[i] = cell
    return make_table(t.name, specs, rows)


def _corrupt_duplicate_rows(rng, t: Table):
    if t.n_rows == 0:
        return None
    count = rng.randint(1, min(3, t.n_rows))
    picks = [t.rows[rng.randrange(t.n_rows)] for _ in range(count)]
    damaged = Table(t.schema, t.rows + tuple(picks))
    return damaged, make_operator("Deduplicate", t.name, [], "first")


def _corrupt_inject_nulls(rng, t: Table):
    if t.n_rows == 0 or not t.column_names:
        return None
    col = rng.choice(t.column_names)
    if any(v is None for v in t.column(col)):
        return None  # the cleaner would eat real rows too
    extra = []
    for _ in range(rng.randint(1, 2)):
        row = list(t.rows[rng.randrange(t.n_rows)])
        row[t.column_index(col)] = None
        extra.append(tuple(row))
    damaged = Table(t.schema, t.rows + tuple(extra))
    return damaged, make_operator("DropNA", t.name, [col], "any")


def _corrupt_date_format(rng, t: Table):
    if not t.rows:
        return None
    read = {}
    for c in t.schema.columns:
        if c.dtype == TEXT:
            fields = read_date_column(_read_canonical_date, t.column(c.name))
            if not isinstance(fields, int):
                read[c.name] = fields
    if not read:
        return None
    col = rng.choice(list(read))
    fmt = rng.choice(ALTERNATE_DATE_FORMATS)
    rewritten = write_date_column(date_writer(fmt), t.column(col), read[col])
    damaged = _swap_column(t, col, rewritten)
    return damaged, make_operator("StandardizeDatetime", t.name, col, CANONICAL_DATE)


def _corrupt_uppercase(rng, t: Table):
    candidates = [c.name for c in t.schema.columns if c.dtype == TEXT]
    if not candidates:
        return None
    col = rng.choice(candidates)
    cells = t.column(col)
    if all(v is None or v == "" for v in cells):
        return None
    shouted = [None if v is None else v.upper() for v in cells]
    if tuple(shouted) == tuple(cells):
        return None  # nothing changed; not a corruption
    damaged = _swap_column(t, col, shouted)
    expr = Call("lower", (ColRef(col),))
    return damaged, make_operator("ValueTransform", t.name, col, expr)


def _corrupt_stringify(rng, t: Table):
    candidates = [c for c in t.schema.columns if c.dtype in (INT, REAL, BOOL)]
    if not candidates:
        return None
    spec = rng.choice(candidates)
    cells = t.column(spec.name)
    as_text = [None if v is None else render_scalar(v) for v in cells]
    damaged = _swap_column(t, spec.name, as_text, dtype=TEXT)
    return damaged, make_operator("CastType", t.name, spec.name, spec.dtype)


CORRUPTIONS = {
    "duplicate_rows": _corrupt_duplicate_rows,
    "inject_nulls": _corrupt_inject_nulls,
    "date_format": _corrupt_date_format,
    "uppercase_text": _corrupt_uppercase,
    "stringify_column": _corrupt_stringify,
}


def _cleaner_restores(cleaner: OperatorInstance, damaged: Table, pristine: Table) -> bool:
    try:
        healed = execute_operator(cleaner, {damaged.name: damaged})
    except ExecError:
        return False
    got = healed.get(damaged.name)
    return got is not None and tables_equal(got, pristine)


def corrupt_table(
    rng,
    t: Table,
    *,
    max_corruptions: int = 2,
    attempts: int = 12,
    kinds=None,
) -> CorruptionResult:
    """Stack reversible damage onto one table.

    Each accepted corruption is verified against the state it damaged, so
    undoing them newest-first walks back to the pristine table exactly.
    """
    names = list(kinds) if kinds else sorted(CORRUPTIONS)
    result = CorruptionResult(table=t)
    for _ in range(attempts):
        if len(result.applied) >= max_corruptions:
            break
        name = rng.choice(names)
        made = CORRUPTIONS[name](rng, result.table)
        if made is None:
            continue
        damaged, cleaner = made
        if not _cleaner_restores(cleaner, damaged, result.table):
            result.rejected.append(name)
            continue
        result.applied.append(Corruption(name, cleaner))
        result.table = damaged
    return result


# ---------------------------------------------------------------------------
# whole tasks
# ---------------------------------------------------------------------------

def _pipeline_output(ops, sources: TableSet, failure_prefix: str) -> Table:
    """Run the pipeline and return the one table its last step produced: the
    one table object the state before it lacks (execute_operator always adds
    exactly one)."""
    result = run_pipeline(ops, sources)
    if not result.ok:
        raise SynthesisError(f"{failure_prefix}: {result.failure}")
    before = result.chain[-2].state if len(result.chain) > 1 else sources
    return next(t for name, t in result.leaf.state.items() if before.get(name) is not t)


def synthesize_task(
    rng,
    task_id: str,
    sources: TableSet,
    task_ops,
    *,
    max_corruptions: int = 2,
    kinds=None,
) -> TaskBundle:
    """Build a bundle: run the task on clean sources, then damage the inputs.

    The ground truth is the cleaning operators (in undo order) followed by
    the task operators, re-verified end to end before the bundle is
    returned. A source or target holding empty text is refused, since the
    bundle's csv would read it back as Null.
    """
    task_ops = tuple(task_ops)
    if not task_ops:
        raise SynthesisError("a task needs at least one operator")
    target = _pipeline_output(task_ops, sources, "task pipeline fails on clean sources")

    corrupted: TableSet = {}
    cleaners: list[OperatorInstance] = []
    applied = {}
    for name in sources:
        outcome = corrupt_table(rng, sources[name], max_corruptions=max_corruptions, kinds=kinds)
        corrupted[name] = outcome.table
        # undo newest damage first
        cleaners.extend(c.cleaner for c in reversed(outcome.applied))
        if outcome.applied:
            applied[name] = [c.name for c in outcome.applied]

    gt = tuple(cleaners) + task_ops
    rebuilt = _pipeline_output(gt, corrupted, "ground truth fails on corrupted sources")
    if not tables_equal(rebuilt, target):
        raise SynthesisError("ground truth does not rebuild the target table")
    for t in (*corrupted.values(), target):  # the tables a bundle writes
        found = find_empty_text(t)
        if found is not None:
            raise SynthesisError(
                f"table {t.name!r} row {found[0]} column {found[1]!r} holds empty "
                "text, which a bundle's csv would read back as null"
            )

    schema = target.schema
    if not schema.description:
        cols = ", ".join(c.name for c in schema.columns)
        schema = Schema(
            schema.table_name, schema.columns,
            f"build the table {schema.table_name} with columns {cols}",
        )
        target = Table.trusted(schema, target.rows)

    return TaskBundle(
        task_id=task_id,
        sources=corrupted,
        target_table=target,
        gt_pipeline=gt,
        provenance={
            "corruptions": applied,
            "task_op_count": len(task_ops),
            "cleaner_count": len(cleaners),
        },
    )


# ---------------------------------------------------------------------------
# demo suite generation
# ---------------------------------------------------------------------------

_FIRST_WORDS = (
    "amber", "birch", "cedar", "delta", "ember", "fjord", "garnet", "harbor",
    "indigo", "juniper", "krill", "lagoon", "meadow", "nectar", "onyx", "pine",
)
_REGIONS = ("north", "south", "east", "west", "central")


def _demo_sources(rng) -> tuple[TableSet, list[OperatorInstance]]:
    """One random base scenario plus the task operators that finish it."""
    n = rng.randint(6, 12)
    rows = []
    for i in range(n):
        rows.append((
            i + 1,
            rng.choice(_FIRST_WORDS),
            rng.choice(_REGIONS),
            rng.randint(1, 500),
            f"2023-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
        ))
    orders = make_table(
        "orders",
        [("order_id", INT), ("item", TEXT), ("region", TEXT), ("amount", INT), ("placed", TEXT)],
        rows,
    )
    pattern = rng.randrange(3)
    if pattern == 0:
        ops = [
            make_operator("SelectColumn", "orders", ["order_id", "item", "amount"]),
            make_operator("Sort", "orders", ["amount", "order_id"], [False, True]),
        ]
        return {"orders": orders}, ops
    if pattern == 1:
        ops = [
            make_operator("GroupBy", "orders", ["region"], {"amount": "sum"}),
            make_operator("Sort", "orders", ["region"], True),
        ]
        return {"orders": orders}, ops
    regions = make_table(
        "regions",
        [("region", TEXT), ("manager", TEXT)],
        [(r, rng.choice(_FIRST_WORDS)) for r in _REGIONS],
    )
    ops = [
        make_operator("Join", "orders", "regions", ["region"], "inner"),
        make_operator("SelectColumn", "orders_regions_join", ["order_id", "item", "manager"]),
    ]
    return {"orders": orders, "regions": regions}, ops


def synthesize_demo_task(rng, task_id: str, *, max_corruptions: int = 2) -> TaskBundle:
    sources, ops = _demo_sources(rng)
    return synthesize_task(rng, task_id, sources, ops, max_corruptions=max_corruptions)


# ---------------------------------------------------------------------------
# bundle I/O
# ---------------------------------------------------------------------------

def _dir_prefix(root: Path) -> str:
    """`root` spelled so that `prefix + name` is the text of `root / name`."""
    return "" if str(root) == "." else os.path.join(root, "")


# what write_bundle writes into a bundle directory
_BUNDLE_ENTRIES = (
    "sources", "target_schema.json", "target_table.csv", "gt_pipeline.txt", "provenance.json"
)


def is_bundle(directory: str | Path) -> bool:
    """Whether `directory` holds a task bundle, i.e. any entry write_bundle
    writes; a bundle that lost some of them then fails as it is read."""
    return any(os.path.exists(os.path.join(directory, e)) for e in _BUNDLE_ENTRIES)


def serialize_pipeline(ops) -> str:
    """One canonical operator call per line, with a trailing newline."""
    return "".join(serialize_operator_call(op) + "\n" for op in ops)


def parse_pipeline(text: str) -> list[OperatorInstance]:
    """Parse pipeline text, one call per line; blank lines and lines
    starting with # are skipped, and errors carry the 1-based line number."""
    ops = []
    for lineno, line in enumerate(split_lines(text), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            ops.append(parse_operator_call(stripped))
        except OpParseError as exc:
            raise OpParseError(f"line {lineno}: {exc}") from None
    return ops


def write_bundle(bundle: TaskBundle, directory: str | Path) -> Path:
    """Write the bundle's files; target_schema.json types target_table.csv."""
    root = Path(directory)
    base = _dir_prefix(root)
    os.makedirs(base + "sources", exist_ok=True)
    for name in sorted(bundle.sources):
        write_table(bundle.sources[name], os.path.join(base + "sources", f"{name}.csv"))
    write_schema(bundle.target_schema, base + "target_schema.json")
    write_table(bundle.target_table, base + "target_table.csv", sidecar=False)
    _write_text(base + "gt_pipeline.txt", serialize_pipeline(bundle.gt_pipeline))
    provenance = {"task_id": bundle.task_id, **bundle.provenance}
    _write_text(base + "provenance.json", json.dumps(provenance, indent=2, sort_keys=True) + "\n")
    return root


def read_target(directory: str | Path) -> tuple[str, Table, dict]:
    """The task id, typed target table and provenance of a bundle.

    This is all that scoring a logged episode needs; read_bundle reads the
    same files through here.
    """
    root = Path(directory)
    base = _dir_prefix(root)
    # the target's own schema file types its csv; a leftover sidecar is ignored
    target = read_table(base + "target_table.csv", schema=read_schema(base + "target_schema.json"))
    prov_path = base + "provenance.json"
    try:
        prov_text = _read_text(prov_path)
        provenance = {} if prov_text is None else json.loads(prov_text)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SynthesisError(f"{prov_path}: cannot read json: {exc}") from None
    if not isinstance(provenance, dict):
        raise SynthesisError(f"{prov_path}: expected a json object")
    if "task_id" in provenance:
        # the task id names the episode's log file, so it must be one file name
        task_id = provenance.pop("task_id")
        if not isinstance(task_id, str):
            raise SynthesisError(f"{prov_path}: task_id must be a string")
        if task_id in ("", ".", "..") or "/" in task_id or "\0" in task_id:
            raise SynthesisError(f"{prov_path}: task_id {task_id!r} is not a plain file name")
    else:
        task_id = os.path.basename(os.path.abspath(root))  # "." names its directory
    return task_id, target, provenance


def read_bundle(directory: str | Path) -> TaskBundle:
    root = Path(directory)
    base = _dir_prefix(root)
    try:
        # a directory named x.csv is listed too, and fails in read_table
        names = sorted(n for n in os.listdir(base + "sources") if n.endswith(".csv"))
    except OSError:
        raise SynthesisError(f"{root}: no sources/ directory") from None
    sources: TableSet = {}
    for name in names:
        t = read_table(f"{base}sources/{name}")
        sources[t.name] = t
    if not sources:
        raise SynthesisError(f"{root}: sources/ holds no csv tables")
    task_id, target, provenance = read_target(root)
    gt_path = base + "gt_pipeline.txt"
    try:
        gt_text = _read_text(gt_path)
        gt = () if gt_text is None else tuple(parse_pipeline(gt_text))
    except (OSError, OpParseError, UnicodeDecodeError) as exc:
        raise SynthesisError(f"{gt_path}: {exc}") from None
    return TaskBundle(
        task_id=task_id,
        sources=sources,
        target_table=target,
        gt_pipeline=gt,
        provenance=provenance,
    )


def verify_bundle(bundle: TaskBundle) -> None:
    """Re-run the ground truth over the stored sources; raise on any drift."""
    if not bundle.gt_pipeline:
        raise SynthesisError(f"{bundle.task_id}: bundle has no ground-truth pipeline")
    produced = _pipeline_output(
        bundle.gt_pipeline, bundle.sources, f"{bundle.task_id}: ground truth fails"
    )
    if not tables_equal(produced, bundle.target_table):
        raise SynthesisError(f"{bundle.task_id}: ground truth no longer rebuilds the target")
