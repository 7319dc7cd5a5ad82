"""Synthesis tests: reversibility checks, bundle I/O, determinism."""

import builtins
import io
import json
import random
import shutil
from dataclasses import replace
from datetime import datetime
from pathlib import Path

import pytest

from adprep import synthesis
from adprep.operators import ExecError, execute_operator, make_operator
from adprep.synthesis import (
    ALTERNATE_DATE_FORMATS,
    CANONICAL_DATE,
    CORRUPTIONS,
    SynthesisError,
    corrupt_table,
    read_bundle,
    serialize_pipeline,
    synthesize_demo_task,
    synthesize_task,
    verify_bundle,
    write_bundle,
)
from adprep.tables import (
    BOOL,
    INT,
    INT64_MAX,
    INT64_MIN,
    LIST,
    REAL,
    TEXT,
    Schema,
    Table,
    TableIOError,
    make_table,
    read_schema,
    tables_equal,
    write_schema,
)
from conftest import SPLITLINES_ONLY_BREAKS, random_table, replay_chain
from reference_ops import _date_text


def clean_table():
    return make_table(
        "staff",
        [("id", INT), ("name", TEXT), ("joined", TEXT), ("score", REAL)],
        [
            (1, "ada", "2021-03-05", 1.5),
            (2, "grace", "2022-11-30", -2.25),
            (3, "edsger", "2020-01-17", 0.5),
            (4, "barbara", "2023-07-04", 12.0),
        ],
    )


def heal(damaged, cleaners):
    state = {damaged.name: damaged}
    for op in cleaners:
        state = execute_operator(op, state)
    return state[damaged.name]


# -- individual corruptions --------------------------------------------------

@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_each_corruption_round_trips(kind):
    rng = random.Random(11)
    pristine = clean_table()
    result = corrupt_table(rng, pristine, max_corruptions=1, attempts=20, kinds=[kind])
    assert [c.name for c in result.applied] == [kind]
    assert not tables_equal(result.table, pristine)
    healed = heal(result.table, [c.cleaner for c in reversed(result.applied)])
    assert tables_equal(healed, pristine)


def test_duplicate_rows_appended_at_end():
    rng = random.Random(3)
    pristine = clean_table()
    result = corrupt_table(rng, pristine, max_corruptions=1, kinds=["duplicate_rows"])
    damaged = result.table
    assert damaged.rows[: pristine.n_rows] == pristine.rows
    for extra in damaged.rows[pristine.n_rows:]:
        assert extra in pristine.rows


def test_mixed_case_column_rejects_uppercase_corruption():
    t = make_table("places", [("country", TEXT)], [("USA",), ("usa",), ("peru",)])
    rng = random.Random(9)
    result = corrupt_table(rng, t, max_corruptions=1, attempts=6, kinds=["uppercase_text"])
    assert result.applied == []
    assert "uppercase_text" in result.rejected


def test_already_uppercase_column_is_inapplicable_not_rejected():
    t = make_table("places", [("country", TEXT)], [("USA",), ("PERU",)])
    result = corrupt_table(
        random.Random(9), t, max_corruptions=1, attempts=6, kinds=["uppercase_text"]
    )
    assert result.applied == []
    assert result.rejected == []  # upper() changed nothing, so no candidate was made


def test_existing_duplicates_reject_duplicate_corruption():
    t = make_table("log", [("v", INT)], [(1,), (1,), (2,)])
    result = corrupt_table(
        random.Random(4), t, max_corruptions=1, attempts=6, kinds=["duplicate_rows"]
    )
    assert result.applied == []
    assert "duplicate_rows" in result.rejected


def test_nullable_column_blocks_null_injection():
    t = make_table("log", [("v", INT)], [(1,), (None,)])
    result = corrupt_table(
        random.Random(4), t, max_corruptions=1, attempts=6, kinds=["inject_nulls"]
    )
    assert result.applied == []
    assert result.rejected == []


class _Nth:
    """A stand-in rng whose choice() takes item n (mod length) of a sequence."""

    def __init__(self, n):
        self.n = n

    def choice(self, seq):
        return seq[self.n % len(seq)]


def test_date_format_takes_exactly_what_strptime_reads():
    """The date_format corruption takes a text column when strptime(v,
    CANONICAL_DATE) reads every cell, a year below 1000 and unpadded fields
    included, and rewrites each cell from that datetime, with %Y always four
    digits; else it is inapplicable."""
    rng = random.Random(5150)
    texts = [_date_text(rng) for _ in range(20000)] + ["0999-01-05", "2023-1-5"]
    taken = []
    for n, text in enumerate(texts):
        t = make_table("t", [("d", TEXT)], [(text,), (None,)])
        try:
            dt = datetime.strptime(text, CANONICAL_DATE)
        except ValueError:
            assert CORRUPTIONS["date_format"](_Nth(n), t) is None, repr(text)
            continue
        damaged, cleaner = CORRUPTIONS["date_format"](_Nth(n), t)
        fmt = ALTERNATE_DATE_FORMATS[n % len(ALTERNATE_DATE_FORMATS)]
        # glibc's strftime writes year 999 as "999"
        want = dt.strftime(fmt.replace("%Y", f"{dt.year:04d}"))
        assert damaged.column("d") == (want, None), repr(text)
        assert cleaner == make_operator("StandardizeDatetime", "t", "d", CANONICAL_DATE)
        taken.append(text)
    assert taken[-2:] == ["0999-01-05", "2023-1-5"]
    assert 500 < len(taken) < 5000


def test_a_year_below_1000_makes_no_date_format_corruption():
    """The date_format corruption writes a year below 1000 with four digits,
    where glibc's strftime wrote three. Its cleaner, StandardizeDatetime,
    reads no year below 1000 in either text, so the corruption is always
    rejected and no bundle holds such a text, however the year is written."""
    pristine = make_table("t", [("d", TEXT)], [("0999-01-05",), (None,)])
    for n, fmt in enumerate(ALTERNATE_DATE_FORMATS):
        damaged, cleaner = CORRUPTIONS["date_format"](_Nth(n), pristine)
        four_digits = damaged.column("d")[0]
        assert four_digits == fmt.replace("%Y", "0999").replace("%m", "01").replace(
            "%d", "05").replace("%B", "January")
        for text in (four_digits, four_digits.replace("0999", "999")):
            t = make_table("t", [("d", TEXT)], [(text,), (None,)])
            with pytest.raises(ExecError, match="cannot parse date"):
                execute_operator(cleaner, {"t": t})
    result = corrupt_table(random.Random(0), pristine, kinds=["date_format"])
    assert result.applied == [] and result.rejected == ["date_format"] * 12


def test_stacked_corruptions_unwind_in_reverse():
    for seed in range(20):
        rng = random.Random(seed)
        pristine = clean_table()
        result = corrupt_table(rng, pristine, max_corruptions=3, attempts=30)
        cleaners = [c.cleaner for c in reversed(result.applied)]
        healed = heal(result.table, cleaners)
        assert tables_equal(healed, pristine), f"seed {seed}: {result.applied}"
        # forward order must not be assumed correct; check it can differ
        if len(result.applied) >= 2:
            assert result.table.name == pristine.name


def described_table():
    t = clean_table()
    cols = [(c.name, c.dtype, f"the {c.name} of one member") for c in t.schema.columns]
    return make_table(t.name, cols, t.rows, description="one row per member of staff")


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_a_corruption_keeps_the_table_and_column_descriptions(kind):
    pristine = described_table()
    result = corrupt_table(random.Random(11), pristine, max_corruptions=1, attempts=20, kinds=[kind])
    assert [c.name for c in result.applied] == [kind]
    damaged = result.table.schema
    assert damaged.description == "one row per member of staff"
    assert [c.description for c in damaged.columns] == [
        c.description for c in pristine.schema.columns
    ]


def _seeded_source(rng):
    """A random table with nulls, int, real, text, bool and list columns, and
    a text column of canonical dates for date_format to rewrite."""
    t = random_table(rng, min_rows=1, max_cols=5, null_rate=rng.choice([0.0, 0.2]))
    dates = [
        None if rng.random() < 0.2
        else f"20{rng.randint(10, 29)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
        for _ in t.rows
    ]
    cols = [*t.schema.columns, ("when", TEXT)]
    return make_table(t.name, cols, [row + (d,) for row, d in zip(t.rows, dates)])


def test_every_corruption_builds_a_table_the_checked_constructor_accepts_as_is():
    """A corruption builds its damaged table without checking every cell
    again; Table() over the same schema and rows gives those rows back cell
    for cell, each cell of the same type."""
    made = set()
    for seed in range(60):
        rng = random.Random(seed)
        source = _seeded_source(rng)
        for kind, corrupt in sorted(CORRUPTIONS.items()):
            out = corrupt(rng, source)
            if out is None:
                continue
            damaged = out[0]
            checked = Table(damaged.schema, damaged.rows)
            assert repr(checked.rows) == repr(damaged.rows), (seed, kind)
            made.add(kind)
    assert made == set(CORRUPTIONS)


def test_synthesizing_a_task_builds_no_checked_table(monkeypatch):
    """Only the caller's sources are checked cell by cell: corruptions,
    cleaners and the task pipeline move cells of checked tables."""
    sources = {"staff": clean_table()}
    checked = []
    check = Table.__post_init__
    monkeypatch.setattr(Table, "__post_init__", lambda t: (checked.append(t.name), check(t)))
    applied = set()
    for seed in range(12):
        bundle = synthesize_task(random.Random(seed), "t", sources, SORT_STAFF, max_corruptions=4)
        applied.update(*bundle.provenance["corruptions"].values())
    assert applied == set(CORRUPTIONS)
    assert checked == []


# -- whole tasks -------------------------------------------------------------

def test_synthesize_task_builds_verified_bundle():
    rng = random.Random(21)
    sources = {"staff": clean_table()}
    ops = [
        make_operator("SelectColumn", "staff", ["id", "name", "score"]),
        make_operator("Sort", "staff", ["score"], False),
    ]
    bundle = synthesize_task(rng, "demo-1", sources, ops, max_corruptions=2)
    assert bundle.task_id == "demo-1"
    assert len(bundle.gt_pipeline) >= 2
    assert bundle.gt_pipeline[-2:] == tuple(ops)
    verify_bundle(bundle)
    assert bundle.target_table.column_names == ("id", "name", "score")
    # sources hold the damaged tables, target was built from clean ones
    rebuilt = replay_chain(bundle.gt_pipeline, dict(bundle.sources))
    assert tables_equal(rebuilt[bundle.target_table.name], bundle.target_table)


def test_uppercase_cleaner_of_a_quoted_column_name_round_trips(tmp_path):
    # the cleaner is built as an expression tree, so a quote in the name is
    # escaped when the call is written, not spliced into DSL text
    t = make_table("people", [("id", INT), ('na"me', TEXT)], [(1, "ada"), (2, "grace")])
    ops = [make_operator("Sort", "people", ["id"], True)]
    bundle = synthesize_task(
        random.Random(0), "quoted", {"people": t}, ops, max_corruptions=1, kinds=["uppercase_text"]
    )
    assert bundle.provenance["corruptions"] == {"people": ["uppercase_text"]}
    assert bundle.sources["people"].column('na"me') == ("ADA", "GRACE")
    assert serialize_pipeline(bundle.gt_pipeline[:1]) == (
        'ValueTransform("people", "na\\"me", "lower(col(\\"na\\\\\\"me\\"))")\n'
    )
    verify_bundle(read_bundle(write_bundle(bundle, tmp_path / "quoted")))


def test_synthesize_task_rejects_broken_task_ops():
    rng = random.Random(2)
    with pytest.raises(SynthesisError):
        synthesize_task(rng, "bad", {"staff": clean_table()}, [make_operator("Count", "ghost")])
    with pytest.raises(SynthesisError):
        synthesize_task(rng, "empty", {"staff": clean_table()}, [])


# -- the exact texts of a failed synthesis or verify ---------------------------

def drop_every_column(t):
    """An op whose ExecError detail (the table name) is not in its message."""
    return make_operator("DropColumn", t.name, list(t.column_names))


SORT_STAFF = [make_operator("Sort", "staff", ["id"], True)]


@pytest.mark.parametrize("op, text", [
    (drop_every_column(clean_table()), "DropColumn: cannot drop every column (staff)"),
    (make_operator("Count", "ghost"), "Count: no table named 'ghost'"),  # detail in the message
])
def test_a_task_failing_on_clean_sources_names_its_op(op, text):
    with pytest.raises(SynthesisError) as info:
        synthesize_task(random.Random(2), "bad", {"staff": clean_table()}, [op])
    assert str(info.value) == f"task pipeline fails on clean sources: {text}"


def test_a_failing_cleaner_is_a_ground_truth_failure(monkeypatch):
    monkeypatch.setitem(CORRUPTIONS, "unfixable", lambda rng, t: (t, drop_every_column(t)))
    monkeypatch.setattr(synthesis, "_cleaner_restores", lambda cleaner, damaged, pristine: True)
    with pytest.raises(SynthesisError) as info:
        synthesize_task(random.Random(2), "bad", {"staff": clean_table()}, SORT_STAFF,
                        max_corruptions=1, kinds=["unfixable"])
    assert str(info.value) == (
        "ground truth fails on corrupted sources: DropColumn: cannot drop every column (staff)"
    )


def test_a_wrong_cleaner_is_caught_by_the_rebuild_check(monkeypatch):
    # lower() does not undo upper() on "Ada"; only _cleaner_restores refuses it
    t = make_table("staff", [("id", INT), ("name", TEXT)], [(1, "Ada"), (2, "grace")])
    refused = corrupt_table(random.Random(2), t, attempts=1, kinds=["uppercase_text"])
    assert refused.rejected == ["uppercase_text"]
    monkeypatch.setattr(synthesis, "_cleaner_restores", lambda cleaner, damaged, pristine: True)
    with pytest.raises(SynthesisError) as info:
        synthesize_task(random.Random(2), "bad", {"staff": t}, SORT_STAFF,
                        max_corruptions=1, kinds=["uppercase_text"])
    assert str(info.value) == "ground truth does not rebuild the target table"


def test_verify_bundle_failure_texts_lead_with_the_task_id():
    bundle = synthesize_task(random.Random(2), "t-9", {"staff": clean_table()}, SORT_STAFF)
    failing = replace(bundle, gt_pipeline=(drop_every_column(clean_table()),))
    with pytest.raises(SynthesisError) as info:
        verify_bundle(failing)
    assert str(info.value) == "t-9: ground truth fails: DropColumn: cannot drop every column (staff)"
    target = bundle.target_table
    drifted = replace(bundle, target_table=type(target)(target.schema, target.rows[:-1]))
    with pytest.raises(SynthesisError) as info:
        verify_bundle(drifted)
    assert str(info.value) == "t-9: ground truth no longer rebuilds the target"


def test_demo_tasks_always_verify():
    for seed in (1, 7, 13, 29, 42, 77, 101, 555):
        bundle = synthesize_demo_task(random.Random(seed), f"demo-{seed}")
        verify_bundle(bundle)
        assert bundle.provenance["task_op_count"] >= 1
        assert len(bundle.gt_pipeline) == (
            bundle.provenance["cleaner_count"] + bundle.provenance["task_op_count"]
        )


def test_bundle_write_read_round_trip(tmp_path):
    bundle = synthesize_demo_task(random.Random(5), "rt")
    root = write_bundle(bundle, tmp_path / "rt")
    again = read_bundle(root)
    assert again.task_id == "rt"
    assert set(again.sources) == set(bundle.sources)
    for name in bundle.sources:
        assert tables_equal(again.sources[name], bundle.sources[name])
    assert tables_equal(again.target_table, bundle.target_table)
    assert serialize_pipeline(again.gt_pipeline) == serialize_pipeline(bundle.gt_pipeline)
    assert again.provenance["corruptions"] == bundle.provenance["corruptions"]
    verify_bundle(again)


def test_bundle_writes_are_deterministic(tmp_path):
    dirs = []
    for i in (0, 1):
        bundle = synthesize_demo_task(random.Random(99), "det")
        dirs.append(write_bundle(bundle, tmp_path / f"v{i}"))
    files0 = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
    files1 = sorted(p.relative_to(dirs[1]) for p in dirs[1].rglob("*") if p.is_file())
    assert files0 == files1
    for rel in files0:
        assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes(), rel


GOLDEN_BUNDLE = Path(__file__).parent / "data" / "golden_bundle"


def golden_bundle():
    """Demo task 1 (two sources, nulls, a stringified column, duplicates)
    plus an extra source of edge cells: bools, lists, reals that repr to
    -0.0, 1e-07 and 1e+22, int64 bounds, nulls, and text holding a comma,
    a quote, "\\n" and "\\r" (so that file's lines end in "\\r\\n")."""
    edge = make_table(
        "edge",
        [("i", INT), ("r", REAL), ("s", TEXT), ("b", BOOL), ("l", LIST)],
        [
            (1, -0.0, "a,b", True, (1, "x,y")),
            (None, 1e-07, 'say "hi"', False, ()),
            (INT64_MAX, 1e22, "two\nlines", None, (2.5, True, None, "\u00e9")),
            (INT64_MIN, None, "cr\rhere", True, None),
            (0, 2.5, None, False, ('"q"',)),
        ],
    )
    bundle = synthesize_demo_task(random.Random(1), "golden")
    return replace(bundle, sources={**bundle.sources, "edge": edge})


def bundle_files(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_golden_bundle_is_rewritten_byte_for_byte(tmp_path):
    # committed bundle files pin the csv, schema, pipeline and provenance
    # formats: a fresh synthesis and a read-then-write both reproduce them
    golden = bundle_files(GOLDEN_BUNDLE)
    assert sorted(golden) == [
        "gt_pipeline.txt", "provenance.json", "sources/edge.csv",
        "sources/edge.csv.schema.json", "sources/orders.csv",
        "sources/orders.csv.schema.json", "sources/regions.csv",
        "sources/regions.csv.schema.json", "target_schema.json", "target_table.csv",
    ]
    assert golden["sources/edge.csv"].endswith(b"\r\n")
    assert bundle_files(write_bundle(golden_bundle(), tmp_path / "fresh")) == golden
    again = read_bundle(GOLDEN_BUNDLE)
    verify_bundle(again)
    assert bundle_files(write_bundle(again, tmp_path / "again")) == golden


@pytest.mark.parametrize("ch", SPLITLINES_ONLY_BREAKS)
def test_gt_pipeline_lines_break_only_at_cr_and_lf(tmp_path, ch):
    bundle = synthesize_demo_task(random.Random(5), "rt")
    bundle.gt_pipeline = (
        make_operator("RenameColumn", "orders", {"item": f"it{ch}em"}),
        *bundle.gt_pipeline,
    )
    root = write_bundle(bundle, tmp_path / "b")
    assert ch in (root / "gt_pipeline.txt").read_text(encoding="utf-8")
    assert read_bundle(root).gt_pipeline == bundle.gt_pipeline


def test_read_bundle_errors(tmp_path):
    with pytest.raises(SynthesisError):
        read_bundle(tmp_path / "nowhere")
    empty = tmp_path / "empty"
    (empty / "sources").mkdir(parents=True)
    with pytest.raises(SynthesisError):
        read_bundle(empty)


def test_verify_bundle_detects_tampering(tmp_path):
    bundle = synthesize_demo_task(random.Random(8), "tamper")
    root = write_bundle(bundle, tmp_path / "tamper")
    loaded = read_bundle(root)
    # drop a target row and the ground truth should no longer match
    broken = loaded.target_table
    tampered = type(broken)(broken.schema, broken.rows[:-1])
    loaded.target_table = tampered
    with pytest.raises(SynthesisError):
        verify_bundle(loaded)


@pytest.mark.parametrize("name, text", [
    ("gt_pipeline.txt", 'Sort("orders", ['),
    ("provenance.json", "{not json"),
    ("provenance.json", "[1, 2]"),
    ("provenance.json", '{"task_id": 5}'),
])
def test_read_bundle_rejects_malformed_files(tmp_path, name, text):
    root = write_bundle(synthesize_demo_task(random.Random(3), "task-000"), tmp_path / "b")
    (root / name).write_text(text)
    with pytest.raises(SynthesisError, match=name):
        read_bundle(root)


@pytest.mark.parametrize("name, error", [
    ("gt_pipeline.txt", SynthesisError),
    ("provenance.json", SynthesisError),
    ("target_schema.json", TableIOError),
    ("target_table.csv", TableIOError),
])
def test_read_bundle_rejects_non_utf8_files(tmp_path, name, error):
    root = write_bundle(synthesize_demo_task(random.Random(3), "task-000"), tmp_path / "b")
    (root / name).write_bytes(b"\xff\xfe")
    with pytest.raises(error, match=name):
        read_bundle(root)
    (root / name).unlink()
    (root / name).mkdir()  # unreadable as a file
    with pytest.raises(error, match=name):
        read_bundle(root)


# -- bundle faults and fallbacks ----------------------------------------------

def _bundle(tmp_path):
    return write_bundle(synthesize_demo_task(random.Random(1), "task-001"), tmp_path / "b")


def test_sources_that_is_a_file_is_no_sources_directory(tmp_path):
    root = _bundle(tmp_path)
    shutil.rmtree(root / "sources")
    (root / "sources").write_text("orders.csv\n")
    with pytest.raises(SynthesisError) as info:
        read_bundle(root)
    assert str(info.value) == f"{root}: no sources/ directory"


def test_directory_named_like_a_csv_in_sources_is_a_table_io_error(tmp_path):
    root = _bundle(tmp_path)
    path = root / "sources" / "x.csv"
    path.mkdir()
    with pytest.raises(TableIOError) as info:
        read_bundle(root)
    assert str(info.value) == f"cannot read {path}: [Errno 21] Is a directory: '{path}'"


@pytest.mark.parametrize("data, detail", [
    (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b"{not json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
])
def test_unreadable_source_sidecar_is_a_table_io_error(tmp_path, data, detail):
    root = _bundle(tmp_path)
    sidecar = root / "sources" / "regions.csv.schema.json"
    sidecar.write_bytes(data)
    with pytest.raises(TableIOError) as info:
        read_bundle(root)
    assert str(info.value) == f"cannot read schema {sidecar}: {detail}"


def test_sidecar_of_the_wrong_shape_is_a_table_io_error(tmp_path):
    root = _bundle(tmp_path)
    path = root / "sources" / "orders.csv.schema.json"
    path.write_text("[]")
    with pytest.raises(TableIOError) as info:
        read_bundle(root)
    assert str(info.value) == f"{path}: malformed schema json: expected an object, got list"


@pytest.mark.parametrize("fault, detail", [
    (lambda s: s["columns"][0].update(dtype="float"), "unknown dtype 'float' for column"),
    (lambda s: s["columns"].append(dict(s["columns"][0])), "duplicate column names in table"),
    (lambda s: s.update(table_name=""), "table name must be non-empty"),
    (lambda s: s["columns"][0].update(name=""), "column name must be non-empty"),
])
@pytest.mark.parametrize("name", ["sources/regions.csv.schema.json", "target_schema.json"])
def test_a_schema_file_with_a_bad_column_dtype_or_name_is_a_table_io_error(
    tmp_path, name, fault, detail
):
    root = _bundle(tmp_path)
    path = root / name
    schema = json.loads(path.read_text())
    fault(schema)
    path.write_text(json.dumps(schema))
    with pytest.raises(TableIOError) as info:
        read_bundle(root)
    assert str(info.value).startswith(f"{path}: malformed schema json: {detail}")


@pytest.mark.parametrize("task_id", ["../escaped", "/escaped", "a/b", "", ".", "..", "a\0b"])
def test_a_task_id_that_is_not_a_plain_file_name_is_a_synthesis_error(tmp_path, task_id):
    # the task id names the episode's log file, which must stay in the log directory
    root = _bundle(tmp_path)
    (root / "provenance.json").write_text(json.dumps({"task_id": task_id}))
    with pytest.raises(SynthesisError, match="provenance.json: task_id .* is not a plain file name"):
        read_bundle(root)


def test_missing_target_schema_is_a_table_io_error(tmp_path):
    root = _bundle(tmp_path)
    path = root / "target_schema.json"
    path.unlink()
    with pytest.raises(TableIOError) as info:
        read_bundle(root)
    assert str(info.value) == (
        f"cannot read schema {path}: [Errno 2] No such file or directory: '{path}'"
    )


def test_missing_gt_pipeline_reads_as_an_empty_pipeline(tmp_path):
    root = _bundle(tmp_path)
    (root / "gt_pipeline.txt").unlink()
    assert read_bundle(root).gt_pipeline == ()


@pytest.mark.parametrize("spell", [str, lambda root: f"{root}/"])
def test_missing_provenance_takes_the_task_id_from_the_directory(tmp_path, spell):
    root = write_bundle(synthesize_demo_task(random.Random(1), "named"), tmp_path / "dir-7")
    (root / "provenance.json").unlink()
    bundle = read_bundle(spell(root))
    assert bundle.task_id == "dir-7"
    assert bundle.provenance == {}


def test_missing_provenance_in_the_working_directory_takes_its_name(tmp_path, monkeypatch):
    # Path(".").name is "", which would name the episode's log ".jsonl"
    root = write_bundle(synthesize_demo_task(random.Random(1), "named"), tmp_path / "dir-7")
    (root / "provenance.json").unlink()
    monkeypatch.chdir(root)
    assert read_bundle(".").task_id == "dir-7"


def test_reading_a_bundle_opens_each_file_once(tmp_path, monkeypatch):
    # a guard against a probe or a second read creeping back into the reader
    root = write_bundle(synthesize_demo_task(random.Random(1), "task-001"), tmp_path / "b")
    files = sorted(str(p) for p in root.rglob("*") if p.is_file())
    assert len(files) == 8  # two sources and their sidecars, four more files
    assert not (root / "target_table.csv.schema.json").exists()
    opened = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)
    bundle = read_bundle(root)
    assert sorted(bundle.sources) == ["orders", "regions"]
    assert sorted(opened) == files


def test_an_older_layout_bundle_reads_its_target_with_target_schema_json(tmp_path):
    # bundles written before the target lost its sidecar also hold
    # target_table.csv.schema.json (without the description) and end csv
    # lines in \r\n; the sidecar is ignored and both line ends read
    root = _bundle(tmp_path)
    new = read_bundle(root)
    described = read_schema(root / "target_schema.json")
    assert described.description and new.target_schema == described
    stale = Schema(described.table_name, described.columns)
    write_schema(stale, root / "target_table.csv.schema.json")
    for path in [root / "target_table.csv", *(root / "sources").glob("*.csv")]:
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    old = read_bundle(root)
    assert old.target_schema == described
    assert old.target_table == new.target_table
    assert old.sources == new.sources
    verify_bundle(old)
