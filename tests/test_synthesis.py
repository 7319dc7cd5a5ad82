"""Synthesis tests: reversibility checks, bundle I/O, determinism."""

import builtins
import io
import json
import random
import shutil
from pathlib import Path

import pytest

from adprep.operators import execute_operator, make_operator
from adprep.pipeline import run_pipeline, serialize_pipeline
from adprep.synthesis import (
    CORRUPTIONS,
    SynthesisError,
    corrupt_table,
    read_bundle,
    synthesize_demo_task,
    synthesize_task,
    verify_bundle,
    write_bundle,
)
from adprep.tables import (
    INT,
    REAL,
    TEXT,
    Schema,
    TableIOError,
    make_table,
    read_schema,
    tables_equal,
    write_schema,
)
from conftest import SPLITLINES_ONLY_BREAKS


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
    trace = run_pipeline(bundle.gt_pipeline, dict(bundle.sources))
    assert trace.ok


def test_synthesize_task_rejects_broken_task_ops():
    rng = random.Random(2)
    with pytest.raises(SynthesisError):
        synthesize_task(rng, "bad", {"staff": clean_table()}, [make_operator("Count", "ghost")])
    with pytest.raises(SynthesisError):
        synthesize_task(rng, "empty", {"staff": clean_table()}, [])


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
    (root / "sources" / "orders.csv.schema.json").write_text("[]")
    with pytest.raises(TableIOError) as info:
        read_bundle(root)
    assert str(info.value) == "malformed schema json: list indices must be integers or slices, not str"


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
    with pytest.raises(TableIOError, match=f"^malformed schema json: {detail}"):
        read_bundle(root)


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
