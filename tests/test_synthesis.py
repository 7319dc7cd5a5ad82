"""Synthesis tests: reversibility checks, bundle I/O, determinism."""

import json
import random
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
from adprep.tables import INT, REAL, TEXT, TableIOError, make_table, tables_equal


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
