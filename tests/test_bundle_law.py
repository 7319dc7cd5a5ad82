"""The synthesis law: whatever `synthesize_task` returns, a bundle can hold.

For every operator kind of the reference generators, a synthesized bundle
reads back equal to itself, passes verify_bundle and scores outcome 1 under
its own ground truth (a target with no rows ends as an empty result with
full partial credit). csv spells an empty text cell as it spells Null, so a
task whose sources or target hold "" is refused at synthesis instead of
written as a bundle that fails its own check. Most draws take the in-memory
form of the bundle files (table_to_csv_text, table_from_csv_text,
serialize_pipeline, parse_pipeline); the first bundle of each kind also goes
through write_bundle and read_bundle.
"""

import random

import pytest

from adprep.harness import gt_replay_policy, score_case
from adprep.operators import make_operator
from adprep.synthesis import (
    SynthesisError,
    TaskBundle,
    parse_pipeline,
    read_bundle,
    serialize_pipeline,
    synthesize_task,
    verify_bundle,
    write_bundle,
)
from adprep.tables import TEXT, TableIOError, make_table, table_from_csv_text, table_to_csv_text
from reference_ops import GENERATORS

DRAWS_PER_KIND = 16


def _read_back(t):
    return table_from_csv_text(table_to_csv_text(t), t.name, t.schema)


def _in_memory_read_back(bundle):
    return TaskBundle(
        bundle.task_id,
        {name: _read_back(t) for name, t in bundle.sources.items()},
        _read_back(bundle.target_table),
        tuple(parse_pipeline(serialize_pipeline(bundle.gt_pipeline))),
        bundle.provenance,
    )


def _assert_same_bundle(back, bundle):
    assert back.task_id == bundle.task_id
    assert back.sources.keys() == bundle.sources.keys()
    for name, t in bundle.sources.items():
        assert back.sources[name] == t, name
    assert back.target_table == bundle.target_table
    assert back.gt_pipeline == bundle.gt_pipeline


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_every_synthesized_bundle_reads_back_and_scores_one(tmp_path, kind):
    rng = random.Random(f"bundle-law-{kind}")
    made = 0
    for i in range(DRAWS_PER_KIND):
        sources, op = GENERATORS[kind](rng)[:2]
        try:
            bundle = synthesize_task(
                rng, f"task-{i:03d}", sources, [op], max_corruptions=rng.choice((0, 2))
            )
        except SynthesisError:
            continue  # the task fails on its sources, or a table holds ""
        back = _in_memory_read_back(bundle)
        if made == 0:
            back = read_bundle(write_bundle(bundle, tmp_path / bundle.task_id))
        _assert_same_bundle(back, bundle)
        verify_bundle(back)
        traj, breakdown = score_case(back, gt_replay_policy(back))
        if bundle.target_table.n_rows:
            assert (traj.status, breakdown.outcome) == ("answered", 1.0), serialize_pipeline(back.gt_pipeline)
        else:  # an answer with no rows solves no task, whatever the target
            assert (traj.status, breakdown.partial) == ("empty_result", 1.0)
        made += 1
    assert made, f"no {kind} draw made a bundle"


def test_a_target_holding_empty_text_is_refused_before_it_is_written(tmp_path):
    """trim over cells of spaces makes "": the target csv would read it back
    as null, so the bundle's own ground truth would score 0 against it."""
    t = make_table("t", [("id", "int"), ("s", TEXT)], [(1, "  "), (2, " a "), (3, "  ")])
    op = make_operator("ValueTransform", "t", "s", 'trim(col("s"))')
    with pytest.raises(SynthesisError) as exc:
        synthesize_task(random.Random(3), "task-000", {"t": t}, [op], max_corruptions=0)
    assert str(exc.value) == (
        "table 't' row 0 column 's' holds empty text, "
        "which a bundle's csv would read back as null"
    )
    target = make_table("t", [("id", "int"), ("s", TEXT)], [(1, ""), (2, "a"), (3, "")])
    bundle = TaskBundle("task-000", {"t": t}, target, (op,))
    with pytest.raises(TableIOError) as exc:
        write_bundle(bundle, tmp_path / "task-000")
    path = tmp_path / "task-000" / "target_table.csv"
    assert str(exc.value) == f"{path}: row 0 column 's' holds empty text, which csv reads back as null"
    assert not path.exists()
