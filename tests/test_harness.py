"""Harness tests: scoring math, parallel stability, logs, replay."""

import builtins
import io
import json
import random
from pathlib import Path

import pytest

from adprep.agent import IdentityPolicy, ScriptedPolicy
from adprep.harness import (
    HarnessError,
    Report,
    compute_cost,
    discover_tasks,
    gt_replay_policy,
    load_trajectory_log,
    replay_suite,
    run_benchmark,
    write_trajectory_log,
)
from adprep.operators import parse_operator_call
from adprep.reward import RuleJudge
from adprep.synthesis import synthesize_demo_task, write_bundle
from adprep.tables import LIST, make_table, tables_equal, write_table


def build_suite(root: Path, seeds=(1, 7, 13, 29)) -> Path:
    suite = root / "suite"
    for seed in seeds:
        bundle = synthesize_demo_task(random.Random(seed), f"task-{seed:03d}")
        write_bundle(bundle, suite / bundle.task_id)
    return suite


def report_fingerprint(report: Report) -> str:
    """Report JSON with the timing-dependent fields zeroed out."""
    data = report.to_json()
    data["wall_time_total"] = 0.0
    data["cost"] = 0.0
    data["mean_cost"] = 0.0
    for row in data["rows"]:
        row["wall_time"] = 0.0
        row["cost"] = 0.0
    return json.dumps(data, sort_keys=True)


# -- cost math ---------------------------------------------------------------

def test_compute_cost():
    assert compute_cost(3600.0) == pytest.approx(0.91, abs=1e-9)
    assert compute_cost(1800.0) == pytest.approx(0.455, abs=1e-9)
    assert compute_cost(0.0) == 0.0
    assert compute_cost(7200.0, dollars_per_hour=2.0) == pytest.approx(4.0, abs=1e-9)


# -- benchmark runs ----------------------------------------------------------

def test_gt_policy_scores_perfectly(tmp_path):
    suite = build_suite(tmp_path)
    report = run_benchmark(suite, gt_replay_policy)
    assert report.n_tasks == 4
    assert report.accuracy == 100.0
    assert report.completion == 100.0
    assert report.all_attempted
    for row in report.rows:
        assert row.status == "answered"
        assert row.outcome == 1.0
        assert row.partial == 1.0
    text = report.to_text()
    assert "accuracy: 100.0%" in text
    assert text.splitlines()[0].startswith("task")


def test_run_and_replay_parse_each_distinct_call_text_once(tmp_path):
    # the bundle, the policy's replies and the judge all name the gt calls;
    # the call-text memo makes every text after the first a hit
    suite = build_suite(tmp_path)
    texts = {
        line
        for path in suite.glob("*/gt_pipeline.txt")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    }
    parse_operator_call.cache_clear()
    logs = tmp_path / "logs"
    assert run_benchmark(suite, gt_replay_policy, log_dir=logs).accuracy == 100.0
    assert replay_suite(suite, logs).accuracy == 100.0
    info = parse_operator_call.cache_info()
    assert info.misses == len(texts) and info.hits > info.misses


def test_threads_do_not_change_the_report(tmp_path):
    suite = build_suite(tmp_path)
    serial = run_benchmark(suite, gt_replay_policy, threads=1)
    threaded = run_benchmark(suite, gt_replay_policy, threads=8)
    assert report_fingerprint(serial) == report_fingerprint(threaded)


def test_identity_policy_partial_credit(tmp_path):
    suite = build_suite(tmp_path, seeds=(3,))
    report = run_benchmark(suite, lambda bundle: IdentityPolicy())
    row = report.rows[0]
    assert row.status == "answered"
    assert row.outcome in (0.0, 1.0)
    assert 0.0 <= row.partial <= 1.0


def test_logs_round_trip(tmp_path):
    suite = build_suite(tmp_path, seeds=(1, 7))
    logs = tmp_path / "logs"
    live = run_benchmark(suite, gt_replay_policy, log_dir=logs)
    paths = sorted(logs.glob("*.jsonl"))
    assert [p.stem for p in paths] == ["task-001", "task-007"]
    # the finished report is dropped next to the logs
    written = json.loads((logs / "report.json").read_text())
    assert written == live.to_json()

    traj = load_trajectory_log(paths[0])
    assert traj.status == "answered"
    assert traj.task_id == "task-001"
    assert traj.final_table is not None
    assert len(traj.turns) == 2
    # the terminal record carries the scores line for offline readers
    last = json.loads(paths[0].read_text().splitlines()[-1])
    assert last["record"] == "result"
    assert last["scores"]["outcome"] == 1.0


GOLDEN_LOG = Path(__file__).parent / "data" / "golden_trajectory.jsonl"


def test_golden_log_loads_and_rewrites_byte_for_byte(tmp_path):
    # a committed log pins the format: task header, one record per turn
    # (protocol error, failed op, expand, answer), result with scores
    traj = load_trajectory_log(GOLDEN_LOG)
    assert traj.task_id == "golden" and traj.status == "answered"
    assert [t.action for t in traj.turns] == ["protocol_error", "expand", "expand", "answer"]
    assert traj.turns[1].failure_op_kind == "Count"
    assert traj.usage == {"completion_tokens": 40, "prompt_tokens": 300}
    assert traj.final_table.rows == ((1, 2.5), (3, 4.0))
    scores = json.loads(GOLDEN_LOG.read_text().splitlines()[-1])["scores"]
    again = tmp_path / "again.jsonl"
    write_trajectory_log(again, traj, scores)
    assert again.read_bytes() == GOLDEN_LOG.read_bytes()


def test_replay_matches_live_scores(tmp_path):
    suite = build_suite(tmp_path)
    logs = tmp_path / "logs"
    live = run_benchmark(suite, gt_replay_policy, log_dir=logs)
    replayed = replay_suite(suite, logs)
    assert len(replayed.rows) == len(live.rows)
    for a, b in zip(live.rows, replayed.rows):
        assert a.task_id == b.task_id
        assert a.outcome == b.outcome
        assert a.partial == b.partial
        assert a.process == b.process
        assert a.total == b.total
    # replaying twice is byte-stable
    assert report_fingerprint(replay_suite(suite, logs)) == report_fingerprint(replayed)


def test_replay_opens_only_the_target_files_provenance_and_log(tmp_path, monkeypatch):
    # a guard against score reading sources/ or gt_pipeline.txt again
    suite = build_suite(tmp_path, seeds=(1, 7, 13))
    logs = tmp_path / "logs"
    run_benchmark(suite, gt_replay_policy, log_dir=logs)
    opened = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)
    report = replay_suite(suite, logs)
    assert [(r.status, r.outcome) for r in report.rows] == [("answered", 1.0)] * 3
    want = []
    for task in ("task-001", "task-007", "task-013"):
        bundle = suite / task
        want += [str(bundle / name) for name in
                 ("target_schema.json", "target_table.csv", "provenance.json")]
        want.append(str(logs / f"{task}.jsonl"))
    assert sorted(opened) == sorted(want)


def test_replay_embeds_enough_to_score_without_sources(tmp_path):
    suite = build_suite(tmp_path, seeds=(13,))
    logs = tmp_path / "logs"
    run_benchmark(suite, gt_replay_policy, log_dir=logs)
    traj = load_trajectory_log(logs / "task-013.jsonl")
    from adprep.synthesis import read_bundle

    bundle = read_bundle(suite / "task-013")
    assert tables_equal(traj.final_table, bundle.target_table)


def test_load_error_rows(tmp_path):
    suite = build_suite(tmp_path, seeds=(1,))
    broken = suite / "task-broken"
    broken.mkdir()
    (broken / "target_schema.json").write_text("{not json")
    report = run_benchmark(suite, gt_replay_policy)
    assert report.n_tasks == 2
    by_id = {r.task_id: r for r in report.rows}
    assert by_id["task-broken"].status == "load_error"
    assert by_id["task-broken"].error
    assert not report.all_attempted
    assert report.accuracy == 50.0  # the broken task still counts against


@pytest.mark.parametrize("name, text", [
    ("gt_pipeline.txt", 'Sort("orders", ['),
    ("provenance.json", "{not json"),
    ("provenance.json", '{"task_id": 7}'),
])
def test_malformed_bundle_file_is_a_typed_load_error_row(tmp_path, name, text):
    suite = build_suite(tmp_path, seeds=(1, 7))
    (suite / "task-007" / name).write_text(text)
    report = run_benchmark(suite, gt_replay_policy)
    by_id = {r.task_id: r for r in report.rows}
    assert by_id["task-007"].status == "load_error"
    assert by_id["task-007"].error.startswith("SynthesisError: ")
    assert name in by_id["task-007"].error
    assert by_id["task-001"].status == "answered"


class _BrokenJudge:
    """Raises on one task, as a broken judge or scorer would."""

    def score(self, traj):
        if traj.task_id == "task-007":
            raise RuntimeError("judge fell over")
        return RuleJudge().score(traj)


@pytest.mark.parametrize("threads", [1, 2])
def test_a_task_that_raises_becomes_an_internal_error_row(tmp_path, threads):
    suite = build_suite(tmp_path)
    report = run_benchmark(suite, gt_replay_policy, judge_factory=_BrokenJudge, threads=threads)
    by_id = {r.task_id: r for r in report.rows}
    assert by_id["task-007"].status == "internal_error"
    assert by_id["task-007"].error == "RuntimeError: judge fell over"
    assert not report.all_attempted
    for task_id in ("task-001", "task-013", "task-029"):
        assert by_id[task_id].status == "answered"
        assert by_id[task_id].outcome == 1.0
    assert report.accuracy == 75.0


def test_a_log_that_fails_to_score_becomes_an_internal_error_row(tmp_path):
    suite = build_suite(tmp_path, seeds=(1, 7, 13))
    logs = tmp_path / "logs"
    run_benchmark(suite, gt_replay_policy, log_dir=logs)
    judged = replay_suite(suite, logs, judge=_BrokenJudge())
    assert {r.task_id: r.error for r in judged.rows} == {
        "task-001": None, "task-007": "RuntimeError: judge fell over", "task-013": None,
    }

    path = logs / "task-007.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    next(r for r in records if r["record"] == "turn")["op_texts"] = ['Nope("x"']
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    report = replay_suite(suite, logs)
    by_id = {r.task_id: r for r in report.rows}
    assert by_id["task-007"].status == "internal_error"
    assert by_id["task-007"].error.startswith("OpParseError: ")
    assert [r.status for r in report.rows].count("internal_error") == 1
    assert by_id["task-001"].status == by_id["task-013"].status == "answered"
    assert not report.all_attempted


def test_empty_suite(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    report = run_benchmark(empty, gt_replay_policy)
    assert report.note == "no tasks"
    assert report.n_tasks == 0
    assert report.to_text() == "no tasks"
    assert report.all_attempted
    with pytest.raises(HarnessError):
        run_benchmark(tmp_path / "missing", gt_replay_policy)


def test_discover_skips_non_bundles(tmp_path):
    suite = build_suite(tmp_path, seeds=(1,))
    (suite / "notes").mkdir()
    (suite / "stray.txt").write_text("hi")
    assert [p.name for p in discover_tasks(suite)] == ["task-001"]


def test_missing_and_truncated_logs(tmp_path):
    suite = build_suite(tmp_path, seeds=(1, 7))
    logs = tmp_path / "logs"
    run_benchmark(suite, gt_replay_policy, log_dir=logs)
    (logs / "task-007.jsonl").unlink()
    report = replay_suite(suite, logs)
    by_id = {r.task_id: r for r in report.rows}
    assert by_id["task-007"].status == "missing_log"
    assert by_id["task-001"].status == "answered"

    good = (logs / "task-001.jsonl").read_text().splitlines()
    (logs / "task-001.jsonl").write_text("\n".join(good[:-1]) + "\n")
    with pytest.raises(HarnessError):
        load_trajectory_log(logs / "task-001.jsonl")


def test_malformed_log_line_becomes_a_load_error_row(tmp_path):
    suite = build_suite(tmp_path, seeds=(1, 7, 13))
    logs = tmp_path / "logs"
    run_benchmark(suite, gt_replay_policy, log_dir=logs)
    lines = (logs / "task-007.jsonl").read_text().splitlines()
    (logs / "task-007.jsonl").write_text('{"record": "task"\n' + "\n".join(lines[1:]) + "\n")
    with pytest.raises(HarnessError, match="malformed log line"):
        load_trajectory_log(logs / "task-007.jsonl")
    (logs / "task-013.jsonl").write_text('["not", "an", "object"]\n')
    with pytest.raises(HarnessError, match="JSON object"):
        load_trajectory_log(logs / "task-013.jsonl")

    report = replay_suite(suite, logs)
    by_id = {r.task_id: r for r in report.rows}
    assert by_id["task-007"].status == "load_error"
    assert "malformed log line" in by_id["task-007"].error
    assert by_id["task-013"].status == "load_error"
    assert by_id["task-001"].status == "answered"
    assert not report.all_attempted


def test_non_utf8_log_becomes_a_load_error_row(tmp_path):
    suite = build_suite(tmp_path, seeds=(1, 7))
    logs = tmp_path / "logs"
    run_benchmark(suite, gt_replay_policy, log_dir=logs)
    (logs / "task-007.jsonl").write_bytes(b"\xff\xfe")
    with pytest.raises(HarnessError, match="utf-8"):
        load_trajectory_log(logs / "task-007.jsonl")
    (logs / "task-007.jsonl").unlink()
    (logs / "task-007.jsonl").mkdir()  # exists, but cannot be read
    with pytest.raises(HarnessError, match="cannot read log"):
        load_trajectory_log(logs / "task-007.jsonl")
    by_id = {r.task_id: r for r in replay_suite(suite, logs).rows}
    assert by_id["task-007"].status == "load_error"
    assert by_id["task-001"].status == "answered"


def test_malformed_bundle_csv_becomes_a_load_error_row(tmp_path):
    suite = build_suite(tmp_path, seeds=(1, 7, 13))
    logs = tmp_path / "logs"
    run_benchmark(suite, gt_replay_policy, log_dir=logs)
    target = suite / "task-007" / "target_table.csv"
    text = target.read_text()
    target.write_text(text[: text.rindex(",")] + "\n")  # last row loses a cell

    report = replay_suite(suite, logs)
    by_id = {r.task_id: r for r in report.rows}
    assert by_id["task-007"].status == "load_error"
    assert "cells" in by_id["task-007"].error
    assert by_id["task-001"].status == "answered" and by_id["task-001"].outcome == 1.0
    assert by_id["task-013"].status == "answered" and by_id["task-013"].outcome == 1.0
    assert not report.all_attempted


def _drop_task_id(records):
    del records[0]["task_id"]


def _drop_status(records):
    del records[-1]["status"]


def _drop_turn_index(records):
    del next(r for r in records if r["record"] == "turn")["index"]


def _out_of_range_final_table(records):
    records[-1]["final_table"] = {
        "schema": {"table_name": "t", "columns": [{"name": "n", "dtype": "int"}]},
        "rows": [[2**63]],
    }


@pytest.mark.parametrize("damage", [
    _drop_task_id, _drop_status, _drop_turn_index, _out_of_range_final_table,
])
def test_well_formed_log_with_bad_records_becomes_a_load_error_row(tmp_path, damage):
    suite = build_suite(tmp_path, seeds=(1, 7))
    logs = tmp_path / "logs"
    run_benchmark(suite, gt_replay_policy, log_dir=logs)
    path = logs / "task-007.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    damage(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(HarnessError, match="task-007.jsonl"):
        load_trajectory_log(path)

    report = replay_suite(suite, logs)
    by_id = {r.task_id: r for r in report.rows}
    assert by_id["task-007"].status == "load_error"
    assert by_id["task-001"].status == "answered"
    assert not report.all_attempted


# -- deeply nested json in any file a run reads ------------------------------

DEEP_JSON = "[" * 100_000  # json.loads raises RecursionError, not JSONDecodeError


def _deep_target_schema(task):
    (task / "target_schema.json").write_text(DEEP_JSON)


def _deep_sidecar(task):
    next((task / "sources").glob("*.csv.schema.json")).write_text(DEEP_JSON)


def _deep_provenance(task):
    (task / "provenance.json").write_text(DEEP_JSON)


def _deep_list_cell(task):
    path = task / "sources" / "deep.csv"
    write_table(make_table("deep", [("x", LIST)], []), path)
    path.write_text("x\n[1]\n" + DEEP_JSON + "\n")


@pytest.mark.parametrize("damage", [
    _deep_target_schema, _deep_sidecar, _deep_provenance, _deep_list_cell,
])
def test_deeply_nested_json_in_a_bundle_becomes_a_load_error_row(tmp_path, damage):
    suite = build_suite(tmp_path, seeds=(1, 7))
    logs = tmp_path / "logs"
    run_benchmark(suite, gt_replay_policy, log_dir=logs)
    damage(suite / "task-007")
    run = {r.task_id: r for r in run_benchmark(suite, gt_replay_policy).rows}
    replayed = {r.task_id: r for r in replay_suite(suite, logs).rows}
    assert run["task-007"].status == "load_error"
    assert "recursion" in run["task-007"].error
    assert run["task-001"].status == "answered"
    assert run["task-007"].error.startswith(("TableIOError: ", "SynthesisError: "))
    assert replayed["task-001"].status == "answered"
    if damage in (_deep_sidecar, _deep_list_cell):
        # score reads the target's two files and provenance.json, no source
        assert (replayed["task-007"].status, replayed["task-007"].outcome) == ("answered", 1.0)
    else:
        assert replayed["task-007"].status == "load_error"
        assert "recursion" in replayed["task-007"].error


def test_deeply_nested_json_log_or_reply_script_becomes_a_load_error_row(tmp_path):
    suite = build_suite(tmp_path, seeds=(1, 7))
    logs = tmp_path / "logs"
    run_benchmark(suite, gt_replay_policy, log_dir=logs)
    (logs / "task-007.jsonl").write_text(DEEP_JSON + "\n")
    with pytest.raises(HarnessError, match="malformed log line"):
        load_trajectory_log(logs / "task-007.jsonl")
    by_id = {r.task_id: r for r in replay_suite(suite, logs).rows}
    assert by_id["task-007"].status == "load_error"
    assert by_id["task-001"].status == "answered"

    script = tmp_path / "replies.json"
    script.write_text(DEEP_JSON)
    report = run_benchmark(suite, lambda bundle: ScriptedPolicy.from_file(script))
    assert [r.status for r in report.rows] == ["load_error", "load_error"]
    assert all(r.error.startswith("policy: cannot load reply script") for r in report.rows)


def test_list_cell_in_an_int_column_of_a_logged_final_table(tmp_path):
    suite = build_suite(tmp_path, seeds=(1,))
    logs = tmp_path / "logs"
    run_benchmark(suite, gt_replay_policy, log_dir=logs)
    path = logs / "task-001.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[-1]["final_table"] = {
        "schema": {"table_name": "t", "columns": [{"name": "n", "dtype": "int"}]},
        "rows": [[1], [[1, 2]]],
    }
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(HarnessError) as exc:
        load_trajectory_log(path)
    assert str(exc.value) == (
        f"{path}: malformed log record: table 't' row 1 column 'n': list cell in int column"
    )
