"""CLI tests drive main() in process and check output plus exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from adprep.cli import main
from adprep.operators import make_operator, serialize_operator_call
from adprep.synthesis import TaskBundle, read_bundle, write_bundle
from adprep.tables import INT, make_table


@pytest.fixture
def suite(tmp_path):
    out = tmp_path / "suite"
    assert main(["synth", str(out), "--tasks", "3", "--seed", "9"]) == 0
    return out


def test_python_dash_m_runs_the_cli_from_the_source_tree(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "adprep", "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: adprep")


def test_synth_writes_bundles(suite, capsys):
    capsys.readouterr()
    dirs = sorted(p.name for p in suite.iterdir() if p.is_dir())
    assert dirs == ["task-000", "task-001", "task-002"]
    for d in dirs:
        assert (suite / d / "gt_pipeline.txt").exists()
        assert (suite / d / "target_table.csv").exists()


def test_synth_is_seed_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["synth", str(a), "--tasks", "2", "--seed", "4"]) == 0
    assert main(["synth", str(b), "--tasks", "2", "--seed", "4"]) == 0
    for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_validate_clean_suite(suite, capsys):
    capsys.readouterr()
    assert main(["validate", str(suite)]) == 0
    out = capsys.readouterr().out
    assert "3/3 bundles verify" in out


def test_validate_flags_tampering(suite, capsys):
    target = suite / "task-001" / "target_table.csv"
    lines = target.read_text().splitlines()
    target.write_text("\n".join(lines[:-1]) + "\n")
    assert main(["validate", str(suite)]) == 1
    out = capsys.readouterr().out
    assert "FAIL task-001" in out
    assert "ok   task-000" in out


def test_validate_single_bundle_and_missing_dir(suite, tmp_path, capsys):
    capsys.readouterr()
    assert main(["validate", str(suite / "task-002")]) == 0
    assert "1/1 bundles verify" in capsys.readouterr().out
    assert main(["validate", str(tmp_path / "nope")]) == 2
    assert "does not exist" in capsys.readouterr().err


@pytest.mark.parametrize("name, text", [
    ("gt_pipeline.txt", 'Sort("orders", ['),
    ("provenance.json", "[1, 2]"),
])
def test_malformed_bundle_file_is_reported_not_raised(suite, tmp_path, capsys, name, text):
    logs = tmp_path / "logs"
    assert main(["run", str(suite), "--policy", "gt", "--log-dir", str(logs)]) == 0
    (suite / "task-001" / name).write_text(text)
    capsys.readouterr()
    assert main(["validate", str(suite)]) == 1
    out = capsys.readouterr().out
    assert "FAIL task-001" in out and name in out
    assert "ok   task-000" in out
    if name == "gt_pipeline.txt":  # score reads the target files and provenance.json only
        assert main(["score", str(suite), str(logs)]) == 0
        assert re.search(r"^task-001 +answered +1 ", capsys.readouterr().out, re.M)
    else:
        assert main(["score", str(suite), str(logs)]) == 1
        assert "load_error" in capsys.readouterr().out


def test_non_utf8_files_are_reported_not_raised(suite, tmp_path, capsys):
    logs = tmp_path / "logs"
    assert main(["run", str(suite), "--policy", "gt", "--log-dir", str(logs)]) == 0
    (suite / "task-001" / "gt_pipeline.txt").write_bytes(b"\xff\xfe")
    (logs / "task-002.jsonl").write_bytes(b"\xff\xfe")
    script = tmp_path / "replies.json"
    script.write_bytes(b"\xff\xfe")
    capsys.readouterr()
    assert main(["validate", str(suite)]) == 1
    out = capsys.readouterr().out
    assert "FAIL task-001" in out and "utf-8" in out
    assert main(["score", str(suite), str(logs)]) == 1
    out = capsys.readouterr().out
    # score does not read gt_pipeline.txt, so only the log of task-002 fails
    assert out.count("load_error") == 1
    assert re.search(r"^task-001 +answered +1 ", out, re.M)
    assert main(["replay", str(suite / "task-000"), str(script)]) == 2
    captured = capsys.readouterr()
    assert "utf-8" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_run_gt_policy(suite, capsys):
    assert main(["run", str(suite), "--policy", "gt"]) == 0
    out = capsys.readouterr().out
    assert "accuracy: 100.0%" in out
    assert "completion: 100.0%" in out


def test_run_json_report(suite, capsys):
    assert main(["run", str(suite), "--policy", "gt", "--json", "--threads", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n_tasks"] == 3
    assert data["accuracy"] == 100.0
    assert len(data["rows"]) == 3


def test_run_identity_policy(suite, capsys):
    assert main(["run", str(suite), "--policy", "identity"]) == 0
    out = capsys.readouterr().out
    assert "completion: 100.0%" in out  # identity always answers something


def test_run_missing_suite(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope")]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_run_scripted_needs_scripts(suite, capsys):
    assert main(["run", str(suite), "--policy", "scripted"]) == 2
    assert "--scripts" in capsys.readouterr().err


def test_solve_writes_log(suite, tmp_path, capsys):
    bundle_dir = suite / "task-000"
    log = tmp_path / "episode.jsonl"
    assert main(["solve", str(bundle_dir), "--policy", "gt", "--log", str(log)]) == 0
    out = capsys.readouterr().out
    assert "status: answered" in out
    assert "outcome: 1" in out
    assert log.exists()


def test_score_after_run(suite, tmp_path, capsys):
    logs = tmp_path / "logs"
    assert main(["run", str(suite), "--policy", "gt", "--log-dir", str(logs)]) == 0
    capsys.readouterr()
    assert main(["score", str(suite), str(logs), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["accuracy"] == 100.0
    assert (logs / "report.json").exists()

    (sorted(logs.glob("*.jsonl"))[0]).unlink()
    assert main(["score", str(suite), str(logs)]) == 1
    assert "missing_log" in capsys.readouterr().out

    # a log whose turn holds a call that no longer parses is one failed row
    path = sorted(logs.glob("*.jsonl"))[0]
    records = [json.loads(line) for line in path.read_text().splitlines()]
    next(r for r in records if r["record"] == "turn")["op_texts"] = ['Nope("x"']
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["score", str(suite), str(logs), "--json"]) == 1
    statuses = [row["status"] for row in json.loads(capsys.readouterr().out)["rows"]]
    assert sorted(statuses) == ["answered", "internal_error", "missing_log"]


def test_score_reports_a_mistyped_result_field_as_a_load_error(suite, tmp_path, capsys):
    # the report sums wall_time and pads status, so such a log once crashed score
    logs = tmp_path / "logs"
    assert main(["run", str(suite), "--policy", "gt", "--log-dir", str(logs)]) == 0
    path = logs / "task-001.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for key, value in [
        ("wall_time", ""), ("wall_time", None), ("wall_time", []), ("wall_time", {}),
        ("status", None), ("status", 1), ("status", []),
        ("protocol_error_count", 1.5), ("protocol_error_count", "0"),
    ]:
        path.write_text("".join(json.dumps(r) + "\n" for r in records[:-1] + [{**records[-1], key: value}]))
        capsys.readouterr()
        assert main(["score", str(suite), str(logs)]) == 1
        assert re.search(r"^task-001 +load_error ", capsys.readouterr().out, re.M)
        assert main(["score", str(suite), str(logs), "--json"]) == 1
        rows = {r["task_id"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
        assert rows["task-001"]["status"] == "load_error"
        assert rows["task-001"]["error"].startswith(f"{path}: result {key} must be ")
        assert rows["task-000"]["status"] == rows["task-002"]["status"] == "answered"


def test_replay_from_reply_script(suite, tmp_path, capsys):
    bundle_dir = suite / "task-001"
    bundle = read_bundle(bundle_dir)
    calls = [serialize_operator_call(op) for op in bundle.gt_pipeline]
    script = tmp_path / "replies.json"
    script.write_text(json.dumps([
        "<plan>apply the whole recorded fix</plan>\n<expand>\nparent: root\n"
        + "\n".join(calls) + "\n</expand>",
        "<plan>submit the rebuilt table</plan>\n<answer>\n"
        + " -> ".join(calls)
        + f"\ntarget: {bundle.target_schema.table_name}\n</answer>",
    ]))
    assert main(["replay", str(bundle_dir), str(script)]) == 0
    out = capsys.readouterr().out
    assert "status: answered" in out
    assert "outcome: 1" in out

    # one turn is spent on the expand, so the answer never comes
    assert main(["replay", str(bundle_dir), str(script), "--max-turns", "1"]) == 1
    assert "status: turn_limit" in capsys.readouterr().out

    assert main(["replay", str(bundle_dir), str(tmp_path / "missing.json")]) == 2


def _branching_script(bundle) -> list[str]:
    """Start the fix, fail a Count, switch back to root for the whole fix, answer."""
    calls = [serialize_operator_call(op) for op in bundle.gt_pipeline]
    return [
        "<plan>start the fix, then count a ghost table</plan>\n<expand>\nparent: root\n"
        + calls[0] + '\nCount("ghost")\n</expand>',
        "<plan>no ghost table; apply the whole fix from the start</plan>\n<expand>\n"
        "parent: root\n" + "\n".join(calls) + "\n</expand>",
        "<plan>submit the rebuilt table</plan>\n<answer>\n" + " -> ".join(calls)
        + f"\ntarget: {bundle.target_schema.table_name}\n</answer>",
    ]


SCORE_LINE = re.compile(r"^outcome: (\S+)  partial: (\S+)  process: (\S+)  total: (\S+)$", re.M)


def test_run_score_and_replay_agree_on_a_branching_script(suite, tmp_path, capsys):
    scripts, logs = tmp_path / "scripts", tmp_path / "logs"
    scripts.mkdir()
    for task_dir in sorted(suite.iterdir()):
        script = _branching_script(read_bundle(task_dir))
        (scripts / f"{task_dir.name}.json").write_text(json.dumps(script))
    run_args = ["--policy", "scripted", "--scripts", str(scripts), "--log-dir", str(logs)]
    assert main(["run", str(suite), *run_args, "--json"]) == 0
    run_rows = json.loads(capsys.readouterr().out)["rows"]
    assert main(["score", str(suite), str(logs), "--json"]) == 0
    score_rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(run_rows) == 3
    for row, again in zip(run_rows, score_rows):
        assert row["status"] == again["status"] == "answered"
        # the switch is justified, but the plans skip the names the ops touch
        assert 0.0 < row["process"] < 1.0
        for key in ("outcome", "partial", "process", "total"):
            assert again[key] == row[key], (row["task_id"], key)
        task = row["task_id"]
        assert main(["replay", str(suite / task), str(scripts / f"{task}.json")]) == 0
        printed = SCORE_LINE.search(capsys.readouterr().out).groups()
        assert printed == (
            f"{row['outcome']:.0f}", f"{row['partial']:.3f}",
            f"{row['process']:.3f}", f"{row['total']:.3f}",
        )


def test_empty_result_matching_an_empty_target_scores_outcome_0(tmp_path, capsys):
    # a gt answer with 0 rows equals the 0-row target, but an empty result
    # never solves its task: solve, the log and the run row all say outcome 0
    source = make_table("t", [("a", INT)], [(1,), (2,)])
    target = make_table("t", [("a", INT)], [])
    gt = (make_operator("Filter", "t", 'col("a") > 5'),)
    bundle_dir = write_bundle(
        TaskBundle("empty", {"t": source}, target, gt), tmp_path / "suite" / "empty"
    )
    log = tmp_path / "empty.jsonl"
    assert main(["solve", str(bundle_dir), "--policy", "gt", "--log", str(log)]) == 1
    out = capsys.readouterr().out
    assert "status: empty_result" in out
    assert "outcome: 0  partial: 1.000  process: 1.000  total: 0.700" in out
    scores = json.loads(log.read_text().splitlines()[-1])["scores"]
    assert scores["outcome"] == 0.0 and scores["total"] == pytest.approx(0.7)
    assert main(["run", str(tmp_path / "suite"), "--policy", "gt", "--json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert (row["status"], row["outcome"], row["total"]) == ("empty_result", 0.0, scores["total"])


def test_solve_bad_bundle(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nothing")]) == 2
    assert capsys.readouterr().err


def test_out_of_range_file_cell_is_reported_not_raised(suite, tmp_path, capsys):
    target = suite / "task-001" / "target_table.csv"
    header, first, *rest = target.read_text().splitlines()
    cells = first.split(",")
    cells[0] = "99999999999999999999"  # the sidecar types column 0 as int
    target.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    capsys.readouterr()
    assert main(["validate", str(suite)]) == 1
    out = capsys.readouterr().out
    assert "FAIL task-001" in out and "64-bit" in out
    assert "ok   task-000" in out
    assert main(["solve", str(suite / "task-001"), "--policy", "gt"]) == 2
    assert "64-bit" in capsys.readouterr().err
    script = tmp_path / "replies.json"
    script.write_text(json.dumps(["<plan>x</plan>\n<answer>\nroot\ntarget: t\n</answer>"]))
    assert main(["replay", str(suite / "task-001"), str(script)]) == 2


@pytest.mark.parametrize("schema_file", ["target_schema.json", "sources/orders.csv.schema.json"])
@pytest.mark.parametrize("fault, detail", [
    (lambda s: s["columns"][0].update(dtype="float"), "unknown dtype 'float'"),
    (lambda s: s["columns"].append(dict(s["columns"][0])), "duplicate column names"),
    (lambda s: s.update(table_name=""), "table name must be non-empty"),
    (lambda s: s["columns"][0].update(name=""), "column name must be non-empty"),
    # a value of the wrong JSON type must stop at the schema reader: an int
    # table name breaks sorting the state's table names in solve, and a list
    # one cannot key the sources in validate
    (lambda s: s.update(table_name=1), "'table_name' must be text, got int"),
    (lambda s: s.update(table_name=["orders"]), "'table_name' must be text, got list"),
    (lambda s: s["columns"][0].update(name=5), "'name' must be text, got int"),
    (lambda s: s.update(description=["x"]), "'description' must be text or null, got list"),
])
def test_a_schema_file_with_a_bad_column_dtype_or_name_is_reported_not_raised(
    suite, tmp_path, capsys, schema_file, fault, detail
):
    path = suite / "task-001" / schema_file
    schema = json.loads(path.read_text())
    fault(schema)
    path.write_text(json.dumps(schema))
    capsys.readouterr()
    assert main(["validate", str(suite)]) == 1
    out = capsys.readouterr().out
    assert f"FAIL task-001: {path}: malformed schema json: {detail}" in out
    assert "ok   task-000" in out
    script = tmp_path / "replies.json"
    script.write_text(json.dumps(["<plan>x</plan>\n<answer>\nroot\ntarget: t\n</answer>"]))
    for argv in (["solve", str(suite / "task-001"), "--policy", "gt"],
                 ["replay", str(suite / "task-001"), str(script)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"{path}: malformed schema json: {detail}" in captured.err
        assert "Traceback" not in captured.out + captured.err


def test_a_task_id_naming_another_directory_writes_no_log_outside_the_log_dir(
    suite, tmp_path, capsys
):
    logs = tmp_path / "logs" / "inner"
    assert main(["run", str(suite), "--policy", "gt", "--log-dir", str(logs)]) == 0
    (suite / "task-001" / "provenance.json").write_text(json.dumps({"task_id": "../escaped"}))
    for argv in (["run", str(suite), "--policy", "gt", "--log-dir", str(logs), "--json"],
                 ["score", str(suite), str(logs), "--json"]):
        capsys.readouterr()
        assert main(argv) == 1
        rows = {r["task_id"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
        assert rows["task-001"]["status"] == "load_error"
        assert "provenance.json" in rows["task-001"]["error"]
        assert rows["task-000"]["status"] == "answered"
    written = sorted(p for p in tmp_path.rglob("*.jsonl"))
    assert written and all(p.parent == logs for p in written)
