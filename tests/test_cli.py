"""CLI tests drive main() in process and check output plus exit codes."""

import json

import pytest

from adprep.cli import main


@pytest.fixture
def suite(tmp_path):
    out = tmp_path / "suite"
    assert main(["synth", str(out), "--tasks", "3", "--seed", "9"]) == 0
    return out


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
    assert out.count("load_error") == 2
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


def test_replay_from_reply_script(suite, tmp_path, capsys):
    from adprep.synthesis import read_bundle
    from adprep.operators import serialize_operator_call

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

    assert main(["replay", str(bundle_dir), str(tmp_path / "missing.json")]) == 2


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
