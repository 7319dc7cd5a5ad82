"""Damaged inputs through the CLI entry points: typed outcomes only.

Exhaustive leaf swaps over the JSON files a bundle and a run hold. Every
JSON leaf of one bundle's target_schema.json and provenance.json, and of one
episode log, is swapped in turn for each of null, 1, 1.5, true, "", [] and
{}. Each swap goes through replay_suite and through
`cli.main(["score", ...])`, with and without --json. The law: no exception
leaves either one, the exit code is 0 when every row is an attempted
episode and 1 otherwise, and every load_error row names a file of the
bundle or of the log directory. The sources' sidecars, which score does not
read, get the same swaps through `validate` and `run --policy gt`.

Byte-level mutants of every file a suite and its logs hold (flipped bytes,
cut files, deleted files, files replaced by directories, inserted NUL, CR,
BOM and quote bytes, doubled lines, extra columns) go through all five
commands that read them, under the law the CLI documents.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil

import pytest

from adprep import cli
from adprep.agent import EPISODE_STATUSES
from adprep.harness import gt_replay_policy, replay_suite, run_benchmark
from adprep.synthesis import synthesize_demo_task, write_bundle

SEED = 10  # a two-column target of three rows keeps the log small
SWAPS = (None, 1, 1.5, True, "", [], {})


def leaf_paths(doc, path=()):
    """The key path of every leaf: a scalar, or an empty list or object."""
    if isinstance(doc, dict) and doc:
        for key, value in doc.items():
            yield from leaf_paths(value, path + (key,))
    elif isinstance(doc, list) and doc:
        for i, value in enumerate(doc):
            yield from leaf_paths(value, path + (i,))
    else:
        yield path


def swapped(doc, path, value):
    """A copy of `doc` with the leaf at `path` replaced by `value`."""
    if not path:
        return value
    copy = list(doc) if isinstance(doc, list) else dict(doc)
    copy[path[0]] = swapped(doc[path[0]], path[1:], value)
    return copy


def _score(suite, logs, *flags):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["score", str(suite), str(logs), *flags])
    return code, out.getvalue()


def test_every_leaf_swap_in_what_score_reads_is_a_typed_row(tmp_path, monkeypatch):
    parser = cli.build_parser()  # built once: it is most of what a main() call costs
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    suite, logs = tmp_path / "suite", tmp_path / "logs"
    bundle = synthesize_demo_task(random.Random(SEED), "task-010")
    task = write_bundle(bundle, suite / bundle.task_id)
    run_benchmark(suite, gt_replay_policy, log_dir=logs)
    log = logs / "task-010.jsonl"
    read = [task / "target_schema.json", task / "target_table.csv", task / "provenance.json", log]
    names = tuple(map(str, read))

    def json_file(doc):
        return json.dumps(doc, indent=2) + "\n"

    def jsonl_file(records):
        return "".join(json.dumps(r) + "\n" for r in records)

    files = [
        (read[0], json.loads(read[0].read_text()), json_file),
        (read[2], json.loads(read[2].read_text()), json_file),
        (log, [json.loads(line) for line in log.read_text().splitlines()], jsonl_file),
    ]
    statuses = set()
    swaps = 0
    for path, doc, dump in files:
        original = path.read_bytes()
        for leaf in leaf_paths(doc):
            for value in SWAPS:
                path.unlink()  # a fresh file: rewriting in place ran this test 1.7x slower on ext4
                path.write_text(dump(swapped(doc, leaf, value)))
                where = f"{path.name} {leaf} -> {value!r}"
                report = replay_suite(suite, logs)
                (row,) = report.rows
                statuses.add(row.status)
                if row.status == "load_error":
                    assert any(name in row.error for name in names), (where, row.error)
                want = 0 if report.all_attempted else 1
                assert _score(suite, logs) == (want, report.to_text() + "\n"), where
                code, text = _score(suite, logs, "--json")
                assert (code, json.loads(text)) == (want, report.to_json()), where
                swaps += 1
        path.write_bytes(original)
    assert swaps == len(SWAPS) * (8 + 5 + 68)
    # the swaps reach answered rows, not only load errors; none reaches the
    # judge with a call it cannot parse, since the log load parses each one,
    # and none gives a row a status no episode ends with
    assert {"answered", "load_error"} <= statuses
    assert statuses <= {*EPISODE_STATUSES, "load_error"}


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def test_every_leaf_swap_in_a_source_sidecar_is_a_typed_outcome(tmp_path, monkeypatch):
    """The sources' sidecars, which validate and run read and score does
    not, through `cli.main(["validate", ...])` and `run --policy gt`: no
    exception leaves either, no row is internal_error, and every load_error
    names a file of the bundle."""
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    suite = tmp_path / "suite"
    bundle = synthesize_demo_task(random.Random(SEED), "task-010")
    task = write_bundle(bundle, suite / bundle.task_id)
    names = [str(p) for p in sorted(task.rglob("*")) if p.is_file()]
    sidecars = sorted((task / "sources").glob("*.schema.json"))
    statuses = set()
    swaps = 0
    for path in sidecars:
        original = path.read_bytes()
        doc = json.loads(original)
        for leaf in leaf_paths(doc):
            for value in SWAPS:
                path.write_text(json.dumps(swapped(doc, leaf, value), indent=2) + "\n")
                where = f"{path.name} {leaf} -> {value!r}"
                code, out = _cli("validate", str(suite))
                assert code in (0, 1) and out.endswith(f"{1 - code}/1 bundles verify\n"), where
                code, out = _cli("run", str(suite), "--policy", "gt", "--json")
                (row,) = json.loads(out)["rows"]
                statuses.add(row["status"])
                assert code == (0 if row["status"] == "answered" else 1), where
                assert row["status"] != "internal_error", (where, row["error"])
                if row["status"] == "load_error":
                    assert any(name in row["error"] for name in names), (where, row["error"])
                swaps += 1
        path.write_bytes(original)
    assert swaps == len(SWAPS) * sum(len(list(leaf_paths(json.loads(p.read_text())))) for p in sidecars)
    assert swaps == len(SWAPS) * 17  # one source of five columns
    # the swaps reach a failed read and a finished episode alike
    assert {"answered", "load_error"} <= statuses


MUTANT_SEED = 27
MUTANT_KINDS = (
    "flip", "truncate", "delete", "directory", "nul", "cr", "bom", "quote", "dup-line", "extra-column",
)


def mutate(path, kind, rng):
    """Damage one file in place: `kind` is one of MUTANT_KINDS."""
    data = path.read_bytes()
    if kind in ("delete", "directory"):
        path.unlink()
        if kind == "directory":
            path.mkdir()
        return
    at = rng.randrange(len(data) + 1)
    if kind == "flip":
        at = min(at, len(data) - 1)
        data = data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1:]
    elif kind == "truncate":
        data = data[:at // 2]
    elif kind in ("nul", "cr", "bom", "quote"):
        byte = {"nul": b"\0", "cr": b"\r", "bom": b"\xef\xbb\xbf", "quote": b'"'}[kind]
        data = data[:at] + byte + data[at:]
    else:
        lines = data.split(b"\n")
        i = rng.randrange(len(lines))
        if kind == "dup-line":
            lines.insert(i, lines[i])
        else:
            lines[i] += b",x"
        data = b"\n".join(lines)
    path.write_bytes(data)


def _tree(top, skip):
    """Every path under `top` but `skip` and what it holds (None for a directory)."""
    return {
        p: p.read_bytes() if p.is_file() else None
        for p in sorted(top.rglob("*")) if p != skip and skip not in p.parents
    }


def _cli_all(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def test_seeded_file_mutants_through_every_command_keep_the_law(tmp_path, monkeypatch):
    """60 mutants of a 3-task suite, its gt logs and a reply script, each
    through validate, run, score, solve and replay. No exception leaves
    cli.main; each exit code is the documented one for what the command
    printed; every error line (stderr, a load_error row) names a path in the
    suite or the log directory, and a validate FAIL line names the damaged
    bundle; nothing is written outside the command's own log paths."""
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    suite, logs, out_dir = tmp_path / "suite", tmp_path / "logs", tmp_path / "out"
    assert _cli_all("synth", suite, "--tasks", "3", "--seed", "5")[0] == 0
    assert _cli_all("run", suite, "--policy", "gt", "--log-dir", logs)[0] == 0
    turns = [json.loads(line) for line in (logs / "task-000.jsonl").read_text().splitlines()]
    script = logs / "replies.json"
    script.write_text(json.dumps([r["reply"] for r in turns if r["record"] == "turn"]))
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    assert len(files) == 25
    rng = random.Random(MUTANT_SEED)
    codes = set()
    for m in range(60):
        path, kind = rng.choice(files), MUTANT_KINDS[m % len(MUTANT_KINDS)]
        original = path.read_bytes()
        mutate(path, kind, rng)
        bundle = next((p for p in path.parts if p.startswith("task-")), "task-000")
        task = bundle.removesuffix(".jsonl") if logs in path.parents else bundle
        before = _tree(tmp_path, out_dir)
        for argv in (
            ("validate", suite),
            ("run", suite, "--policy", "gt", "--json", "--log-dir", out_dir / "logs"),
            ("score", suite, logs, "--json"),
            ("solve", suite / task, "--policy", "gt", "--log", out_dir / "solve.jsonl"),
            ("replay", suite / task, script, "--log", out_dir / "replay.jsonl"),
        ):
            where = f"{kind} {path.relative_to(tmp_path)}: {argv[0]}"
            code, out, err = _cli_all(*argv)
            codes.add((argv[0], code))
            errors = err.splitlines()
            if argv[0] == "validate":
                fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
                assert all(line.startswith(f"FAIL {task}: ") for line in fails), (where, fails)
                assert out.endswith(f"{3 - len(fails)}/3 bundles verify\n"), (where, out)
                assert code == (1 if fails else 0), where
            elif argv[0] in ("run", "score"):
                rows = json.loads(out)["rows"]
                assert len(rows) == 3, (where, rows)
                errors += [r["error"] for r in rows if r["status"] == "load_error"]
                attempted = all(r["status"] not in ("load_error", "missing_log", "internal_error")
                                and not r["error"] for r in rows)
                assert code == (0 if attempted else 1), where
            elif code == 2:  # solve, replay: one error line, or an episode's status
                assert out == "" and len(errors) == 1, (where, out, err)
            else:
                assert code == (0 if "status: answered\n" in out else 1) and not err, (where, out)
            for line in errors:
                assert str(suite) in line or str(logs) in line, (where, line)
            assert _tree(tmp_path, out_dir) == before, where
            shutil.rmtree(out_dir, ignore_errors=True)
        if path.is_dir():
            path.rmdir()
        path.write_bytes(original)
    # the mutants reach every exit code each command has
    assert codes == {(c, k) for c in ("validate", "run", "score") for k in (0, 1)} | {
        (c, k) for c in ("solve", "replay") for k in (0, 1, 2)
    }, codes


def test_a_task_without_its_target_schema_is_still_counted(tmp_path):
    """A suite of three tasks, one of which lost its target schema, is
    still a suite of three: validate fails that task and run and score
    report a row for it."""
    suite, logs = tmp_path / "suite", tmp_path / "logs"
    assert _cli_all("synth", suite, "--tasks", "3", "--seed", "5")[0] == 0
    assert _cli_all("run", suite, "--policy", "gt", "--log-dir", logs)[0] == 0
    (suite / "task-001" / "target_schema.json").unlink()
    code, out, _ = _cli_all("validate", suite)
    assert code == 1 and out.endswith("2/3 bundles verify\n"), out
    for argv in (("run", suite, "--policy", "gt", "--json"), ("score", suite, logs, "--json")):
        code, out, _ = _cli_all(*argv)
        rows = json.loads(out)["rows"]
        assert code == 1 and len(rows) == 3, (argv[0], rows)
