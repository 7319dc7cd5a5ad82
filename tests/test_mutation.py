"""Damaged inputs through the scoring entry points: typed outcomes only.

Exhaustive leaf swaps over the files `adprep score` reads. Every JSON leaf of
one bundle's target_schema.json and provenance.json, and of one episode log,
is swapped in turn for each of null, 1, 1.5, true, "", [] and {}. Each swap
goes through replay_suite and through `cli.main(["score", ...])`, with and
without --json. The law: no exception leaves either one, the exit code is 0
when every row is an attempted episode and 1 otherwise, and every load_error
row names a file of the bundle or of the log directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

from adprep import cli
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
    # the swaps reach every kind of row replay gives, not only load errors
    assert {"answered", "load_error", "internal_error"} <= statuses
