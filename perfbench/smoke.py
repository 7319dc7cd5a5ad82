"""Smoke test of the benchmark itself, at tiny size; exits non-zero on failure.

    python3 perfbench/smoke.py

Checks that every workload emits exactly the metrics BENCHMARK.json names,
each with its unit, in both the untraced and the traced run, and that each
per-layer metric moves on some workload (a misspelt name would read 0
everywhere); that the gate trips, with a non-zero error rate, when a
bundle's target_table.csv is altered after synthesis; and that the command
fails without printing a result where the adprep sources are missing. Takes
about ten seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def _invoke(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def check_metrics() -> None:
    wanted = {"0": run.metric_units(0), "1": run.metric_units(1)}
    idle = set(wanted["1"])
    for workload in (w["name"] for w in run.read_spec()["workloads"]):
        for trace, names in wanted.items():
            proc = _invoke(run.ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.3",
                           "--trace", trace, "--size", "tiny")
            assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == names, f"{workload} trace {trace}: metrics differ: {set(got) ^ set(names)}"
            for name in names:
                assert f"  {name}: " in proc.stdout, f"{workload}: {name} not printed"
            assert "error_rate: 0 " in proc.stdout, proc.stdout
            if trace == "1":
                idle -= {name for name, m in result["metrics"].items() if m["value"] != 0}
            print(f"ok   {workload} trace {trace}: {len(got)} metrics")
    assert not idle, f"per-layer metrics that read 0 on every workload: {sorted(idle)}"
    print("ok   every per-layer metric moves on some workload")


def _drop_last_target_row(suite: Path) -> None:
    target = sorted(suite.iterdir())[0] / "target_table.csv"
    lines = target.read_text().splitlines(keepends=True)
    target.write_text("".join(lines[:-1]))


def check_gate_trips() -> None:
    for workload in ("demo-suite", "explore"):
        metrics, info, attempted, failed, problems = run.measure(
            workload, 3, 0.2, "tiny", after_setup=_drop_last_target_row
        )
        assert failed > 0 and attempted > failed, (failed, attempted)
        assert all(p.startswith("task-000:") for p in problems), problems[:3]
        args = type("Args", (), {"workload": workload, "seed": 3, "seconds": 0.2, "trace": 0})
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = run.report(args, metrics, info, attempted, failed, problems)
        last = json.loads(out.getvalue().strip().splitlines()[-1])
        assert code != 0 and last["correct"] is False and last["failed"] == failed
        print(f"ok   {workload}: altered target fails {failed}/{attempted} tasks, exit {code}")


def check_fails_without_sources() -> None:
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.ROOT / ".perfbench_work"))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _invoke(bare, "--workload", "demo-suite", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
        print(f"ok   without src/ the command exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    run._import_adprep()
    (run.ROOT / ".perfbench_work").mkdir(exist_ok=True)
    check_gate_trips()
    check_fails_without_sources()
    check_metrics()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
