"""The benchmark's explore workload (perfbench/workloads.py) through the
harness. Its scripted replies branch, fail an op and switch branches, which
the gt policy never does, so it is where live and replayed process scores
could part. Importing the module here also turns a renamed adprep name it
uses into a test failure."""

from __future__ import annotations

import importlib
import sys
from operator import attrgetter
from pathlib import Path

import adprep
from adprep.harness import load_trajectory_log, score_case

import reference_judge

SCORES = attrgetter("task_id", "status", "outcome", "partial", "process", "total")


def _explore(suite: Path, size: str):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.pop(0)
    workload = workloads.Workload("explore", 7, size)
    workload.setup(suite)
    workload.prepare_policies()
    return workloads, workload


def test_explore_replay_scores_every_row_as_the_live_run(tmp_path):
    suite, logs = tmp_path / "suite", tmp_path / "logs"
    workloads, workload = _explore(suite, "tiny")
    live = adprep.run_benchmark(suite, workload.policy_factory(workloads.StepClock()), log_dir=logs)
    replayed = adprep.replay_suite(suite, logs)
    assert workload.check(live, replayed, logs) == {}
    assert len(live.rows) == 4
    assert [SCORES(r) for r in replayed.rows] == [SCORES(r) for r in live.rows]


def test_backtracking_matches_the_tree_oracle_on_explore(tmp_path):
    suite, logs = tmp_path / "suite", tmp_path / "logs"
    _, workload = _explore(suite, "full")
    for bundle in workload.bundles:
        log = logs / f"{bundle.task_id}.jsonl"
        policy = adprep.ScriptedPolicy(workload.scripts[bundle.task_id])
        traj, breakdown = score_case(bundle, policy, log_path=log)
        want = reference_judge.backtracking(traj)
        assert breakdown.judge.backtracking == want, bundle.task_id
        reloaded = adprep.RuleJudge().score(load_trajectory_log(log))
        assert reloaded.backtracking == want, bundle.task_id
