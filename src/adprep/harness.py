"""Benchmark harness: run a policy over a task suite and score the results.

A suite is a directory of task bundle directories. Each episode writes an
optional JSONL log, one JSON object per line, whose "record" key names its
kind:

    task    first line: {"record": "task", "task_id": ...}
    turn    one per turn, in order: the fields of TurnRecord
    result  last line: every other Trajectory field but the search tree
            (status, answer, the produced table, ...) plus the episode's
            "scores"

The log is the one serialized form of an episode, and every score is taken
from what it holds: the result embeds the produced table and the process
judge reads only the turns, so `adprep score` re-scores a log without a
model and gives the scores the live run gave. Reports aggregate accuracy
(exact-match rate), completion (answered rate), and a wall-clock cost
estimate.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .agent import Task, Trajectory, TurnRecord, run_episode
from .reward import DEFAULT_WEIGHTS, RewardBreakdown, RewardWeights, score_trajectory
from .synthesis import SynthesisError, TaskBundle, is_bundle, read_bundle, read_target
from .tables import TableError, _write_text, table_from_json, table_to_json

GPU_DOLLARS_PER_HOUR = 0.91


class HarnessError(Exception):
    pass


def compute_cost(wall_seconds: float, dollars_per_hour: float = GPU_DOLLARS_PER_HOUR) -> float:
    """Serving cost of holding the hardware for the given wall time."""
    return dollars_per_hour * wall_seconds / 3600.0


@dataclass
class CaseResult:
    task_id: str
    status: str
    outcome: float = 0.0
    partial: float = 0.0
    process: float = 0.0
    total: float = 0.0
    turns: int = 0
    protocol_errors: int = 0
    wall_time: float = 0.0
    usage: dict | None = None
    error: str | None = None

    def to_row(self) -> dict:
        return dict(vars(self))


@dataclass
class Report:
    rows: list[CaseResult] = field(default_factory=list)
    note: str = ""
    dollars_per_hour: float = GPU_DOLLARS_PER_HOUR

    @property
    def n_tasks(self) -> int:
        return len(self.rows)

    @property
    def accuracy(self) -> float:
        """Percent of tasks whose answer matched the target exactly."""
        if not self.rows:
            return 0.0
        return 100.0 * sum(1 for r in self.rows if r.outcome == 1.0) / len(self.rows)

    @property
    def completion(self) -> float:
        """Percent of tasks that ended with an answer at all."""
        if not self.rows:
            return 0.0
        return 100.0 * sum(1 for r in self.rows if r.status == "answered") / len(self.rows)

    @property
    def wall_time_total(self) -> float:
        return sum(r.wall_time for r in self.rows)

    @property
    def cost(self) -> float:
        return compute_cost(self.wall_time_total, self.dollars_per_hour)

    @property
    def mean_cost(self) -> float:
        return self.cost / len(self.rows) if self.rows else 0.0

    @property
    def all_attempted(self) -> bool:
        """True when every row came from a real episode that ran to completion.

        Rows with a synthetic status (the bundle or log never loaded, or the
        harness itself raised) or a recorded transport failure do not count
        as attempts.
        """
        skipped = ("load_error", "missing_log", "internal_error")
        return all(r.status not in skipped and not r.error for r in self.rows)

    def to_json(self) -> dict:
        rows = []
        for r in self.rows:
            row = r.to_row()
            row["cost"] = compute_cost(r.wall_time, self.dollars_per_hour)
            rows.append(row)
        return {
            "note": self.note,
            "n_tasks": self.n_tasks,
            "accuracy": self.accuracy,
            "completion": self.completion,
            "wall_time_total": self.wall_time_total,
            "cost": self.cost,
            "mean_cost": self.mean_cost,
            "dollars_per_hour": self.dollars_per_hour,
            "rows": rows,
        }

    def to_text(self) -> str:
        if not self.rows:
            return self.note or "no tasks"
        headers = ("task", "status", "out", "part", "proc", "total", "turns")
        lines = []
        for r in self.rows:
            lines.append((
                r.task_id,
                r.status,
                f"{r.outcome:.0f}",
                f"{r.partial:.2f}",
                f"{r.process:.2f}",
                f"{r.total:.2f}",
                str(r.turns),
            ))
        widths = [max(len(h), *(len(row[i]) for row in lines)) for i, h in enumerate(headers)]
        out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
        for row in lines:
            out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        out.append(
            f"tasks: {self.n_tasks}  accuracy: {self.accuracy:.1f}%  "
            f"completion: {self.completion:.1f}%  wall: {self.wall_time_total:.2f}s  "
            f"cost: ${self.cost:.4f}  mean cost: ${self.mean_cost:.4f}"
        )
        if self.note:
            out.append(self.note)
        return "\n".join(out)


# ---------------------------------------------------------------------------
# episode logs
# ---------------------------------------------------------------------------

# The Trajectory fields a result record holds beside "status". The task id
# heads the log, each turn has its own record, and the search tree is not
# logged. The final table is stored as table_to_json.
_RESULT_FIELDS = (
    "answer_path", "answer_plan", "final_table", "wall_time", "protocol_error_count",
    "usage", "error",
)


def write_trajectory_log(path: str | Path, traj: Trajectory, scores: dict | None = None) -> None:
    """One JSONL file per episode: header, turns, then the terminal record."""
    result = {"record": "result", "status": traj.status}
    result.update((k, getattr(traj, k)) for k in _RESULT_FIELDS)
    if traj.final_table is not None:
        result["final_table"] = table_to_json(traj.final_table)
    if scores is not None:
        result["scores"] = scores
    records = [
        {"record": "task", "task_id": traj.task_id},
        *({"record": "turn", **vars(turn)} for turn in traj.turns),
        result,
    ]
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    try:
        _write_text(path, text)
    except FileNotFoundError:  # the first log of a new directory
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        _write_text(path, text)


def load_trajectory_log(path: str | Path) -> Trajectory:
    """Rebuild the trajectory (minus the search tree) from a JSONL log."""
    try:
        # a missing log is an error, not an absent file as _read_text takes it
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise HarnessError(f"cannot read log {path}: {exc}") from None
    try:
        lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    except (json.JSONDecodeError, RecursionError) as exc:
        raise HarnessError(f"{path}: malformed log line: {exc}") from None
    if not all(isinstance(line, dict) for line in lines):
        raise HarnessError(f"{path}: every log line must be a JSON object")
    if not lines or lines[0].get("record") != "task":
        raise HarnessError(f"{path}: not a trajectory log (no task header)")
    result = lines[-1]
    if result.get("record") != "result":
        raise HarnessError(f"{path}: log is truncated (no result record)")
    try:
        task_id = lines[0]["task_id"]
        turns = [
            TurnRecord(**{k: v for k, v in line.items() if k != "record"})
            for line in lines[1:-1]
            if line.get("record") == "turn"
        ]
        status = result["status"]
        fields = {k: result[k] for k in _RESULT_FIELDS if k in result}
        if fields.get("final_table") is not None:
            fields["final_table"] = table_from_json(fields["final_table"])
    except KeyError as exc:
        raise HarnessError(f"{path}: log record lacks {exc}") from None
    except (TypeError, TableError) as exc:
        raise HarnessError(f"{path}: malformed log record: {exc}") from None
    # the report sums and prints these, so a mistyped one must stop here
    if not isinstance(status, str):
        raise HarnessError(f"{path}: result status must be text")
    for key, kinds, what in (("wall_time", (int, float), "a number"),
                             ("protocol_error_count", int, "an integer")):
        if key in fields and (not isinstance(fields[key], kinds) or isinstance(fields[key], bool)):
            raise HarnessError(f"{path}: result {key} must be {what}")
    return Trajectory(task_id, status, turns, **fields)


# ---------------------------------------------------------------------------
# running and scoring
# ---------------------------------------------------------------------------

def _case_from_scores(bundle_id: str, traj: Trajectory, breakdown: RewardBreakdown) -> CaseResult:
    return CaseResult(
        task_id=bundle_id,
        status=traj.status,
        outcome=breakdown.outcome,
        partial=breakdown.partial,
        process=breakdown.process,
        total=breakdown.total,
        turns=len([t for t in traj.turns if t.action in ("expand", "answer")]),
        protocol_errors=traj.protocol_error_count,
        wall_time=traj.wall_time,
        usage=traj.usage,
        error=traj.error,
    )


def _internal_error(task_id: str, exc: Exception) -> CaseResult:
    """The row of a task whose judge, scoring or log handling raised."""
    return CaseResult(task_id=task_id, status="internal_error", error=f"{type(exc).__name__}: {exc}")


def score_case(
    bundle: TaskBundle,
    policy,
    *,
    weights: RewardWeights = DEFAULT_WEIGHTS,
    judge=None,
    max_turns: int = 5,
    script_backend=None,
    log_path: str | Path | None = None,
) -> tuple[Trajectory, RewardBreakdown]:
    """Run one episode on a bundle, score it, and write its log if asked."""
    task = Task(bundle.task_id, bundle.sources, bundle.target_schema)
    traj = run_episode(
        task,
        policy,
        max_turns=max_turns,
        script_backend=script_backend,
    )
    breakdown = score_trajectory(traj, bundle.target_table, weights=weights, judge=judge)
    if log_path is not None:
        write_trajectory_log(log_path, traj, breakdown.to_json())
    return traj, breakdown


def gt_replay_policy(bundle: TaskBundle):
    """Scripted policy that replays the bundle's own ground-truth pipeline.

    Handy as a harness smoke test: accuracy should be 100% on any suite
    whose bundles verify.
    """
    from .agent import ScriptedPolicy
    from .operators import name_bearing_values, serialize_operator_call

    calls = [serialize_operator_call(op) for op in bundle.gt_pipeline]
    names = sorted({n for op in bundle.gt_pipeline for n in name_bearing_values(op)})
    plan_hint = ", ".join(names)
    expand = (
        f"<plan>replay the known fix touching {plan_hint}</plan>\n<expand>\nparent: root\n"
        + "\n".join(calls)
        + "\n</expand>"
    )
    answer = (
        "<plan>the rebuilt table matches the target schema</plan>\n<answer>\n"
        + " -> ".join(calls)
        + f"\ntarget: {bundle.target_schema.table_name}\n</answer>"
    )
    return ScriptedPolicy([expand, answer])


def discover_tasks(suite_dir: str | Path) -> list[Path]:
    """Task bundle directories under the suite, in name order."""
    root = Path(suite_dir)
    try:
        with os.scandir(root) as entries:
            dirs = sorted(e.path for e in entries if e.is_dir())
    except (FileNotFoundError, NotADirectoryError):
        raise HarnessError(f"{root}: suite directory does not exist") from None
    return [p for p in map(Path, dirs) if is_bundle(p)]


def run_benchmark(
    suite_dir: str | Path,
    policy_factory,
    *,
    weights: RewardWeights = DEFAULT_WEIGHTS,
    judge_factory=None,
    threads: int = 1,
    max_turns: int = 5,
    script_backend=None,
    log_dir: str | Path | None = None,
) -> Report:
    """Score every task in the suite; thread count never changes the report.

    policy_factory is called once per task, with the loaded bundle, so each
    episode starts fresh. Bundles that fail to load still produce a row
    (status "load_error"), and so does a task whose judge, scoring or log
    write raises (status "internal_error", keeping the exception text), so
    one task cannot stop the others. With log_dir set, each episode writes a
    JSONL trajectory log and the finished report lands there as report.json.
    """
    dirs = discover_tasks(suite_dir)
    if not dirs:
        return Report(note="no tasks")

    def run_one(task_dir: Path) -> CaseResult:
        try:
            bundle = read_bundle(task_dir)
        except Exception as exc:
            return CaseResult(
                task_id=task_dir.name,
                status="load_error",
                error=f"{type(exc).__name__}: {exc}",
            )
        try:
            policy = policy_factory(bundle)
        except Exception as exc:
            return CaseResult(
                task_id=bundle.task_id,
                status="load_error",
                error=f"policy: {exc}",
            )
        log_path = None if log_dir is None else Path(log_dir) / f"{bundle.task_id}.jsonl"
        try:
            traj, breakdown = score_case(
                bundle,
                policy,
                weights=weights,
                judge=judge_factory() if judge_factory else None,
                max_turns=max_turns,
                script_backend=script_backend,
                log_path=log_path,
            )
        except Exception as exc:
            return _internal_error(bundle.task_id, exc)
        return _case_from_scores(bundle.task_id, traj, breakdown)

    if threads <= 1:
        rows = [run_one(d) for d in dirs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(run_one, dirs))
    rows.sort(key=lambda r: r.task_id)
    report = Report(rows=rows)
    if log_dir is not None:
        Path(log_dir).mkdir(parents=True, exist_ok=True)
        report_text = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
        _write_text(Path(log_dir) / "report.json", report_text)
    return report


def replay_suite(
    suite_dir: str | Path,
    log_dir: str | Path,
    *,
    weights: RewardWeights = DEFAULT_WEIGHTS,
    judge=None,
) -> Report:
    """Re-score logged episodes against the suite's targets, no model needed.

    Each row is scored as run_benchmark scored it live: the outcome and
    partial credit from the logged final table, the process from the logged
    turns. Of each bundle only target_schema.json, target_table.csv and
    provenance.json are read (read_target), so damage to a source table or
    to gt_pipeline.txt shows in run_benchmark and read_bundle, not here;
    damage to those three files or to the log is a "load_error" row. A
    task whose scoring raises (a logged call that no longer parses, a
    failing judge) becomes an "internal_error" row, as in run_benchmark.
    """
    rows = []
    for task_dir in discover_tasks(suite_dir):
        try:
            task_id, target, _ = read_target(task_dir)
        except (SynthesisError, TableError) as exc:
            rows.append(CaseResult(task_id=task_dir.name, status="load_error", error=str(exc)))
            continue
        log_path = Path(log_dir) / f"{task_id}.jsonl"
        try:
            traj = load_trajectory_log(log_path)
        except HarnessError as exc:
            if log_path.exists():
                rows.append(CaseResult(task_id=task_id, status="load_error", error=str(exc)))
            else:
                rows.append(CaseResult(task_id=task_id, status="missing_log"))
            continue
        try:
            breakdown = score_trajectory(traj, target, weights=weights, judge=judge)
            rows.append(_case_from_scores(task_id, traj, breakdown))
        except Exception as exc:
            rows.append(_internal_error(task_id, exc))
    rows.sort(key=lambda r: r.task_id)
    if not rows:
        return Report(note="no tasks")
    return Report(rows=rows)
