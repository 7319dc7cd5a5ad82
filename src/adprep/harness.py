"""Benchmark harness: run a policy over a task suite and score the results.

A suite is a directory of task bundle directories. Each episode writes an
optional JSONL log, one JSON object per line, whose "record" key names its
kind:

    task    first line: {"record": "task", "task_id": ...}
    turn    every line between the first and the last, one per turn, in
            order: the fields of TurnRecord
    result  last line: every other Trajectory field but the search tree
            (status, answer_path, answer_plan, final_table, wall_time,
            protocol_error_count, usage, error) plus the episode's "scores"

TurnRecord and Trajectory declare these records: the writer takes its
fields from them, and the loader checks each field's JSON value against its
annotation (`str | None` is text or null, `dict[str, int] | None` an object
of integers or null, ...), takes a status only from agent.EPISODE_STATUSES,
and names the log and the field that fails.

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
from dataclasses import dataclass, field, fields
from pathlib import Path

from .agent import (
    EPISODE_STATUSES, MAX_TURNS, STATUS_ANSWERED, ScriptedPolicy, Task, Trajectory, TurnRecord,
    run_episode,
)
from .operators import (
    OpParseError, name_bearing_values, parse_operator_call, serialize_operator_call,
)
from .reward import RewardBreakdown, score_trajectory
from .synthesis import SynthesisError, TaskBundle, is_bundle, read_bundle, read_target
from .tables import TableError, _write_text, table_from_json, table_to_json

GPU_DOLLARS_PER_HOUR = 0.91


class HarnessError(Exception):
    pass


def compute_cost(wall_seconds: float) -> float:
    """Serving cost of holding the hardware for the given wall time."""
    return GPU_DOLLARS_PER_HOUR * wall_seconds / 3600.0


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
        return 100.0 * sum(1 for r in self.rows if r.status == STATUS_ANSWERED) / len(self.rows)

    @property
    def wall_time_total(self) -> float:
        return sum(r.wall_time for r in self.rows)

    @property
    def cost(self) -> float:
        return compute_cost(self.wall_time_total)

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
            row["cost"] = compute_cost(r.wall_time)
            rows.append(row)
        return {
            "note": self.note,
            "n_tasks": self.n_tasks,
            "accuracy": self.accuracy,
            "completion": self.completion,
            "wall_time_total": self.wall_time_total,
            "cost": self.cost,
            "mean_cost": self.mean_cost,
            "dollars_per_hour": GPU_DOLLARS_PER_HOUR,
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

# The JSON values a log record may hold under each field annotation of
# TurnRecord and Trajectory, and the words an error names them by. Plain
# type tests, as JSON has no subclasses and type(True) is bool, not int.
_JSON_TYPES = {
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (lambda v: type(v) is float or type(v) is int, "a number"),
    "str": (lambda v: type(v) is str, "text"),
    "str | None": (lambda v: v is None or type(v) is str, "text or null"),
    "list[str]": (lambda v: type(v) is list and all(type(x) is str for x in v), "a list of text"),
    "dict[str, int] | None": (
        lambda v: v is None or type(v) is dict and all(type(x) is int for x in v.values()),
        "an object of integers or null"),
    "Table | None": (  # as table_to_json writes it
        lambda v: v is None or type(v) is dict and v.keys() == {"schema", "rows"},
        "a table or null"),
}


def _record_types(cls, unlogged=()) -> tuple:
    """(name, accepts, what) for each field of cls that a log record holds."""
    return tuple((f.name, *_JSON_TYPES[f.type]) for f in fields(cls) if f.name not in unlogged)


_TURN_TYPES = _record_types(TurnRecord)
# the task id heads the log, each turn has its own record, the result record
# holds the rest and the search tree is not logged
_TRAJECTORY_TYPES = _record_types(Trajectory, ("turns", "tree"))
_TASK_TYPES = tuple(t for t in _TRAJECTORY_TYPES if t[0] == "task_id")
_RESULT_TYPES = tuple(t for t in _TRAJECTORY_TYPES if t[0] != "task_id")


def write_trajectory_log(path: str | Path, traj: Trajectory, scores: dict | None = None) -> None:
    """One JSONL file per episode: header, turns, then the terminal record."""
    result = {"record": "result"}
    result.update((name, getattr(traj, name)) for name, _, _ in _RESULT_TYPES)
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


def _check_types(path: str | Path, kind: str, record: dict, types: tuple) -> None:
    """Stop at the first field of a log record whose JSON type is wrong: the
    report sums and prints the result's fields and the judge reads the turns."""
    for name, accepts, what in types:
        if name in record and not accepts(record[name]):
            raise HarnessError(f"{path}: {kind} {name} must be {what}")


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
        _check_types(path, "task", lines[0], _TASK_TYPES)
        task_id = lines[0]["task_id"]
        turns = []
        for n, line in enumerate(lines[1:-1], 2):
            if line.get("record") != "turn":
                raise HarnessError(f"{path}: record {n} is not a turn")
            _check_types(path, "turn", line, _TURN_TYPES)
            turns.append(TurnRecord(**{k: v for k, v in line.items() if k != "record"}))
            for text in turns[-1].op_texts:
                parse_operator_call(text)  # the judge reads each call
        _check_types(path, "result", result, _RESULT_TYPES)
        values = {name: result[name] for name, _, _ in _RESULT_TYPES if name in result}
        status = values.pop("status")
        if status not in EPISODE_STATUSES:
            raise HarnessError(
                f"{path}: result status must be one of {', '.join(EPISODE_STATUSES)}, "
                f"not {status!r}"
            )
        if values.get("final_table") is not None:
            values["final_table"] = table_from_json(values["final_table"])
    except KeyError as exc:
        raise HarnessError(f"{path}: log record lacks {exc}") from None
    except (TypeError, TableError, OpParseError) as exc:
        raise HarnessError(f"{path}: malformed log record: {exc}") from None
    return Trajectory(task_id, status, turns, **values)


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
    max_turns: int = MAX_TURNS,
    script_backend=None,
    log_path: str | Path | None = None,
) -> tuple[Trajectory, RewardBreakdown]:
    """Run one episode on a bundle, score it, and write its log if asked; a
    log that cannot be written raises HarnessError."""
    task = Task(bundle.task_id, bundle.sources, bundle.target_schema)
    traj = run_episode(
        task,
        policy,
        max_turns=max_turns,
        script_backend=script_backend,
    )
    breakdown = score_trajectory(traj, bundle.target_table)
    if log_path is not None:
        try:
            write_trajectory_log(log_path, traj, breakdown.to_json())
        except OSError as exc:
            raise HarnessError(f"{log_path}: cannot write the log: {exc.strerror}") from None
    return traj, breakdown


def gt_replay_policy(bundle: TaskBundle):
    """Scripted policy that replays the bundle's own ground-truth pipeline.

    Handy as a harness smoke test: every verifying bundle whose target has
    rows is answered with outcome 1. A bundle whose target has 0 rows, which
    synthesize_task accepts, ends `empty_result` with outcome 0, so accuracy
    is 100% only on a verifying suite without such tasks.
    """
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
    threads: int = 1,
    max_turns: int = MAX_TURNS,
    script_backend=None,
    log_dir: str | Path | None = None,
) -> Report:
    """Score every task in the suite; thread count never changes the report.

    policy_factory is called once per task, with the loaded bundle, so each
    episode starts fresh. Bundles that fail to load still produce a row
    (status "load_error"), and so does a task whose judge, scoring or log
    write raises (status "internal_error", keeping the exception text), so
    one task cannot stop the others. With log_dir set, it is made first (a
    HarnessError if it cannot be), each episode writes a JSONL trajectory
    log there and the finished report lands there as report.json.
    """
    dirs = discover_tasks(suite_dir)
    if not dirs:
        return Report(note="no tasks")
    if log_dir is not None:
        try:
            Path(log_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise HarnessError(f"{log_dir}: cannot make the log dir: {exc.strerror}") from None

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
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(run_one, dirs))
    rows.sort(key=lambda r: r.task_id)
    report = Report(rows=rows)
    if log_dir is not None:
        report_path = Path(log_dir) / "report.json"
        report_text = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
        try:
            _write_text(report_path, report_text)
        except OSError as exc:
            raise HarnessError(f"{report_path}: cannot write the report: {exc.strerror}") from None
    return report


def replay_suite(suite_dir: str | Path, log_dir: str | Path) -> Report:
    """Re-score logged episodes against the suite's targets, no model needed.

    Each row is scored as run_benchmark scored it live: the outcome and
    partial credit from the logged final table, the process from the logged
    turns. Of each bundle only target_schema.json, target_table.csv and
    provenance.json are read (read_target), so damage to a source table or
    to gt_pipeline.txt shows in run_benchmark and read_bundle, not here;
    damage to those three files or to the log is a "load_error" row. A
    task whose scoring raises (a logged call that no longer parses, a
    failing judge) becomes an "internal_error" row, as in run_benchmark.
    A log_dir that is not a readable directory is a HarnessError; a task
    with no log in it is a "missing_log" row.
    """
    dirs = discover_tasks(suite_dir)
    if not dirs:
        return Report(note="no tasks")
    try:
        with os.scandir(log_dir):
            pass
    except OSError as exc:
        raise HarnessError(f"{log_dir}: cannot read the log dir: {exc.strerror}") from None
    rows = []
    for task_dir in dirs:
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
            breakdown = score_trajectory(traj, target)
            rows.append(_case_from_scores(task_id, traj, breakdown))
        except Exception as exc:
            rows.append(_internal_error(task_id, exc))
    rows.sort(key=lambda r: r.task_id)
    return Report(rows=rows)
