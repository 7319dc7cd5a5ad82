"""Command line entry point.

Subcommands:
    synth     generate a demo task suite
    validate  check that bundles rebuild their targets
    run       benchmark a policy over a suite
    solve     run one episode on a single bundle and show the result
    score     re-score logged episodes without a model
    replay    re-drive one episode from a file of canned replies

Everything runs in process; main() takes argv for tests and returns the
exit code instead of calling sys.exit itself.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import shlex
import sys
from pathlib import Path
from typing import Callable

from .agent import MAX_TURNS, HttpChatPolicy, IdentityPolicy, PolicyError, ScriptedPolicy
from .harness import (
    HarnessError,
    discover_tasks,
    gt_replay_policy,
    replay_suite,
    run_benchmark,
    score_case,
)
from .operators import SubprocessScriptBackend
from .synthesis import (
    SynthesisError, is_bundle, read_bundle, synthesize_demo_task, verify_bundle, write_bundle,
)
from .tables import TableIOError, serialize_table


def _err(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def _add_policy_args(p):
    p.add_argument(
        "--policy",
        choices=("identity", "gt", "scripted", "http"),
        default="identity",
        help="identity answers the closest source; gt replays the bundle's own fix; "
        "scripted reads replies from --scripts; http talks to a chat endpoint",
    )
    p.add_argument("--scripts", help="directory of <task_id>.json reply arrays (policy=scripted)")
    p.add_argument("--endpoint", help="chat completion URL (policy=http)")
    p.add_argument("--model", help="model name sent to the endpoint (policy=http)")
    p.add_argument("--temperature", type=_finite, default=0.01)


def _script_backend(text: str) -> SubprocessScriptBackend | None:
    try:
        argv = shlex.split(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot split {text!r}: {exc}") from None
    return SubprocessScriptBackend(argv) if argv else None


def _count(what: str, least: int) -> Callable[[str], int]:
    """An argparse type for a count flag: an int of at least `least`."""
    def count(text: str) -> int:
        if (n := int(text)) < least:
            raise argparse.ArgumentTypeError(f"expected {what} >= {least}, got {n}")
        return n
    return count


def _finite(text: str) -> float:
    """An argparse type for a real flag: a finite float (JSON has no NaN or inf)."""
    if not math.isfinite(x := float(text)):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text}")
    return x


def _add_episode_args(p):
    p.add_argument("--max-turns", type=_count("a turn count", 1), default=MAX_TURNS)
    p.add_argument(
        "--script-runner",
        dest="script_backend",
        type=_script_backend,
        help='interpreter argv for ExeCode, e.g. "python3"; scripts stay disabled without it',
    )


def _add_single_episode_args(p):
    p.add_argument("--log", help="write the episode's JSONL trajectory log here")
    p.add_argument("--rows", type=_count("a row count", 0), default=10, help="sample rows to print")


def _policy_factory(args):
    if args.policy == "identity":
        return lambda bundle: IdentityPolicy()
    if args.policy == "gt":
        return gt_replay_policy
    if args.policy == "scripted":
        if not args.scripts:
            raise HarnessError("--policy scripted needs --scripts DIR")
        scripts = Path(args.scripts)
        return lambda bundle: ScriptedPolicy.from_file(scripts / f"{bundle.task_id}.json")
    if not args.endpoint or not args.model:
        raise HarnessError("--policy http needs --endpoint and --model")
    return lambda bundle: HttpChatPolicy(
        args.endpoint, args.model, temperature=args.temperature
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    rng = random.Random(args.seed)
    out = Path(args.out_dir)
    for i in range(args.tasks):
        task_id = f"task-{i:03d}"
        bundle = synthesize_demo_task(rng, task_id, max_corruptions=args.max_corruptions)
        try:
            write_bundle(bundle, out / task_id)
        except OSError as exc:
            return _err(f"{out / task_id}: cannot write the bundle: {exc.strerror}")
        print(f"{task_id}: {len(bundle.gt_pipeline)} ops, "
              f"{bundle.provenance['cleaner_count']} cleaning")
    print(f"wrote {args.tasks} tasks to {out}")
    return 0


def _cmd_validate(args) -> int:
    root = Path(args.suite_dir)
    try:
        dirs = [root] if is_bundle(root) else discover_tasks(root)
    except HarnessError as exc:
        return _err(str(exc))
    if not dirs:
        return _err(f"{root}: no task bundles found")
    failures = 0
    for d in dirs:
        bundle = None
        try:
            bundle = read_bundle(d)
            verify_bundle(bundle)
        except (SynthesisError, TableIOError) as exc:
            failures += 1
            # a read error names a file or nothing; a verify error leads with the task id
            print(f"FAIL {d.name}: {exc}" if bundle is None else f"FAIL {exc}")
            continue
        print(f"ok   {d.name}")
    print(f"{len(dirs) - failures}/{len(dirs)} bundles verify")
    return 0 if failures == 0 else 1


def _report(args, build) -> int:
    """Print the report `build()` returns, as text or with --json as JSON:
    exit 0 when every task was attempted, else 1."""
    try:
        report = build()
    except HarnessError as exc:
        return _err(str(exc))
    print(json.dumps(report.to_json(), sort_keys=True, indent=2) if args.json else report.to_text())
    return 0 if report.all_attempted else 1


def _cmd_run(args) -> int:
    return _report(args, lambda: run_benchmark(
        args.suite_dir,
        _policy_factory(args),
        threads=args.threads,
        max_turns=args.max_turns,
        script_backend=args.script_backend,
        log_dir=args.log_dir,
    ))


def _run_single_episode(args, bundle, policy) -> int:
    try:
        traj, breakdown = score_case(
            bundle,
            policy,
            max_turns=args.max_turns,
            script_backend=args.script_backend,
            log_path=args.log,
        )
    except HarnessError as exc:
        return _err(str(exc))
    print(f"status: {traj.status}")
    if traj.answer_path is not None:
        print(f"answer: {traj.answer_path}")
    if traj.final_table is not None:
        print(serialize_table(traj.final_table, args.rows))
    print(
        f"outcome: {breakdown.outcome:.0f}  partial: {breakdown.partial:.3f}  "
        f"process: {breakdown.process:.3f}  total: {breakdown.total:.3f}"
    )
    return 0 if traj.answered else 1


def _cmd_solve(args) -> int:
    try:
        bundle = read_bundle(args.bundle_dir)
    except (SynthesisError, TableIOError) as exc:
        return _err(str(exc))
    try:
        policy = _policy_factory(args)(bundle)
    except (HarnessError, PolicyError) as exc:
        return _err(str(exc))
    return _run_single_episode(args, bundle, policy)


def _cmd_score(args) -> int:
    return _report(args, lambda: replay_suite(args.suite_dir, args.log_dir))


def _cmd_replay(args) -> int:
    try:
        bundle = read_bundle(args.bundle_dir)
        policy = ScriptedPolicy.from_file(args.script)
    except (SynthesisError, TableIOError, PolicyError) as exc:
        return _err(str(exc))
    return _run_single_episode(args, bundle, policy)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adprep", description="table preparation episodes: synthesize, run, score"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a demo task suite")
    p.add_argument("out_dir")
    p.add_argument("--tasks", type=_count("a task count", 0), default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-corruptions", type=_count("a corruption count", 0), default=2)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("validate", help="check bundles rebuild their targets")
    p.add_argument("suite_dir")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("run", help="benchmark a policy over a suite")
    p.add_argument("suite_dir")
    p.add_argument("--threads", type=_count("a thread count", 1), default=1)
    p.add_argument("--log-dir", help="write one JSONL trajectory log per task")
    p.add_argument("--json", action="store_true", help="print the report as JSON")
    _add_policy_args(p)
    _add_episode_args(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("solve", help="run one episode on a single bundle")
    p.add_argument("bundle_dir")
    _add_single_episode_args(p)
    _add_policy_args(p)
    _add_episode_args(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("score", help="re-score logged episodes against a suite")
    p.add_argument("suite_dir")
    p.add_argument("log_dir")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_score)

    p = sub.add_parser("replay", help="re-drive one episode from a reply script")
    p.add_argument("bundle_dir")
    p.add_argument("script", help="json file holding the list of canned replies")
    _add_single_episode_args(p)
    _add_episode_args(p)
    p.set_defaults(fn=_cmd_replay)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
