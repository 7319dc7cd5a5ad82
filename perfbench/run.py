"""The adprep benchmark: one seeded workload per run, timed end to end.

    python3 perfbench/run.py --workload demo-suite --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; adprep is imported from src/. For
--seconds a run alternates run_benchmark and replay_suite rounds over the
suite, checking every round against the correctness gate, and sets the
suite up several times in between (setup_s is the median); then it measures
peak RSS in a fresh process. With --trace 1 it instead alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones. The last line of standard output is one JSON object; the lines before
it name every metric with its unit for a reader. The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
MIN_STEP_SAMPLES = 20  # env_step_ms.p50 needs ten samples beyond it
HARD_STOP_S = 120.0  # rounds stop here even if too few step samples arrived

# On a shared virtual machine the speed drifts by up to 2x over tens of
# seconds, which swamps any code change. Every timed phase is therefore
# bracketed by a fixed pure-Python calibration loop and scaled to the loop's
# nominal time: reported times read "as if the loop took
# CALIBRATION_NOMINAL_S". On a 2-core Xeon virtual machine the factor is
# close to 1.
CALIBRATION_LOOPS = 50_000
CALIBRATION_NOMINAL_S = 0.008
# The speed can change within a set-up, so a set-up is calibrated again
# after every CHUNK_S of its own work.
CHUNK_S = 0.1

now = time.perf_counter


def calibrate() -> float:
    """Median time of three runs of a fixed loop: the machine's speed right now."""
    times = []
    for _ in range(3):
        t0 = now()
        total, table = 0, {}
        for i in range(CALIBRATION_LOOPS):
            table[i & 1023] = total
            total += i * 3 % 7
        times.append(now() - t0)
    return statistics.median(times)


def speed_scale(cal_before: float, cal_after: float) -> float:
    """Factor taking a time measured between two calibrations to nominal speed."""
    return CALIBRATION_NOMINAL_S / ((cal_before + cal_after) / 2)


def user_cpu() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


class ChunkTimer:
    """User CPU time of a sequence of steps, scaled to nominal speed chunk by chunk.

    A set-up creates hundreds of files. On the shared virtual machine this was
    tuned on, the kernel time of one file creation swung between 20 us and
    0.6 ms from one few-second spell to the next, whatever adprep did, so
    setup_s counts only the time spent in user space. The wall time is kept
    for the report.
    """

    def __init__(self):
        self.wall = self.scaled = self._pending = 0.0
        self._cal = calibrate()

    def time(self, step) -> None:
        w0, u0 = now(), user_cpu()
        step()
        self._pending += user_cpu() - u0
        self.wall += now() - w0
        if self._pending >= CHUNK_S:
            self._flush()

    def _flush(self) -> None:
        cal = calibrate()
        self.scaled += self._pending * speed_scale(self._cal, cal)
        self._cal, self._pending = cal, 0.0

    def totals(self) -> tuple[float, float]:
        """(scaled user CPU, raw wall) seconds over every step so far."""
        if self._pending:
            self._flush()
        return self.scaled, self.wall


def read_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(trace: int) -> dict[str, str]:
    """Unit of every metric BENCHMARK.json names for --trace 0 or --trace 1."""
    return {m["name"]: m["unit"] for m in read_spec()["per_layer" if trace else "end_to_end"]}


def _import_adprep():
    src = ROOT / "src"
    if not (src / "adprep" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'adprep'} not found; run from the root of an adprep checkout")
    sys.path.insert(0, str(src))
    global adprep, tracing, workloads
    import adprep
    import tracing
    import workloads


def percentile(samples: list[float], q: int) -> float | None:
    """The q-th percentile, or None when fewer than ten samples lie beyond it."""
    if len(samples) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(samples, n=100)[q - 1] if q != 50 else statistics.median(samples)


class Run:
    """State of one benchmark run: the workload, its scratch space and tallies."""

    def __init__(self, workload: str, seed: int, size: str, after_setup=None):
        self.wl = workloads.Workload(workload, seed, size)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_work"))
        self.after_setup = after_setup  # called on each fresh suite directory
        self.clock = workloads.StepClock()
        self.factory = self.wl.policy_factory(self.clock)
        self.tracer = None  # set while a traced pass runs, to label span phases
        self.bad_bundles: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setups = 0
        self.speed_scales: list[float] = []  # per round, for the report

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def setup(self) -> tuple[Path, float, float]:
        """Set the suite up in a fresh directory, then gate its bundles.

        Returns the directory, the set-up's user CPU time scaled to nominal
        speed, and its raw wall time. Only synthesizing and writing the
        bundles is timed; reading them back and verifying them comes after.
        """
        self.setups += 1
        suite = self.work / f"suite-{self.setups}"
        suite.mkdir()
        self._phase("setup")
        gc.collect()  # garbage of earlier rounds is not collected on the set-up's clock
        timer = ChunkTimer()

        def run_task(task_id, step):
            if self.tracer is not None:
                self.tracer.task = f"setup:{task_id}"
            timer.time(step)

        self.wl.setup(suite, run_task)
        scaled, wall = timer.totals()
        if self.after_setup is not None:
            self.after_setup(suite)
        self._phase("verify")
        self.bad_bundles.update(self.wl.verify(suite))
        if self.setups == 1:
            self.wl.prepare_policies()
        return suite, scaled, wall

    def round(self, suite: Path):
        """One run_benchmark and one replay_suite pass, gated.

        Returns the two phase times, each scaled to the nominal machine
        speed, and the live report; all three are None when the round raised.
        Environment step gaps recorded in the run phase are scaled in place.
        """
        logs = self.work / "logs"
        tasks = len(self.wl.expected_outcome)
        self.attempted += tasks
        first_gap = len(self.clock.gaps_s)
        try:
            cal_start = calibrate()
            self._phase("run")
            t0 = now()
            live = adprep.run_benchmark(suite, self.factory, threads=1, log_dir=logs)
            run_s = now() - t0
            cal_mid = calibrate()
            self._phase("score")
            t0 = now()
            again = adprep.replay_suite(suite, logs)
            score_s = now() - t0
            cal_end = calibrate()
        except Exception as exc:  # a crash fails every task of the round
            self.failed += tasks
            self.problems.append(f"round raised {type(exc).__name__}: {exc}")
            return None, None, None
        bad = dict(self.bad_bundles)
        bad.update(self.wl.check(live, again, logs))
        self.failed += len(bad)
        self.problems.extend(f"{task}: {why}" for task, why in sorted(bad.items()))
        run_scale = speed_scale(cal_start, cal_mid)
        self.speed_scales.append(run_scale)
        gaps = self.clock.gaps_s
        gaps[first_gap:] = [g * run_scale for g in gaps[first_gap:]]
        return run_s * run_scale, score_s * speed_scale(cal_mid, cal_end), live


def memory_pass(workload: str, seed: int, size: str) -> tuple[float, int, int]:
    """Peak RSS of a fresh process that sets up once and runs one round."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
         "--size", size, "--memory-pass"],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0 and not proc.stdout.strip():
        raise RuntimeError(f"memory pass failed: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["peak_rss_mb"], out["attempted"], out["failed"]


def run_memory_pass(args) -> int:
    run = Run(args.workload, args.seed, args.size)
    try:
        run.round(run.setup()[0])
    finally:
        run.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"peak_rss_mb": rss_mb, "attempted": run.attempted, "failed": run.failed}))
    return 0


def measure(workload: str, seed: int, seconds: float, size: str = "full", after_setup=None):
    """Untraced run: every end-to-end metric, plus the run's tallies."""
    run = Run(workload, seed, size, after_setup)
    try:
        # Set-ups are spread evenly over the run, so that one slow spell of a
        # shared machine cannot cover all of them.
        setup_at = [k * seconds / run.wl.size.setups for k in range(run.wl.size.setups)]
        setup_times, setup_wall, run_s, score_s = [], [], [], []
        start = now()
        while True:
            elapsed = now() - start
            if setup_at and elapsed >= setup_at[0]:
                setup_at.pop(0)
                suite, scaled, wall = run.setup()
                setup_times.append(scaled)
                setup_wall.append(wall)
                if len(setup_times) == 1:
                    run.round(suite)  # warm-up: caches fill, lazy imports finish
                    run.clock.clear()
                continue
            enough = elapsed >= seconds and not setup_at and len(run.clock.gaps_s) >= MIN_STEP_SAMPLES
            if enough or elapsed >= HARD_STOP_S:
                break
            r, s, live = run.round(suite)
            if r is None:
                break
            run_s.append(r)
            score_s.append(s)
        tasks = len(run.wl.expected_outcome)
        steps_ms = [g * 1000.0 for g in run.clock.gaps_s]
    finally:
        run.close()
    # After the timed loop, so the files it writes and deletes cannot slow
    # the disk under the timed phases.
    rss_mb, mem_attempted, mem_failed = memory_pass(workload, seed, size)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_tasks_per_s": statistics.median(tasks / r for r in run_s) if run_s else 0.0,
        "score_tasks_per_s": statistics.median(tasks / s for s in score_s) if score_s else 0.0,
        "env_step_ms.p50": percentile(steps_ms, 50),
        "peak_rss_mb": rss_mb,
    }
    info = {
        "rounds": len(run_s),
        "tasks_per_round": tasks,
        "setups": len(setup_times),
        "setup_s samples": " ".join(f"{t:.3f}" for t in setup_times),
        "set-up wall time, median s": statistics.median(setup_wall),
        "speed scale, median over rounds": statistics.median(run.speed_scales),
        "env_step_samples": len(steps_ms),
        "env_step_ms.p95": percentile(steps_ms, 95),
    }
    attempted = run.attempted + mem_attempted
    failed = run.failed + mem_failed
    return metrics, info, attempted, failed, run.problems


def measure_traced(workload: str, seed: int, seconds: float, size: str = "full"):
    """Traced run: per-layer metrics, median over traced passes.

    Untraced and traced passes alternate, each one set-up plus one round,
    so counts repeat exactly for a seed and the tracing overhead compares
    like with like.
    """
    run = Run(workload, seed, size)
    tracer = tracing.Tracer()
    names = [m for m in metric_units(1) if m != "trace.overhead_pct"]
    plain_s, traced_s, passes = [], [], []

    def one_pass() -> int:
        suite, setup_s, _ = run.setup()
        run_s, score_s, live = run.round(suite)
        shutil.rmtree(suite)
        if live is None:
            return 0
        (traced_s if run.tracer else plain_s).append(setup_s + run_s + score_s)
        return sum(r.protocol_errors for r in live.rows)

    try:
        shutil.rmtree(run.setup()[0])  # builds the explore scripts outside the trace
        start = now()
        while not passes or (now() - start < min(seconds, HARD_STOP_S)):
            one_pass()
            first, waited = len(tracer.names), run.clock.wait_s
            tracer.counters.clear()
            restore = tracing.instrument(tracer)
            run.tracer = tracer
            try:
                protocol_errors = one_pass()
            finally:
                run.tracer = None
                restore()
            extra = {
                "agent.policy_wait_ms": (run.clock.wait_s - waited) * 1000.0,
                "agent.protocol_errors": protocol_errors,
            }
            passes.append(tracing.layer_metrics(tracer, first, extra, names))
    finally:
        run.close()
    metrics = {m: statistics.median(p[m] for p in passes) for m in names}
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced_s) / statistics.median(plain_s) - 1)
        if traced_s and plain_s else None  # a round raised, so the run fails anyway
    )
    info = {"traced_passes": len(traced_s), "spans": len(tracer.names),
            "span_tasks": len(set(tracer.tasks))}
    return metrics, info, run.attempted, run.failed, run.problems


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the smoke test")
    parser.add_argument("--memory-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_adprep()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    if args.memory_pass:
        return run_memory_pass(args)

    measure_fn = measure_traced if args.trace else measure
    metrics, info, attempted, failed, problems = measure_fn(
        args.workload, args.seed, args.seconds, args.size
    )
    return report(args, metrics, info, attempted, failed, problems)


def report(args, metrics, info, attempted, failed, problems) -> int:
    units = metric_units(args.trace)
    correct = failed == 0 and attempted > 0 and all(v is not None for v in metrics.values())
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"python {platform.python_version()}  nproc {len(os.sched_getaffinity(0))}  threads 1  "
          f"commit {_git_commit()}  machine settings changed: none")
    for name, value in info.items():
        print(f"  {name}: {'unsupported (too few samples)' if value is None else value}")
    for name, value in metrics.items():
        print(f"  {name}: {'unsupported (too few samples)' if value is None else f'{value:.6g}'} "
              f"{units[name]}")
    print(f"  error_rate: {failed / attempted if attempted else 1.0:.6g} ({failed}/{attempted} tasks)")
    for problem in problems[:20]:
        print(f"  gate: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items() if value is not None
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
