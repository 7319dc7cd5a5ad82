"""Re-measure the per-layer baseline table of ROADMAP.md on a 20k-row table.

    python3 perfbench/baseline.py

Builds one seeded 4-column table of ROWS rows and times each step the ROADMAP baseline
lists (build, re-check, eight operators, tables_equal, cell_score), plus the
60-task demo suite under the gt policy. Prints the median of REPEATS runs in
ms. Not part of BENCHMARK.json; README.md records its figures.
"""

from __future__ import annotations

import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import adprep  # noqa: E402
from adprep import make_operator as op  # noqa: E402

from workloads import REGIONS, WORDS  # noqa: E402

ROWS = 20000  # as ROADMAP's baseline table
REPEATS = 3


def _timed(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def main() -> int:
    rng = random.Random(0)
    cols = [("id", "int"), ("name", "text"), ("region", "text"), ("amount", "int")]
    rows = [(i, rng.choice(WORDS), rng.choice(REGIONS), rng.randint(1, 500)) for i in range(ROWS)]
    t = adprep.make_table("t", cols, rows)
    state = {"t": t, "r": adprep.make_table("r", [("region", "text"), ("boss", "text")],
                                            [(r, rng.choice(WORDS)) for r in REGIONS])}
    flipped = adprep.Table(t.schema, tuple(reversed(t.rows)))
    steps = {
        "build": lambda: adprep.make_table("t", cols, rows),
        "re-check the same rows": lambda: adprep.Table(t.schema, t.rows),
        "Sort": op("Sort", "t", ["amount", "id"], [False, True]),
        "ValueTransform": op("ValueTransform", "t", "name", 'upper(col("name"))'),
        "Join": op("Join", "t", "r", ["region"], "inner"),
        "Pivot": op("Pivot", "t", ["region"], "name", "amount", "sum"),
        "Filter": op("Filter", "t", 'col("amount") > 250'),
        "DropNA": op("DropNA", "t", ["name"], "any"),
        "GroupBy": op("GroupBy", "t", ["region"], {"amount": "sum"}),
        "Deduplicate": op("Deduplicate", "t", ["name", "region"], "first"),
        "tables_equal vs row-reversed copy": lambda: adprep.tables_equal(t, flipped),
        "cell_score vs row-reversed copy": lambda: adprep.reward.cell_score(t, flipped),
    }
    print(f"{ROWS} rows x 4 columns, median of {REPEATS}")
    for name, step in steps.items():
        fn = step if callable(step) else (lambda o=step: adprep.execute_operator(o, state))
        print(f"  {name}: {_timed(fn):.0f} ms")

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as scratch:
        suite = Path(scratch) / "suite"
        srng = random.Random(3)  # as `adprep synth --tasks 60 --seed 3`
        for i in range(60):
            adprep.write_bundle(adprep.synthesize_demo_task(srng, f"task-{i:03d}"), suite / f"task-{i:03d}")
        ms = _timed(lambda: adprep.run_benchmark(suite, adprep.gt_replay_policy, threads=1))
        print(f"  60-task demo suite, run --policy gt, 1 thread: {ms:.0f} ms ({ms / 60:.2f} ms/task)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
