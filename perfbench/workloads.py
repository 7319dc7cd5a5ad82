"""Seeded workloads for the adprep benchmark.

Each workload turns a seed into a task suite, a policy per task, and the
outcome every task must reach. Inputs reach the program only through its
public API (make_table, make_operator, synthesize_demo_task,
synthesize_task, write_bundle), so adprep sees generated data and nothing
else. See README.md beside this file for why each workload exists.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

import adprep

WORDS = (
    "amber", "birch", "cedar", "delta", "ember", "fjord", "garnet", "harbor",
    "indigo", "juniper", "krill", "lagoon", "meadow", "nectar", "onyx", "pine",
)
REGIONS = ("north", "south", "east", "west", "central")
ORDERS_COLUMNS = (
    ("order_id", "int"), ("item", "text"), ("region", "text"), ("amount", "int"), ("placed", "text"),
)
# The three task shapes of the demo suite: Select+Sort, GroupBy+Sort, Join+Select.
SHAPES = ("select-sort", "groupby-sort", "join-select")
# Corruption kinds per generated task, rotated so the cost of a task does not
# swing with the seed. explore rotates through all five kinds. large-tables
# leaves out date_format: its cleaner tries the alternate formats in turn, so
# the format the seed picks changes a 2000-row task's run time by 2.5x; and
# inject_nulls, whose DropNA cleaner does almost no work.
KIND_PAIRS = {
    "explore": (
        ("duplicate_rows", "stringify_column"),
        ("uppercase_text", "date_format"),
        ("inject_nulls", "stringify_column"),
        ("date_format", "duplicate_rows"),
        ("uppercase_text", "inject_nulls"),
    ),
    "large-tables": (
        ("duplicate_rows", "stringify_column"),
        ("uppercase_text", "stringify_column"),
        ("duplicate_rows", "uppercase_text"),
    ),
}
DECOY_KINDS = ("Filter", "TopK", "AddNewColumn", "Pivot")


@dataclass(frozen=True)
class Size:
    tasks: int
    rows: int  # rows of each generated orders table; demo-suite draws its own
    setups: int  # set-ups per run, spread over it; setup_s is their median


SIZES = {
    "demo-suite": {"full": Size(200, 0, 3), "tiny": Size(4, 0, 1)},
    "large-tables": {"full": Size(6, 1000, 3), "tiny": Size(3, 40, 1)},
    "explore": {"full": Size(60, 100, 3), "tiny": Size(4, 12, 1)},
}
WORKLOADS = tuple(SIZES)


# ---------------------------------------------------------------------------
# generated sources (large-tables, explore)
# ---------------------------------------------------------------------------

def _orders_rows(rng, n: int) -> list[tuple]:
    return [
        (
            i + 1,
            rng.choice(WORDS),
            rng.choice(REGIONS),
            rng.randint(1, 500),
            f"2023-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
        )
        for i in range(n)
    ]


@dataclass(frozen=True)
class RawTask:
    """Plain-Python inputs of one generated task, drawn before any timing."""

    task_id: str
    shape: str
    kinds: tuple[str, ...]
    orders: list[tuple]
    managers: list[tuple]
    recipe_seed: int


def _raw_tasks(seed: int, size: Size, kind_pairs) -> list[RawTask]:
    """The seed draws the source rows. The corruption draws of task i come
    from a stream fixed by i, so every seed does the same synthesis work:
    corrupt_table rejects a second duplicate_rows only after a full
    Deduplicate and tables_equal, and when the seed drew the kinds, the
    number of such rejections made a 6-task set-up cost 1.35 s on one seed
    and 1.97 s on another."""
    rng = random.Random(seed)
    return [
        RawTask(
            task_id=f"task-{i:03d}",
            shape=SHAPES[i % len(SHAPES)],
            kinds=kind_pairs[i % len(kind_pairs)],
            orders=_orders_rows(rng, size.rows),
            managers=[(r, rng.choice(WORDS)) for r in REGIONS],
            recipe_seed=i,
        )
        for i in range(size.tasks)
    ]


def _synthesize_raw(raw: RawTask) -> adprep.TaskBundle:
    orders = adprep.make_table("orders", ORDERS_COLUMNS, raw.orders)
    sources = {"orders": orders}
    if raw.shape == "select-sort":
        ops = [
            adprep.make_operator("SelectColumn", "orders", ["order_id", "item", "amount"]),
            adprep.make_operator("Sort", "orders", ["amount", "order_id"], [False, True]),
        ]
    elif raw.shape == "groupby-sort":
        ops = [
            adprep.make_operator("GroupBy", "orders", ["region"], {"amount": "sum"}),
            adprep.make_operator("Sort", "orders", ["region"], True),
        ]
    else:
        sources["regions"] = adprep.make_table(
            "regions", [("region", "text"), ("manager", "text")], raw.managers
        )
        ops = [
            adprep.make_operator("Join", "orders", "regions", ["region"], "inner"),
            adprep.make_operator("SelectColumn", "orders_regions_join", ["order_id", "item", "manager"]),
        ]
    return adprep.synthesize_task(
        random.Random(raw.recipe_seed), raw.task_id, sources, ops, kinds=raw.kinds
    )


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

class StepClock:
    """Environment latency as the policy sees it, gathered by TimedPolicy."""

    def __init__(self):
        self.gaps_s: list[float] = []
        self.wait_s = 0.0

    def clear(self) -> None:
        self.gaps_s.clear()
        self.wait_s = 0.0


class TimedPolicy:
    """Wraps a policy; records the gap from one reply to the next request."""

    def __init__(self, inner, clock: StepClock):
        self.inner = inner
        self.clock = clock
        self.replied_at = None

    def complete(self, messages):
        asked_at = time.perf_counter()
        if self.replied_at is not None:
            self.clock.gaps_s.append(asked_at - self.replied_at)
        reply = self.inner.complete(messages)
        self.replied_at = time.perf_counter()
        self.clock.wait_s += self.replied_at - asked_at
        return reply


def _expand(plan: str, parent: str, calls) -> str:
    return f"<plan>{plan}</plan>\n<expand>\nparent: {parent}\n" + "\n".join(calls) + "\n</expand>"


def _answer(plan: str, calls, target: str) -> str:
    return f"<plan>{plan}</plan>\n<answer>\n" + " -> ".join(calls) + f"\ntarget: {target}\n</answer>"


def _decoy_ops(first: int):
    made = {
        "Filter": lambda: adprep.make_operator("Filter", "orders", 'not is_null(col("item"))'),
        "TopK": lambda: adprep.make_operator("TopK", "orders", 5),
        "AddNewColumn": lambda: adprep.make_operator(
            "AddNewColumn", "orders", "item_upper", 'upper(col("item"))'
        ),
        "Pivot": lambda: adprep.make_operator("Pivot", "orders", ["region"], "item", "amount", "count"),
    }
    for k in range(len(DECOY_KINDS)):
        yield made[DECOY_KINDS[(first + k) % len(DECOY_KINDS)]]()


def explore_script(index: int, bundle: adprep.TaskBundle) -> tuple[list[str], float]:
    """Replies for one explore task and the outcome they must score.

    Expand half the ground truth, send one malformed reply, expand a decoy
    whose second op names a missing column, resend the whole chain from root
    (reusing the first half), then answer the ground truth on even tasks and
    the decoy on odd ones.
    """
    calls = [adprep.serialize_operator_call(op) for op in bundle.gt_pipeline]
    half = max(1, len(calls) // 2)
    decoy = None
    for op in _decoy_ops(index):
        try:
            state = adprep.execute_operator(op, bundle.sources)
        except adprep.ExecError:
            continue
        (decoy_table,) = (t for name, t in state.items() if bundle.sources.get(name) is not t)
        if decoy_table.n_rows and not adprep.tables_equal(decoy_table, bundle.target_table):
            decoy = adprep.serialize_operator_call(op)
            break
    if decoy is None:
        raise ValueError(f"{bundle.task_id}: no decoy operator applies")
    missing = 'Sort("orders", ["no_such_column"], true)'
    target = bundle.target_schema.table_name
    replies = [
        _expand("start the known fix", "root", calls[:half]),
        "<expand>\nparent: root\n" + calls[0] + "\n</expand>",  # no <plan>: protocol error
        _expand("try a side branch", "root", [decoy, missing]),
        _expand("redo the full fix", "root", calls),
        _answer("the fix is done", calls, target)
        if index % 2 == 0
        else _answer("take the side branch", [decoy], decoy_table.name),
    ]
    return replies, 1.0 if index % 2 == 0 else 0.0


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """One seeded suite: set-up, per-task policies and the correctness gate."""

    def __init__(self, name: str, seed: int, size: str = "full"):
        if name not in SIZES:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.size = SIZES[name][size]
        self.raw = [] if name == "demo-suite" else _raw_tasks(seed, self.size, KIND_PAIRS[name])
        self.bundles: list[adprep.TaskBundle] = []  # of the latest set-up
        self.scripts: dict[str, list[str]] = {}
        self.expected_outcome: dict[str, float] = {}

    def setup(self, suite_dir: Path, run_task=lambda task_id, step: step()) -> None:
        """Synthesize and write every bundle, as `adprep synth` does; the timed set-up.

        Each task's work is one step, which run_task(task_id, step) must call
        before it returns, so the caller can time and label every task.
        """
        rng = random.Random(self.seed)  # demo-suite: as `adprep synth --seed`
        self.bundles = []
        for i in range(self.size.tasks):
            task_id = f"task-{i:03d}"

            def step(i=i, task_id=task_id):
                if self.name == "demo-suite":
                    bundle = adprep.synthesize_demo_task(rng, task_id)
                else:
                    bundle = _synthesize_raw(self.raw[i])
                adprep.write_bundle(bundle, suite_dir / task_id)
                self.bundles.append(bundle)

            run_task(task_id, step)

    def verify(self, suite_dir: Path) -> dict[str, str]:
        """Read every bundle back from disk and verify it, as `adprep validate` does.

        Returns the tasks whose bundle failed, with the reason.
        """
        failed = {}
        for bundle in self.bundles:
            try:
                adprep.verify_bundle(adprep.read_bundle(suite_dir / bundle.task_id))
            except (adprep.SynthesisError, adprep.TableIOError) as exc:
                failed[bundle.task_id] = f"verify_bundle: {exc}"
        return failed

    def prepare_policies(self) -> None:
        """Build the explore scripts from the bundles of the first set-up."""
        for i, bundle in enumerate(self.bundles):
            if self.name == "explore":
                self.scripts[bundle.task_id], self.expected_outcome[bundle.task_id] = (
                    explore_script(i, bundle)
                )
            else:
                self.expected_outcome[bundle.task_id] = 1.0

    def policy_factory(self, clock: StepClock):
        if self.name == "explore":
            return lambda bundle: TimedPolicy(adprep.ScriptedPolicy(self.scripts[bundle.task_id]), clock)
        return lambda bundle: TimedPolicy(adprep.gt_replay_policy(bundle), clock)

    def check(self, live: adprep.Report, replay: adprep.Report, log_dir: Path) -> dict[str, str]:
        """Every task whose round broke the gate, with the first reason."""
        failed = {}
        want = self.expected_outcome
        rows = {r.task_id: r for r in live.rows}
        again = {r.task_id: r for r in replay.rows}
        for task_id in want:
            row = rows.get(task_id)
            if row is None:
                failed[task_id] = "missing from the run report"
                continue
            if row.status != "answered" or row.outcome != want[task_id]:
                failed[task_id] = f"status {row.status}, outcome {row.outcome}, want {want[task_id]}"
                continue
            other = again.get(task_id)
            if other is None or (other.outcome, other.partial) != (row.outcome, row.partial):
                failed[task_id] = "replay_suite disagrees with the live report"
                continue
            if self.name == "explore":
                reason = _explore_log_problem(row, log_dir / f"{task_id}.jsonl")
                if reason:
                    failed[task_id] = reason
        return failed


def _explore_log_problem(row, log_path: Path) -> str | None:
    if row.protocol_errors != 1:
        return f"{row.protocol_errors} protocol errors, want 1"
    if row.outcome == 0.0 and not 0.0 < row.partial < 1.0:
        return f"decoy answer scored partial {row.partial}, want partial credit"
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    failures = [r["failure_op_kind"] for r in records if r.get("record") == "turn" and r.get("failure_op_kind")]
    if failures != ["Sort"]:
        return f"op failures {failures}, want one failed Sort"
    return None
