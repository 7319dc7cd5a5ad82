"""Acceptance gate: nine checks, one printed verdict line each.

Run with -s to see the verdict lines on passing runs; pytest prints them
automatically for failing ones.
"""

import json
import random
import re
import time

import pytest

import reference_ops as ref
from adprep.agent import ScriptedPolicy, Task, run_episode, split_chain
from adprep.harness import compute_cost, gt_replay_policy, run_benchmark
from adprep.operators import execute_operator, parse_operator_call
from adprep.reward import (
    RuleJudge,
    cell_score,
    schema_score,
    score_trajectory,
    shape_score,
)
from adprep.synthesis import corrupt_table, synthesize_demo_task, verify_bundle, write_bundle
from adprep.tables import (
    BOOL,
    INT,
    LIST,
    REAL,
    TEXT,
    ColumnSpec,
    Schema,
    Table,
    make_table,
    tables_equal,
)

from conftest import random_table, replay_chain


def verdict(n: int, desc: str):
    print(f"\nacceptance {n}: PASS - {desc}")


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

def film_sources():
    movies = make_table(
        "movies",
        [("id", INT), ("title", TEXT), ("director_id", INT)],
        [
            (1, "Arrival", 10),
            (1, "Arrival", 10),
            (2, "Dune", 11),
            (3, "Sicario", 10),
        ],
    )
    directors = make_table(
        "directors", [("director_id", INT), ("name", TEXT)], [(10, "denis"), (11, "denis2")]
    )
    ratings = make_table(
        "ratings", [("id", INT), ("score", REAL)], [(1, 8.5), (2, 8.0), (3, 7.2)]
    )
    return {"movies": movies, "directors": directors, "ratings": ratings}


class RandomExplorer:
    """Policy that wanders the tree using only what the feedback told it."""

    OPS = (
        'Deduplicate("movies", [], "first")',
        'Count("movies")',
        'SelectColumn("directors", ["director_id", "name"])',
        'Join("movies", "directors", ["director_id"], "inner")',
        'Sort("ratings", ["score"], false)',
        'Filter("ratings", "col(\\"score\\") > 7.5")',
        'TopK("ratings", 2)',
        'Count("ghost")',
        'DropColumn("movies", ["no_such_column"])',
    )

    def __init__(self, rng):
        self.rng = rng
        self.known = ["root"]
        self.replies = 0

    def complete(self, messages):
        last = messages[-1]["content"]
        for m in re.finditer(r"^node: (.+)$", last, flags=re.MULTILINE):
            if m.group(1) not in self.known:
                self.known.append(m.group(1))
        self.replies += 1
        if self.replies >= self.rng.randint(2, 6):
            where = self.rng.choice(self.known)
            return f"<plan>stop here</plan><answer>\n{where}\n</answer>"
        parent = self.rng.choice(self.known)
        ops = "\n".join(self.rng.choice(self.OPS) for _ in range(self.rng.randint(1, 3)))
        return f"<plan>poke around</plan><expand>\nparent: {parent}\n{ops}\n</expand>"


def random_episode(seed: int):
    rng = random.Random(seed)
    schema = Schema("movies_directors_join", (ColumnSpec("id", INT),))
    task = Task(f"sim-{seed}", film_sources(), schema)
    return run_episode(task, RandomExplorer(rng))


# ---------------------------------------------------------------------------
# the nine checks
# ---------------------------------------------------------------------------

def test_criterion_1_operator_oracle_agreement():
    t0 = time.monotonic()
    total = 0
    for kind in ref.DETERMINISTIC_KINDS:
        stats = ref.run_operator_trials(kind, 500, seed=20260817)
        total += stats["ok"] + stats["fail"]
        assert stats["ok"] > 0, f"{kind}: oracle never exercised a success path"
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"oracle sweep took {elapsed:.1f}s"
    verdict(1, f"engine matches the naive reference on {total} table sets "
               f"across {len(ref.DETERMINISTIC_KINDS)} operators in {elapsed:.1f}s")


def _permuted(rng, t: Table) -> Table:
    row_order = list(range(t.n_rows))
    rng.shuffle(row_order)
    col_order = list(range(len(t.schema.columns)))
    rng.shuffle(col_order)
    cols = tuple(t.schema.columns[i] for i in col_order)
    rows = tuple(tuple(t.rows[r][c] for c in col_order) for r in row_order)
    return Table(Schema(t.name, cols), rows)


def _flip_cell(rng, t: Table) -> Table:
    r = rng.randrange(t.n_rows)
    c = rng.randrange(len(t.schema.columns))
    v = t.rows[r][c]
    if v is None:
        new = {INT: 1, REAL: 1.0, TEXT: "x", BOOL: True, LIST: (1,)}[t.schema.columns[c].dtype]
    elif isinstance(v, bool):
        new = not v
    elif isinstance(v, (int, float)):
        new = v + 1
    elif isinstance(v, str):
        new = v + "x"
    else:
        new = v + (v[0],) if v else ("x",)
    rows = [list(row) for row in t.rows]
    rows[r][c] = new
    return Table(t.schema, tuple(tuple(row) for row in rows))


def test_criterion_2_exact_match_metric():
    rng = random.Random(616)
    for trial in range(1000):
        t = random_table(rng, name="t", min_rows=1)
        assert tables_equal(t, _permuted(rng, t)), f"trial {trial}: permutation broke equality"
        assert not tables_equal(t, _flip_cell(rng, t)), f"trial {trial}: flip went unnoticed"
    verdict(2, "equality survives 1000 row/column permutations and catches every cell flip")


def test_criterion_3_partial_reward_closed_forms():
    pred = make_table("p", [("a", INT), ("b", INT), ("c", INT)], [])
    target = make_table("t", [("b", INT), ("c", INT), ("d", INT)], [])
    assert schema_score(pred, target) == 0.5

    rows150 = [(i,) for i in range(150)]
    rows100 = [(i,) for i in range(100)]
    s = shape_score(make_table("p", [("a", INT)], rows150),
                    make_table("t", [("a", INT)], rows100))
    assert abs(s - 0.6065306597) < 1e-6

    rng = random.Random(31)
    for _ in range(1000):
        a = random_table(rng, name="a")
        b = random_table(rng, name="b")
        for fn in (schema_score, shape_score, cell_score):
            v = fn(a, b)
            assert 0.0 <= v <= 1.0, f"{fn.__name__} left [0,1]: {v}"
    verdict(3, "schema 0.5 exact, shape exp(-0.5) at 1e-6, all similarities within [0,1] "
               "over 1000 random pairs")


def test_criterion_4_tree_invariants():
    checked_nodes = 0
    for seed in range(200):
        traj = random_episode(seed)
        tree = traj.tree
        nodes = tree.nodes
        # (b) only successful operators created nodes; reused chains repeat a
        # path rather than minting a second node for it
        reached = set()
        for turn in traj.turns:
            if turn.action == "expand":
                reached.update(turn.created_paths)
        assert len(nodes) == len(reached) + 1

        sources = film_sources()
        for node in nodes:
            # (a) a node's state is exactly its root-path pipeline re-executed
            replayed = replay_chain(node.prefix, sources)
            assert set(replayed) == set(node.state)
            for name in node.state:
                assert tables_equal(replayed[name], node.state[name])
            # (c) the node's printed path resolves back to the node itself
            assert tree.resolve(node.prefix) is node
            if node.path_text != "root":
                ops = tuple(parse_operator_call(p) for p in split_chain(node.path_text))
                assert tree.resolve(ops) is node
            checked_nodes += 1
    verdict(4, f"200 random episodes: {checked_nodes} nodes re-executed, counted, and "
               "resolved back to themselves")


def test_criterion_5_interaction_limit():
    for seed in range(100):
        traj = random_episode(seed + 1000)
        spent = sum(1 for t in traj.turns if t.action in ("expand", "answer"))
        assert spent <= 5, f"seed {seed}: {spent} turns"
        assert traj.status in (
            "answered", "turn_limit", "empty_result", "protocol_error"
        )
    verdict(5, "no trajectory in a 100-episode fuzz exceeded the 5-turn budget")


def _normalized_logs(log_dir):
    out = {}
    for path in sorted(log_dir.glob("*.jsonl")):
        lines = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record.get("record") == "result":
                record["wall_time"] = 0.0
            lines.append(json.dumps(record, sort_keys=True))
        out[path.name] = "\n".join(lines)
    return out


def test_criterion_6_replay_determinism(tmp_path):
    suite = tmp_path / "suite"
    for seed in (5, 11, 23):
        bundle = synthesize_demo_task(random.Random(seed), f"task-{seed:02d}")
        write_bundle(bundle, suite / bundle.task_id)
    snapshots = []
    run_id = 0
    for threads in (1, 8):
        for _ in range(3):
            log_dir = tmp_path / f"logs-{run_id}"
            run_id += 1
            run_benchmark(suite, gt_replay_policy, threads=threads, log_dir=log_dir)
            snapshots.append(_normalized_logs(log_dir))
    first = snapshots[0]
    assert len(first) == 3
    for other in snapshots[1:]:
        assert other == first
    verdict(6, "trajectory logs are byte-identical (wall_time aside) across 3 runs "
               "at parallelism 1 and 8")


def test_criterion_7_synthesis_soundness():
    bundles = 0
    for seed in range(30):
        bundle = synthesize_demo_task(random.Random(seed), f"t{seed}")
        verify_bundle(bundle)  # raises on any drift
        bundles += 1

    mixed = make_table("places", [("country", TEXT)], [("USA",), ("usa",), ("peru",)])
    outcome = corrupt_table(
        random.Random(3), mixed, max_corruptions=1, attempts=8, kinds=["uppercase_text"]
    )
    assert outcome.applied == [] and "uppercase_text" in outcome.rejected

    stacked = 0
    pristine = make_table(
        "staff",
        [("id", INT), ("name", TEXT), ("joined", TEXT)],
        [(1, "ada", "2021-03-05"), (2, "grace", "2022-11-30"), (3, "edsger", "2020-01-17")],
    )
    for seed in range(40):
        result = corrupt_table(random.Random(seed), pristine, max_corruptions=3, attempts=30)
        state = {result.table.name: result.table}
        for c in reversed(result.applied):
            state = execute_operator(c.cleaner, state)
        assert tables_equal(state["staff"], pristine)
        if len(result.applied) == 3:
            stacked += 1
    assert stacked > 0, "no run ever stacked three corruptions"
    verdict(7, f"{bundles}/30 bundles verify, ambiguous casing rejected, "
               f"{stacked} triple-corruption stacks restored in reverse order")


def test_criterion_8_harness_arithmetic(tmp_path):
    suite = tmp_path / "suite"
    for seed in (1, 2, 3, 4):
        bundle = synthesize_demo_task(random.Random(seed), f"task-{seed}")
        write_bundle(bundle, suite / bundle.task_id)

    def factory(bundle):
        source = sorted(bundle.sources)[0]
        if bundle.task_id == "task-1":  # answered, exact
            return gt_replay_policy(bundle)
        if bundle.task_id == "task-2":  # answered, wrong table
            return ScriptedPolicy([f"<plan>guess</plan><answer>root\ntarget: {source}</answer>"])
        if bundle.task_id == "task-3":  # burns all five turns
            poke = f'<plan>poke</plan><expand>parent: root\nCount("{source}")</expand>'
            return ScriptedPolicy([poke] * 5)
        return ScriptedPolicy(["junk", "more junk"])  # task-4: protocol error

    report = run_benchmark(suite, factory)
    by_id = {r.task_id: r for r in report.rows}
    assert by_id["task-1"].status == "answered" and by_id["task-1"].outcome == 1.0
    assert by_id["task-2"].status == "answered" and by_id["task-2"].outcome == 0.0
    assert by_id["task-3"].status == "turn_limit"
    assert by_id["task-4"].status == "protocol_error"
    assert report.accuracy == 25.0  # hand count: 1 of 4
    assert report.completion == 50.0  # hand count: 2 of 4
    assert abs(compute_cost(3600.0) - 0.91) < 1e-9
    verdict(8, "status mix 1/1/1/1 gives accuracy 25.0, completion 50.0, "
               "and 3600s costs exactly $0.91")


def test_criterion_9_worked_end_to_end():
    sources = film_sources()
    ops = [
        parse_operator_call('Deduplicate("movies", [], "first")'),
        parse_operator_call('Join("movies", "directors", ["director_id"], "inner")'),
    ]
    target = replay_chain(ops, sources)["movies_directors_join"]
    task = Task("film-demo", sources, target.schema)

    chain = 'Deduplicate("movies", [], "first") -> Join("movies", "directors", ["director_id"], "inner")'
    policy = ScriptedPolicy([
        "<plan>deduplicate movies, then join movies with directors on director_id</plan>\n"
        "<expand>\nparent: root\n"
        'Deduplicate("movies", [], "first")\n'
        'Join("movies", "directors", ["director_id"], "inner")\n'
        "</expand>",
        f"<plan>the joined table is complete</plan>\n<answer>\n{chain}\n"
        "target: movies_directors_join\n</answer>",
    ])
    traj = run_episode(task, policy)
    assert traj.status == "answered"
    assert traj.final_table.name == "movies_directors_join"

    breakdown = score_trajectory(traj, target)
    judge = RuleJudge().score(traj)
    assert breakdown.outcome == 1.0
    assert breakdown.partial == 1.0
    assert judge.consistency == 1.0
    assert judge.responsiveness == 1.0
    assert judge.backtracking == 1.0
    assert breakdown.process == 1.0
    assert breakdown.total == pytest.approx(1.0 + 0.5 + 0.2, abs=1e-9)
    verdict(9, "scripted dedupe+join answers exactly: outcome 1, partial 1, process 1, "
               "total = alpha+beta+gamma")
