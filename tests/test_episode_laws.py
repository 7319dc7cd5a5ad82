"""Seeded episode fuzzing: episodes that wander, not only the gt replay.

Twelve small demo tasks run under scripted replies drawn from a fixed seed
list: mutated ground-truth chains (cut, shuffled, with a failing op),
malformed replies, parents and answer chains that name no node, and answers
with a wrong or missing `target:`. Every script ends in an answer. Laws:

1. every episode ends in one of the four documented statuses;
2. every live report row equals its `replay_suite` row in every field but
   `wall_time`;
3. `threads=2` gives the rows of `threads=1`, and logs that are
   byte-identical apart from `wall_time`;
4. the scripts are balanced: each status ends at least a tenth of the
   episodes, so the other laws are tried on every status.
"""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest

from adprep.agent import EPISODE_STATUSES, ScriptedPolicy
from adprep.harness import Report, replay_suite, run_benchmark
from adprep.operators import serialize_operator_call
from adprep.synthesis import synthesize_demo_task, write_bundle

TASKS = 12
SEEDS = range(10)

JUNK = (
    "",
    "no tags at all",
    "<plan>only a plan</plan>",
    "<expand>\nparent: root\n</expand>",
    "<plan>two plans</plan><plan>b</plan>\n<answer>\nroot\n</answer>",
    '<plan>a call that does not parse</plan>\n<expand>\nparent: root\nTopK("t", \n</expand>',
    "<plan>both</plan>\n<expand>\nparent: root\n</expand>\n<answer>\nroot\n</answer>",
)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz") / "suite"
    bundles = []
    for i in range(TASKS):
        bundle = synthesize_demo_task(random.Random(i), f"task-{i:03d}")
        write_bundle(bundle, root / bundle.task_id)
        bundles.append(bundle)
    return root, bundles


def _chain(calls: list[str]) -> str:
    return " -> ".join(calls) or "root"


def _mutated(rng: random.Random, calls: list[str]) -> list[str]:
    """The gt calls whole, cut, shuffled or with a call on a missing table."""
    calls = list(calls)
    how = rng.randrange(4)
    if how == 1:
        calls = calls[: rng.randint(1, len(calls))]
    elif how == 2:
        rng.shuffle(calls)
    elif how == 3:
        calls.insert(rng.randint(0, len(calls)), 'TopK("ghost", 1)')
    return calls


def _expand(parent: list[str], ops: list[str]) -> str:
    body = "\n".join([f"parent: {_chain(parent)}", *ops])
    return f"<plan>try {len(ops)} ops</plan>\n<expand>\n{body}\n</expand>"


def script(rng: random.Random, bundle) -> list[str]:
    """Replies for one episode; the last one is always an answer."""
    calls = [serialize_operator_call(op) for op in bundle.gt_pipeline]
    chains = [[]]  # the chains the script has asked for, each maybe a node
    replies = []
    if rng.random() < 0.5:  # start as gt does, so that more answers find a node
        chains.append(calls)
        replies.append(_expand([], calls))
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(("expand", "expand", "junk", "wrong_parent"))
        if kind == "junk":
            replies.append(rng.choice(JUNK))
            continue
        if kind == "wrong_parent":
            parent = [rng.choice(calls), 'TopK("ghost", 2)']
            ops = _mutated(rng, calls)
        else:
            parent = rng.choice(chains)
            ops = _mutated(rng, calls)[: rng.randint(1, len(calls) + 1)]
            chains.append(parent + ops)
        replies.append(_expand(parent, ops))
    source = rng.choice(sorted(bundle.sources))
    target = rng.choice((f"\ntarget: {bundle.target_schema.table_name}", f"\ntarget: {source}",
                         "\ntarget: ghost", ""))
    answer = rng.choice(chains + [calls, []])
    replies.append(f"<plan>answer</plan>\n<answer>\n{_chain(answer)}{target}\n</answer>")
    return replies


def rows(report: Report) -> list[dict]:
    """The report's rows without their wall time."""
    return [{**r.to_row(), "wall_time": None} for r in report.rows]


def logs(log_dir) -> dict[str, str]:
    """Each log's text with its wall time blanked."""
    return {
        p.name: re.sub(r'"wall_time": [^,}]+', '"wall_time": 0', p.read_text(encoding="utf-8"))
        for p in sorted(log_dir.glob("*.jsonl"))
    }


def test_wandering_episodes_keep_their_status_replay_and_thread_laws(suite, tmp_path):
    root, bundles = suite
    statuses = Counter()
    for seed in SEEDS:
        rng = random.Random(seed)
        scripts = {b.task_id: script(rng, b) for b in bundles}
        max_turns = rng.randint(1, 5)

        def factory(bundle):
            return ScriptedPolicy(scripts[bundle.task_id])

        one, two = tmp_path / f"{seed}-one", tmp_path / f"{seed}-two"
        live = run_benchmark(root, factory, max_turns=max_turns, log_dir=one)
        statuses.update(r.status for r in live.rows)
        # law 1: a documented status on every row, no load or internal error
        assert {r.status for r in live.rows} <= set(EPISODE_STATUSES), seed
        # law 2: the logs re-score to the live rows
        assert rows(replay_suite(root, one)) == rows(live), seed
        # law 3: two threads change neither the rows nor the logs
        threaded = run_benchmark(root, factory, threads=2, max_turns=max_turns, log_dir=two)
        assert rows(threaded) == rows(live), seed
        assert logs(two) == logs(one), seed
    # the scripts are balanced: each status is at least a tenth of the episodes
    assert all(statuses[s] * 10 >= TASKS * len(SEEDS) for s in EPISODE_STATUSES), statuses
