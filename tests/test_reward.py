"""Reward scoring tests with hand-computed expectations."""

import math
import random

import pytest

from adprep.agent import Trajectory, TurnRecord, run_episode, ScriptedPolicy
from adprep.harness import load_trajectory_log, write_trajectory_log
from adprep.reward import (
    JudgeScores,
    RuleJudge,
    cell_score,
    outcome_score,
    partial_score,
    schema_score,
    score_trajectory,
    shape_score,
)
from adprep.tables import INT, TEXT, make_table

import reference_judge
from conftest import random_table
from test_acceptance import random_episode
from test_agent import ANSWER_REPLY, EXPAND_REPLY, make_task


def traj_with_turns(turns, final_table=None, tree=None):
    return Trajectory(
        task_id="t", status="answered", turns=turns, final_table=final_table, tree=tree
    )


# -- outcome -----------------------------------------------------------------

def test_outcome_ignores_table_name_and_numeric_kind():
    a = make_table("x", [("v", INT)], [(2,)])
    b = make_table("y", [("v", INT)], [(2,)])
    assert outcome_score(a, b) == 1.0
    assert outcome_score(None, b) == 0.0
    c = make_table("x", [("v", INT)], [(3,)])
    assert outcome_score(c, b) == 0.0


# -- partial components ------------------------------------------------------

def test_schema_score_jaccard():
    pred = make_table("p", [("a", INT), ("b", INT), ("c", INT)], [])
    target = make_table("t", [("b", INT), ("c", INT), ("d", INT)], [])
    assert schema_score(pred, target) == pytest.approx(0.5)  # 2 shared of 4


def test_shape_score_exponential():
    target = make_table("t", [("a", INT)], [(1,), (2,)])
    pred3 = make_table("p", [("a", INT)], [(1,), (2,), (3,)])
    assert shape_score(pred3, target) == pytest.approx(0.6065306597126334, abs=1e-6)
    assert shape_score(target, target) == 1.0
    empty = make_table("e", [("a", INT)], [])
    assert shape_score(empty, empty) == 1.0
    assert shape_score(pred3, empty) == 0.0


def test_cell_score_positional():
    target = make_table("t", [("a", INT), ("b", INT)], [(1, 10), (2, 20), (3, 30)])
    pred = make_table("p", [("a", INT), ("c", INT)], [(1, 0), (99, 0)])
    # shared column a: row 0 matches, row 1 differs; denominator 1 col * 3 rows
    assert cell_score(pred, target) == pytest.approx(1 / 3)
    none_shared = make_table("p2", [("z", INT)], [(1,)])
    assert cell_score(none_shared, target) == 0.0


def test_partial_score_closed_form():
    target = make_table("t", [("b", INT), ("c", INT), ("d", INT)], [(1, 2, 3), (4, 5, 6)])
    # stored out of order on purpose: the junk row comes first, yet after the
    # canonical sort the shared (b, c) projections pair up as
    #   (1, 2)|(1, 2)  -> 2 hits
    #   (4, 99)|(4, 5) -> 1 hit
    # over a denominator of 2 cols * 3 rows
    pred = make_table(
        "p", [("a", INT), ("b", INT), ("c", INT)],
        [(0, 999, 999), (0, 1, 2), (0, 4, 99)],
    )
    expected = (0.5 + math.exp(-0.5) + 0.5) / 3.0  # schema 2/4; shape exp(-1/2)
    assert partial_score(pred, target) == pytest.approx(expected, abs=1e-6)
    assert partial_score(pred, target) == pytest.approx(0.5355102199042111, abs=1e-6)
    assert partial_score(None, target) == 0.0
    assert partial_score(target, target) == 1.0


def test_cell_score_ignores_row_order():
    target = make_table("t", [("a", INT), ("b", INT)], [(1, 10), (2, 20), (3, 30)])
    pred = make_table("p", [("a", INT), ("b", INT)], [(3, 30), (1, 10), (2, 99)])
    shuffled = make_table("p", [("b", INT), ("a", INT)], [(99, 2), (30, 3), (10, 1)])
    assert cell_score(pred, target) == pytest.approx(5 / 6)
    assert cell_score(shuffled, target) == cell_score(pred, target)


def test_renamed_columns_do_not_buy_cell_credit():
    # matching the target's column names lifts schema overlap to 1 but the
    # cell component still compares values, so a relabeled wrong table
    # cannot collect full partial credit
    target = make_table("t", [("x", INT), ("y", INT)], [(1, 2), (3, 4)])
    relabeled = make_table("p", [("x", INT), ("y", INT)], [(7, 8), (9, 10)])
    assert schema_score(relabeled, target) == 1.0
    assert cell_score(relabeled, target) == 0.0
    assert outcome_score(relabeled, target) == 0.0
    assert partial_score(relabeled, target) == pytest.approx((1.0 + 1.0 + 0.0) / 3)


def test_partial_score_random_bounds():
    rng = random.Random(77)
    for _ in range(80):
        pred = random_table(rng, name="p")
        target = random_table(rng, name="t")
        p = partial_score(pred, target)
        assert 0.0 <= p <= 1.0
        if outcome_score(pred, target) == 1.0:
            assert p == 1.0


# -- rule judge --------------------------------------------------------------

def expand_turn(index, plan, op_texts, leaf_path=None, parent_path="root",
                failure_op_kind=None, failure_detail=None):
    return TurnRecord(
        index=index, reply="", action="expand", plan=plan, parent_path=parent_path,
        op_texts=op_texts, leaf_path=leaf_path or parent_path,
        failure_op_kind=failure_op_kind, failure_detail=failure_detail,
    )


def answer_turn(index, plan):
    return TurnRecord(index=index, reply="", action="answer", plan=plan)


def test_consistency_counts_named_references():
    good = expand_turn(0, "dedupe the movies table", ['Deduplicate("movies", [], "first")'])
    bad = expand_turn(1, "now do the thing", ['Count("directors")'])
    scores = RuleJudge().score(traj_with_turns([good, bad]))
    assert scores.consistency == pytest.approx(0.5)
    assert RuleJudge().score(traj_with_turns([answer_turn(0, "done")])).consistency == 1.0


def test_consistency_needs_every_name():
    turn = expand_turn(
        0, "join movies with directors on director_id",
        ['Join("movies", "directors", ["director_id"], "inner")'],
    )
    assert RuleJudge().score(traj_with_turns([turn])).consistency == 1.0
    partial = expand_turn(
        1, "join movies with the other table",
        ['Join("movies", "directors", ["director_id"], "inner")'],
    )
    assert RuleJudge().score(traj_with_turns([partial])).consistency == 0.0


def test_responsiveness_looks_at_next_plan():
    failed = expand_turn(
        0, "join them", ['Join("movies", "directors", ["key"], "inner")'],
        failure_op_kind="Join", failure_detail="no column key in movies",
    )
    reacts = answer_turn(1, "the Join key was wrong; answering from the dedupe node")
    ignores = answer_turn(1, "whatever, answering now")
    assert RuleJudge().score(traj_with_turns([failed, reacts])).responsiveness == 1.0
    assert RuleJudge().score(traj_with_turns([failed, ignores])).responsiveness == 0.0
    # detail token ("column") counts too
    by_detail = answer_turn(1, "that column is missing, pick another node")
    assert RuleJudge().score(traj_with_turns([failed, by_detail])).responsiveness == 1.0
    # a failure on the last turn has nothing to respond to
    assert RuleJudge().score(traj_with_turns([failed])).responsiveness == 1.0


def test_backtracking_via_real_episodes():
    # unjustified: first expand succeeds, second one starts over from root
    expand_ok = '<plan>count movies</plan><expand>parent: root\nCount("movies")</expand>'
    restart = '<plan>count directors</plan><expand>parent: root\nCount("directors")</expand>'
    answer = '<plan>done</plan><answer>root\ntarget: movies</answer>'
    traj = run_episode(make_task(), ScriptedPolicy([expand_ok, restart, answer]))
    assert RuleJudge().score(traj).backtracking == 0.0

    # justified: the abandoned branch recorded a failure
    expand_fail = (
        '<plan>count a ghost table</plan>'
        '<expand>parent: root\nCount("movies")\nCount("ghost")</expand>'
    )
    traj2 = run_episode(make_task(), ScriptedPolicy([expand_fail, restart, answer]))
    assert RuleJudge().score(traj2).backtracking == 1.0

    # never switching
    chained = (
        '<plan>keep going from the count</plan>'
        '<expand>parent: Count("movies")\nSubtitle("movies", "note", "tag")</expand>'
    )
    traj3 = run_episode(make_task(), ScriptedPolicy([expand_ok, chained, answer]))
    assert RuleJudge().score(traj3).backtracking == 1.0


def _reloaded(traj, tmp_path):
    path = tmp_path / f"{traj.task_id}.jsonl"
    write_trajectory_log(path, traj)
    return load_trajectory_log(path)


def test_backtracking_matches_the_tree_oracle_on_random_episodes(tmp_path):
    seen = set()
    for seed in range(200):
        traj = random_episode(seed)
        want = reference_judge.backtracking(traj)
        assert RuleJudge().score(traj).backtracking == want, seed
        assert RuleJudge().score(_reloaded(traj, tmp_path)).backtracking == want, seed
        seen.add(want)
    # the explorer branches from random nodes and runs failing ops, so its
    # episodes hold justified and unjustified switches, alone and mixed
    assert {0.0, 1.0} < seen


def test_backtracking_reads_an_arrow_in_a_literal_as_part_of_a_call(tmp_path):
    # the " -> " in A's string literal is no edge. A's subtree holds the
    # failure logged at its child B = A -> Count("movies"); its other child
    # E = A -> TopK("movies", 1) and the root's child C hold none
    a = 'Subtitle("movies", "note", " -> ")'
    c = 'Subtitle("movies", "note", " ")'
    replies = [
        f"<plan>note movies</plan><expand>parent: root\n{a}</expand>",
        f'<plan>count ghost</plan><expand>parent: {a}\nCount("movies")\nCount("ghost")</expand>',
        f"<plan>note again</plan><expand>parent: root\n{c}</expand>",  # away from B: justified
        f'<plan>top movies</plan><expand>parent: {a}\nTopK("movies", 1)</expand>',  # away from C
        f"<plan>back to a</plan><expand>parent: root\n{a}</expand>",  # away from E
        '<plan>directors</plan><expand>parent: root\nCount("directors")</expand>',  # away from A
    ]
    traj = run_episode(make_task(), ScriptedPolicy(replies), max_turns=6)
    leaves = [t.leaf_path for t in traj.turns]
    assert leaves[:2] == [a, f'{a} -> Count("movies")']
    assert leaves[3:5] == [f'{a} -> TopK("movies", 1)', a]
    assert [t.failure_op_kind for t in traj.turns] == [None, "Count", None, None, None, None]
    assert reference_judge.backtracking(traj) == 2 / 4
    assert RuleJudge().score(traj).backtracking == 2 / 4
    assert RuleJudge().score(_reloaded(traj, tmp_path)).backtracking == 2 / 4


def test_judge_scores_mean():
    s = JudgeScores(1.0, 0.5, 0.0)
    assert s.mean == pytest.approx(0.5)


# -- combined ----------------------------------------------------------------

def test_score_trajectory_blends_weights():
    task = make_task()
    traj = run_episode(task, ScriptedPolicy([EXPAND_REPLY, ANSWER_REPLY]))
    target = traj.final_table  # score against exactly what it produced
    breakdown = score_trajectory(traj, target)
    assert breakdown.outcome == 1.0
    assert breakdown.partial == 1.0
    judge = RuleJudge().score(traj)
    expected = 1.0 * 1.0 + 0.5 * 1.0 + 0.2 * judge.mean
    assert breakdown.total == pytest.approx(expected)
    assert breakdown.judge == judge
    data = breakdown.to_json()
    assert data["total"] == pytest.approx(expected)


def test_score_trajectory_zero_table():
    traj = traj_with_turns([], final_table=None)
    target = make_table("t", [("a", INT)], [(1,)])
    breakdown = score_trajectory(traj, target)
    assert breakdown.outcome == 0.0
    assert breakdown.partial == 0.0
    assert breakdown.schema_sim == 0.0
    # vacuous judge criteria all read 1.0
    assert breakdown.process == 1.0
    assert breakdown.total == pytest.approx(0.2)

