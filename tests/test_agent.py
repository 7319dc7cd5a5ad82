"""Episode loop tests: reply parsing, turn accounting, policies."""

import dataclasses
import gc
import json
import math
import random
import re
import socket
import struct
import threading
import time
import weakref
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from adprep import agent, cli
from adprep.agent import (
    MAX_TURNS,
    SAMPLE_ROWS,
    HttpChatPolicy,
    IdentityPolicy,
    PolicyError,
    ProtocolViolation,
    ScriptedPolicy,
    Task,
    Trajectory,
    build_system_preamble,
    parse_reply,
    render_schema,
    run_episode,
    split_chain,
)
from adprep.expr import FUNCTIONS
from adprep.harness import load_trajectory_log, write_trajectory_log
from adprep.operators import AGG_FNS, make_operator, serialize_operator_call
from adprep.tables import BOOL, INT, TEXT, ColumnSpec, Schema, make_table, serialize_table, tables_equal
from adprep.tree import ReasoningTree
from conftest import SPLITLINES_ONLY_BREAKS, random_table
from reference_lexers import split_chain as reference_split_chain
from reference_markdown import serialize_table as fresh_render


def make_task(target_name="movies_directors_join"):
    movies = make_table(
        "movies",
        [("id", INT), ("title", TEXT), ("director_id", INT)],
        [
            (1, "Arrival", 10),
            (1, "Arrival", 10),
            (2, "Dune", 11),
            (3, "Solaris", None),
        ],
    )
    directors = make_table(
        "directors",
        [("director_id", INT), ("name", TEXT)],
        [(10, "Villeneuve", ), (11, "Herbert")],
    )
    schema = Schema(
        target_name,
        (
            ColumnSpec("id", INT),
            ColumnSpec("title", TEXT),
            ColumnSpec("name", TEXT, "director name"),
        ),
    )
    return Task("demo", {"movies": movies, "directors": directors}, schema)


EXPAND_REPLY = """<plan>dedupe movies, then join in the director names</plan>
<expand>
parent: root
Deduplicate("movies", [], "first")
Join("movies", "directors", ["director_id"], "inner")
</expand>"""

ANSWER_REPLY = """<plan>the joined table has every target column</plan>
<answer>
Deduplicate("movies", [], "first") -> Join("movies", "directors", ["director_id"], "inner")
target: movies_directors_join
</answer>"""


def category_of(reply):
    with pytest.raises(ProtocolViolation) as err:
        parse_reply(reply)
    return err.value.category


# -- reply parsing -----------------------------------------------------------

def test_parse_expand_reply():
    parsed = parse_reply(EXPAND_REPLY)
    assert parsed.decision == "expand"
    assert parsed.plan.startswith("dedupe movies")
    assert parsed.parent == ()
    assert [op.kind for op in parsed.ops] == ["Deduplicate", "Join"]


def test_parse_answer_reply_chain_and_table():
    parsed = parse_reply(ANSWER_REPLY)
    assert parsed.decision == "answer"
    assert parsed.answer_target == "movies_directors_join"
    assert [op.kind for op in parsed.answer_chain] == ["Deduplicate", "Join"]


def test_parse_answer_one_op_per_line():
    reply = (
        "<plan>two steps</plan><answer>\n"
        'Deduplicate("movies", [], "first")\n'
        'Join("movies", "directors", ["director_id"], "inner")\n'
        "</answer>"
    )
    parsed = parse_reply(reply)
    assert len(parsed.answer_chain) == 2
    assert parsed.answer_target is None


def test_parse_answer_root():
    parsed = parse_reply("<plan>ship a source directly</plan><answer>root\ntarget: movies</answer>")
    assert parsed.answer_chain == ()
    assert parsed.answer_target == "movies"


def test_protocol_violation_categories():
    assert category_of("<answer>root</answer>") == "missing_plan"
    assert category_of("<plan>a</plan><plan>b</plan><answer>root</answer>") == "multiple_plans"
    assert category_of("<plan>thinking out loud</plan>") == "missing_decision"
    assert (
        category_of("<plan>p</plan><answer>root</answer><expand>parent: root\nCount(\"t\")</expand>")
        == "multiple_decisions"
    )
    assert category_of("<plan>p</plan><expand>Count(\"t\")</expand>") == "bad_parent"
    assert category_of("<plan>p</plan><expand>parent: not an op!!\nCount(\"t\")</expand>") == "bad_parent"
    assert category_of("<plan>p</plan><expand>parent: root</expand>") == "bad_ops"
    assert category_of("<plan>p</plan><expand>parent: root\nNopeOp(1)</expand>") == "bad_ops"
    assert category_of("<plan>p</plan><answer>target: x</answer>") == "bad_answer"
    assert category_of("<plan>p</plan><answer>Garbage(((</answer>") == "bad_answer"
    assert category_of("<plan>p</plan><answer>root\ntarget:</answer>") == "bad_answer"
    assert category_of("<plan>p</plan><execute>hi</execute><answer>root</answer>") == "stray_execute"
    assert category_of("<plan>p<answer>root</answer>") == "unclosed_tag"


@pytest.mark.parametrize("ch", SPLITLINES_ONLY_BREAKS)
def test_reply_lines_break_only_at_cr_and_lf(ch):
    ops = (
        make_operator("RenameColumn", "movies", {"title": f"name{ch}x"}),
        make_operator("SelectColumn", "movies", [f"name{ch}x"]),
    )
    body = "\n".join(map(serialize_operator_call, ops))
    parsed = parse_reply(f"<plan>p{ch}q</plan><expand>\nparent: root\n{body}\n</expand>")
    assert parsed.parent == () and parsed.ops == ops
    parsed = parse_reply(f"<plan>p</plan><answer>\r\n{body}\r\ntarget: movies\r\n</answer>")
    assert parsed.answer_chain == ops and parsed.answer_target == "movies"


def test_split_chain_ignores_arrows_inside_strings_and_brackets():
    chain = 'Filter("t", "col(\\"a\\") > 1") -> RenameColumn("t", {"x -> y": "z"})'
    parts = split_chain(chain)
    assert len(parts) == 2
    assert parts[0].startswith("Filter")
    assert "x -> y" in parts[1]
    assert split_chain("root") == ["root"]


def test_parse_reply_fuzz_never_raises_unknown(rng_factory=random.Random):
    rng = rng_factory(4242)
    snippets = [
        "<plan>p</plan>", "<plan>q</plan>", "<answer>root</answer>",
        '<expand>parent: root\nCount("t")</expand>', "<execute>x</execute>",
        "<answer>", "</answer>", "stray text", "", "->",
    ]
    known = {
        "missing_plan", "multiple_plans", "missing_decision", "multiple_decisions",
        "bad_parent", "bad_ops", "bad_answer", "stray_execute", "unclosed_tag",
    }
    for _ in range(120):
        reply = "\n".join(rng.choice(snippets) for _ in range(rng.randint(1, 4)))
        try:
            parsed = parse_reply(reply)
            assert parsed.decision in ("expand", "answer")
        except ProtocolViolation as exc:
            assert exc.category in known


_FUZZ_TAGS = ("<plan>", "</plan>", "<expand>", "</expand>", "<answer>", "</answer>", "<execute>")
_FUZZ_CHARS = '<>/()[]{}",-\\\n :#x0'


def _mutate(rng, reply):
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(reply) + 1)
        j = min(len(reply), i + rng.randint(1, 4))
        kind = rng.randrange(5)
        if kind == 0:  # delete characters
            reply = reply[:i] + reply[j:]
        elif kind == 1:  # insert a character
            reply = reply[:i] + rng.choice(_FUZZ_CHARS) + reply[i:]
        elif kind == 2:  # duplicate characters
            reply = reply[:j] + reply[i:j] + reply[j:]
        elif kind == 3:  # insert a tag
            reply = reply[:i] + rng.choice(_FUZZ_TAGS) + reply[i:]
        else:  # delete a tag
            tag = rng.choice(_FUZZ_TAGS)
            k = reply.find(tag)
            if k >= 0:
                reply = reply[:k] + reply[k + len(tag):]
    return reply


def test_mutated_replies_end_in_a_documented_status():
    rng = random.Random(2024)
    task = make_task()
    seen = set()
    for _ in range(2000):
        replies = [_mutate(rng, r) for r in (EXPAND_REPLY, ANSWER_REPLY, EXPAND_REPLY, ANSWER_REPLY)]
        traj = run_episode(task, ScriptedPolicy(replies), max_turns=3)
        assert traj.status in ("answered", "turn_limit", "protocol_error", "empty_result")
        seen.add(traj.status)
    assert seen >= {"answered", "protocol_error", "empty_result"}


# -- the chain splitter: the lexer's ARROW tokens -----------------------------

ANSWER_CHAIN = ANSWER_REPLY.splitlines()[2]


def test_arrows_split_chains_with_or_without_spaces():
    want = parse_reply(ANSWER_REPLY).answer_chain
    for arrow in ("->", "  ->\t"):
        chain = ANSWER_CHAIN.replace(" -> ", arrow)
        assert split_chain(chain) == ANSWER_CHAIN.split(" -> ")
        assert parse_reply(ANSWER_REPLY.replace(ANSWER_CHAIN, chain)).answer_chain == want
        parsed = parse_reply(EXPAND_REPLY.replace("parent: root", "parent: " + chain))
        assert len(parsed.parent) == 2 and parsed.parent == want


@pytest.mark.parametrize("chain", [
    'TopK("t", [1 -> 2])',
    'TopK("t", 1) ->',
    'TopK("t", 1) -> TopK("t, 2)',
    '-> TopK("t", 1)',
])
def test_malformed_arrow_chains_are_still_violations(chain):
    assert category_of(f"<plan>p</plan><answer>{chain}</answer>") == "bad_answer"
    expand = f"<plan>p</plan><expand>parent: {chain}\nCount(\"t\")</expand>"
    assert category_of(expand) == "bad_parent"


@pytest.mark.parametrize("chain, where", [
    ('TopK("t", 1) ->', "after the last"),
    ('-> TopK("t", 1)', "before the first"),
    ('TopK("t", 1) -> -> TopK("t", 2)', "between two"),
])
def test_an_arrow_with_no_call_beside_it_is_named(chain, where):
    message = f"bad operator in chain: no call {where} '->'"
    for reply, category in [
        (f"<plan>p</plan><answer>{chain}</answer>", "bad_answer"),
        (f"<plan>p</plan><expand>parent: {chain}\nCount(\"t\")</expand>", "bad_parent"),
    ]:
        with pytest.raises(ProtocolViolation) as err:
            parse_reply(reply)
        assert (err.value.category, str(err.value)) == (category, message)


# text pieces for string literals: arrows, both quotes, backslashes, brackets
_LITERAL_PIECES = (
    "x", "a b", " -> ", "->", "-", ">", '"', "'", "\\", "\n", "(", ")", "[", "]", "{", "}", ",", ":",
)
_LITERAL_ESCAPES = {"\\": "\\\\", "\n": "\\n", '"': '\\"', "'": "\\'"}


def _string_literal(rng):
    text = "".join(rng.choice(_LITERAL_PIECES) for _ in range(rng.randint(0, 4)))
    quote = rng.choice("\"'")
    return quote + "".join(_LITERAL_ESCAPES.get(ch, ch) for ch in text) + quote


def _call_value(rng, depth=0):
    kind = rng.randrange(5 if depth < 3 else 2)
    if kind == 0:
        return _string_literal(rng)
    if kind == 1:
        return rng.choice(["0", "-2", "3.5", "-.5", "1e-3", "true", "null", "movies"])
    if kind == 2:
        return "[" + ", ".join(_call_value(rng, depth + 1) for _ in range(rng.randint(0, 3))) + "]"
    entries = [(_string_literal(rng), _call_value(rng, depth + 1)) for _ in range(rng.randint(0, 2))]
    if kind == 4:
        entries.append(('"x -> y"', _call_value(rng, depth + 1)))
    return "{" + ", ".join(f"{k}: {v}" for k, v in entries) + "}"


def test_split_chain_matches_the_loop_it_replaced():
    rng = random.Random(2606)
    for _ in range(2000):
        calls = [
            f"{rng.choice(['Filter', 'RenameColumn', 'Sort'])}("
            + ", ".join(_call_value(rng) for _ in range(rng.randint(0, 3))) + ")"
            for _ in range(rng.randint(1, 4))
        ]
        chain = " -> ".join(calls)
        assert split_chain(chain) == reference_split_chain(chain) == calls, chain


def test_parse_reply_matches_the_old_splitter_on_mutated_replies(monkeypatch):
    """Same ParsedReply or the same category, unless a chain's "->" lost a space."""
    rng = random.Random(2607)
    sources = (ANSWER_REPLY, EXPAND_REPLY.replace("parent: root", "parent: " + ANSWER_CHAIN))
    differed = 0
    for _ in range(3000):
        reply = _mutate(rng, rng.choice(sources))
        outcomes = []
        for splitter in (split_chain, reference_split_chain):
            monkeypatch.setattr("adprep.agent.split_chain", splitter)
            try:
                outcomes.append(parse_reply(reply))
            except ProtocolViolation as exc:
                outcomes.append(exc.category)
        if outcomes[0] != outcomes[1]:
            assert re.search(r"(?<! )->|->(?! )", reply), reply
            differed += 1
    assert differed  # the fuzz reaches the one new leniency


# -- episode loop ------------------------------------------------------------

def test_scripted_episode_answers():
    task = make_task()
    traj = run_episode(task, ScriptedPolicy([EXPAND_REPLY, ANSWER_REPLY]))
    assert traj.status == "answered"
    assert traj.answer_path == (
        'Deduplicate("movies", [], "first") -> '
        'Join("movies", "directors", ["director_id"], "inner")'
    )
    assert traj.answer_plan == "the joined table has every target column"
    assert traj.final_table is not None
    assert traj.final_table.name == "movies_directors_join"
    assert traj.final_table.n_rows == 2  # Solaris has no director
    assert "name" in traj.final_table.column_names
    assert len(traj.tree.nodes) == 3
    assert traj.protocol_error_count == 0
    assert traj.wall_time >= 0.0

    expand_turn = traj.turns[0]
    assert expand_turn.action == "expand"
    assert expand_turn.feedback.startswith("<execute>")
    assert "node: Deduplicate(" in expand_turn.feedback
    assert "turns remaining: 4" in expand_turn.feedback


def test_dropped_trajectory_frees_its_tree_without_the_cycle_collector():
    gc.disable()
    try:
        traj = run_episode(make_task(), ScriptedPolicy([
            "<plan>no decision</plan>",
            "<plan>poke</plan><expand>parent: root\nDropColumn(\"movies\", [\"ghost\"])</expand>",
            EXPAND_REPLY,
            ANSWER_REPLY,
        ]))
        assert traj.status == "answered"
        leaf = traj.tree.nodes[-1]
        root = weakref.ref(traj.tree.root)
        del traj
        assert root() is None  # a node kept alive does not keep its tree
        assert len(leaf.prefix) == 2
    finally:
        gc.enable()


def _call(kind, *args):
    return serialize_operator_call(make_operator(kind, *args))


def _fresh_state(state) -> str:
    blocks = [f"table {n} ({state[n].n_rows} rows):\n{fresh_render(state[n], SAMPLE_ROWS)}" for n in sorted(state)]
    return "\n\n".join(blocks) if blocks else "(no tables)"


def _rebuilt_feedback(traj, record, turns_left) -> str:
    """An expand turn's feedback from the tree's node states, each table rendered afresh."""
    nodes = {n.path_text: n for n in traj.tree.nodes}
    lines = ["reached:"] if record.created_paths else []
    for path in record.created_paths:
        lines += [f"node: {path}", _fresh_state(nodes[path].state), ""]
    if record.failure_text is not None:
        lines.append(f"failed at {record.leaf_path}: {record.failure_text}")
    lines.append(f"turns remaining: {turns_left}")
    return "<execute>\n" + "\n".join(lines).strip() + "\n</execute>"


DEDUPE = _call("Deduplicate", "movies", [], "first")
JOIN = _call("Join", "movies", "directors", ["director_id"], "inner")
MEMO_EPISODES = {
    # explore's shape: half the fix, a malformed reply, a decoy whose second
    # op fails, the whole fix again from root (reusing the first half), answer
    "explore": [
        f"<plan>half</plan><expand>\nparent: root\n{DEDUPE}\n</expand>",
        f"<expand>\nparent: root\n{DEDUPE}\n</expand>",
        "<plan>decoy</plan><expand>\nparent: root\n"
        + _call("Filter", "movies", 'not is_null(col("director_id"))')
        + '\nSort("movies", ["no_such_column"], true)\n</expand>',
        f"<plan>all</plan><expand>\nparent: root\n{DEDUPE}\n{JOIN}\n</expand>",
        ANSWER_REPLY,
    ],
    # a two-table Join, then a Select below the reused Join node
    "join": [
        f"<plan>join</plan><expand>\nparent: root\n{JOIN}\n</expand>",
        f"<plan>again</plan><expand>\nparent: root\n{JOIN}\n</expand>",
        f"<plan>narrow</plan><expand>\nparent: root\n{JOIN}\n"
        + _call("SelectColumn", "movies_directors_join", ["id", "title", "name"])
        + "\n</expand>",
        "<plan>done</plan><answer>\n" + JOIN + " -> "
        + _call("SelectColumn", "movies_directors_join", ["id", "title", "name"])
        + "\ntarget: movies_directors_join\n</answer>",
    ],
}


@pytest.mark.parametrize("episode", sorted(MEMO_EPISODES))
def test_each_table_object_renders_once_per_episode(episode, monkeypatch):
    rendered_ids = []

    def counting_render(t, sample_rows):
        rendered_ids.append(id(t))  # the tree keeps every shown table alive
        return serialize_table(t, sample_rows)

    monkeypatch.setattr("adprep.agent.serialize_table", counting_render)
    task = make_task()
    source = weakref.ref(task.sources["directors"])
    gc.disable()
    try:
        messages_seen = []

        class Recorder(ScriptedPolicy):
            def complete(self, messages):
                messages_seen[:] = messages
                return super().complete(messages)

        traj = run_episode(task, Recorder(MEMO_EPISODES[episode]))
        assert traj.status == "answered"
        assert messages_seen[1]["content"] == (
            "Build the target table from the source tables.\n\n"
            + render_schema(task.target_schema)
            + "\n\nsource tables:\n\n"
            + _fresh_state(task.sources)
        )
        turns_used = 0
        for record in traj.turns:
            if record.action == "protocol_error":
                continue
            turns_used += 1
            if record.action == "expand":
                assert record.feedback == _rebuilt_feedback(traj, record, MAX_TURNS - turns_used)
        # once per distinct table shown, and the episode showed some twice
        nodes = {n.path_text: n for n in traj.tree.nodes}
        shown = [id(t) for t in task.sources.values()] + [
            id(t) for r in traj.turns for p in r.created_paths for t in nodes[p].state.values()
        ]
        assert sorted(rendered_ids) == sorted(set(shown))
        assert len(shown) > len(rendered_ids)
        # the memo dies with the episode: nothing holds a source table after it
        del traj, task, nodes, messages_seen
        assert source() is None
    finally:
        gc.enable()


def test_protocol_errors_do_not_consume_turns():
    task = make_task()
    policy = ScriptedPolicy(["<plan>oops, no decision</plan>", EXPAND_REPLY, ANSWER_REPLY])
    traj = run_episode(task, policy, max_turns=2)
    assert traj.status == "answered"
    assert traj.protocol_error_count == 1
    assert [t.action for t in traj.turns] == ["protocol_error", "expand", "answer"]
    bad = traj.turns[0]
    assert bad.category == "missing_decision"
    assert "protocol error (missing_decision)" in bad.feedback


def test_deeply_nested_reply_is_a_protocol_error():
    # nesting this deep used to overflow the parser's recursion and escape
    # run_episode; it is now an ordinary bad_ops reply the policy can repair
    nested = "(" * 150 + 'col("id") > 1' + ")" * 150
    reply = f"<plan>filter movies</plan><expand>parent: root\nFilter('movies', '{nested}')</expand>"
    assert category_of(reply) == "bad_ops"
    traj = run_episode(make_task(), ScriptedPolicy([reply, EXPAND_REPLY, ANSWER_REPLY]))
    assert traj.status == "answered"
    assert [t.action for t in traj.turns] == ["protocol_error", "expand", "answer"]
    assert traj.turns[0].category == "bad_ops"
    assert "nests deeper" in traj.turns[0].feedback


def test_two_consecutive_protocol_errors_abort():
    task = make_task()
    traj = run_episode(task, ScriptedPolicy(["junk", "<plan>still junk</plan>", ANSWER_REPLY]))
    assert traj.status == "protocol_error"
    assert traj.protocol_error_count == 2
    assert len(traj.turns) == 2


def test_turn_limit():
    task = make_task()
    expand_only = "<plan>poke</plan><expand>parent: root\nCount(\"movies\")</expand>"
    again = "<plan>poke again</plan><expand>parent: root\nCount(\"directors\")</expand>"
    traj = run_episode(task, ScriptedPolicy([expand_only, again, ANSWER_REPLY]), max_turns=2)
    assert traj.status == "turn_limit"
    assert len([t for t in traj.turns if t.action == "expand"]) == 2


def test_failed_expand_keeps_prefix_and_reports():
    task = make_task()
    reply = """<plan>dedupe then hit a missing table</plan>
<expand>
parent: root
Deduplicate("movies", [], "first")
Count("no_such_table")
</expand>"""
    traj = run_episode(task, ScriptedPolicy([reply]), max_turns=1)
    assert traj.status == "turn_limit"
    turn = traj.turns[0]
    assert turn.failure_op_kind == "Count"
    assert "failed at" in turn.feedback
    assert len(turn.created_paths) == 1
    assert len(traj.tree.nodes) == 2


def test_every_parsed_expand_reaches_a_node_or_fails():
    """parse_reply lets through no expand without an operator, and an expand
    of one operator or more puts every node it reaches, new or reused, in
    its chain, or records its failure: the feedback always has one of them
    to report."""
    with pytest.raises(ProtocolViolation, match="at least one operator line"):
        parse_reply("<plan>p</plan><expand>parent: root\n</expand>")
    rng = random.Random(4417)
    seen = Counter()
    for _ in range(60):
        t = random_table(rng, name="t", dtypes=(INT, TEXT), min_cols=1)
        tree = ReasoningTree({"t": t})
        name = rng.choice(t.column_names)
        candidates = [
            'Deduplicate("t", [], "first")',
            'DropNA("t", [], "any")',
            f'Sort("t", ["{name}"], true)',
            f'TopK("t", {rng.randint(0, 3)})',
            'DropColumn("t", ["no such column"])',
            'Count("no_such_table")',
        ]
        for _ in range(rng.randint(1, 8)):
            parent = rng.choice(tree.nodes)
            ops = [rng.choice(candidates) for _ in range(rng.randint(1, 3))]
            if parent.children and rng.random() < 0.6:  # re-send an existing edge first
                ops[0] = rng.choice(parent.children).op.text
            reply = f"<plan>p</plan><expand>parent: {parent.path_text}\n" + "\n".join(ops) + "</expand>"
            parsed = parse_reply(reply)
            before = set(map(id, tree.nodes))
            result = tree.expand(tree.resolve(parsed.parent), parsed.ops)
            assert result.chain or result.failure is not None, reply
            seen["reused"] += any(id(node) in before for node in result.chain)
            seen["only reused"] += bool(result.chain) and set(map(id, result.chain)) <= before
            seen["failed first"] += not result.chain
    assert min(seen["reused"], seen["only reused"], seen["failed first"]) >= 20, seen


def test_answer_with_unknown_chain_is_retryable():
    task = make_task()
    bad_answer = '<plan>wrong node</plan><answer>Count("movies")</answer>'
    traj = run_episode(task, ScriptedPolicy([bad_answer, ANSWER_REPLY.replace(
        'Deduplicate("movies", [], "first") -> Join("movies", "directors", ["director_id"], "inner")\n',
        "root\n").replace("target: movies_directors_join", "target: movies")]))
    assert traj.status == "answered"
    assert traj.turns[0].category == "bad_answer"
    assert traj.final_table.name == "movies"


def test_empty_result_when_table_ambiguous():
    task = make_task(target_name="goal")
    traj = run_episode(task, ScriptedPolicy(["<plan>give up early</plan><answer>root</answer>"]))
    assert traj.status == "empty_result"
    assert traj.final_table is None


def test_answer_extraction_precedence():
    task = make_task()  # target name matches the join output
    # explicit table line beats the target-name match
    reply = """<plan>explicitly pick directors</plan>
<expand>
parent: root
Join("movies", "directors", ["director_id"], "inner")
</expand>"""
    answer = (
        '<plan>take the raw movies table instead</plan>'
        '<answer>\nJoin("movies", "directors", ["director_id"], "inner")\ntarget: ratings_x\n</answer>'
    )
    traj = run_episode(task, ScriptedPolicy([reply, answer]))
    # ratings_x does not exist in that node: extraction returns nothing
    assert traj.status == "empty_result"

    # no table line: the node holds the target-named table, so it wins
    answer2 = (
        '<plan>target-named table present</plan>'
        '<answer>Join("movies", "directors", ["director_id"], "inner")</answer>'
    )
    traj2 = run_episode(task, ScriptedPolicy([reply, answer2]))
    assert traj2.status == "answered"
    assert traj2.final_table.name == "movies_directors_join"


def test_singleton_fallback():
    t = make_table("only", [("a", INT)], [(1,)])
    task = Task("solo", {"only": t}, Schema("other_name", (ColumnSpec("a", INT),)))
    traj = run_episode(task, ScriptedPolicy(["<plan>one table, done</plan><answer>root</answer>"]))
    assert traj.status == "answered"
    assert tables_equal(traj.final_table, t)


def test_answered_zero_row_table_is_empty_result():
    t = make_table("leftovers", [("a", INT)], [])
    task = Task("none", {"leftovers": t}, Schema("leftovers", (ColumnSpec("a", INT),)))
    traj = run_episode(task, ScriptedPolicy(["<plan>nothing survived</plan><answer>root</answer>"]))
    assert traj.status == "empty_result"
    assert traj.final_table is not None
    assert traj.final_table.n_rows == 0


def test_transport_failure_aborts_as_protocol_error():
    class Boom:
        def complete(self, messages):
            raise RuntimeError("socket fell over")

    traj = run_episode(make_task(), Boom())
    assert traj.status == "protocol_error"
    assert "socket fell over" in traj.error
    assert traj.turns == []


def test_scripted_policy_exhaustion_aborts_episode():
    task = make_task()
    traj = run_episode(task, ScriptedPolicy([EXPAND_REPLY]))
    assert traj.status == "protocol_error"
    assert "script exhausted" in traj.error
    # the expand before exhaustion is still recorded
    assert traj.turns[0].action == "expand"


class MeteredPolicy(ScriptedPolicy):
    """A scripted policy that counts tokens in `usage_total` as an HTTP
    policy does: each reply adds its length to "completion_tokens" and one
    "prompt_tokens"; replies past the script raise like a dropped socket."""

    def __init__(self, replies):
        super().__init__(replies)
        self.usage_total = {}

    def complete(self, messages):
        if self._cursor >= len(self.replies):
            raise OSError("connection reset")
        reply = super().complete(messages)
        for k, v in (("prompt_tokens", 1), ("completion_tokens", len(reply))):
            self.usage_total[k] = self.usage_total.get(k, 0) + v
        return reply


def test_usage_records_only_this_episodes_tokens():
    answer_root = "<plan>movies will do</plan><answer>root\ntarget: movies</answer>"
    policy = MeteredPolicy([answer_root, EXPAND_REPLY, ANSWER_REPLY])
    first = run_episode(make_task(), policy)
    assert first.usage == {"prompt_tokens": 1, "completion_tokens": len(answer_root)}
    policy.usage_total["cached_tokens"] = 4  # a key the first episode never saw
    second = run_episode(make_task(), policy)
    assert second.status == "answered"
    assert second.usage == {
        "prompt_tokens": 2,
        "completion_tokens": len(EXPAND_REPLY) + len(ANSWER_REPLY),
        "cached_tokens": 0,
    }


def test_usage_is_none_for_a_policy_without_usage_total():
    traj = run_episode(make_task(), ScriptedPolicy([EXPAND_REPLY, ANSWER_REPLY]))
    assert traj.usage is None


def test_transport_failure_after_an_expand_keeps_the_record():
    traj = run_episode(make_task(), MeteredPolicy([EXPAND_REPLY]))
    assert traj.status == "protocol_error"
    assert traj.error == "OSError: connection reset"
    assert [t.action for t in traj.turns] == ["expand"]
    assert len(traj.turns[0].created_paths) == 2
    assert traj.usage == {"prompt_tokens": 1, "completion_tokens": len(EXPAND_REPLY)}
    assert traj.protocol_error_count == 0
    assert traj.wall_time > 0.0
    assert len(traj.tree.nodes) == 3


def test_expand_under_a_missing_parent_is_bad_parent():
    reply = '<plan>build on a node never made</plan><expand>parent: Count("movies")\nCount("directors")</expand>'
    traj = run_episode(make_task(), ScriptedPolicy([EXPAND_REPLY, reply, ANSWER_REPLY]))
    assert traj.status == "answered"
    bad = traj.turns[1]
    assert (bad.action, bad.category) == ("protocol_error", "bad_parent")
    assert bad.failure_text == (
        'no child Count("movies") under root; children: Deduplicate("movies", [], "first")'
    )
    assert bad.feedback.startswith(f"<execute>\nprotocol error (bad_parent): {bad.failure_text}\n")
    assert bad.plan is None and bad.parent_path is None
    assert traj.protocol_error_count == 1


def test_a_date_format_strftime_cannot_write_fails_the_operator():
    # a lone surrogate in the format has no text form for strftime
    task = make_task()
    task.sources["movies"] = make_table(
        "movies", [("id", INT), ("released", TEXT)], [(1, "2016-11-11")]
    )
    reply = (
        "<plan>write the release dates</plan><expand>parent: root\n"
        'StandardizeDatetime("movies", "released", "%Y\udc80")</expand>'
    )
    traj = run_episode(task, ScriptedPolicy([reply]), max_turns=1)
    assert traj.status == "turn_limit"
    turn = traj.turns[0]
    assert turn.action == "expand"
    assert turn.failure_op_kind == "StandardizeDatetime"
    assert turn.failure_detail == "%Y\udc80"
    assert turn.created_paths == []


def test_a_float_overflow_fails_the_operator():
    # an int literal past a float's range meets float math
    call = f'AddNewColumn("movies", "d", "to_real({"9" * 400})")'
    reply = f"<plan>add d to movies</plan><expand>parent: root\n{call}</expand>"
    traj = run_episode(make_task(), ScriptedPolicy([reply]), max_turns=1)
    assert traj.status == "turn_limit"
    turn = traj.turns[0]
    assert (turn.action, turn.failure_op_kind) == ("expand", "AddNewColumn")
    assert turn.failure_text.endswith("failed: int too large to convert to float")
    assert turn.created_paths == []


def test_an_expand_reuses_no_child_of_another_call_text():
    # true and 1 are one value to Python's ==, but the second filter keeps
    # no row, so it must not land on the first filter's node
    t = make_table("t", [("a", INT), ("f", BOOL)], [(1, True), (2, False)])
    is_true = 'Filter("t", "col(\\"f\\") == true")'
    is_one = 'Filter("t", "col(\\"f\\") == 1")'
    replies = [
        f"<plan>filter t on f</plan><expand>parent: root\n{call}</expand>"
        for call in (is_true, is_one)
    ]
    replies.append(f"<plan>answer t filtered on f</plan><answer>\n{is_one}\ntarget: t\n</answer>")
    traj = run_episode(Task("reuse", {"t": t}, t.schema), ScriptedPolicy(replies))
    assert [turn.created_paths for turn in traj.turns] == [[is_true], [is_one], []]
    assert traj.answer_path == is_one
    assert traj.final_table.n_rows == 0
    assert traj.status == "empty_result"


def test_scripted_policy_from_non_utf8_file_is_a_policy_error(tmp_path):
    script = tmp_path / "replies.json"
    script.write_bytes(b"\xff\xfe")
    with pytest.raises(PolicyError, match="cannot load reply script"):
        ScriptedPolicy.from_file(script)


def test_scripted_policy_fresh_and_from_file(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps([EXPAND_REPLY, ANSWER_REPLY]))
    policy = ScriptedPolicy.from_file(path)
    traj = run_episode(make_task(), policy)
    assert traj.status == "answered"
    # the same policy object is spent; a new one over its replies starts over
    traj2 = run_episode(make_task(), ScriptedPolicy(policy.replies))
    assert traj2.status == "answered"
    with pytest.raises(PolicyError):
        ScriptedPolicy.from_file(tmp_path / "missing.json")
    for data in ({"replies": [EXPAND_REPLY]}, [EXPAND_REPLY, 3]):
        path.write_text(json.dumps(data))
        with pytest.raises(PolicyError, match="expected a json array of reply strings$"):
            ScriptedPolicy.from_file(path)


def test_identity_policy_picks_best_overlap():
    task = make_task()
    # target columns are id/title/name; movies shares 2 of 4 union, directors 1 of 4
    traj = run_episode(task, IdentityPolicy())
    assert traj.status == "answered"
    assert traj.final_table.name == "movies"
    assert traj.answer_path == "root"


def _identity_task(sources: dict, target_columns) -> Task:
    tables = {
        name: make_table(name, [(c, INT) for c in cols], [tuple(range(len(cols)))])
        for name, cols in sources.items()
    }
    return Task("names", tables, Schema("want", tuple(ColumnSpec(c, INT) for c in target_columns)))


def _jaccard_best(task: Task) -> str:
    """The source whose real column set best overlaps the target's; the
    first in name order on a tie, as the observation lists them."""
    want = set(task.target_schema.column_names)

    def score(name):
        have = set(task.sources[name].column_names)
        return len(want & have) / len(want | have)

    return max(sorted(task.sources), key=score)


@pytest.mark.parametrize("sources, target", [
    # a spaced table name and a "|" in a column name
    ({"my orders": ["id", "a|b"], "other": ["zzz"]}, ["id", "a|b"]),
    # spaced column names
    ({"a": ["order", "id"], "b": ["order id", "total amount"]}, ["order id", "total amount"]),
    # a backslash, alone and before "|"
    ({"o": ["y", "z"], "p": ["x\\", "y", "\\|q"]}, ["x\\", "y", "\\|q"]),
    # parentheses in column and table names, and a dtype-like word in one
    ({"a": ["qty", "other"], "sales (2023)": ["price (usd)", "qty", "n (int) m"]},
     ["price (usd)", "qty", "n (int) m"]),
])
def test_identity_policy_reads_names_whole(sources, target):
    task = _identity_task(sources, target)
    best = _jaccard_best(task)
    traj = run_episode(task, IdentityPolicy())
    assert traj.status == "answered"
    assert traj.final_table is task.sources[best]


def test_identity_policy_with_no_source_answers_the_start_state():
    traj = run_episode(_identity_task({}, ["a"]), IdentityPolicy())
    assert traj.turns[0].reply == "<plan>no sources visible; answer the start state</plan><answer>root</answer>"
    assert (traj.status, traj.answer_path, traj.final_table) == ("empty_result", "root", None)


def test_trajectory_json_round_trip(tmp_path):
    # a live episode comes back from its log field for field, minus the tree
    task = make_task()
    traj = run_episode(task, ScriptedPolicy([EXPAND_REPLY, ANSWER_REPLY]))
    write_trajectory_log(tmp_path / "one.jsonl", traj)
    back = load_trajectory_log(tmp_path / "one.jsonl")
    assert len(back.turns) == len(traj.turns)
    assert back.turns[0].op_texts == traj.turns[0].op_texts
    assert tables_equal(back.final_table, traj.final_table)
    assert traj.tree is not None and back.tree is None
    for f in dataclasses.fields(Trajectory):  # a field added later included
        if f.name not in ("final_table", "tree"):
            assert getattr(back, f.name) == getattr(traj, f.name), f.name


def test_system_preamble_mentions_operators():
    text = build_system_preamble()
    for kind in ("Deduplicate", "Join", "Pivot", "ExeCode"):
        assert kind in text
    assert "<expand>" in text and "<answer>" in text


def test_system_preamble_names_every_dsl_function_and_aggregate():
    """The preamble's function line is built from expr.FUNCTIONS and
    GroupBy's doc from AGG_FNS, so each names every one of them."""
    text = build_system_preamble()
    functions = re.search(r"\nfunctions (.*?)\.\n", text, re.S).group(1).split()
    assert sorted(functions) == sorted(FUNCTIONS)
    group_by = next(line for line in text.splitlines() if line.lstrip().startswith("GroupBy("))
    assert sorted(group_by.rsplit("-> ", 1)[1].split("|")) == sorted(AGG_FNS)


# -- http policy -------------------------------------------------------------

def _no_constant(name):
    raise ValueError(f"{name} is not a JSON token")


class _ChatHandler(BaseHTTPRequestHandler):
    responses = []
    requests = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        # strict, as a real endpoint is: NaN and Infinity are no JSON
        body = json.loads(self.rfile.read(length), parse_constant=_no_constant)
        _ChatHandler.requests.append(body)
        reply = _ChatHandler.responses.pop(0)
        if callable(reply):  # a reply that breaks the protocol writes itself
            reply(self)
            return
        status, body = reply
        payload = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    _ChatHandler.responses = []
    _ChatHandler.requests = []
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/chat", _ChatHandler
    server.shutdown()
    server.server_close()


def test_http_chat_policy(chat_server):
    endpoint, handler = chat_server
    handler.responses = [
        (200, {"content": "first", "usage": {"prompt_tokens": 5, "completion_tokens": 7}}),
        (200, {"content": "second", "usage": {"prompt_tokens": 3, "completion_tokens": 2}}),
    ]
    policy = HttpChatPolicy(endpoint, "test-model", temperature=0.25)
    messages = [{"role": "user", "content": "hello"}]
    assert policy.complete(messages) == "first"
    assert policy.complete(messages) == "second"
    assert policy.usage_total == {"prompt_tokens": 8, "completion_tokens": 9}
    sent = handler.requests[0]
    assert sent["model"] == "test-model"
    assert sent["temperature"] == 0.25
    assert sent["messages"] == messages


def test_cli_run_with_the_http_policy(chat_server, tmp_path, capsys):
    """`run --policy http` needs an endpoint and a model, and sends each
    turn to that endpoint with the --temperature given."""
    endpoint, handler = chat_server
    suite = tmp_path / "suite"
    assert cli.main(["synth", str(suite), "--tasks", "1", "--seed", "5"]) == 0
    run = ["run", str(suite), "--policy", "http", "--json", "--model", "m"]
    capsys.readouterr()
    assert cli.main(run) == 2
    assert capsys.readouterr().err == "--policy http needs --endpoint and --model\n"
    reply = "<plan>hand over the source orders as it is</plan><answer>root</answer>"
    handler.responses = [(200, {"content": reply})]
    assert cli.main(run + ["--endpoint", endpoint, "--temperature", "0.3"]) == 0
    assert [r["status"] for r in json.loads(capsys.readouterr().out)["rows"]] == ["answered"]
    assert [(r["model"], r["temperature"]) for r in handler.requests] == [("m", 0.3)]


@pytest.mark.parametrize("temperature", [math.nan, math.inf, -math.inf])
def test_http_chat_policy_refuses_a_non_finite_temperature(chat_server, temperature):
    endpoint, handler = chat_server
    with pytest.raises(ValueError, match="^temperature must be finite"):
        HttpChatPolicy(endpoint, "m", temperature=temperature)
    policy = HttpChatPolicy(endpoint, "m")
    policy.temperature = temperature  # past the constructor's check
    with pytest.raises(ValueError, match="JSON compliant"):
        policy.complete([{"role": "user", "content": "x"}])
    assert handler.requests == []  # nothing was sent


def test_http_chat_policy_bad_body(chat_server):
    endpoint, handler = chat_server
    handler.responses = [(200, {"no_content": True})]
    policy = HttpChatPolicy(endpoint, "m")
    with pytest.raises(PolicyError):
        policy.complete([{"role": "user", "content": "x"}])
    handler.responses = [(200, b"[" * 100_000)]
    with pytest.raises(PolicyError, match="chat endpoint failed"):
        policy.complete([{"role": "user", "content": "x"}])


def _cut_off(reset: bool):
    """A reply whose headers promise 100 bytes and whose connection ends after
    10: closed, or with `reset` a TCP reset (SO_LINGER of 0)."""

    def reply(handler):
        handler.send_response(200)
        handler.send_header("Content-Length", "100")
        handler.end_headers()
        handler.wfile.write(b'{"content"')
        if reset:
            linger = struct.pack("ii", 1, 0)
            handler.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, linger)
            handler.connection.close()
        handler.close_connection = True

    return reply


HTTP_FAULTS = {
    "list-body": (200, ["content", "x"]),
    "string-body": (200, "content"),
    "non-utf8-body": (200, b'{"content": "\xff"}'),
    "short-body": _cut_off(reset=False),
    "reset-connection": _cut_off(reset=True),
}


@pytest.mark.parametrize("fault", list(HTTP_FAULTS))
def test_http_chat_policy_fault_raises_policy_error(chat_server, fault):
    endpoint, handler = chat_server
    handler.responses = [HTTP_FAULTS[fault]]
    policy = HttpChatPolicy(endpoint, "m", timeout=10.0)
    with pytest.raises(PolicyError, match="chat endpoint"):
        policy.complete([{"role": "user", "content": "x"}])
    assert len(handler.requests) == 1
    assert policy.usage_total == {}


def test_http_chat_policy_counts_only_integer_usage(chat_server):
    endpoint, handler = chat_server
    handler.responses = [
        (200, {"content": "a", "usage": {"prompt_tokens": True, "completion_tokens": 2}}),
        (200, {"content": "b", "usage": {"prompt_tokens": 3, "completion_tokens": 1.5}}),
    ]
    policy = HttpChatPolicy(endpoint, "m")
    assert policy.complete([{"role": "user", "content": "x"}]) == "a"
    assert policy.complete([{"role": "user", "content": "x"}]) == "b"
    assert policy.usage_total == {"prompt_tokens": 3, "completion_tokens": 2}


def test_http_chat_policy_caps_the_reply(chat_server, monkeypatch):
    endpoint, handler = chat_server
    monkeypatch.setattr(agent, "MAX_REPLY_BYTES", 64)
    at_cap = {"content": "x" * 49}
    assert len(json.dumps(at_cap)) == 64
    handler.responses = [(200, at_cap), (200, {"content": "x" * 50})]
    policy = HttpChatPolicy(endpoint, "m", timeout=10.0)
    assert policy.complete([{"role": "user", "content": "x"}]) == "x" * 49
    with pytest.raises(PolicyError, match="^chat endpoint reply is longer than 64 bytes$"):
        policy.complete([{"role": "user", "content": "x"}])


def _slow_reply(handler):
    """No reply until well past the policy's 0.2 s timeout."""
    time.sleep(0.4)
    handler.close_connection = True


EPISODE_FAULTS = {
    **HTTP_FAULTS,
    "http-500": (500, {"content": "ignored"}),
    "oversized-body": (200, {"content": "x" * 64}),
    "slow-reply": _slow_reply,
}


@pytest.mark.parametrize("fault", list(EPISODE_FAULTS))
def test_http_chat_fault_ends_the_episode_as_a_protocol_error(chat_server, monkeypatch, fault):
    endpoint, handler = chat_server
    monkeypatch.setattr(agent, "MAX_REPLY_BYTES", 64)  # every other fault's body is shorter
    handler.responses = [EPISODE_FAULTS[fault]]
    traj = run_episode(make_task(), HttpChatPolicy(endpoint, "m", timeout=0.2))
    assert traj.status == "protocol_error"
    assert traj.turns == []
    assert traj.error.startswith("PolicyError: chat endpoint"), traj.error


def test_http_chat_policy_error_status(chat_server):
    endpoint, handler = chat_server
    handler.responses = [(500, {"content": "ignored"})]
    policy = HttpChatPolicy(endpoint, "m")
    with pytest.raises(PolicyError, match="chat endpoint failed: HTTP Error 500"):
        policy.complete([{"role": "user", "content": "x"}])
    assert len(handler.requests) == 1


def test_http_chat_policy_unreachable_endpoint(chat_server):
    _, handler = chat_server
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # bound, then closed: nothing listens on the port
    policy = HttpChatPolicy(f"http://127.0.0.1:{port}/chat", "m", timeout=10.0)
    with pytest.raises(PolicyError, match="chat endpoint failed"):
        policy.complete([{"role": "user", "content": "x"}])
    assert handler.requests == []
