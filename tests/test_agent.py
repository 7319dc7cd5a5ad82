"""Episode loop tests: reply parsing, turn accounting, policies."""

import gc
import json
import random
import threading
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from adprep.agent import (
    HttpChatPolicy,
    IdentityPolicy,
    PolicyError,
    ProtocolViolation,
    ScriptedPolicy,
    Task,
    build_system_preamble,
    parse_reply,
    run_episode,
    split_chain,
)
from adprep.harness import load_trajectory_log, write_trajectory_log
from adprep.operators import make_operator, serialize_operator_call
from adprep.tables import INT, TEXT, ColumnSpec, Schema, make_table, tables_equal
from conftest import SPLITLINES_ONLY_BREAKS


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
    chain = 'Filter("t", col("a") > 1) -> RenameColumn("t", {"x -> y": "z"})'
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
        "<answer>", "</answer>", "stray text", "",
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
        assert leaf.parent.parent is traj.tree.root
        root = weakref.ref(traj.tree.root)
        del traj, leaf
        assert root() is None
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


def test_task_target_name_overrides_schema_match():
    base = make_task()
    task = Task(
        "named",
        base.sources,
        Schema("movies", (ColumnSpec("director_id", INT), ColumnSpec("name", TEXT))),
        target_name="directors",
    )
    traj = run_episode(task, ScriptedPolicy(["<plan>directors holds it</plan><answer>root</answer>"]))
    assert traj.status == "answered"
    assert traj.final_table.name == "directors"


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


def test_identity_policy_picks_best_overlap():
    task = make_task()
    # target columns are id/title/name; movies shares 2 of 4 union, directors 1 of 4
    traj = run_episode(task, IdentityPolicy())
    assert traj.status == "answered"
    assert traj.final_table.name == "movies"
    assert traj.answer_path == "root"


def test_trajectory_json_round_trip(tmp_path):
    # a live episode comes back from its log field for field, minus the tree
    task = make_task()
    traj = run_episode(task, ScriptedPolicy([EXPAND_REPLY, ANSWER_REPLY]))
    write_trajectory_log(tmp_path / "one.jsonl", traj)
    back = load_trajectory_log(tmp_path / "one.jsonl")
    assert back.status == traj.status
    assert back.task_id == traj.task_id
    assert back.answer_path == traj.answer_path
    assert len(back.turns) == len(traj.turns)
    assert back.turns[0].op_texts == traj.turns[0].op_texts
    assert back.turns == traj.turns
    assert tables_equal(back.final_table, traj.final_table)
    for name in ("answer_plan", "wall_time", "protocol_error_count", "usage", "error"):
        assert getattr(back, name) == getattr(traj, name)
    assert traj.tree is not None and back.tree is None


def test_system_preamble_mentions_operators():
    text = build_system_preamble()
    for kind in ("Deduplicate", "Join", "Pivot", "ExeCode"):
        assert kind in text
    assert "<expand>" in text and "<answer>" in text


# -- http policy -------------------------------------------------------------

class _ChatHandler(BaseHTTPRequestHandler):
    responses = []
    requests = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        _ChatHandler.requests.append(json.loads(self.rfile.read(length)))
        status, body = _ChatHandler.responses.pop(0)
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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
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


def test_http_chat_policy_bad_body(chat_server):
    endpoint, handler = chat_server
    handler.responses = [(200, {"no_content": True})]
    policy = HttpChatPolicy(endpoint, "m")
    with pytest.raises(PolicyError):
        policy.complete([{"role": "user", "content": "x"}])
    handler.responses = [(200, b"[" * 100_000)]
    with pytest.raises(PolicyError, match="chat endpoint failed"):
        policy.complete([{"role": "user", "content": "x"}])