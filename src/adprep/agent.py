"""Episode loop and policy adapters for tree-search table preparation.

The environment and a policy exchange chat messages. Each policy reply must
carry exactly one <plan> tag plus exactly one decision tag:

    <plan>join movies to directors, then dedupe</plan>
    <expand>
    parent: root
    Deduplicate("movies", ["id"], "first")
    Join("movies", "directors", ["director_id"], "inner")
    </expand>

or, to finish,

    <plan>the joined table answers the task</plan>
    <answer>
    Deduplicate("movies", ["id"], "first") -> Join("movies", "directors", ["director_id"], "inner")
    target: movies_directors_join
    </answer>

The expand parent line and the answer chain name a tree node by the
operator calls leading to it ("root" for the start state). The optional
"target:" line picks the answer table out of that node's state; without it
the environment falls back to the target table's name, then to a singleton
state. <execute> tags are written by the environment when it reports
execution results, and only by the environment: a reply containing one is a
protocol violation.

Malformed replies do not consume turns; the environment explains the
problem and lets the policy retry, aborting after two bad replies in a row.
An answer that names no usable table, or one with zero rows, ends the
episode as empty_result rather than answered.
"""

from __future__ import annotations

import functools
import json
import math
import re
import textwrap
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import expr
from .operators import (
    OperatorInstance,
    OpParseError,
    ScriptBackend,
    TableSet,
    parse_operator_call,
    registry_help,
    serialize_operator_call,
    split_lines,
)
from .tables import DTYPES, Schema, Table, markdown_row_cells, serialize_table
from .tree import ReasoningTree, TreeError, TreeNode

MAX_TURNS = 5
MAX_CONSECUTIVE_PROTOCOL_ERRORS = 2
SAMPLE_ROWS = 5  # rows of each table an observation shows
MAX_REPLY_BYTES = 8 * 1024 * 1024  # the most HttpChatPolicy reads of one reply

STATUS_ANSWERED = "answered"
STATUS_TURN_LIMIT = "turn_limit"
STATUS_PROTOCOL_ERROR = "protocol_error"
STATUS_EMPTY_RESULT = "empty_result"
EPISODE_STATUSES = (STATUS_ANSWERED, STATUS_TURN_LIMIT, STATUS_PROTOCOL_ERROR, STATUS_EMPTY_RESULT)


class PolicyError(Exception):
    """A policy adapter could not produce a reply."""


class ProtocolViolation(Exception):
    """Reply text that breaks the action protocol."""

    def __init__(self, category: str, message: str):
        self.category = category
        super().__init__(message)


@dataclass(frozen=True)
class Task:
    """One episode's input: named source tables and the schema to build.

    When the policy's <answer> has no "target:" line, the state table named
    like the target schema counts as the answer.
    """

    task_id: str
    sources: TableSet
    target_schema: Schema


@dataclass
class ParsedReply:
    plan: str
    decision: str  # "expand" | "answer"
    parent: tuple[OperatorInstance, ...] | None = None  # expand only
    ops: tuple[OperatorInstance, ...] = ()  # expand only
    answer_chain: tuple[OperatorInstance, ...] | None = None  # answer only
    answer_target: str | None = None


@dataclass
class TurnRecord:
    """One model reply and what the environment did with it: a "turn" record
    of the episode's JSONL log, each field's annotation its JSON type there."""

    index: int
    reply: str
    action: str  # "expand" | "answer" | "protocol_error"
    plan: str | None = None
    category: str | None = None  # protocol violation category
    parent_path: str | None = None
    op_texts: list[str] = field(default_factory=list)
    created_paths: list[str] = field(default_factory=list)
    leaf_path: str | None = None
    failure_text: str | None = None
    failure_op_kind: str | None = None
    failure_detail: str | None = None
    feedback: str | None = None


@dataclass
class Trajectory:
    """Everything one episode produced.

    These fields are the episode's JSONL log (harness.write_trajectory_log):
    `task_id` heads it, each turn is a record of its own, `tree` is not
    logged (a trajectory loaded from a log has none), and every other field
    is a key of the result record, its annotation its JSON type there.
    """

    task_id: str
    status: str
    turns: list[TurnRecord]
    answer_path: str | None = None
    answer_plan: str | None = None
    final_table: Table | None = None
    wall_time: float = 0.0
    protocol_error_count: int = 0
    usage: dict[str, int] | None = None
    error: str | None = None  # transport failures
    tree: ReasoningTree | None = field(default=None, repr=False)

    @property
    def answered(self) -> bool:
        return self.status == STATUS_ANSWERED


# ---------------------------------------------------------------------------
# reply parsing
# ---------------------------------------------------------------------------

def _extract_tag(reply: str, tag: str) -> list[str]:
    opens = reply.count(f"<{tag}>")
    closes = reply.count(f"</{tag}>")
    if opens != closes:
        raise ProtocolViolation("unclosed_tag", f"<{tag}> is opened {opens}x but closed {closes}x")
    return re.findall(rf"<{tag}>(.*?)</{tag}>", reply, flags=re.DOTALL)


def split_chain(text: str) -> list[str]:
    """Split an operator chain at the call lexer's ARROW tokens. Text the
    lexer rejects stays one part, whose parse reports the lexer's error."""
    try:
        arrows = [pos for kind, _, pos in expr.tokenize(text, call=True) if kind == "ARROW"]
    except expr.ExprParseError:
        return [text.strip()]
    starts, ends = [0, *(pos + 2 for pos in arrows)], [*arrows, len(text)]
    return [text[a:b].strip() for a, b in zip(starts, ends)]


def _parse_calls(texts, category: str, where: str) -> tuple[OperatorInstance, ...]:
    ops = []
    for text in texts:
        try:
            ops.append(parse_operator_call(text))
        except OpParseError as exc:
            raise ProtocolViolation(category, f"bad operator {where}: {exc}") from None
    return tuple(ops)


def _parse_chain(text: str, category: str) -> tuple[OperatorInstance, ...]:
    text = text.strip()
    if text == "root" or not text:
        return ()
    calls = split_chain(text)
    if "" in calls:
        i = calls.index("")
        where = "before the first" if i == 0 else "after the last" if i == len(calls) - 1 else "between two"
        raise ProtocolViolation(category, f"bad operator in chain: no call {where} '->'")
    return _parse_calls(calls, category, "in chain")


def parse_reply(reply: str) -> ParsedReply:
    """Validate a policy reply and pull out its plan and decision."""
    if "<execute" in reply:
        raise ProtocolViolation(
            "stray_execute", "<execute> is written by the environment, never by you"
        )
    plans = _extract_tag(reply, "plan")
    expands = _extract_tag(reply, "expand")
    answers = _extract_tag(reply, "answer")
    if not plans:
        raise ProtocolViolation("missing_plan", "every reply needs exactly one <plan> tag")
    if len(plans) > 1:
        raise ProtocolViolation("multiple_plans", f"found {len(plans)} <plan> tags, need one")
    if len(expands) + len(answers) > 1:
        raise ProtocolViolation(
            "multiple_decisions",
            "reply with exactly one <expand> or one <answer>, not several",
        )
    if not expands and not answers:
        raise ProtocolViolation("missing_decision", "no <expand> or <answer> tag found")
    plan = plans[0].strip()

    if expands:
        lines = [ln.strip() for ln in split_lines(expands[0]) if ln.strip()]
        if not lines or not lines[0].startswith("parent:"):
            raise ProtocolViolation(
                "bad_parent", 'an <expand> must start with a "parent:" line'
            )
        parent = _parse_chain(lines[0][len("parent:"):], "bad_parent")
        if len(lines) == 1:
            raise ProtocolViolation("bad_ops", "an <expand> needs at least one operator line")
        ops = _parse_calls(lines[1:], "bad_ops", "line")
        return ParsedReply(plan, "expand", parent=parent, ops=ops)

    lines = [ln.strip() for ln in split_lines(answers[0]) if ln.strip()]
    target = None
    if lines and lines[-1].startswith("target:"):
        target = lines[-1][len("target:"):].strip()
        if not target:
            raise ProtocolViolation("bad_answer", 'the "target:" line names no table')
        lines = lines[:-1]
    if not lines:
        raise ProtocolViolation("bad_answer", "an <answer> must name a node chain")
    if len(lines) == 1:
        chain = _parse_chain(lines[0], "bad_answer")
    else:
        chain = _parse_calls(lines, "bad_answer", "line")
    return ParsedReply(plan, "answer", answer_chain=chain, answer_target=target)


# ---------------------------------------------------------------------------
# observations
# ---------------------------------------------------------------------------

def render_schema(schema: Schema) -> str:
    lines = [f"target table: {schema.table_name}"]
    if schema.description:
        lines.append(f"about: {schema.description}")
    lines.append("target columns:")
    for c in schema.columns:
        suffix = f": {c.description}" if c.description else ""
        lines.append(f"- {c.name} ({c.dtype}){suffix}")
    return "\n".join(lines)


def _render_state(state: TableSet, rendered: dict[int, tuple[Table, str]]) -> str:
    """The state's tables in name order. `rendered` is the episode's memo:
    it maps id(table) to the table and its markdown, so each table object
    renders once per episode, and holding the table keeps its id unique."""
    blocks = []
    for name in sorted(state):
        t = state[name]
        seen = rendered.get(id(t))
        if seen is None:
            seen = rendered[id(t)] = (t, serialize_table(t, SAMPLE_ROWS))
        blocks.append(f"table {name} ({t.n_rows} rows):\n{seen[1]}")
    return "\n\n".join(blocks) if blocks else "(no tables)"


def initial_observation(task: Task, rendered: dict[int, tuple[Table, str]]) -> str:
    return (
        "Build the target table from the source tables.\n\n"
        + render_schema(task.target_schema)
        + "\n\nsource tables:\n\n"
        + _render_state(task.sources, rendered)
    )


def _expand_feedback(result, turns_left: int, rendered: dict[int, tuple[Table, str]]) -> str:
    # parse_reply takes an expand of one operator or more, so the expand
    # reached a node (new or reused) or failed at its first operator
    lines = []
    if result.chain:
        lines.append("reached:")
        for node in result.chain:
            lines.append(f"node: {node.path_text}")
            lines.append(_render_state(node.state, rendered))
            lines.append("")
    if result.failure is not None:
        lines.append(f"failed at {result.leaf.path_text}: {result.failure.describe()}")
    lines.append(f"turns remaining: {turns_left}")
    return "\n".join(lines).strip()


def _wrap_execute(body: str) -> str:
    return f"<execute>\n{body}\n</execute>"


# ---------------------------------------------------------------------------
# system preamble
# ---------------------------------------------------------------------------

@functools.cache  # REGISTRY is fixed at import, so every episode gets one text
def build_system_preamble() -> str:
    return f"""You prepare data tables. Starting from source tables, apply operators
until one table matches the target schema, then answer with it.

Reply every turn with exactly one <plan> tag (a short sentence on what you
are doing and why) and exactly one decision tag:

<expand>
parent: root
Operator("table", ...)
</expand>

The parent line names an existing node: "root", or the operator calls that
lead to it joined by " -> ". Operator lines below it run in order; each
success becomes a new node you can build on later. If an operator fails you
keep the successful prefix and see the error.

<answer>
chain of operator calls, or root
target: name_of_answer_table
</answer>

The answer names the node whose state holds the finished table (the
"target:" line is optional when the node has exactly one table or one named
like the target). Execution results arrive inside <execute> tags written by
the environment; never write one yourself.

Operator calls are positional. Strings are double-quoted; lists use [...];
maps use {{...}}. func parameters take a small expression language:
col("name") reads a column; literals, + - * / %, comparisons, and/or/not;
{textwrap.fill("functions " + " ".join(expr.FUNCTIONS) + ".", 76)}
Comparisons and arithmetic on null yield null.

operators by category:
{registry_help()}"""


# ---------------------------------------------------------------------------
# episode loop
# ---------------------------------------------------------------------------

def _extract_answer_table(node: TreeNode, want: str | None, target_name: str) -> Table | None:
    state = node.state
    if want is not None:
        return state.get(want)
    if target_name in state:
        return state[target_name]
    if len(state) == 1:
        return next(iter(state.values()))
    return None


def _usage_total(policy) -> dict | None:
    usage = getattr(policy, "usage_total", None)
    return dict(usage) if isinstance(usage, dict) else None


def run_episode(
    task: Task,
    policy,
    *,
    max_turns: int = MAX_TURNS,
    script_backend: ScriptBackend | None = None,
) -> Trajectory:
    """Drive one episode: observations out, actions in, tree in between.

    The episode writes its Trajectory in place as it goes: it starts as a
    turn_limit with the tree, and each reply adds a turn. `usage` is the
    episode's delta of the policy's `usage_total`, None without one.
    Accepted expand and answer actions consume turns; malformed replies do
    not, but two in a row end the episode as a protocol error.
    """
    t0 = time.monotonic()
    traj = Trajectory(task.task_id, STATUS_TURN_LIMIT, [], tree=ReasoningTree(task.sources))
    rendered: dict[int, tuple[Table, str]] = {}  # the episode's table memo (_render_state)
    messages = [
        {"role": "system", "content": build_system_preamble()},
        {"role": "user", "content": initial_observation(task, rendered)},
    ]
    usage_before = _usage_total(policy) or {}
    consecutive_errors = 0
    turns_used = 0

    while turns_used < max_turns:
        try:
            reply = policy.complete(messages)
        except Exception as exc:
            traj.status = STATUS_PROTOCOL_ERROR
            traj.error = f"{type(exc).__name__}: {exc}"
            break
        messages.append({"role": "assistant", "content": reply})
        record = TurnRecord(index=len(traj.turns), reply=reply, action="protocol_error")
        traj.turns.append(record)

        try:
            parsed = parse_reply(reply)
            expanding = parsed.decision == "expand"
            try:
                node = traj.tree.resolve(parsed.parent if expanding else parsed.answer_chain)
            except TreeError as exc:
                category = "bad_parent" if expanding else "bad_answer"
                raise ProtocolViolation(category, str(exc)) from None
        except ProtocolViolation as exc:
            record.category = exc.category
            record.failure_text = str(exc)
            traj.protocol_error_count += 1
            consecutive_errors += 1
            if consecutive_errors >= MAX_CONSECUTIVE_PROTOCOL_ERRORS:
                traj.status = STATUS_PROTOCOL_ERROR
                break
            record.feedback = _wrap_execute(
                f"protocol error ({exc.category}): {exc}\n"
                "Reply again with one <plan> and one <expand> or <answer>."
            )
            messages.append({"role": "user", "content": record.feedback})
            continue

        consecutive_errors = 0
        record.plan = parsed.plan
        record.parent_path = node.path_text
        turns_used += 1

        if not expanding:
            record.action = "answer"
            record.leaf_path = traj.answer_path = node.path_text
            traj.answer_plan = parsed.plan
            traj.final_table = _extract_answer_table(
                node, parsed.answer_target, task.target_schema.table_name
            )
            if traj.final_table is not None and traj.final_table.n_rows > 0:
                traj.status = STATUS_ANSWERED
            else:
                traj.status = STATUS_EMPTY_RESULT
            break

        record.action = "expand"
        record.op_texts = [serialize_operator_call(op) for op in parsed.ops]
        result = traj.tree.expand(node, parsed.ops, script_backend=script_backend)
        record.created_paths = [n.path_text for n in result.chain]
        record.leaf_path = result.leaf.path_text
        if not result.ok:
            record.failure_text = result.failure.describe()
            record.failure_op_kind = result.failure.op.kind
            record.failure_detail = result.failure.detail
        record.feedback = _wrap_execute(_expand_feedback(result, max_turns - turns_used, rendered))
        messages.append({"role": "user", "content": record.feedback})

    traj.wall_time = time.monotonic() - t0
    usage_after = _usage_total(policy)
    if usage_after is not None:
        traj.usage = {k: v - usage_before.get(k, 0) for k, v in usage_after.items()}
    return traj


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

class HttpChatPolicy:
    """Chat completion over HTTP.

    Sends {"model", "temperature", "messages"} as JSON and expects
    {"content": "..."} back, with an optional "usage" object whose integer
    fields are accumulated into usage_total. A reply that cannot be fetched
    or read, or is longer than MAX_REPLY_BYTES, raises PolicyError.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        *,
        temperature: float = 0.01,
        timeout: float = 120.0,
        headers: dict[str, str] | None = None,
    ):
        if not math.isfinite(temperature):
            raise ValueError(f"temperature must be finite, got {temperature}")
        self.endpoint = endpoint
        self.model = model
        self.temperature = temperature
        self.timeout = timeout
        self.headers = dict(headers or {})
        self.usage_total: dict[str, int] = {}

    def complete(self, messages: list[dict]) -> str:
        import http.client
        import urllib.request

        payload = json.dumps({
            "model": self.model,
            "temperature": self.temperature,
            "messages": messages,
        }, allow_nan=False).encode("utf-8")
        request = urllib.request.Request(
            self.endpoint,
            data=payload,
            headers={"Content-Type": "application/json", **self.headers},
            method="POST",
        )
        # OSError covers urllib's URLError and HTTPError, timeouts and resets
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                raw = response.read(MAX_REPLY_BYTES + 1)
            if len(raw) > MAX_REPLY_BYTES:
                raise PolicyError(f"chat endpoint reply is longer than {MAX_REPLY_BYTES} bytes")
            body = json.loads(raw.decode("utf-8"))
        except (
            OSError, http.client.HTTPException, UnicodeDecodeError,
            json.JSONDecodeError, RecursionError,
        ) as exc:
            raise PolicyError(f"chat endpoint failed: {exc}") from None
        if not isinstance(body, dict):
            raise PolicyError(f"chat endpoint returned a json {type(body).__name__}, not an object")
        content = body.get("content")
        if not isinstance(content, str):
            raise PolicyError("chat endpoint returned no 'content' string")
        usage = body.get("usage")
        if isinstance(usage, dict):
            for k, v in usage.items():
                if type(v) is int:  # a json true is a bool, not a count
                    self.usage_total[k] = self.usage_total.get(k, 0) + v
        return content


class ScriptedPolicy:
    """Replays a fixed list of replies; build a new one for each episode."""

    def __init__(self, replies: list[str]):
        self.replies = list(replies)
        self._cursor = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedPolicy":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise PolicyError(f"cannot load reply script {path}: {exc}") from None
        if not isinstance(data, list) or not all(isinstance(r, str) for r in data):
            raise PolicyError(f"{path}: expected a json array of reply strings")
        return cls(data)

    def complete(self, messages: list[dict]) -> str:
        if self._cursor >= len(self.replies):
            raise PolicyError(f"script exhausted after {self._cursor} replies")
        reply = self.replies[self._cursor]
        self._cursor += 1
        return reply


# a target column line as render_schema writes it, and a source table's
# title and header line as _render_state writes them
_TARGET_COLUMN_RE = re.compile(rf"^- (.+?) \((?:{'|'.join(DTYPES)})\)(?::|$)", re.MULTILINE)
_SOURCE_HEADER_RE = re.compile(r"^table (.+) \(\d+ rows\):\n(\|.*\|)$", re.MULTILINE)


class IdentityPolicy:
    """Answers the source table whose header best overlaps the target columns.

    A deterministic no-model baseline: it reads the first observation, never
    expands, and immediately answers root with an explicit table choice.
    Table and column names are read whole, spaces, parentheses and escaped
    "|" included; the first table in name order wins a tie.
    """

    def complete(self, messages: list[dict]) -> str:
        obs = next(m["content"] for m in messages if m["role"] == "user")
        target_cols = set(_TARGET_COLUMN_RE.findall(obs))
        best_name = None
        best_score = -1.0
        for match in _SOURCE_HEADER_RE.finditer(obs):
            name = match.group(1)
            cols = set(markdown_row_cells(match.group(2)))
            union = target_cols | cols
            score = len(target_cols & cols) / len(union) if union else 0.0
            if score > best_score:
                best_score = score
                best_name = name
        if best_name is None:
            return "<plan>no sources visible; answer the start state</plan><answer>root</answer>"
        return (
            f"<plan>source {best_name} already matches the target columns best; "
            "hand it over unchanged</plan>\n"
            f"<answer>\nroot\ntarget: {best_name}\n</answer>"
        )
