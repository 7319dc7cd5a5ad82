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

import json
import re
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

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
from .tables import Schema, Table, serialize_table
from .tree import ReasoningTree, TreeError, TreeNode

MAX_TURNS = 5
MAX_CONSECUTIVE_PROTOCOL_ERRORS = 2
SAMPLE_ROWS = 5  # rows of each table an observation shows

STATUS_ANSWERED = "answered"
STATUS_TURN_LIMIT = "turn_limit"
STATUS_PROTOCOL_ERROR = "protocol_error"
STATUS_EMPTY_RESULT = "empty_result"


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

    target_name overrides which state table counts as the answer when the
    policy's <answer> has no "target:" line; it defaults to the schema's
    own table name.
    """

    task_id: str
    sources: TableSet
    target_schema: Schema
    target_name: str | None = None


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
    """One model reply and what the environment did with it."""

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

    Every field but `tree` is written to the episode's JSONL log by
    harness.write_trajectory_log; a trajectory loaded from a log has no tree.
    """

    task_id: str
    status: str
    turns: list[TurnRecord]
    answer_path: str | None = None
    answer_plan: str | None = None
    final_table: Table | None = None
    wall_time: float = 0.0
    protocol_error_count: int = 0
    usage: dict | None = None
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
    """Split an operator chain on " -> " outside strings and brackets."""
    parts = []
    depth = 0
    quote = None
    start = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if quote is not None:
            if ch == "\\":
                i += 2
                continue
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif depth == 0 and text.startswith(" -> ", i):
            parts.append(text[start:i])
            i += 4
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


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
    return _parse_calls(split_chain(text), category, "in chain")


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


def _render_state(state: TableSet) -> str:
    blocks = []
    for name in sorted(state):
        t = state[name]
        blocks.append(f"table {name} ({t.n_rows} rows):\n{serialize_table(t, SAMPLE_ROWS)}")
    return "\n\n".join(blocks) if blocks else "(no tables)"


def initial_observation(task: Task) -> str:
    return (
        "Build the target table from the source tables.\n\n"
        + render_schema(task.target_schema)
        + "\n\nsource tables:\n\n"
        + _render_state(task.sources)
    )


def _expand_feedback(result, turns_left: int) -> str:
    lines = []
    if result.chain:
        lines.append("reached:")
        for node in result.chain:
            lines.append(f"node: {node.path_text}")
            lines.append(_render_state(node.state))
            lines.append("")
    if result.failure is not None:
        lines.append(f"failed at {result.leaf.path_text}: {result.failure.describe()}")
    if not result.chain and result.failure is None:
        lines.append("nothing new: every operator matched an existing node")
    lines.append(f"turns remaining: {turns_left}")
    return "\n".join(lines).strip()


def _wrap_execute(body: str) -> str:
    return f"<execute>\n{body}\n</execute>"


# ---------------------------------------------------------------------------
# system preamble
# ---------------------------------------------------------------------------

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
functions lower upper trim concat split replace substr contains starts_with
is_null coalesce to_int to_real to_text at parse_date format_date if.
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


def _usage_snapshot(policy) -> dict | None:
    usage = getattr(policy, "usage_total", None)
    return dict(usage) if isinstance(usage, dict) else None


def _usage_delta(before: dict | None, after: dict | None) -> dict | None:
    if after is None:
        return None
    if not before:
        return dict(after)
    return {k: after.get(k, 0) - before.get(k, 0) for k in after}


def run_episode(
    task: Task,
    policy,
    *,
    max_turns: int = MAX_TURNS,
    script_backend: ScriptBackend | None = None,
) -> Trajectory:
    """Drive one episode: observations out, actions in, tree in between.

    Accepted expand and answer actions consume turns; malformed replies do
    not, but two in a row end the episode as a protocol error.
    """
    t0 = time.monotonic()
    tree = ReasoningTree(task.sources)
    messages = [
        {"role": "system", "content": build_system_preamble()},
        {"role": "user", "content": initial_observation(task)},
    ]
    turns: list[TurnRecord] = []
    usage_before = _usage_snapshot(policy)
    protocol_errors = 0
    consecutive_errors = 0
    turns_used = 0
    status = STATUS_TURN_LIMIT
    answer_path = None
    answer_plan = None
    final_table = None
    error_text = None

    def finish():
        return Trajectory(
            task_id=task.task_id,
            status=status,
            turns=turns,
            answer_path=answer_path,
            answer_plan=answer_plan,
            final_table=final_table,
            wall_time=time.monotonic() - t0,
            protocol_error_count=protocol_errors,
            usage=_usage_delta(usage_before, _usage_snapshot(policy)),
            error=error_text,
            tree=tree,
        )

    while turns_used < max_turns:
        try:
            reply = policy.complete(messages)
        except Exception as exc:
            status = STATUS_PROTOCOL_ERROR
            error_text = f"{type(exc).__name__}: {exc}"
            return finish()
        messages.append({"role": "assistant", "content": reply})
        record = TurnRecord(index=len(turns), reply=reply, action="protocol_error")
        turns.append(record)

        parsed = None
        try:
            parsed = parse_reply(reply)
            if parsed.decision == "expand":
                parent_node = tree.resolve(parsed.parent)
            else:
                parent_node = tree.resolve(parsed.answer_chain)
        except (ProtocolViolation, TreeError) as exc:
            if isinstance(exc, ProtocolViolation):
                category = exc.category
            elif parsed is not None and parsed.decision == "answer":
                category = "bad_answer"
            else:
                category = "bad_parent"
            record.category = category
            record.failure_text = str(exc)
            protocol_errors += 1
            consecutive_errors += 1
            if consecutive_errors >= MAX_CONSECUTIVE_PROTOCOL_ERRORS:
                status = STATUS_PROTOCOL_ERROR
                return finish()
            feedback = _wrap_execute(
                f"protocol error ({category}): {exc}\n"
                "Reply again with one <plan> and one <expand> or <answer>."
            )
            record.feedback = feedback
            messages.append({"role": "user", "content": feedback})
            continue

        consecutive_errors = 0
        record.plan = parsed.plan
        turns_used += 1

        if parsed.decision == "answer":
            record.action = "answer"
            record.parent_path = parent_node.path_text
            record.leaf_path = parent_node.path_text
            answer_path = parent_node.path_text
            answer_plan = parsed.plan
            final_table = _extract_answer_table(
                parent_node,
                parsed.answer_target,
                task.target_name or task.target_schema.table_name,
            )
            if final_table is not None and final_table.n_rows > 0:
                status = STATUS_ANSWERED
            else:
                status = STATUS_EMPTY_RESULT
            return finish()

        record.action = "expand"
        record.parent_path = parent_node.path_text
        record.op_texts = [serialize_operator_call(op) for op in parsed.ops]
        result = tree.expand(parent_node, parsed.ops, script_backend=script_backend)
        record.created_paths = [n.path_text for n in result.chain]
        record.leaf_path = result.leaf.path_text
        if result.failure is not None:
            record.failure_text = result.failure.describe()
            record.failure_op_kind = result.failure.op.kind
            record.failure_detail = result.failure.detail
        feedback = _wrap_execute(_expand_feedback(result, max_turns - turns_used))
        record.feedback = feedback
        messages.append({"role": "user", "content": feedback})

    return finish()


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

class HttpChatPolicy:
    """Chat completion over HTTP.

    Sends {"model", "temperature", "messages"} as JSON and expects
    {"content": "..."} back, with an optional "usage" object whose integer
    fields are accumulated into usage_total.
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
        self.endpoint = endpoint
        self.model = model
        self.temperature = temperature
        self.timeout = timeout
        self.headers = dict(headers or {})
        self.usage_total: dict[str, int] = {}

    def complete(self, messages: list[dict]) -> str:
        payload = json.dumps({
            "model": self.model,
            "temperature": self.temperature,
            "messages": messages,
        }).encode("utf-8")
        request = urllib.request.Request(
            self.endpoint,
            data=payload,
            headers={"Content-Type": "application/json", **self.headers},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, TimeoutError, json.JSONDecodeError, RecursionError) as exc:
            raise PolicyError(f"chat endpoint failed: {exc}") from None
        content = body.get("content")
        if not isinstance(content, str):
            raise PolicyError("chat endpoint returned no 'content' string")
        usage = body.get("usage")
        if isinstance(usage, dict):
            for k, v in usage.items():
                if isinstance(v, int):
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


class IdentityPolicy:
    """Answers the source table whose header best overlaps the target columns.

    A deterministic no-model baseline: it reads the first observation, never
    expands, and immediately answers root with an explicit table choice.
    """

    def complete(self, messages: list[dict]) -> str:
        obs = next(m["content"] for m in messages if m["role"] == "user")
        target_cols = set(re.findall(r"^- (\S+) \(", obs, flags=re.MULTILINE))
        best_name = None
        best_score = -1.0
        for match in re.finditer(
            r"^table (\S+) \(\d+ rows\):\n\| (.*) \|$", obs, flags=re.MULTILINE
        ):
            name = match.group(1)
            cols = {c.strip() for c in match.group(2).split("|")}
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
