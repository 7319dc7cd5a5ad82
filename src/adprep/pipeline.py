"""Ordered operator pipelines over table sets.

A pipeline is a plain sequence of operator calls, written one per line:

    Deduplicate("movies", ["id"], "first")
    Join("movies", "directors", ["director_id"], "inner")

Blank lines and lines starting with # are ignored. Execution applies the
operators in order against a table set and stops at the first failure; the
trace keeps every intermediate state so callers can inspect exactly how far
a pipeline got and what the world looked like at each step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .operators import (
    ExecError,
    OperatorInstance,
    OpParseError,
    ScriptBackend,
    TableSet,
    execute_operator,
    parse_operator_call,
    serialize_operator_call,
    split_lines,
)


@dataclass
class ExecutionTrace:
    """Everything that happened while running a pipeline.

    states[0] is the input table set and states[i + 1] the result of the
    i-th executed operator, so len(states) - 1 operators succeeded. When an
    operator fails, `failure` holds its error; the trace ends at the last
    good state.
    """

    states: list[TableSet]
    failure: ExecError | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def run_pipeline(
    ops: list[OperatorInstance] | tuple[OperatorInstance, ...],
    initial: TableSet,
    *,
    script_backend: ScriptBackend | None = None,
) -> ExecutionTrace:
    """Apply operators in order, short-circuiting on the first failure."""
    states = [dict(initial)]
    for op in ops:
        try:
            states.append(execute_operator(op, states[-1], script_backend=script_backend))
        except ExecError as exc:
            return ExecutionTrace(states, failure=exc)
    return ExecutionTrace(states)


def serialize_pipeline(ops) -> str:
    """One canonical operator call per line, with a trailing newline."""
    return "".join(serialize_operator_call(op) + "\n" for op in ops)


def parse_pipeline(text: str) -> list[OperatorInstance]:
    """Parse pipeline text; errors carry the 1-based source line number."""
    ops = []
    for lineno, line in enumerate(split_lines(text), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            ops.append(parse_operator_call(stripped))
        except OpParseError as exc:
            raise OpParseError(f"line {lineno}: {exc}") from None
    return ops
