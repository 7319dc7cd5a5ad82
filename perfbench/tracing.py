"""Span tracing for the traced pass, installed from outside the package.

instrument() rebinds each public function of adprep wherever a module of
the package holds it, so calls between modules (execute_operator from tree,
synthesis and pipeline; tables_equal from reward and synthesis) go through
a wrapper. Table.__post_init__, ReasoningTree.expand/resolve,
RuleJudge.score and the TreeNode.path_text property are wrapped at their
class. Each span records name, start, end, parent span and task id, and all
spans stay in memory until the run ends. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

import adprep
from adprep import operators, reward, tables, tree


class Tracer:
    """Spans in parallel lists, so recording one costs a few appends."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.tasks: list[str | None] = []
        self._stack: list[int] = []
        self.task: str | None = None  # id shared by the spans of one task
        self.phase = "setup"
        self.counters: defaultdict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.tasks.append(self.task)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def self_times(self, first: int = 0) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self time in ms per span name, over spans from `first` on."""
        covered = defaultdict(int)
        for i in range(first, len(self.names)):
            if self.parents[i] >= 0:
                covered[self.parents[i]] += self.ends[i] - self.starts[i]
        calls: defaultdict[str, int] = defaultdict(int)
        self_ms: defaultdict[str, float] = defaultdict(float)
        for i in range(first, len(self.names)):
            name = self.names[i]
            calls[name] += 1
            self_ms[name] += (self.ends[i] - self.starts[i] - covered[i]) / 1e6
        return calls, self_ms


def _span(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer.counters, args, result)
        return result

    return traced


def _traced_execute(tracer: Tracer, fn):
    table_kinds = (operators.P_TABLE, operators.P_TABLE_LIST)

    @functools.wraps(fn)
    def traced(op, state, **kwargs):
        name = f"operators.execute_operator.{op.kind}"
        idx = tracer.open(name)
        try:
            result = fn(op, state, **kwargs)
        except operators.ExecError:
            tracer.counters["operators.execute_operator.failed"] += 1
            raise
        finally:
            tracer.close(idx)
        named = set()
        for p in adprep.REGISTRY[op.kind].params:
            if p.kind in table_kinds:
                value = op.params[p.name]
                named.update([value] if isinstance(value, str) else value)
        c = tracer.counters
        c[f"{name}.rows_in"] += sum(state[n].n_rows for n in named if n in state)
        inputs = {id(t) for t in state.values()}
        c[f"{name}.rows_out"] += sum(t.n_rows for t in result.values() if id(t) not in inputs)
        return result

    return traced


def _traced_expand(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(self, parent, ops, **kwargs):
        before = len(self.nodes)
        idx = tracer.open("tree.expand")
        try:
            result = fn(self, parent, ops, **kwargs)
        finally:
            tracer.close(idx)
        created = len(self.nodes) - before
        tracer.counters["tree.nodes_created"] += created
        tracer.counters["tree.children_reused"] += len(result.chain) - created
        return result

    return traced


def _traced_read_bundle(tracer: Tracer, fn):
    inner = _span(tracer, "synthesis.read_bundle", fn)

    @functools.wraps(fn)
    def traced(directory):
        tracer.task = f"{tracer.phase}:{Path(directory).name}"  # a task starts here
        return inner(directory)

    return traced


def _add(key: str, measure):
    def after(counters, args, result):
        counters[key] += measure(args, result)

    return after


def _accepts(counters, args, result):
    counters["synthesis.corrupt_table.applied"] += len(result.applied)
    counters["synthesis.corrupt_table.rejected"] += len(result.rejected)


FUNCTIONS = (
    (tables.canonicalize, "tables.canonicalize", None),
    (tables.tables_equal, "tables.tables_equal", None),
    (tables.read_table, "tables.read_table", _add("tables.read_table.rows", lambda a, r: r.n_rows)),
    (tables.write_table, "tables.write_table", _add("tables.write_table.rows", lambda a, r: a[0].n_rows)),
    (tables.serialize_table, "tables.serialize_table", None),
    (adprep.parse_expr, "expr.parse_expr", None),
    (operators.parse_operator_call, "operators.parse_operator_call", None),
    (operators.serialize_operator_call, "operators.serialize_operator_call", None),
    (adprep.run_pipeline, "pipeline.run_pipeline", None),
    (adprep.parse_pipeline, "pipeline.parse_pipeline", None),
    (adprep.agent.parse_reply, "agent.parse_reply", None),
    (adprep.agent.initial_observation, "agent.initial_observation", None),
    (reward.score_trajectory, "reward.score_trajectory", None),
    (reward.outcome_score, "reward.outcome_score", None),
    (reward.partial_score, "reward.partial_score", None),
    (reward.cell_score, "reward.cell_score", None),
    (adprep.synthesize_task, "synthesis.synthesize_task", None),
    (adprep.write_bundle, "synthesis.write_bundle", None),
    (adprep.verify_bundle, "synthesis.verify_bundle", None),
    (adprep.corrupt_table, "synthesis.corrupt_table", _accepts),
    (adprep.harness.write_trajectory_log, "harness.write_trajectory_log",
     _add("harness.write_trajectory_log.bytes", lambda a, r: Path(a[0]).stat().st_size)),
    (adprep.harness.load_trajectory_log, "harness.load_trajectory_log",
     _add("harness.load_trajectory_log.bytes", lambda a, r: Path(a[0]).stat().st_size)),
)


def _rebind(original, replacement, patches) -> None:
    """Point every adprep module's name for `original` at `replacement`."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "adprep" and not mod_name.startswith("adprep."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.append((module, attr, original))
                setattr(module, attr, replacement)


def _patch_class(cls, attr: str, replacement, patches) -> None:
    patches.append((cls, attr, cls.__dict__[attr]))
    setattr(cls, attr, replacement)


def instrument(tracer: Tracer):
    """Install every wrapper; returns a function that removes them all."""
    patches: list = []
    for fn, name, after in FUNCTIONS:
        _rebind(fn, _span(tracer, name, fn, after), patches)
    _rebind(adprep.execute_operator, _traced_execute(tracer, adprep.execute_operator), patches)
    _rebind(adprep.read_bundle, _traced_read_bundle(tracer, adprep.read_bundle), patches)

    def table_cells(counters, args, result):
        t = args[0]
        counters["tables.Table.cells"] += len(t.rows) * len(t.schema.columns)

    _patch_class(tables.Table, "__post_init__",
                 _span(tracer, "tables.Table", tables.Table.__post_init__, table_cells), patches)
    _patch_class(tree.ReasoningTree, "expand", _traced_expand(tracer, tree.ReasoningTree.expand), patches)
    _patch_class(tree.ReasoningTree, "resolve",
                 _span(tracer, "tree.resolve", tree.ReasoningTree.resolve), patches)
    _patch_class(reward.RuleJudge, "score",
                 _span(tracer, "reward.RuleJudge.score", reward.RuleJudge.score), patches)
    path_text = tree.TreeNode.path_text
    _patch_class(tree.TreeNode, "path_text",
                 property(_span(tracer, "tree.path_text", path_text.fget)), patches)

    def restore() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return restore


def layer_metrics(tracer: Tracer, first_span: int, extra: dict, names) -> dict[str, float]:
    """The named per-layer metrics of one traced pass, zero where a layer sat idle.

    A name `<span>.calls` or `<span>.self_ms` is read from the spans, any
    other name from the counters; `extra` gives values measured elsewhere.
    """
    calls, self_ms = tracer.self_times(first_span)
    counters = tracer.counters
    values = dict(extra)
    for metric in names:
        if metric in values:
            continue
        span, _, stat = metric.rpartition(".")
        if stat == "calls":
            values[metric] = calls.get(span, 0)
        elif stat == "self_ms":
            values[metric] = self_ms.get(span, 0.0)
        else:
            values[metric] = counters.get(metric, 0)
    reused = counters.get("tree.children_reused", 0)
    created = counters.get("tree.nodes_created", 0)
    values["tree.child_reuse_ratio"] = reused / (reused + created) if reused + created else 0.0
    applied = counters.get("synthesis.corrupt_table.applied", 0)
    tried = applied + counters.get("synthesis.corrupt_table.rejected", 0)
    values["synthesis.corrupt_table.accept_ratio"] = applied / tried if tried else 0.0
    return values
