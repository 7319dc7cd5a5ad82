"""Autonomous data preparation toolkit.

Modules cover the full loop: a typed table model (tables), a row expression
DSL (expr), the tabular operator registry and executor (operators), the
reasoning tree over materialized states, which runs every operator chain
(tree), the interactive agent protocol (agent), reward scoring (reward),
reversible task synthesis and the pipeline text of its bundles (synthesis),
and the benchmark harness plus CLI (harness, cli).
"""

from .tables import (
    Table,
    Schema,
    ColumnSpec,
    TableError,
    TableIOError,
    tables_equal,
    serialize_table,
    make_table,
    read_table,
    write_table,
)
from .expr import EvalError, ExprParseError, parse_expr
from .operators import (
    ExecError,
    OperatorInstance,
    OpParseError,
    REGISTRY,
    SubprocessScriptBackend,
    execute_operator,
    make_operator,
    parse_operator_call,
    serialize_operator_call,
)
from .tree import FailureRecord, ReasoningTree, TreeError, run_pipeline
from .agent import (
    HttpChatPolicy,
    PolicyError,
    ScriptedPolicy,
    Task,
    Trajectory,
    run_episode,
)
from .reward import RuleJudge, score_trajectory
from .synthesis import (
    SynthesisError,
    TaskBundle,
    corrupt_table,
    parse_pipeline,
    read_bundle,
    serialize_pipeline,
    synthesize_demo_task,
    synthesize_task,
    verify_bundle,
    write_bundle,
)
from .harness import HarnessError, Report, gt_replay_policy, replay_suite, run_benchmark

__all__ = [
    "Table",
    "Schema",
    "ColumnSpec",
    "TableError",
    "TableIOError",
    "tables_equal",
    "serialize_table",
    "make_table",
    "read_table",
    "write_table",
    "EvalError",
    "ExprParseError",
    "parse_expr",
    "ExecError",
    "OperatorInstance",
    "OpParseError",
    "REGISTRY",
    "SubprocessScriptBackend",
    "execute_operator",
    "make_operator",
    "parse_operator_call",
    "serialize_operator_call",
    "parse_pipeline",
    "run_pipeline",
    "serialize_pipeline",
    "FailureRecord",
    "ReasoningTree",
    "TreeError",
    "HttpChatPolicy",
    "PolicyError",
    "ScriptedPolicy",
    "Task",
    "Trajectory",
    "run_episode",
    "RuleJudge",
    "score_trajectory",
    "SynthesisError",
    "TaskBundle",
    "corrupt_table",
    "read_bundle",
    "synthesize_demo_task",
    "synthesize_task",
    "verify_bundle",
    "write_bundle",
    "HarnessError",
    "Report",
    "gt_replay_policy",
    "replay_suite",
    "run_benchmark",
]

__version__ = "0.1.0"
