"""Search tree over table-set states.

Every node holds a fully materialized table set: the root is the task's
source tables, and each edge is one successfully executed operator. An
expansion names its parent by the operator chain leading there ("root" or
the ops joined with " -> ") and supplies new operators to run below it.

Execution is partial-by-design: when the k-th operator of an expansion
fails, the first k-1 successes still become nodes, and the failure is
recorded on the deepest node reached so later decisions can see what was
tried and why it broke.
`expand` is the one code that runs an operator chain, an episode's or
(through `run_pipeline`) synthesis's.
"""

from __future__ import annotations

from dataclasses import dataclass

from .operators import (
    ExecError,
    OperatorInstance,
    ScriptBackend,
    TableSet,
    execute_operator,
    serialize_operator_call,
    with_detail,
)


class TreeError(ValueError):
    """Parent resolution failure: the named chain does not exist."""


@dataclass
class FailureRecord:
    """One failed operator attempt below a node.

    It copies the ExecError's message and detail rather than keeping the
    exception: a kept exception holds its traceback, whose frames hold the
    tables of the expand that raised it, so a source table would outlive
    its episode.
    """

    op: OperatorInstance
    message: str
    detail: str = ""

    def __str__(self) -> str:
        """The text of the ExecError this record copies."""
        return f"{self.op.kind}: {with_detail(self.message, self.detail)}"

    def describe(self) -> str:
        return f"{serialize_operator_call(self.op)} failed: {with_detail(self.message, self.detail)}"


class TreeNode:
    """One table-set state; `op` is the edge from its parent (None at the root).

    A node keeps its operator chain from the root (`prefix`) and that
    chain's text, not a link to its parent, so a tree holds no reference
    cycle and is freed as soon as its ReasoningTree is dropped.
    """

    def __init__(self, op: OperatorInstance | None, state: TableSet, parent: "TreeNode | None"):
        self.op = op
        self.state = state
        self.children: list[TreeNode] = []
        self.failures: list[FailureRecord] = []
        # the edge's call text, the chain and its text, each built once here
        self.op_text: str | None = None
        self.prefix: tuple[OperatorInstance, ...] = ()
        self._path = "root"
        if op is None:
            return
        self.op_text = serialize_operator_call(op)
        self.prefix = (*parent.prefix, op)
        if parent.op is None:
            self._path = self.op_text
        else:
            self._path = f"{parent._path} -> {self.op_text}"

    @property
    def path_text(self) -> str:
        """The chain's call texts joined with " -> ", or "root" at the root."""
        return self._path

    def child(self, op: OperatorInstance) -> "TreeNode | None":
        """The first child whose edge has `op`'s canonical call text, or None.

        Text, not `==`: an op's literals compare with Python `==`, under
        which `1`, `1.0` and `true` are one value, but each renders as
        itself and may give a different table."""
        return next((c for c in self.children if c.op_text == op.text), None)


@dataclass
class ExpandResult:
    """Outcome of one expansion: the chain of nodes walked or created."""

    chain: list[TreeNode]
    leaf: TreeNode
    failure: FailureRecord | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


class ReasoningTree:
    """Tree of table-set states reached from one set of source tables."""

    def __init__(self, initial: TableSet):
        self.root = TreeNode(None, dict(initial), None)
        self._nodes: list[TreeNode] = [self.root]

    @property
    def nodes(self) -> list[TreeNode]:
        return list(self._nodes)

    def resolve(self, prefix) -> TreeNode:
        """Find the node reached by an operator chain from the root.

        Follows the first child whose edge has each operator's call text;
        a miss raises TreeError naming the children that do exist.
        """
        node = self.root
        for op in prefix:
            nxt = node.child(op)
            if nxt is None:
                want = serialize_operator_call(op)
                have = ", ".join(c.op_text for c in node.children)
                raise TreeError(
                    f"no child {want} under {node.path_text}; children: {have or '(none)'}"
                )
            node = nxt
        return node

    def expand(
        self,
        parent: TreeNode,
        ops,
        *,
        script_backend: ScriptBackend | None = None,
    ) -> ExpandResult:
        """Execute operators below a node, creating one child per success.

        An operator matching an existing child edge reuses that child
        instead of re-executing. On failure the walk stops, the failure is
        recorded on the deepest node reached, and the earlier successes
        keep their new nodes.
        """
        node = parent
        chain: list[TreeNode] = []
        for op in ops:
            existing = node.child(op)
            if existing is not None:
                node = existing
                chain.append(existing)
                continue
            try:
                new_state = execute_operator(op, node.state, script_backend=script_backend)
            except ExecError as exc:
                record = FailureRecord(op, exc.message, exc.detail)
                node.failures.append(record)
                return ExpandResult(chain, leaf=node, failure=record)
            child = TreeNode(op, new_state, node)
            node.children.append(child)
            self._nodes.append(child)
            chain.append(child)
            node = child
        return ExpandResult(chain, leaf=node)


def run_pipeline(ops, initial: TableSet) -> ExpandResult:
    """Run an operator chain from a table set: a fresh tree expanded from its root."""
    tree = ReasoningTree(initial)
    return tree.expand(tree.root, ops)
