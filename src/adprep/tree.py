"""Search tree over table-set states.

Every node holds a fully materialized table set: the root is the task's
source tables, and each edge is one successfully executed operator. An
expansion names its parent by the operator chain leading there ("root" or
the ops joined with " -> ") and supplies new operators to run below it.

Execution is partial-by-design: when the k-th operator of an expansion
fails, the first k-1 successes still become nodes, and the failure is
recorded on the deepest node reached so later decisions can see what was
tried and why it broke.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .operators import (
    ExecError,
    OperatorInstance,
    ScriptBackend,
    TableSet,
    execute_operator,
    serialize_operator_call,
)


class TreeError(ValueError):
    """Parent resolution failure: the named chain does not exist."""


@dataclass
class FailureRecord:
    """One failed operator attempt below a node."""

    op: OperatorInstance
    message: str
    detail: str = ""

    def describe(self) -> str:
        text = f"{serialize_operator_call(self.op)} failed: {self.message}"
        if self.detail and self.detail not in self.message:
            text += f" ({self.detail})"
        return text


class TreeNode:
    """One table-set state; `op` is the edge from its parent (None at the root).

    A node holds its parent through a weakref, so a finished tree holds no
    reference cycle and is freed as soon as its ReasoningTree is dropped: the
    tree's node list owns every node, so `parent` and `prefix` need the
    tree kept alive.
    """

    def __init__(self, op: OperatorInstance | None, state: TableSet, parent: "TreeNode | None"):
        self.op = op
        self.state = state
        self._parent = None if parent is None else weakref.ref(parent)
        self.children: list[TreeNode] = []
        self.failures: list[FailureRecord] = []
        # the edge's call text and the node's path, each serialized once here
        self.op_text: str | None = None
        self._path = "root"
        if op is None:
            return
        self.op_text = serialize_operator_call(op)
        if parent.op is None:
            self._path = self.op_text
        else:
            self._path = f"{parent._path} -> {self.op_text}"

    @property
    def parent(self) -> "TreeNode | None":
        return None if self._parent is None else self._parent()

    @property
    def prefix(self) -> tuple[OperatorInstance, ...]:
        """Operator chain from the root down to this node."""
        ops = []
        node = self
        while node.op is not None:
            ops.append(node.op)
            node = node.parent
        return tuple(reversed(ops))

    @property
    def path_text(self) -> str:
        """The chain's call texts joined with " -> ", or "root" at the root."""
        return self._path

    def child(self, op: OperatorInstance) -> "TreeNode | None":
        """The first child whose edge equals `op`, or None."""
        return next((c for c in self.children if c.op == op), None)


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

        Follows the first child whose edge equals each operator in turn;
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
