"""The tree-based backtracking criterion, kept as a reference.

`backtracking` is RuleJudge's backtracking score as it stood when it looked
the abandoned node up in the finished search tree and walked that node's
subtree for a recorded failure. RuleJudge now reads the logged turns alone;
the oracle tests in test_reward.py and test_workloads.py check it against
this on live trajectories, which still carry their tree.
"""

from __future__ import annotations


def subtree_has_failure(node) -> bool:
    if node.failures:
        return True
    return any(subtree_has_failure(c) for c in node.children)


def backtracking(traj) -> float:
    expands = [t for t in traj.turns if t.action == "expand"]
    if len(expands) < 2:
        return 1.0
    by_path = {node.path_text: node for node in traj.tree.nodes}
    switches = 0
    justified = 0
    for prev, cur in zip(expands, expands[1:]):
        if cur.parent_path == prev.leaf_path:
            continue
        switches += 1
        abandoned = by_path.get(prev.leaf_path)
        if abandoned is not None and subtree_has_failure(abandoned):
            justified += 1
    return justified / switches if switches else 1.0
