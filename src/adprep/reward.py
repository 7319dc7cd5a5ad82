"""Scoring finished episodes: exact outcome, partial credit, process quality.

The total reward blends three signals:

    total = alpha * outcome + beta * partial + gamma * process

Outcome is all-or-nothing table equality. Partial credit averages three
cheap similarities between the produced table and the target: column-name
overlap, row-count closeness, and positional cell agreement. The process
score judges how the episode was conducted (plans matching actions,
reacting to failures, backtracking only away from dead ends) and comes from
either the deterministic RuleJudge or an LLMJudge behind a chat adapter.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

from .operators import name_bearing_values, parse_operator_call
from .tables import Table, cell_sort_key, tables_equal
from .tree import ReasoningTree
from .agent import Trajectory


class JudgeError(Exception):
    """A judge could not produce a usable score."""


@dataclass(frozen=True)
class RewardWeights:
    alpha: float = 1.0
    beta: float = 0.5
    gamma: float = 0.2


DEFAULT_WEIGHTS = RewardWeights()


# ---------------------------------------------------------------------------
# outcome and partial credit
# ---------------------------------------------------------------------------

def outcome_score(predicted: Table | None, target: Table) -> float:
    if predicted is None:
        return 0.0
    return 1.0 if tables_equal(predicted, target) else 0.0


def schema_score(predicted: Table, target: Table) -> float:
    """Jaccard overlap of the column-name sets."""
    a = set(predicted.column_names)
    b = set(target.column_names)
    union = a | b
    return len(a & b) / len(union) if union else 1.0


def shape_score(predicted: Table, target: Table) -> float:
    """exp(-|row delta| / target rows); an empty target demands emptiness."""
    if target.n_rows == 0:
        return 1.0 if predicted.n_rows == 0 else 0.0
    return math.exp(-abs(predicted.n_rows - target.n_rows) / target.n_rows)


def _sorted_row_keys(t: Table, names: list[str]) -> list[tuple]:
    """Rows projected onto `names` as cell_sort_key tuples, in canonical order.
    Sort keys are equal exactly when their cells are, so they stand in for them."""
    return sorted(zip(*[map(cell_sort_key, t.column(n)) for n in names]))


def cell_score(predicted: Table, target: Table) -> float:
    """Fraction of positionally equal cells across the shared columns.

    Both tables are projected onto the shared columns and canonically
    sorted first, so stored row order never matters. Rows then pair up
    position by position up to the shorter table, and the denominator
    uses the longer one, so extra or missing rows cost credit. No shared
    columns means no credit.
    """
    shared = sorted(set(predicted.column_names) & set(target.column_names))
    if not shared:
        return 0.0
    n_hi = max(predicted.n_rows, target.n_rows)
    if n_hi == 0:
        return 1.0
    got = _sorted_row_keys(predicted, shared)
    want = _sorted_row_keys(target, shared)
    hits = sum(x == y for g, w in zip(got, want) for x, y in zip(g, w))
    return hits / (len(shared) * n_hi)


def partial_score(predicted: Table | None, target: Table) -> float:
    if predicted is None:
        return 0.0
    if tables_equal(predicted, target):
        return 1.0
    return (
        schema_score(predicted, target)
        + shape_score(predicted, target)
        + cell_score(predicted, target)
    ) / 3.0


# ---------------------------------------------------------------------------
# process judges
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JudgeScores:
    consistency: float
    responsiveness: float
    backtracking: float

    @property
    def mean(self) -> float:
        return (self.consistency + self.responsiveness + self.backtracking) / 3.0


def _mentions(plan: str, value: str) -> bool:
    pattern = r"(?<![A-Za-z0-9_])" + re.escape(value) + r"(?![A-Za-z0-9_])"
    return re.search(pattern, plan, flags=re.IGNORECASE) is not None


class RuleJudge:
    """Deterministic process scoring straight off the trajectory.

    Three criteria, each in [0, 1], averaged by the caller via JudgeScores:

    - consistency: an expand turn is consistent when its plan names every
      table, column, and other identifier its operators touch. Score is the
      fraction of consistent expand turns; no expands means a perfect 1.
    - responsiveness: after a failed expand, the next accepted plan should
      mention the failed operator or some token from the error detail.
      Scored over failures that had a following turn; none applicable is 1.
    - backtracking: expanding from somewhere other than the previous
      expand's deepest node abandons that line of work, which is justified
      only when the abandoned subtree recorded a failure (judged on the
      finished tree). Score is the fraction of justified switches; never
      switching is 1.
    """

    def score(self, traj: Trajectory) -> JudgeScores:
        return JudgeScores(
            self._consistency(traj),
            self._responsiveness(traj),
            self._backtracking(traj),
        )

    def _consistency(self, traj: Trajectory) -> float:
        expands = [t for t in traj.turns if t.action == "expand"]
        if not expands:
            return 1.0
        good = 0
        for turn in expands:
            names = set()
            for text in turn.op_texts:
                names.update(name_bearing_values(parse_operator_call(text)))
            if all(_mentions(turn.plan or "", n) for n in names):
                good += 1
        return good / len(expands)

    def _responsiveness(self, traj: Trajectory) -> float:
        accepted = [t for t in traj.turns if t.action in ("expand", "answer")]
        applicable = 0
        responsive = 0
        for i, turn in enumerate(accepted):
            if turn.action != "expand" or turn.failure_op_kind is None:
                continue
            if i + 1 >= len(accepted):
                continue  # episode ended; nothing to react with
            applicable += 1
            next_plan = accepted[i + 1].plan or ""
            tokens = re.findall(r"[A-Za-z0-9_]{3,}", turn.failure_detail or "")
            if _mentions(next_plan, turn.failure_op_kind) or any(
                _mentions(next_plan, tok) for tok in tokens
            ):
                responsive += 1
        return responsive / applicable if applicable else 1.0

    def _backtracking(self, traj: Trajectory) -> float:
        expands = [t for t in traj.turns if t.action == "expand"]
        if len(expands) < 2:
            return 1.0
        by_path = {}
        if isinstance(traj.tree, ReasoningTree):
            by_path = {node.path_text: node for node in traj.tree.nodes}
        switches = 0
        justified = 0
        for prev, cur in zip(expands, expands[1:]):
            if cur.parent_path == prev.leaf_path:
                continue
            switches += 1
            abandoned = by_path.get(prev.leaf_path)
            if abandoned is not None and abandoned.subtree_has_failure():
                justified += 1
        return justified / switches if switches else 1.0


_JUDGE_PROMPT = """Rate the episode transcript below on three criteria, each 0.0 to 1.0:
- consistency: do the stated plans match the operators actually run?
- responsiveness: after an operator fails, does the next plan engage with the error?
- backtracking: when the agent abandons a branch, was that branch actually stuck?

Reply with only a JSON object: {"consistency": _, "responsiveness": _, "backtracking": _}

transcript:
"""


class LLMJudge:
    """Process scoring delegated to a chat model behind a policy adapter."""

    def __init__(self, adapter):
        self.adapter = adapter

    def score(self, traj: Trajectory) -> JudgeScores:
        lines = []
        for turn in traj.turns:
            lines.append(f"turn {turn.index} [{turn.action}] plan: {turn.plan or '(none)'}")
            for text in turn.op_texts:
                lines.append(f"  ran: {text}")
            if turn.failure_text:
                lines.append(f"  failure: {turn.failure_text}")
        transcript = "\n".join(lines) or "(no turns)"
        reply = self.adapter.complete(
            [{"role": "user", "content": _JUDGE_PROMPT + transcript}]
        )
        match = re.search(r"\{.*\}", reply, flags=re.DOTALL)
        if match is None:
            raise JudgeError("judge reply holds no JSON object")
        try:
            data = json.loads(match.group(0))
        except json.JSONDecodeError as exc:
            raise JudgeError(f"judge reply is not valid JSON: {exc}") from None
        scores = []
        for key in ("consistency", "responsiveness", "backtracking"):
            value = data.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise JudgeError(f"judge reply lacks a numeric '{key}'")
            scores.append(min(1.0, max(0.0, float(value))))
        return JudgeScores(*scores)


# ---------------------------------------------------------------------------
# putting it together
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RewardBreakdown:
    outcome: float
    partial: float
    process: float
    total: float
    schema_sim: float
    shape_sim: float
    cell_sim: float
    judge: JudgeScores

    def to_json(self) -> dict:
        return {**vars(self), "judge": dict(vars(self.judge))}


def score_trajectory(
    traj: Trajectory,
    target: Table,
    *,
    weights: RewardWeights = DEFAULT_WEIGHTS,
    judge=None,
) -> RewardBreakdown:
    predicted = traj.final_table
    if predicted is None:
        r_out = r_part = s_sch = s_shp = s_cnt = 0.0
    else:
        r_out = outcome_score(predicted, target)
        s_sch = schema_score(predicted, target)
        s_shp = shape_score(predicted, target)
        s_cnt = cell_score(predicted, target)
        # partial_score's value, from the scores already in hand
        r_part = 1.0 if r_out == 1.0 else (s_sch + s_shp + s_cnt) / 3.0
    judge_scores = (judge or RuleJudge()).score(traj)
    r_llm = judge_scores.mean
    total = weights.alpha * r_out + weights.beta * r_part + weights.gamma * r_llm
    return RewardBreakdown(
        outcome=r_out,
        partial=r_part,
        process=r_llm,
        total=total,
        schema_sim=s_sch,
        shape_sim=s_shp,
        cell_sim=s_cnt,
        judge=judge_scores,
    )
