"""Scoring finished episodes: exact outcome, partial credit, process quality.

The total reward blends three signals:

    total = ALPHA * outcome + BETA * partial + GAMMA * process

with fixed weights; each report row and each log's "scores" carries the
three signals, so a caller that wants another blend computes it from them.

Outcome is all-or-nothing table equality. Partial credit averages three
cheap similarities between the produced table and the target: column-name
overlap, row-count closeness, and positional cell agreement. The process
score judges how the episode was conducted (plans matching actions,
reacting to failures, backtracking only away from dead ends). RuleJudge
scores it from the turns alone.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from operator import eq

from .operators import PARSE_MEMO_SIZE, name_bearing_values, parse_operator_call
from .tables import Table, column_keys, sort_order, tables_equal
from .agent import Trajectory


ALPHA, BETA, GAMMA = 1.0, 0.5, 0.2


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


def cell_score(predicted: Table, target: Table) -> float:
    """Fraction of positionally equal cells across the shared columns.

    Each table's rows are put in cell order (sort_order) over the shared
    columns, taken in name order, so stored row order never matters. Rows
    then pair up position by position up to the shorter table, and two cells
    match when their hash keys (column_keys) do, which each table keys on
    its own. The denominator uses the longer table, so extra or missing rows
    cost credit. No shared columns means no credit.
    """
    shared = sorted(set(predicted.column_names) & set(target.column_names))
    if not shared:
        return 0.0
    n_hi = max(predicted.n_rows, target.n_rows)
    if n_hi == 0:
        return 1.0
    sides = []
    for t in (predicted, target):
        idxs = [t.column_index(n) for n in shared]
        order = sort_order(t, idxs)
        sides.append([map(column_keys(t, i).__getitem__, order) for i in idxs])
    # map stops at the shorter table
    hits = sum(sum(map(eq, got, want)) for got, want in zip(*sides))
    return hits / (len(shared) * n_hi)


def _similarities(predicted: Table, target: Table) -> tuple[bool, float, float, float]:
    """Whether predicted matches target exactly, then its schema, shape and
    cell similarity to it."""
    exact = outcome_score(predicted, target) == 1.0
    # equal row multisets sort into equal key lists, so every cell pairs;
    # a table with no columns still gets cell_score's 0.0
    cell = 1.0 if exact and predicted.column_names else cell_score(predicted, target)
    return exact, schema_score(predicted, target), shape_score(predicted, target), cell


def _partial_credit(exact: bool, schema: float, shape: float, cell: float) -> float:
    """Full credit for an exact match, else the mean of the three similarities."""
    return 1.0 if exact else (schema + shape + cell) / 3.0


def partial_score(predicted: Table | None, target: Table) -> float:
    if predicted is None:
        return 0.0
    return _partial_credit(*_similarities(predicted, target))


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


@functools.lru_cache(maxsize=PARSE_MEMO_SIZE)
def _mention_pattern(value: str) -> re.Pattern:
    return re.compile(rf"(?<![A-Za-z0-9_]){re.escape(value)}(?![A-Za-z0-9_])", re.IGNORECASE)


def _mentions(plan: str, value: str) -> bool:
    return _mention_pattern(value).search(plan) is not None


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
      only when the abandoned subtree recorded a failure anywhere in the
      episode. Score is the fraction of justified switches; never
      switching is 1.

    Every criterion reads the turns alone, so a trajectory loaded from its
    log scores exactly as it did live. A failed expand is recorded on the
    deepest node it reached, which is that turn's leaf_path, so a node's
    subtree holds a failure exactly when some failed expand's leaf_path is
    the node's path or extends it by " -> " and more calls. (An expand ends
    at "root" only when its first op failed there, so a switch away from
    "root" always finds that failure.)
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
        failed = [t.leaf_path for t in expands if t.failure_op_kind is not None]
        switches = 0
        justified = 0
        for prev, cur in zip(expands, expands[1:]):
            if cur.parent_path == prev.leaf_path:
                continue
            switches += 1
            below = prev.leaf_path + " -> "
            if any(f == prev.leaf_path or f.startswith(below) for f in failed):
                justified += 1
        return justified / switches if switches else 1.0


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


def score_trajectory(traj: Trajectory, target: Table) -> RewardBreakdown:
    """Score one episode against its target table.

    Only an answered episode solves its task: an empty_result whose 0-row
    table equals a 0-row target keeps its partial credit but scores outcome
    0, which keeps accuracy <= completion.
    """
    predicted = traj.final_table
    if predicted is None:
        r_out = r_part = s_sch = s_shp = s_cnt = 0.0
    else:
        exact, s_sch, s_shp, s_cnt = _similarities(predicted, target)
        r_part = _partial_credit(exact, s_sch, s_shp, s_cnt)
        r_out = 1.0 if exact and traj.answered else 0.0
    judge_scores = RuleJudge().score(traj)
    r_llm = judge_scores.mean
    return RewardBreakdown(
        outcome=r_out,
        partial=r_part,
        process=r_llm,
        total=ALPHA * r_out + BETA * r_part + GAMMA * r_llm,
        schema_sim=s_sch,
        shape_sim=s_shp,
        cell_sim=s_cnt,
        judge=judge_scores,
    )
