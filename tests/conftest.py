"""Shared builders for the test suite: small tables and randomized fixtures."""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from adprep.operators import execute_operator
from adprep.tables import BOOL, INT, LIST, REAL, TEXT, Table, make_table

WORDS = [
    "alpha", "bravo", "carol", "delta", "echo", "fox", "golf", "hotel",
    "india", "jazz", "kilo", "lima", "mike", "nova", "oscar", "papa",
]

COLUMN_POOL = ["a", "b", "c", "d", "e", "f", "g", "h"]

# characters str.splitlines breaks at that a call's string literal holds raw
SPLITLINES_ONLY_BREAKS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


def random_scalar(rng: random.Random, dtype: str):
    if dtype == INT:
        return rng.randint(-50, 50)
    if dtype == REAL:
        return round(rng.uniform(-100.0, 100.0), 3)
    if dtype == BOOL:
        return rng.random() < 0.5
    return rng.choice(WORDS)


def random_cell(rng: random.Random, dtype: str, null_rate: float = 0.15):
    if rng.random() < null_rate:
        return None
    if dtype == LIST:
        elem = rng.choice([INT, TEXT])
        return tuple(random_scalar(rng, elem) for _ in range(rng.randint(0, 3)))
    return random_scalar(rng, dtype)


def random_table(
    rng: random.Random,
    name: str = "t",
    max_rows: int = 8,
    max_cols: int = 4,
    dtypes=(INT, REAL, TEXT, BOOL, LIST),
    null_rate: float = 0.15,
    min_rows: int = 0,
    min_cols: int = 1,
) -> Table:
    n_cols = rng.randint(min_cols, max_cols)
    names = rng.sample(COLUMN_POOL, n_cols)
    col_dtypes = [rng.choice(dtypes) for _ in range(n_cols)]
    n_rows = rng.randint(min_rows, max_rows)
    rows = [
        tuple(random_cell(rng, dt, null_rate) for dt in col_dtypes)
        for _ in range(n_rows)
    ]
    return make_table(name, list(zip(names, col_dtypes)), rows)


def random_table_set(rng: random.Random, n_tables: int = 2, **kwargs) -> dict[str, Table]:
    out = {}
    for i in range(n_tables):
        name = f"t{i}"
        out[name] = random_table(rng, name=name, **kwargs)
    return out


def replay_chain(ops, state):
    """The table set an operator chain reaches from `state`, by calling
    execute_operator once per op: an oracle for the tree's node states that
    shares none of the tree's code. An ExecError propagates."""
    for op in ops:
        state = execute_operator(op, state)
    return state
