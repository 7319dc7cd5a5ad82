"""Pipeline text round-trip (synthesis) and chain runs from a table set (tree)."""

import random

import pytest

from adprep.operators import OpParseError, make_operator
from adprep.synthesis import parse_pipeline, serialize_pipeline
from adprep.tables import INT, TEXT, make_table, tables_equal
from adprep.tree import run_pipeline
from conftest import SPLITLINES_ONLY_BREAKS, random_table_set, replay_chain

PIPELINE_TEXT = """
# tidy up and join
Deduplicate("movies", ["id"], "first")

Join("movies", "directors", ["director_id"], "inner")
"""


def sample_state():
    movies = make_table(
        "movies",
        [("id", INT), ("title", TEXT), ("director_id", INT)],
        [(1, "Alien", 10), (1, "Alien", 10), (2, "Arrival", 11)],
    )
    directors = make_table(
        "directors",
        [("director_id", INT), ("director", TEXT)],
        [(10, "Scott"), (11, "Villeneuve")],
    )
    return {"movies": movies, "directors": directors}


def test_parse_pipeline_skips_blanks_and_comments():
    ops = parse_pipeline(PIPELINE_TEXT)
    assert [op.kind for op in ops] == ["Deduplicate", "Join"]


def test_parse_pipeline_reports_line_number():
    text = 'Count("t")\nNope("t")\n'
    with pytest.raises(OpParseError) as err:
        parse_pipeline(text)
    assert str(err.value).startswith("line 2:")


def test_serialize_round_trip():
    ops = parse_pipeline(PIPELINE_TEXT)
    text = serialize_pipeline(ops)
    assert parse_pipeline(text) == ops
    assert text.endswith("\n")


@pytest.mark.parametrize("ch", SPLITLINES_ONLY_BREAKS)
def test_pipeline_lines_break_only_at_cr_and_lf(ch):
    ops = [
        make_operator("RenameColumn", "t", {"a": f"b{ch}c"}),
        make_operator("Filter", "t", f'col("{ch}") == "x{ch}"'),
    ]
    text = serialize_pipeline(ops)
    assert ch in text
    assert parse_pipeline(text) == ops
    assert parse_pipeline(text.replace("\n", "\r\n")) == ops
    assert parse_pipeline(text.replace("\n", "\r")) == ops


def test_run_pipeline_records_every_state():
    ops = parse_pipeline(PIPELINE_TEXT)
    result = run_pipeline(ops, sample_state())
    assert result.ok
    assert [node.op for node in result.chain] == ops and result.leaf is result.chain[-1]
    assert set(result.chain[0].state) == {"movies", "directors"}
    assert set(result.chain[1].state) == {"movies_directors_join"}
    assert result.chain[0].state["movies"].n_rows == 2


def test_run_pipeline_short_circuits():
    ops = parse_pipeline(
        'Deduplicate("movies", ["id"], "first")\n'
        'DropColumn("movies", ["missing"])\n'
        'Count("movies")\n'
    )
    result = run_pipeline(ops, sample_state())
    assert not result.ok
    assert len(result.chain) == 1  # one operator ran before the failing one
    assert result.failure.op == ops[1]
    assert result.failure.detail == "missing"
    # the failing operator left no partial state behind, and its record sits on the leaf
    assert result.leaf is result.chain[0] and result.leaf.failures == [result.failure]
    assert set(result.leaf.state) == {"movies", "directors"}


def test_run_pipeline_does_not_touch_input():
    state = sample_state()
    ops = parse_pipeline('Count("movies")\n')
    run_pipeline(ops, state)
    assert set(state) == {"movies", "directors"}
    assert state["movies"].n_rows == 3


def test_empty_pipeline_is_identity():
    state = sample_state()
    result = run_pipeline([], state)
    assert result.ok
    assert result.chain == []
    assert result.leaf.state == state and result.leaf.op is None


def test_random_pipelines_round_trip_and_replay():
    rng = random.Random(31)
    for _ in range(25):
        state = random_table_set(rng, n_tables=2, dtypes=(INT, TEXT), min_cols=2)
        names = list(state)
        ops = parse_pipeline(
            f'Deduplicate("{names[0]}", [], "first")\n'
            f'Count("{names[1]}")\n'
        )
        text = serialize_pipeline(ops)
        assert parse_pipeline(text) == ops
        a = run_pipeline(ops, state)
        assert a.ok
        b = replay_chain(ops, state)
        assert list(a.leaf.state) == list(b)
        for ta, tb in zip(a.leaf.state.values(), b.values()):
            assert tables_equal(ta, tb)
