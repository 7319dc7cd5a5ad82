"""Pipeline execution and text round-trip."""

import random

import pytest

from adprep.operators import OpParseError, make_operator
from adprep.pipeline import parse_pipeline, run_pipeline, serialize_pipeline
from adprep.tables import INT, TEXT, make_table, tables_equal
from conftest import SPLITLINES_ONLY_BREAKS, random_table_set

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
    trace = run_pipeline(ops, sample_state())
    assert trace.ok
    assert len(trace.states) == 3
    assert set(trace.states[0]) == {"movies", "directors"}
    assert set(trace.states[1]) == {"movies", "directors"}
    assert set(trace.states[2]) == {"movies_directors_join"}
    assert trace.states[1]["movies"].n_rows == 2


def test_run_pipeline_short_circuits():
    ops = parse_pipeline(
        'Deduplicate("movies", ["id"], "first")\n'
        'DropColumn("movies", ["missing"])\n'
        'Count("movies")\n'
    )
    trace = run_pipeline(ops, sample_state())
    assert not trace.ok
    assert len(trace.states) == 2  # one operator ran before the failing one
    assert trace.failure.op == ops[1]
    assert trace.failure.detail == "missing"
    # the failing operator left no partial state behind
    assert set(trace.states[-1]) == {"movies", "directors"}


def test_run_pipeline_does_not_touch_input():
    state = sample_state()
    ops = parse_pipeline('Count("movies")\n')
    run_pipeline(ops, state)
    assert set(state) == {"movies", "directors"}
    assert state["movies"].n_rows == 3


def test_empty_pipeline_is_identity():
    state = sample_state()
    trace = run_pipeline([], state)
    assert trace.ok
    assert trace.states[-1] == state


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
        b = run_pipeline(ops, state)
        assert a.ok and b.ok
        for ta, tb in zip(a.states[-1].values(), b.states[-1].values()):
            assert tables_equal(ta, tb)
