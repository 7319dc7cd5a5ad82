"""Operator registry, call syntax, and executor behavior."""

import random
import re
from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from typing import Callable

import pytest

from adprep.operators import (
    AGG_FNS,
    DATE_PATTERNS,
    P_AGG_MAP,
    P_ASCENDING,
    P_CODE,
    P_COLUMN,
    P_COLUMN_LIST,
    P_ENUM,
    P_EXPR,
    P_INT,
    P_NAME_LIST,
    P_NEW_COLUMN,
    P_NEW_COLUMN_LIST,
    P_RENAME_MAP,
    P_TABLE,
    P_TABLE_LIST,
    P_TEXT,
    PARSE_MEMO_SIZE,
    REGISTRY,
    ExecError,
    OperatorInstance,
    OpParseError,
    Param,
    SubprocessScriptBackend,
    _coerce_param,
    _read_any_date,
    execute_operator,
    make_operator,
    name_bearing_values,
    parse_operator_call,
    registry_help,
    serialize_operator_call,
)
from adprep.tables import (
    BOOL, INT, LIST, REAL, TEXT, INT64_MAX, ColumnSpec, Schema, Table, make_table,
    tables_equal,
)
from adprep.tree import ReasoningTree
import reference_call
import reference_expr
from reference_expr import expr_nodes
from reference_ops import GENERATORS as REF_GENERATORS
from reference_ops import (
    REF_DATE_PATTERNS, REF_HANDLERS, _date_text, _strptime_loop, diff_states, plain_state,
)
from conftest import COLUMN_POOL, random_table_set
from test_expr import _LEX_PIECES, _random_expr
from test_tables import _typed


def _parse_any_date(text):
    """What StandardizeDatetime reads `text` as, a datetime or None."""
    fields = _read_any_date(text)
    return None if fields is None else datetime(*fields)


def run(op_text, state, **kwargs):
    return execute_operator(parse_operator_call(op_text), state, **kwargs)


def movies_state():
    movies = make_table(
        "movies",
        [("id", INT), ("title", TEXT), ("director_id", INT)],
        [
            (1, "Alien", 10),
            (2, "Arrival", 11),
            (2, "Arrival", 11),
            (3, "Solaris", None),
        ],
    )
    directors = make_table(
        "directors",
        [("director_id", INT), ("director", TEXT)],
        [(10, "Scott"), (11, "Villeneuve"), (12, "Tarkovsky")],
    )
    ratings = make_table("ratings", [("id", INT), ("score", REAL)], [(1, 8.5)])
    return {"movies": movies, "directors": directors, "ratings": ratings}


# --- registry ---------------------------------------------------------------


def test_registry_has_thirty_operators():
    assert len(REGISTRY) == 30
    by_category = {}
    for sig in REGISTRY.values():
        by_category.setdefault(sig.category, []).append(sig.kind)
    assert {k: len(v) for k, v in by_category.items()} == {
        "cleaning": 5,
        "normalization": 3,
        "schema": 7,
        "rows": 3,
        "aggregation": 3,
        "combination": 3,
        "reshaping": 5,
        "program": 1,
    }


def test_registry_help_mentions_every_operator():
    text = registry_help()
    for kind in REGISTRY:
        assert kind + "(" in text
    assert "[cleaning]" in text


# --- call parsing -----------------------------------------------------------


def test_parse_simple_call():
    op = parse_operator_call('Deduplicate("movies", ["id"], "first")')
    assert op.kind == "Deduplicate"
    assert op.params == {"table": "movies", "subset": ["id"], "keep": "first"}


def test_parse_accepts_bare_identifiers():
    op = parse_operator_call("Deduplicate(movies, [id], first)")
    assert op.params == {"table": "movies", "subset": ["id"], "keep": "first"}


def test_parse_scalar_widens_to_list():
    op = parse_operator_call('DropColumn("t", "a")')
    assert op.params["columns"] == ["a"]


def test_parse_single_quotes_and_maps():
    op = parse_operator_call("RenameColumn('t', {'a': 'b', c: d})")
    assert op.params["rename_map"] == {"a": "b", "c": "d"}


def test_parse_numbers_and_bools():
    op = parse_operator_call('TopK("t", 3)')
    assert op.params["k"] == 3
    op = parse_operator_call('Sort("t", ["a", "b"], [true, false])')
    assert op.params["ascending"] == [True, False]


def test_parse_expr_parameter_becomes_ast():
    op = parse_operator_call('Filter("t", "col(\\"a\\") > 1")')
    from adprep.expr import Binary, ColRef, Lit

    assert op.params["func"] == Binary(">", ColRef("a"), Lit(1))


def test_a_built_tree_gets_the_checks_parsed_text_gets():
    from adprep.expr import MAX_DEPTH, Call, ColRef, Unary

    deep = ColRef("a")
    for _ in range(MAX_DEPTH + 1):
        deep = Unary("not", deep)
    for tree, message in [
        (Call("nope", (ColRef("a"),)), "unknown identifier 'nope'"),
        (Call("upper", ()), "upper() takes 1..1 arguments, got 0"),
        (deep, f"expression nests deeper than {MAX_DEPTH} levels"),
    ]:
        with pytest.raises(OpParseError) as err:
            make_operator("ValueTransform", "t", "a", tree)
        assert str(err.value).startswith(f"ValueTransform func: embedded DSL error: {message} at position")
    op = make_operator("ValueTransform", "t", "a", Call("upper", (ColRef("a"),)))
    assert op.params["func"] == Call("upper", (ColRef("a"),))
    assert parse_operator_call(op.text) == op


def test_parse_errors():
    for bad, fragment in [
        ('Nope("t")', "unknown operator"),
        ('TopK("t")', "takes 2 parameters"),
        ('TopK("t", 1) extra', "trailing"),
        ('TopK("t", "x")', "expects an integer"),
        ('Deduplicate("t", ["a"], "middle")', "expects one of"),
        ('Filter("t", "col(")', "DSL error"),
        ('GroupBy("t", ["a"], {"x": "median"})', "unknown aggregate"),
        ('DropNA("t", ["a"], ', "expected a value"),
        ('Filter("t", "unterminated', "unterminated string"),
        ('DropNA("t", ' + "[" * 2000 + "]" * 2000 + ', "any")', "lists nest deeper"),
        ('Filter("t", "' + "(" * 2000 + "true" + ")" * 2000 + '")', "nests deeper"),
    ]:
        with pytest.raises(OpParseError) as err:
            parse_operator_call(bad)
        assert fragment in str(err.value)
    # a grammar error in call text ends with its position, as a lexer error does
    for bad, message in [
        ('DropNA("t", ["a"], ', "expected a value, found None at position 19"),
        ('RenameColumn("t", {"a" "b"})', "expected COLON, found 'b' at position 23"),
    ]:
        with pytest.raises(OpParseError) as err:
            parse_operator_call(bad)
        assert str(err.value) == message


def test_overflowing_real_literal_is_a_parse_error():
    # a literal that reads as inf would serialize as `inf`, which does not parse back
    for text, message in [
        ('TopK("t", 1e400)', "bad number literal '1e400' at position 10"),
        ('Sort("t", ["a"], [-1e400])', "bad number literal '-1e400' at position 18"),
        ('AddNewColumn("t", "x", "1e400")', "bad number literal '1e400' at position 0"),
    ]:
        with pytest.raises(OpParseError) as err:
            parse_operator_call(text)
        assert message in str(err.value)


def test_parse_call_fuzz_raises_only_op_parse_error():
    rng = random.Random(1808)
    kinds = sorted(REGISTRY) + ["Nope", "col"]
    pieces = _LEX_PIECES + ['"t"', '"a"', ", ", "[", "]", "{", "}", '"a": "b"', '"col(\\"a\\") > 1"']
    for _ in range(5_000):
        args = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 10)))
        try:
            parse_operator_call(f"{rng.choice(kinds)}({args}{rng.choice([')', ''])}")
        except OpParseError:
            pass


# call texts in every form the grammar reads: both quotes, bare identifiers,
# a scalar for a list, signed and exponent numbers, maps; and last, lists
# nested to the cap, which make_operator rejects, and one level past it
_CALL_SEEDS = [
    "Deduplicate(movies, id, first)",
    "RenameColumn('t', {a: 'b', \"c d\": e})",
    'GroupBy("t", [], {"x": "sum", y: count})',
    'Sort("t", ["a", b], [true, false])',
    'TopK("t", -12)',
    'Filter("t", \'col("a") > -.5e-3 or is_null(col("b"))\')',
    'ExeCode(["a"], "out", "line one\\nline two")',
    'DropNA("t", ' + "[" * 64 + '"a"' + "]" * 64 + ', "any")',
    'Sort("t", "a", ' + "[" * 65 + "true" + "]" * 65 + ")",
]
# pieces a mutation inserts: the call grammar's punctuation, literals and keywords
_CALL_PIECES = [
    "(", ")", "[", "]", "{", "}", ",", ":", "->", '"', "'", "\\", "-", ".", "e", " ",
    "1", "-.5", "2.5e3", "1e400", "true", "false", "null", "x", '"y"', "col", "[[",
]


def _mutated_call(rng: random.Random, text: str, kinds: list[str]) -> str:
    """`text` with up to three spans deleted, replaced or grown by a piece,
    and one time in five another operator's name."""
    if rng.random() < 0.2:
        text = rng.choice(kinds) + text[text.index("("):]
    for _ in range(rng.randint(0, 3)):
        i = rng.randint(0, len(text))
        j = i if rng.random() < 0.4 else min(len(text), i + rng.randint(1, 3))
        piece = "" if rng.random() < 0.3 else rng.choice(_CALL_PIECES)
        text = text[:i] + piece + text[j:]
    return text


def test_call_parser_matches_the_parser_it_replaced():
    """parse_operator_call against the call parser and writer it replaced
    (reference_call) on 20 000 seeded mutants of call texts: the same
    accept or reject, an equal instance with the same text, and the same
    error, to which a grammar error now adds its position."""
    rng = random.Random(3401)
    seeds = _CALL_SEEDS + [REF_GENERATORS[kind](rng)[1].text for kind in REF_GENERATORS for _ in range(5)]
    kinds = sorted(REGISTRY) + ["Nope", "col"]
    outcomes = Counter()
    for _ in range(20_000):
        text = _mutated_call(rng, rng.choice(seeds), kinds)
        try:
            want = reference_call.parse_call(text)
        except OpParseError as exc:
            want = str(exc)
        try:
            got = parse_operator_call.__wrapped__(text)
        except OpParseError as exc:
            got = str(exc)
        if isinstance(want, str):
            assert isinstance(got, str) and re.fullmatch(re.escape(want) + r"( at position \d+)?", got), text
            outcomes["reject"] += 1
        else:
            assert got == want and got.text == reference_call.render_call(want), text
            outcomes["accept"] += 1
    assert min(outcomes.values()) > 2_000, outcomes


def test_serialize_round_trip():
    calls = [
        'Deduplicate("movies", ["id"], "first")',
        'Filter("t", "col(\\"a\\") > 1 and col(\\"b\\") != null")',
        'RenameColumn("t", {"a": "b"})',
        'GroupBy("sales", ["city"], {"amount": "sum", "id": "count"})',
        'Sort("t", ["a"], [true, false])',
        'TopK("t", 5)',
        'Join("movies", "directors", ["director_id"], "inner")',
        'Union(["a", "b"], "distinct")',
        'Subtitle("t", "a title, with comma", "note")',
        'ExeCode(["a"], "out", "line one\\nline two")',
    ]
    for text in calls:
        op = parse_operator_call(text)
        canon = serialize_operator_call(op)
        assert parse_operator_call(canon) == op
        # canonical text is a fixed point
        assert serialize_operator_call(parse_operator_call(canon)) == canon


def test_name_bearing_values():
    op = parse_operator_call('RenameColumn("t", {"a": "b"})')
    assert name_bearing_values(op) == ["t", "a", "b"]
    op = parse_operator_call('GroupBy("sales", ["city"], {"amount": "sum"})')
    assert name_bearing_values(op) == ["sales", "city", "amount"]
    op = parse_operator_call('Filter("t", "col(\\"a\\") > 1")')
    assert name_bearing_values(op) == ["t"]


# --- the call-text memo -------------------------------------------------------


def test_shared_parsed_ops_survive_every_operator():
    # every caller of one text gets the same instance, so no operator may
    # change the params of the op it runs
    rng = random.Random(1301)
    t = make_table("t", [("a", INT)], [(1,)])
    backend = CallableScriptBackend(lambda code, tables, target: tables["t"])
    cases = [({"t": t}, make_operator("ExeCode", ["t"], "out", "pass"))]
    for kind in REF_GENERATORS:
        cases += [REF_GENERATORS[kind](rng)[:2] for _ in range(20)]
    assert {op.kind for _, op in cases} == set(REGISTRY)
    for tables, made in cases:
        text = serialize_operator_call(made)
        op = parse_operator_call(text)
        try:
            execute_operator(op, dict(tables), script_backend=backend)
        except ExecError:
            pass
        fresh = parse_operator_call.__wrapped__(text)
        assert op == fresh and op is parse_operator_call(text), text
        assert op.text == text == fresh.text


def test_call_memo_is_bounded():
    first = 'TopK("t", 0)'
    parse_operator_call(first)
    for k in range(PARSE_MEMO_SIZE + 10):
        parse_operator_call(f'TopK("t", {k + 1})')
    info = parse_operator_call.cache_info()
    assert info.maxsize == PARSE_MEMO_SIZE and info.currsize == PARSE_MEMO_SIZE
    misses = info.misses
    parse_operator_call(first)  # evicted, so parsed again
    assert parse_operator_call.cache_info().misses == misses + 1


def test_malformed_call_text_raises_on_every_call():
    bad = 'TopK("t", "x")'
    before = parse_operator_call.cache_info()
    for _ in range(3):
        with pytest.raises(OpParseError, match="expects an integer"):
            parse_operator_call(bad)
    after = parse_operator_call.cache_info()
    assert after.misses == before.misses + 3 and after.hits == before.hits


# --- cleaning ---------------------------------------------------------------


def test_dropna_any_and_all():
    t = make_table("t", [("a", INT), ("b", TEXT)], [(1, "x"), (None, "y"), (None, None)])
    out = run('DropNA("t", [], "any")', {"t": t})
    assert out["t"].rows == ((1, "x"),)
    out = run('DropNA("t", [], "all")', {"t": t})
    assert out["t"].rows == ((1, "x"), (None, "y"))
    out = run('DropNA("t", ["b"], "any")', {"t": t})
    assert out["t"].rows == ((1, "x"), (None, "y"))


def test_imputation_mean_promotes_int_column():
    t = make_table("t", [("a", INT)], [(1,), (None,), (4,)])
    out = run('MissingValueImputation("t", "a", "mean")', {"t": t})
    assert out["t"].schema.columns[0].dtype == REAL
    assert out["t"].rows == ((1.0,), (2.5,), (4.0,))


def test_imputation_median_takes_lower_middle():
    t = make_table("t", [("a", INT)], [(1,), (3,), (2,), (4,), (None,)])
    out = run('MissingValueImputation("t", "a", "median")', {"t": t})
    assert out["t"].rows[-1] == (2,)
    assert out["t"].schema.columns[0].dtype == INT


def test_imputation_mode_breaks_ties_low():
    t = make_table("t", [("a", TEXT)], [("b",), ("a",), ("b",), ("a",), (None,)])
    out = run('MissingValueImputation("t", "a", "mode")', {"t": t})
    assert out["t"].rows[-1] == ("a",)


def test_min_max_and_mode_order_text_without_encoding_it():
    # a lone surrogate has no UTF-8 form; it still orders by code point
    t = make_table("t", [("k", INT), ("s", TEXT)],
                   [(1, "\ud800"), (1, "a"), (1, None), (2, "b")])
    out = run('GroupBy("t", ["k"], {"s": "max"})', {"t": t})
    assert out["t"].rows == ((1, "\ud800"), (2, "b"))
    out = run('GroupBy("t", ["k"], {"s": "min"})', {"t": t})
    assert out["t"].rows == ((1, "a"), (2, "b"))
    t = make_table("t", [("s", TEXT)], [("\ud800",), ("a",), (None,)])
    out = run('MissingValueImputation("t", "s", "mode")', {"t": t})
    assert out["t"].rows[-1] == ("a",)
    t = make_table("t", [("s", TEXT)], [("\ud800",), ("a",), ("\ud800",), (None,)])
    out = run('MissingValueImputation("t", "s", "mode")', {"t": t})
    assert out["t"].rows[-1] == ("\ud800",)


def test_imputation_rejects_all_null_and_text_mean():
    t = make_table("t", [("a", INT)], [(None,)])
    with pytest.raises(ExecError):
        run('MissingValueImputation("t", "a", "mean")', {"t": t})
    for dtype, cell in ((TEXT, "x"), (BOOL, True)):
        t = make_table("t", [("a", dtype)], [(cell,), (None,)])
        with pytest.raises(ExecError) as err:
            run('MissingValueImputation("t", "a", "mean")', {"t": t})
        assert "numeric" in str(err.value)


def test_deduplicate_first_and_last():
    t = make_table("t", [("a", INT), ("b", TEXT)], [(1, "x"), (1, "y"), (2, "z")])
    out = run('Deduplicate("t", ["a"], "first")', {"t": t})
    assert out["t"].rows == ((1, "x"), (2, "z"))
    out = run('Deduplicate("t", ["a"], "last")', {"t": t})
    assert out["t"].rows == ((1, "y"), (2, "z"))
    # empty subset means the whole row
    t2 = make_table("t", [("a", INT)], [(1,), (1,), (2,)])
    out = run('Deduplicate("t", [], "first")', {"t": t2})
    assert out["t"].rows == ((1,), (2,))


def test_error_detection_adds_flag_column():
    t = make_table("t", [("age", INT)], [(5,), (250,), (None,)])
    out = run('ErrorDetection("t", "age", "col(\\"age\\") > 150")', {"t": t})
    assert out["t"].column_names == ("age", "age_invalid")
    assert out["t"].column("age_invalid") == (False, True, None)
    assert out["t"].schema.columns[1].dtype == BOOL


def test_outlier_detection_remove_and_flag():
    rows = [(10.0,)] * 10 + [(1000.0,)]
    t = make_table("t", [("x", REAL)], rows)
    out = run('OutlierDetection("t", "x", "remove")', {"t": t})
    assert out["t"].n_rows == 10
    out = run('OutlierDetection("t", "x", "flag")', {"t": t})
    assert out["t"].column("x_outlier") == (False,) * 10 + (True,)
    with pytest.raises(ExecError):
        run('OutlierDetection("t", "x", "flag")', {"t": make_table("t", [("x", TEXT)], [("a",)])})


def test_outlier_detection_keeps_nulls():
    rows = [(10.0,)] * 10 + [(1000.0,), (None,)]
    t = make_table("t", [("x", REAL)], rows)
    out = run('OutlierDetection("t", "x", "remove")', {"t": t})
    assert out["t"].n_rows == 11
    assert out["t"].rows[-1] == (None,)


# --- normalization ----------------------------------------------------------


def test_value_transform_skips_nulls():
    t = make_table("t", [("name", TEXT)], [("ada",), (None,), ("Grace",)])
    out = run('ValueTransform("t", "name", "upper(col(\\"name\\"))")', {"t": t})
    assert out["t"].column("name") == ("ADA", None, "GRACE")


def test_value_transform_can_change_dtype():
    t = make_table("t", [("n", TEXT)], [("12",), ("34",)])
    out = run('ValueTransform("t", "n", "to_int(col(\\"n\\"))")', {"t": t})
    assert out["t"].schema.columns[0].dtype == INT
    assert out["t"].column("n") == (12, 34)


def test_standardize_datetime_mixed_formats():
    t = make_table(
        "t", [("d", TEXT)],
        [("2023-01-05",), ("01/07/2023",), ("March 5, 2021",), ("01/02/23",), (None,)],
    )
    out = run('StandardizeDatetime("t", "d", "%Y-%m-%d")', {"t": t})
    assert out["t"].column("d") == (
        "2023-01-05", "2023-01-07", "2021-03-05", "2023-01-02", None,
    )


def test_standardize_datetime_bad_cell_reports_value():
    t = make_table("t", [("d", TEXT)], [("2023-01-05",), ("not a date",)])
    with pytest.raises(ExecError) as err:
        run('StandardizeDatetime("t", "d", "%Y-%m-%d")', {"t": t})
    assert err.value.detail == "not a date"
    assert "row 1" in err.value.message


HUGE = "9" * 400  # an int literal past a float's range


@pytest.mark.parametrize("call", [
    f'AddNewColumn("t", "d", "to_real({HUGE})")',
    f'AddNewColumn("t", "d", "{HUGE} % 2.0")',
    f'CalculateStatistic("t", "avg", "{HUGE}")',
], ids=["to_real", "modulo", "avg"])
def test_float_overflow_is_an_exec_error(call):
    t = make_table("t", [("a", INT)], [(1,), (2,)])
    with pytest.raises(ExecError) as err:
        run(call, {"t": t})
    assert err.value.op == parse_operator_call(call)
    assert "too large" in err.value.message


@pytest.mark.parametrize("op", [
    make_operator("StandardizeDatetime", "t", "d", "%Y\udc80"),
    make_operator("StandardizeDatetime", "t", "d", "%j\udc80"),
])
def test_standardize_datetime_format_strftime_cannot_write_is_an_exec_error(op):
    # a lone surrogate has no text form, so strftime rejects the format
    t = make_table("t", [("d", TEXT)], [(None,), ("2023-01-05",)])
    with pytest.raises(ExecError) as err:
        execute_operator(op, {"t": t})
    assert err.value.detail == op.params["format"]
    assert err.value.message == (
        f"cannot write a date with format {op.params['format']!r}: surrogates not allowed"
    )
    # a column with no date to write never reaches strftime
    empty = make_table("t", [("d", TEXT)], [(None,)])
    assert execute_operator(op, {"t": empty})["t"].column("d") == (None,)


def test_format_date_format_strftime_cannot_write_is_an_exec_error():
    t = make_table("t", [("d", TEXT)], [("2023-01-05",)])
    op = make_operator("AddNewColumn", "t", "e", 'format_date(col("d"), "\udc80")')
    with pytest.raises(ExecError) as err:
        execute_operator(op, {"t": t})
    assert err.value.message == (
        "row 0: cannot write a date with format '\\udc80': surrogates not allowed"
        " in 'format_date(col(\"d\"), \"\\udc80\")'"
    )


def test_date_patterns_match_the_reference():
    assert DATE_PATTERNS == REF_DATE_PATTERNS


def test_date_kernel_agrees_with_the_plain_strptime_loop():
    rng = random.Random(5150)
    winners = Counter()
    for _ in range(20000):
        text = _date_text(rng)
        pattern, want = _strptime_loop(text)
        assert _parse_any_date(text) == want, repr(text)
        winners[pattern] += 1
    # the corpus reaches every pattern and a fair share of misses
    assert set(winners) == set(REF_DATE_PATTERNS) | {None}
    assert 4000 < winners[None] < 16000
    for text, want in [
        ("2023-01-05t10:00:00", datetime(2023, 1, 5, 10)),
        ("5 JANUARY 2023", datetime(2023, 1, 5)),
        ("march\t \t5,  2021", datetime(2021, 3, 5)),
        ("01/ 7/2023", datetime(2023, 1, 7)),
        ("\u0662\u0660\u0662\u0663-01-05", datetime(2023, 1, 5)),
        ("0099-01-05", None),
        ("02/30/2023", None),
        ("2023-01-05 x", None),
    ]:
        assert _strptime_loop(text)[1] == want, text
        assert _parse_any_date(text) == want, text


@pytest.mark.parametrize("text, want", [
    ("01/05/68", datetime(2068, 1, 5)),  # %y: 00-68 is the 2000s
    ("01/05/69", datetime(1969, 1, 5)),  # and 69-99 the 1900s
    ("2024-02-29", datetime(2024, 2, 29)),
    ("2023-02-29", None),  # datetime() rejects it, and no later pattern reads it
    ("2023-01-05T23:59:59", datetime(2023, 1, 5, 23, 59, 59)),
    ("2023-01-05T23:59:60", None),  # %S reads 60, datetime() rejects it
    ("Sept 5, 2023", None),
    ("\u0662\u0660\u0662\u0663-01-05", datetime(2023, 1, 5)),  # Arabic-Indic year
    ("\uff12\uff10\uff12\uff13-01-05", datetime(2023, 1, 5)),  # fullwidth year
    (" 7 MARCH 2021", datetime(2021, 3, 7)),  # a space-padded %d
    ("\u017fep 5, 2023", None),  # "ſep" matches "sep" case-insensitively but names no month
])
def test_date_kernel_pinned_cases(text, want):
    assert _strptime_loop(text)[1] == want
    assert _parse_any_date(text) == want


def test_date_kernel_knows_the_calendar():
    """Days 28-31 of every month, in common and leap years and across the
    century rule, read as strptime reads them."""
    for year in (1900, 1999, 2000, 2023, 2024, 2100):
        for month in range(1, 13):
            for day in (28, 29, 30, 31):
                text = f"{year}-{month:02d}-{day:02d}"
                assert _parse_any_date(text) == _strptime_loop(text)[1], text


def test_standardize_datetime_columns_agree_with_the_strptime_loop():
    """Whole columns of seeded date texts, with repeats, nulls, cells holding
    "\\n" and Unicode digits, at 1, 6 and 1000 rows: StandardizeDatetime
    gives strftime's text of each cell's first reading, or fails at the first
    bad row with the reference's message and detail."""
    rng = random.Random(2718)
    readings = {}
    while len(readings) < 2500:
        text = _date_text(rng)
        readings[text] = _strptime_loop(text)[1]
    good = [text for text, dt in readings.items() if dt is not None]
    bad = [text for text, dt in readings.items() if dt is None]
    odd = [text for text in readings if "\n" in text or not text.isascii()]
    assert len(good) > 800 and len(bad) > 800 and len(odd) > 100
    formats = ["%Y-%m-%d", "%d/%m/%y %H:%M:%S", "%B %d, %Y", "%b %d %%Y %j", "%A %p"]
    failures = Counter()
    for n in range(90):
        rows = (1, 6, 1000)[n % 3] if n < 84 else 1000
        pool = rng.choice([good, good + odd, list(readings)])
        cells = [None if rng.random() < 0.1 else rng.choice(pool) for _ in range(rows)]
        if rng.random() < 0.4:  # a bad cell somewhere, maybe after other bad ones
            cells[rng.randrange(rows)] = rng.choice(bad)
        fmt = formats[n % len(formats)]
        op = make_operator("StandardizeDatetime", "t", "d", fmt)
        try:
            got = execute_operator(op, {"t": make_table("t", [("d", TEXT)], [(v,) for v in cells])})
        except ExecError as exc:
            got = (exc.message, exc.detail)
        first_bad = next((r for r, v in enumerate(cells) if v is not None and readings[v] is None), None)
        if first_bad is None:
            want = tuple(None if v is None else readings[v].strftime(fmt) for v in cells)
            assert got["t"].column("d") == want, fmt
        else:
            v = cells[first_bad]
            assert got == (f"row {first_bad}: cannot parse date {v!r}", v)
        failures[first_bad is not None] += 1
    assert failures[True] > 20 and failures[False] > 20
    # a cell that is not text fails at its own row, naming the column
    t = make_table("t", [("d", INT)], [(None,), (None,), (7,), (None,)])
    with pytest.raises(ExecError) as err:
        run('StandardizeDatetime("t", "d", "%Y")', {"t": t})
    assert (err.value.message, err.value.detail) == ("row 2: expected text, got '7'", "d")


def test_standardize_datetime_patterns_the_oracle_never_renders():
    # the oracle's generator only renders six of the eleven patterns
    t = make_table("t", [("d", TEXT), ("k", INT)], [
        ("2023-01-05 10:11:12", 0), ("05-01-2023", 1), ("5 January 2023", 2),
        ("Jan 5, 2023", 3), ("5 Jan 2023", 4), (" 7 MARCH 2021", 5), ("dec 31, 1999", 6),
        ("31 Dec 1999", 7), ("2023-01-05  23:59:59", 8), (None, 9),
    ])
    op = make_operator("StandardizeDatetime", "t", "d", "%Y-%m-%d %H:%M")
    out = execute_operator(op, {"t": t})
    want = REF_HANDLERS["StandardizeDatetime"](op.params, plain_state({"t": t}))
    assert diff_states(out, want) is None
    assert out["t"].column("d") == (
        "2023-01-05 10:11", "2023-01-05 00:00", "2023-01-05 00:00", "2023-01-05 00:00",
        "2023-01-05 00:00", "2021-03-07 00:00", "1999-12-31 00:00", "1999-12-31 00:00",
        "2023-01-05 23:59", None,
    )


def test_cast_type_conversions():
    t = make_table("t", [("x", TEXT)], [("12",), ("-3",)])
    out = run('CastType("t", "x", "int")', {"t": t})
    assert out["t"].column("x") == (12, -3)
    t = make_table("t", [("x", REAL)], [(2.7,), (-2.7,)])
    out = run('CastType("t", "x", "int")', {"t": t})
    assert out["t"].column("x") == (2, -2)
    t = make_table("t", [("x", INT)], [(0,), (1,), (None,)])
    out = run('CastType("t", "x", "bool")', {"t": t})
    assert out["t"].column("x") == (False, True, None)
    t = make_table("t", [("x", BOOL)], [(True,), (False,)])
    out = run('CastType("t", "x", "text")', {"t": t})
    assert out["t"].column("x") == ("true", "false")


def test_cast_type_failure_cites_row_and_cell():
    t = make_table("t", [("x", TEXT)], [("1",), ("2",), ("2,5",)])
    with pytest.raises(ExecError) as err:
        run('CastType("t", "x", "real")', {"t": t})
    assert "row 2" in err.value.message
    assert err.value.detail == "2,5"


def test_cast_type_of_twenty_digit_text_to_int_is_an_exec_error():
    t = make_table("t", [("x", TEXT)], [("1",), ("12345678901234567890",)])
    with pytest.raises(ExecError) as err:
        run('CastType("t", "x", "int")', {"t": t})
    assert "64-bit" in err.value.message
    assert err.value.detail == "x"
    t = make_table("t", [("x", REAL)], [(1e30,)])
    with pytest.raises(ExecError, match="64-bit"):
        run('CastType("t", "x", "int")', {"t": t})


# --- schema editing ---------------------------------------------------------


def test_rename_column():
    t = make_table("t", [("a", INT), ("b", INT)], [(1, 2)])
    out = run('RenameColumn("t", {"a": "x"})', {"t": t})
    assert out["t"].column_names == ("x", "b")
    with pytest.raises(ExecError) as err:
        run('RenameColumn("t", {"a": "b"})', {"t": t})
    assert "collides" in err.value.message


def test_add_new_column():
    t = make_table("t", [("a", INT)], [(1,), (2,)])
    out = run('AddNewColumn("t", "double", "col(\\"a\\") * 2")', {"t": t})
    assert out["t"].column("double") == (2, 4)
    with pytest.raises(ExecError):
        run('AddNewColumn("t", "a", "1")', {"t": t})


def test_drop_column_and_select_column():
    t = make_table("t", [("a", INT), ("b", INT), ("c", INT)], [(1, 2, 3)])
    out = run('DropColumn("t", ["b"])', {"t": t})
    assert out["t"].column_names == ("a", "c")
    # selection keeps stored order, not request order
    out = run('SelectColumn("t", ["c", "a"])', {"t": t})
    assert out["t"].column_names == ("a", "c")
    with pytest.raises(ExecError):
        run('DropColumn("t", ["a", "b", "c"])', {"t": t})


def test_split_column():
    t = make_table("t", [("email", TEXT), ("id", INT)], [("ada@mit.edu", 1), (None, 2)])
    out = run(
        'SplitColumn("t", "email", ["user", "host"], "split(col(\\"email\\"), \\"@\\")")',
        {"t": t},
    )
    assert out["t"].column_names == ("user", "host", "id")
    assert out["t"].rows == (("ada", "mit.edu", 1), (None, None, 2))


def test_concatenate_keeps_sources():
    t = make_table("t", [("first", TEXT), ("last", TEXT)], [("Ada", "Lovelace")])
    out = run(
        'Concatenate("t", ["first", "last"], "full", '
        '"concat(col(\\"first\\"), \\" \\", col(\\"last\\"))")',
        {"t": t},
    )
    assert out["t"].column_names == ("first", "last", "full")
    assert out["t"].rows == (("Ada", "Lovelace", "Ada Lovelace"),)


def test_subtitle_adds_constant_column():
    t = make_table("t", [("a", INT)], [(1,), (2,)])
    out = run('Subtitle("t", "2021 survey", "source")', {"t": t})
    assert out["t"].column("source") == ("2021 survey", "2021 survey")
    assert out["t"].schema.columns[1].dtype == TEXT


# --- row selection ----------------------------------------------------------


def test_filter_null_predicate_drops_row():
    t = make_table("t", [("a", INT)], [(1,), (None,), (5,)])
    out = run('Filter("t", "col(\\"a\\") > 2")', {"t": t})
    assert out["t"].rows == ((5,),)


def test_filter_compares_text_holding_a_lone_surrogate():
    # a lone surrogate has no UTF-8 form; text compares by code point
    t = make_table("t", [("s", TEXT)], [("a",), ("\ud800",), ("\ue000",), ("\U0001d538",)])
    op = make_operator("Filter", "t", 'col("s") < "\ud800"')
    assert execute_operator(op, {"t": t})["t"].rows == (("a",),)
    op = make_operator("Filter", "t", 'col("s") >= "\ud800"')
    assert execute_operator(op, {"t": t})["t"].rows == (("\ud800",), ("\ue000",), ("\U0001d538",))


def test_filter_rejects_non_boolean_predicate():
    t = make_table("t", [("a", INT)], [(1,)])
    with pytest.raises(ExecError) as err:
        run('Filter("t", "col(\\"a\\") + 1")', {"t": t})
    assert "expected boolean" in err.value.message


def test_sort_multi_key_and_null_position():
    t = make_table(
        "t", [("a", INT), ("b", TEXT)],
        [(2, "x"), (None, "y"), (1, "b"), (1, "a")],
    )
    out = run('Sort("t", ["a", "b"], true)', {"t": t})
    assert out["t"].rows == ((None, "y"), (1, "a"), (1, "b"), (2, "x"))
    out = run('Sort("t", ["a", "b"], [false, true])', {"t": t})
    assert out["t"].rows == ((2, "x"), (1, "a"), (1, "b"), (None, "y"))


def test_sort_is_stable():
    t = make_table("t", [("k", INT), ("seq", INT)], [(1, 0), (1, 1), (0, 2), (1, 3)])
    out = run('Sort("t", ["k"], true)', {"t": t})
    assert out["t"].column("seq") == (2, 0, 1, 3)


def test_sort_mixed_flags_ties_and_numbers_match_reference():
    from itertools import product

    from reference_ops import REF_HANDLERS, diff_states, plain_state

    # int keys with ties and nulls, reals that tie across -0.0 / 0.0 and
    # 2.0 / 2, list keys mixing int and real elements; seq exposes stability
    t = make_table(
        "t", [("k", INT), ("x", REAL), ("tags", LIST), ("seq", INT)],
        [
            (2, 0.0, (1, 2.0), 0),
            (1, -0.0, (1.0, 2), 1),
            (2, 2.0, (1,), 2),
            (None, 2.5, None, 3),
            (2, -0.0, (1, 2), 4),
            (1, None, (), 5),
            (1, 2.0, (1, 2.5), 6),
            (2, 0.0, (1.0, 2.0), 7),
            (None, None, (0, 9), 8),
            (1, -0.0, (1, 2), 9),
        ],
    )
    checked = 0
    for keys in (["k", "x"], ["x", "k", "tags"], ["tags", "k"]):
        for flags in product([True, False], repeat=len(keys)):
            op = make_operator("Sort", "t", keys, list(flags))
            out = execute_operator(op, {"t": t})
            want = REF_HANDLERS["Sort"](op.params, plain_state({"t": t}))
            assert diff_states(out, want) is None, (keys, flags)
            checked += 1
    assert checked == 16
    out = execute_operator(make_operator("Sort", "t", ["k", "x"], [False, True]), {"t": t})
    assert out["t"].column("seq") == (0, 4, 7, 2, 5, 1, 9, 6, 8, 3)


def test_topk():
    t = make_table("t", [("a", INT)], [(1,), (2,), (3,)])
    assert run('TopK("t", 2)', {"t": t})["t"].rows == ((1,), (2,))
    assert run('TopK("t", 9)', {"t": t})["t"].n_rows == 3
    assert run('TopK("t", 0)', {"t": t})["t"].n_rows == 0
    with pytest.raises(ExecError):
        run('TopK("t", -1)', {"t": t})


# --- aggregation ------------------------------------------------------------


def test_group_by_aggregates():
    t = make_table(
        "sales", [("city", TEXT), ("amount", INT), ("tag", TEXT)],
        [
            ("b", 4, "p"),
            ("a", 1, "q"),
            ("b", 6, None),
            ("a", None, "q"),
            (None, 10, "r"),
        ],
    )
    out = run(
        'GroupBy("sales", ["city"], {"amount": "sum", "tag": "count_distinct"})',
        {"sales": t},
    )
    got = out["sales"]
    assert got.column_names == ("city", "amount_sum", "tag_count_distinct")
    # groups appear in first-appearance order; nulls form their own group
    assert got.rows == (("b", 10, 1), ("a", 1, 1), (None, 10, 1))


def test_group_by_all_null_group_sums_to_null():
    t = make_table("t", [("k", TEXT), ("v", INT)], [("a", None), ("a", None), ("b", 1)])
    out = run('GroupBy("t", ["k"], {"v": "sum"})', {"t": t})
    assert out["t"].rows == (("a", None), ("b", 1))


def test_group_by_concat_first_last():
    t = make_table("t", [("k", TEXT), ("v", INT)], [("a", 1), ("a", None), ("a", 3)])
    out = run('GroupBy("t", ["k"], {"v": "concat"})', {"t": t})
    assert out["t"].rows == (("a", "1,3"),)
    out = run('GroupBy("t", ["k"], {"v": "first"})', {"t": t})
    assert out["t"].rows == (("a", 1),)
    out = run('GroupBy("t", ["k"], {"v": "last"})', {"t": t})
    assert out["t"].rows == (("a", 3),)


def test_group_by_avg_is_real():
    t = make_table("t", [("k", TEXT), ("v", INT)], [("a", 1), ("a", 2)])
    out = run('GroupBy("t", ["k"], {"v": "avg"})', {"t": t})
    assert out["t"].rows == (("a", 1.5),)
    assert out["t"].schema.columns[1].dtype == REAL


def test_group_by_sum_overflow_is_an_exec_error():
    t = make_table("t", [("k", TEXT), ("v", INT)], [("a", INT64_MAX), ("a", 1), ("b", 1)])
    with pytest.raises(ExecError) as err:
        run('GroupBy("t", ["k"], {"v": "sum"})', {"t": t})
    assert "64-bit" in err.value.message
    assert err.value.detail == "v_sum"
    t = make_table("t", [("k", TEXT), ("v", REAL)], [("a", 1e308), ("a", 1e308)])
    with pytest.raises(ExecError, match="non-finite"):
        run('GroupBy("t", ["k"], {"v": "sum"})', {"t": t})


def test_computed_aggregates_are_checked_in_pivot_and_calculate_statistic():
    t = make_table("t", [("k", TEXT), ("c", TEXT), ("v", INT)],
                   [("a", "x", INT64_MAX), ("a", "x", 1)])
    with pytest.raises(ExecError, match="64-bit"):
        run('Pivot("t", ["k"], "c", "v", "sum")', {"t": t})
    t = make_table("t", [("v", INT)], [(INT64_MAX,), (1,)])
    with pytest.raises(ExecError, match="64-bit"):
        run('CalculateStatistic("t", "sum", "col(\\"v\\")")', {"t": t})


def test_count_and_calculate_statistic():
    t = make_table("t", [("a", INT)], [(1,), (5,), (None,)])
    out = run('Count("t")', {"t": t})
    assert out["t"].column_names == ("count",)
    assert out["t"].rows == ((3,),)
    out = run('CalculateStatistic("t", "avg", "col(\\"a\\")")', {"t": t})
    assert out["t"].column_names == ("avg",)
    assert out["t"].rows == ((3.0,),)
    empty = make_table("t", [("a", INT)], [])
    out = run('CalculateStatistic("t", "sum", "col(\\"a\\")")', {"t": empty})
    assert out["t"].rows == ((0,),)
    with pytest.raises(ExecError):
        run('CalculateStatistic("t", "avg", "col(\\"a\\")")', {"t": empty})


# --- combination ------------------------------------------------------------


def test_join_inner_consumes_inputs_and_names_output():
    state = movies_state()
    out = run('Join("movies", "directors", ["director_id"], "inner")', state)
    assert set(out) == {"movies_directors_join", "ratings"}
    assert out["ratings"] is state["ratings"]  # untouched tables ride along by reference
    j = out["movies_directors_join"]
    assert j.column_names == ("director_id", "id", "title", "director")
    assert j.rows == (
        (10, 1, "Alien", "Scott"),
        (11, 2, "Arrival", "Villeneuve"),
        (11, 2, "Arrival", "Villeneuve"),
    )


def test_join_left_outer_and_null_keys():
    state = movies_state()
    out = run('Join("movies", "directors", ["director_id"], "left")', state)
    j = out["movies_directors_join"]
    # the null-keyed movie row survives with a null director
    assert j.rows[-1] == (None, 3, "Solaris", None)
    state = movies_state()
    out = run('Join("movies", "directors", ["director_id"], "outer")', state)
    j = out["movies_directors_join"]
    assert (12, None, None, "Tarkovsky") in j.rows
    assert j.n_rows == 5


def test_join_right():
    state = movies_state()
    out = run('Join("movies", "directors", ["director_id"], "right")', state)
    j = out["movies_directors_join"]
    assert j.n_rows == 4
    assert j.rows[-1] == (12, None, None, "Tarkovsky")


def test_join_collision_suffixes():
    a = make_table("a", [("k", INT), ("name", TEXT)], [(1, "left")])
    b = make_table("b", [("k", INT), ("name", TEXT)], [(1, "right")])
    out = run('Join("a", "b", ["k"], "inner")', {"a": a, "b": b})
    j = out["a_b_join"]
    assert j.column_names == ("k", "name_left", "name_right")
    assert j.rows == ((1, "left", "right"),)


def test_join_suffix_that_meets_a_name_is_a_duplicate_output_column():
    a = make_table("a", [("k", INT), ("name", TEXT), ("name_left", TEXT)], [(1, "l", "x")])
    b = make_table("b", [("k", INT), ("name", TEXT)], [(1, "r")])
    with pytest.raises(ExecError) as err:
        run('Join("a", "b", ["k"], "inner")', {"a": a, "b": b})
    assert (err.value.message, err.value.detail) == ("duplicate output column 'name_left'", "name_left")


def test_join_promotes_mixed_key_dtypes():
    a = make_table("a", [("k", INT)], [(2,)])
    b = make_table("b", [("k", REAL), ("v", TEXT)], [(2.0, "hit")])
    out = run('Join("a", "b", ["k"], "inner")', {"a": a, "b": b})
    j = out["a_b_join"]
    assert j.schema.columns[0].dtype == REAL
    assert j.rows == ((2.0, "hit"),)


def test_union_all_and_distinct():
    a = make_table("a", [("x", INT), ("y", TEXT)], [(1, "p"), (2, "q")])
    b = make_table("b", [("y", TEXT), ("x", INT)], [("p", 1), ("r", 3)])
    out = run('Union(["a", "b"], "all")', {"a": a, "b": b})
    u = out["a_b_union"]
    assert set(out) == {"a_b_union"}
    assert u.column_names == ("x", "y")  # first table sets column order
    assert u.rows == ((1, "p"), (2, "q"), (1, "p"), (3, "r"))
    out = run('Union(["a", "b"], "distinct")', {"a": a, "b": b})
    assert out["a_b_union"].rows == ((1, "p"), (2, "q"), (3, "r"))


def test_union_rejects_mismatched_columns():
    a = make_table("a", [("x", INT)], [(1,)])
    b = make_table("b", [("z", INT)], [(1,)])
    with pytest.raises(ExecError) as err:
        run('Union(["a", "b"], "all")', {"a": a, "b": b})
    assert "do not match" in err.value.message


def test_append_keeps_name_and_promotes():
    a = make_table("a", [("x", INT)], [(1,)])
    b = make_table("b", [("x", REAL)], [(2.5,)])
    out = run('Append("a", "b")', {"a": a, "b": b})
    assert set(out) == {"a"}
    assert out["a"].schema.columns[0].dtype == REAL
    assert out["a"].rows == ((1.0,), (2.5,))


# --- reshaping --------------------------------------------------------------


def test_pivot_first_strict():
    t = make_table(
        "sales", [("city", TEXT), ("quarter", TEXT), ("amount", INT)],
        [("a", "q1", 1), ("a", "q2", 2), ("b", "q1", 3)],
    )
    out = run('Pivot("sales", ["city"], "quarter", "amount", "first_strict")', {"sales": t})
    p = out["sales_pivot"]
    assert set(out) == {"sales_pivot"}
    assert p.column_names == ("city", "q1", "q2")
    assert p.rows == (("a", 1, 2), ("b", 3, None))


def test_pivot_duplicate_pair_errors_under_first_strict_but_sums():
    t = make_table(
        "t", [("k", TEXT), ("c", TEXT), ("v", INT)],
        [("a", "x", 1), ("a", "x", 2)],
    )
    with pytest.raises(ExecError):
        run('Pivot("t", ["k"], "c", "v", "first_strict")', {"t": t})
    out = run('Pivot("t", ["k"], "c", "v", "sum")', {"t": t})
    assert out["t_pivot"].rows == (("a", 3),)


def test_pivot_null_label_errors():
    t = make_table("t", [("k", TEXT), ("c", TEXT), ("v", INT)], [("a", None, 1)])
    with pytest.raises(ExecError):
        run('Pivot("t", ["k"], "c", "v", "first_strict")', {"t": t})


@pytest.mark.parametrize("label, what", [(None, "null"), ("", "empty")])
def test_pivot_label_that_names_no_column_names_the_columns_column(label, what):
    t = make_table("t", [("k", TEXT), ("c", TEXT), ("v", INT)], [("a", "x", 1), ("b", label, 2)])
    with pytest.raises(ExecError) as err:
        run('Pivot("t", ["k"], "c", "v", "sum")', {"t": t})
    assert (err.value.message, err.value.detail) == (f"row 1: {what} value in columns column", "c")


def test_stack():
    t = make_table("t", [("id", INT), ("x", INT), ("y", INT)], [(1, 10, 20), (2, 30, 40)])
    out = run('Stack("t", ["id"], ["x", "y"])', {"t": t})
    s = out["t_stack"]
    assert s.column_names == ("id", "variable", "value")
    assert s.rows == (
        (1, "x", 10), (1, "y", 20), (2, "x", 30), (2, "y", 40),
    )


def test_wide_to_long():
    t = make_table(
        "t", [("id", INT), ("inc_2020", INT), ("inc_2021", INT), ("pop2020", INT)],
        [(1, 100, 110, 5), (2, 200, 220, 7)],
    )
    out = run('WideToLong("t", ["inc", "pop"], ["id"], "year")', {"t": t})
    w = out["t_widetolong"]
    assert w.column_names == ("id", "year", "inc", "pop")
    assert w.rows == (
        (1, "2020", 100, 5),
        (1, "2021", 110, None),
        (2, "2020", 200, 7),
        (2, "2021", 220, None),
    )


def test_wide_to_long_longest_stub_wins():
    t = make_table("t", [("id", INT), ("ab_x", INT), ("a_y", INT)], [(1, 2, 3)])
    out = run('WideToLong("t", ["a", "ab"], ["id"], "j")', {"t": t})
    w = out["t_widetolong"]
    assert w.column_names == ("id", "j", "a", "ab")
    assert w.rows == ((1, "x", None, 2), (1, "y", 3, None))


def test_transpose():
    t = make_table("t", [("a", INT), ("b", TEXT)], [(1, "x"), (2, None)])
    out = run('Transpose("t")', {"t": t})
    tr = out["t_transpose"]
    assert tr.column_names == ("column", "r0", "r1")
    assert tr.rows == (("a", "1", "2"), ("b", "x", None))


def test_explode():
    t = make_table(
        "t", [("id", INT), ("tags", "list")],
        [(1, ("a", "b")), (2, ()), (3, None)],
    )
    out = run('Explode("t", "tags")', {"t": t})
    e = out["t_explode"]
    assert e.rows == ((1, "a"), (1, "b"), (2, None), (3, None))
    assert e.schema.columns[1].dtype == TEXT


# --- program synthesis ------------------------------------------------------


@dataclass
class CallableScriptBackend:
    """In-process ExeCode backend: fn(code, tables, target) -> Table."""

    fn: Callable[[str, dict[str, Table], str], Table]

    def run(self, code: str, tables: dict[str, Table], target: str) -> Table:
        return self.fn(code, tables, target)


def test_execode_disabled_by_default():
    t = make_table("t", [("a", INT)], [(1,)])
    with pytest.raises(ExecError) as err:
        run('ExeCode(["t"], "out", "whatever")', {"t": t})
    assert "disabled" in err.value.message


def test_execode_callable_backend():
    t = make_table("t", [("a", INT)], [(1,)])
    backend = CallableScriptBackend(lambda code, tables, target: tables["t"])
    out = run('ExeCode(["t"], "result", "pass")', {"t": t}, script_backend=backend)
    assert set(out) == {"result"}
    assert out["result"].name == "result"
    assert out["result"].rows == ((1,),)


def test_execode_output_cells_are_checked():
    t = make_table("t", [("a", INT)], [(1,)])
    bad = Table.trusted(Schema("x", t.schema.columns), (("one",),))
    backend = CallableScriptBackend(lambda code, tables, target: bad)
    with pytest.raises(ExecError, match="text cell in int column"):
        run('ExeCode(["t"], "result", "pass")', {"t": t}, script_backend=backend)


def test_execode_backend_that_misbehaves_is_an_exec_error():
    t = make_table("t", [("a", INT)], [(1,)])

    def broken(code, tables, target):
        raise RuntimeError("backend fell over")

    for fn, message in [
        (broken, "script backend failed: backend fell over"),
        (lambda code, tables, target: [(1,)], "script backend returned a non-table"),
    ]:
        with pytest.raises(ExecError) as err:
            run('ExeCode(["t"], "result", "pass")', {"t": t}, script_backend=CallableScriptBackend(fn))
        assert err.value.message == message


def test_execode_subprocess_round_trip():
    t = make_table("t", [("a", INT), ("b", TEXT)], [(1, "x"), (2, "y")])
    code = (
        "import sys\n"
        "lines = sys.stdin.read().splitlines()\n"
        "assert lines[0] == '--- table: t'\n"
        "print('\\n'.join(lines[1:]))\n"
    )
    backend = SubprocessScriptBackend(["python3"], timeout=30.0)
    op = make_operator("ExeCode", ["t"], "copy", code)
    out = execute_operator(op, {"t": t}, script_backend=backend)
    assert tables_equal(out["copy"], t)
    assert out["copy"].name == "copy"


def test_execode_subprocess_failure_and_timeout():
    t = make_table("t", [("a", INT)], [(1,)])
    backend = SubprocessScriptBackend(["python3"], timeout=30.0)
    op = make_operator("ExeCode", ["t"], "out", "raise SystemExit(3)")
    with pytest.raises(ExecError) as err:
        execute_operator(op, {"t": t}, script_backend=backend)
    assert "code 3" in err.value.message
    slow = SubprocessScriptBackend(["python3"], timeout=1.0)
    op = make_operator("ExeCode", ["t"], "out", "import time\ntime.sleep(30)\n")
    with pytest.raises(ExecError) as err:
        execute_operator(op, {"t": t}, script_backend=slow)
    assert "timed out" in err.value.message


def test_execode_subprocess_output_keeps_a_quoted_cr_and_must_be_utf8():
    t = make_table("t", [("a", INT)], [(1,)])
    backend = SubprocessScriptBackend(["python3"], timeout=30.0)
    write = "import sys\nsys.stdout.buffer.write({!r})\n".format
    op = make_operator("ExeCode", ["t"], "out", write(b'a\r\n"x\ry"\r\n'))
    assert execute_operator(op, {"t": t}, script_backend=backend)["out"].rows == (("x\ry",),)
    op = make_operator("ExeCode", ["t"], "out", write(b"a\n\xff\n"))
    with pytest.raises(ExecError) as err:
        execute_operator(op, {"t": t}, script_backend=backend)
    assert "not UTF-8" in err.value.message and err.value.detail == "stdout"
    op = make_operator("ExeCode", ["t"], "out", write(b"a,b\n1\n"))
    with pytest.raises(ExecError, match="script output is not a csv table: "):
        execute_operator(op, {"t": t}, script_backend=backend)


def test_execode_subprocess_launch_failure_is_an_exec_error(tmp_path):
    t = make_table("t", [("a", INT)], [(1,)])
    backend = SubprocessScriptBackend([str(tmp_path / "no-such-interpreter")], timeout=30.0)
    op = make_operator("ExeCode", ["t"], "out", "print('a')")
    with pytest.raises(ExecError, match="cannot launch script backend"):
        execute_operator(op, {"t": t}, script_backend=backend)
    tree = ReasoningTree({"t": t})
    result = tree.expand(tree.root, [op], script_backend=backend)
    assert result.chain == [] and result.leaf is tree.root and tree.root.state == {"t": t}
    assert result.failure.op == op and tree.root.failures == [result.failure]
    assert "cannot launch script backend" in result.failure.message


# --- executor discipline ----------------------------------------------------


def test_failure_leaves_state_untouched():
    state = movies_state()
    before = dict(state)
    with pytest.raises(ExecError):
        run('DropColumn("movies", ["nope"])', state)
    assert state == before
    assert state["movies"] is before["movies"]


def test_missing_table_cites_name():
    with pytest.raises(ExecError) as err:
        run('Count("ghost")', {})
    assert err.value.detail == "ghost"


def test_single_table_ops_replace_in_place():
    state = movies_state()
    out = run('Deduplicate("movies", [], "first")', state)
    assert set(out) == set(state)
    assert out["movies"].n_rows == 3
    assert state["movies"].n_rows == 4


def test_op_consumes_the_key_it_names():
    # a key that differs from its table's name is consumed like any other;
    # the output is stored under its own name
    t = make_table("t", [("a", INT)], [(1,), (None,)])
    out = run('DropNA("x", [], "any")', {"x": t})
    assert set(out) == {"t"} and out["t"].rows == ((1,),)
    assert set(run('Transpose("x")', {"x": t})) == {"t_transpose"}


@pytest.mark.parametrize("call, message", [
    ('Filter("t", "10 / col(\\"a\\")")', "row 0: func returned '10.0', expected boolean"),
    ('ErrorDetection("t", "a", "10 / col(\\"a\\")")', "row 0: func must return boolean or null"),
    ('SplitColumn("t", "a", ["b"], "10 / col(\\"a\\")")', "row 0: func must yield a list"),
])
def test_first_failing_row_names_the_error(call, message):
    # row 0's result has the wrong type and row 1 divides by zero: func runs
    # row by row, so the check on row 0 fails before row 1 is evaluated
    t = make_table("t", [("a", INT)], [(1,), (0,)])
    with pytest.raises(ExecError) as err:
        run(call, {"t": t})
    assert err.value.message == message


@pytest.mark.parametrize("call, duplicate", [
    ('SplitColumn("t", "a", ["b", "c", "c"], "split(col(\\"a\\"), \\"-\\")")', "c"),
    ('WideToLong("t", ["x", "y", "y"], ["a"], "j")', "y"),
    ('GroupBy("t", ["a", "b_x", "b_x"], {})', "b_x"),
    ('RenameColumn("t", {"b_x": "a"})', "a"),
])
def test_a_duplicate_name_error_names_the_repeated_name(call, duplicate):
    # a later name is the repeated one: the turn's failure_detail must not
    # point at the first name given
    t = make_table("t", [("a", TEXT), ("b_x", INT)], [("p-q", 1)])
    with pytest.raises(ExecError) as err:
        run(call, {"t": t})
    assert err.value.detail == duplicate


@pytest.mark.parametrize("call, columns, row, message, detail", [
    ('MissingValueImputation("t", "a", "mean")', [("a", REAL)], (1e308,),
     "mean is not finite", "a"),
    ('Stack("t", ["variable"], ["a"])', [("variable", TEXT), ("a", INT)], ("x", 1),
     "id_vars column 'variable' collides with an output column", "variable"),
    ('WideToLong("t", ["a"], ["i"], "j")', [("i", INT), ("a_1", INT), ("a-1", INT)], (1, 2, 3),
     "columns collide on stub/suffix pair ('a', '1')", "a-1"),
])
def test_an_operator_that_cannot_build_its_output_names_why(call, columns, row, message, detail):
    t = make_table("t", columns, [row, row])
    with pytest.raises(ExecError) as err:
        run(call, {"t": t})
    assert (err.value.message, err.value.detail) == (message, detail)


def test_a_hand_built_operator_of_no_known_kind_is_an_exec_error():
    """make_operator and the parser admit only registered kinds and param
    kinds; an instance or a Param built by hand past them still fails typed."""
    op = OperatorInstance("Nope", {})
    with pytest.raises(ExecError) as err:
        execute_operator(op, {})
    assert (err.value.op, err.value.message, err.value.detail) == (op, "unknown operator 'Nope'", "Nope")
    with pytest.raises(AssertionError, match="unhandled param kind nokind"):
        _coerce_param(1, Param("x", "nokind"), "Nope")


def test_unknown_column_in_func_fails_only_on_an_evaluated_row():
    # func is compiled once per call, but a column it names that the table
    # lacks is an error of the first row evaluated, not of the compile
    empty = make_table("t", [("a", INT)], [])
    assert run('Filter("t", "col(\\"zz\\") > 1")', {"t": empty})["t"].rows == ()
    assert run('ValueTransform("t", "a", "col(\\"zz\\")")', {"t": empty})["t"].rows == ()
    t = make_table("t", [("a", INT)], [(None,), (None,), (4,)])
    with pytest.raises(ExecError) as err:
        run('ValueTransform("t", "a", "col(\\"zz\\") + 1")', {"t": t})
    # the rows null at the transformed column are skipped, unevaluated
    assert err.value.message == "row 2: unknown column 'zz' in 'col(\"zz\")'"
    assert err.value.detail == 'col("zz")'
    nulls = make_table("t", [("a", INT)], [(None,), (None,)])
    assert run('ValueTransform("t", "a", "col(\\"zz\\")")', {"t": nulls})["t"] == nulls


@pytest.mark.parametrize("call", [
    'ValueTransform("t", "name", "upper(trim(col(\\"name\\")))")',
    'Filter("t", "col(\\"n\\") % 3 == 0 and not is_null(col(\\"name\\"))")',
])
def test_func_is_compiled_once_per_call(call, monkeypatch):
    """A 1000-row func operator compiles its expression once, one _compile
    per node, and evaluates no row through eval_expr or the tree walker."""
    from adprep import expr, operators

    compiled, nodes = [], []
    compile_expr, compile_node = expr.compile_expr, expr._compile
    monkeypatch.setattr(
        operators, "compile_expr", lambda e, names: compiled.append(e) or compile_expr(e, names)
    )
    monkeypatch.setattr(expr, "_compile", lambda e, index: nodes.append(e) or compile_node(e, index))
    monkeypatch.setattr(reference_expr, "eval_expr", lambda e, row: pytest.fail("eval_expr ran"))
    monkeypatch.setattr(reference_expr, "walk_expr", lambda e, row: pytest.fail("walk_expr ran"))
    rng = random.Random(5)
    rows = [(i, rng.choice([None, " Ada ", "bo"])) for i in range(1000)]
    t = make_table("t", [("n", INT), ("name", TEXT)], rows)
    for _ in range(2):
        out = run(call, {"t": t})["t"]
        (e,) = compiled
        assert len(nodes) == len(list(expr_nodes(e)))
        compiled.clear()
        nodes.clear()
    if call.startswith("Filter"):
        assert out.rows == tuple(r for r in rows if r[0] % 3 == 0 and r[1] is not None)
    else:
        assert out.rows == tuple((n, None if s is None else s.strip().upper()) for n, s in rows)


# --- out-of-domain executor fuzz ----------------------------------------------

# names that the random tables hold, names they never hold, and names that
# need escapes in call text
FUZZ_NAMES = COLUMN_POOL + ["long_name", "zz", 'qu"ote', "back\\slash", "new\nline"]
FUZZ_TEXTS = ["out", "%Y-%m-%d", "%d/%m/%Y %H:%M", "%B %d, %Y", "", 'qu"ote', "tab\t", "\u00e9"]


def _fuzz_value(rng, p, state, near):
    """A value for one parameter of a REGISTRY signature. Names come mostly
    from the table set: tables from `near`, which share column names, and
    columns from its first table; sometimes they come from elsewhere."""
    k = p.kind
    tables = list(state)
    cols = list(state[near[0]].column_names)

    def column():
        return rng.choice(cols) if cols and rng.random() < 0.85 else rng.choice(FUZZ_NAMES)

    if k == P_TABLE:
        return rng.choice(near) if rng.random() < 0.7 else rng.choice(tables + ["ghost"])
    if k == P_TABLE_LIST:
        return [rng.choice(tables) for _ in range(rng.randint(1, 3))]
    if k == P_COLUMN:
        return column()
    if k == P_NEW_COLUMN:
        return rng.choice(FUZZ_NAMES)
    if k == P_COLUMN_LIST:
        return list(dict.fromkeys(column() for _ in range(rng.randint(0, 3))))
    if k in (P_NEW_COLUMN_LIST, P_NAME_LIST):
        return rng.sample(FUZZ_NAMES, rng.randint(1, 3))
    if k == P_RENAME_MAP:
        return {rng.choice(FUZZ_NAMES): rng.choice(FUZZ_NAMES) for _ in range(rng.randint(0, 2))}
    if k == P_AGG_MAP:
        return {rng.choice(FUZZ_NAMES): rng.choice(AGG_FNS) for _ in range(rng.randint(0, 3))}
    if k == P_EXPR:
        return _random_expr(rng, rng.randint(0, 3))
    if k == P_CODE:
        return "pass"
    if k == P_TEXT:
        return rng.choice(FUZZ_TEXTS)
    if k == P_ENUM:
        return rng.choice(p.options)
    if k == P_INT:
        return rng.randint(-2, 10)
    if k == P_ASCENDING:
        if rng.random() < 0.5:
            return rng.random() < 0.5
        return [rng.random() < 0.5 for _ in range(rng.randint(1, 3))]
    raise AssertionError(f"no fuzz values for parameter kind {k}")


def _real_twin(rng, t, name):
    """t's rows shuffled under a new name, with its int columns recast as
    real, so joins and unions meet int / real column pairs."""
    specs = tuple(ColumnSpec(c.name, REAL if c.dtype == INT else c.dtype) for c in t.schema.columns)
    rows = [
        tuple(float(v) if c.dtype == REAL and type(v) is int else v for v, c in zip(row, specs))
        for row in t.rows
    ]
    rng.shuffle(rows)
    return Table(Schema(name, specs), tuple(rows))


def test_executor_fuzz_out_of_domain():
    # random ops over random tables whose columns often have the wrong type for
    # the op: only ExecError may escape, every output the checked constructor
    # would accept unchanged, and every call text round-trips
    rng = random.Random(909)
    backend = CallableScriptBackend(lambda code, tables, target: rng.choice(list(tables.values())))
    kinds = list(REGISTRY)
    done = Counter()
    for _ in range(2000):
        state = random_table_set(rng, n_tables=rng.randint(1, 3), max_rows=6)
        if rng.random() < 0.5:
            state["twin"] = _real_twin(rng, state["t0"], "twin")
        for _ in range(10):
            kind = rng.choice(kinds)
            if {"t0", "twin"} <= state.keys() and rng.random() < 0.5:
                near = ["t0", "twin"]
            else:
                near = [rng.choice(list(state))]
            op = make_operator(
                kind, *(_fuzz_value(rng, p, state, near) for p in REGISTRY[kind].params)
            )
            text = serialize_operator_call(op)
            back = parse_operator_call(text)
            assert back == op and serialize_operator_call(back) == text, text
            before = dict(state)
            try:
                out = execute_operator(op, state, script_backend=backend)
            except ExecError:
                done["failed"] += 1
                continue
            done["ok"] += 1
            assert state.keys() == before.keys(), text
            assert all(state[k] is t for k, t in before.items()), text
            # the named tables are consumed and one new table takes their
            # place under its own name; every other table is carried over
            named = set()
            for p in REGISTRY[kind].params:
                if p.kind == P_TABLE:
                    named.add(op.params[p.name])
                elif p.kind == P_TABLE_LIST:
                    named.update(op.params[p.name])
            inputs = {id(t) for t in state.values()}
            (t,) = [t for t in out.values() if id(t) not in inputs]
            assert out.keys() == (state.keys() - named) | {t.name} and out[t.name] is t, text
            assert all(out[k] is state[k] for k in out if k != t.name), text
            assert type(t.rows) is tuple and all(type(row) is tuple for row in t.rows), text
            assert _typed(Table(t.schema, t.rows).rows) == _typed(t.rows), text
            if rng.random() < 0.5:
                state = out
    assert done["ok"] > 5000 and done["failed"] > 5000, done
