"""Operator registry, call syntax, and executor behavior."""

import calendar
import random
import re
from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from typing import Callable

import pytest

from adprep.operators import (
    DATE_PATTERNS,
    REGISTRY,
    ExecError,
    OpParseError,
    SubprocessScriptBackend,
    _parse_any_date,
    execute_operator,
    make_operator,
    name_bearing_values,
    parse_operator_call,
    registry_help,
    serialize_operator_call,
)
from adprep.tables import (
    BOOL, INT, LIST, REAL, TEXT, INT64_MAX, Schema, Table, make_table, tables_equal,
)
from reference_ops import REF_DATE_PATTERNS, REF_HANDLERS, diff_states, plain_state


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
    t = make_table("t", [("a", TEXT)], [("x",), (None,)])
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


def _strptime_loop(text):
    """The plain loop the shape filter must agree with: every pattern, in order."""
    for pattern in REF_DATE_PATTERNS:
        try:
            dt = datetime.strptime(text, pattern)
        except ValueError:
            continue
        if "%Y" in pattern and dt.year < 1000:
            continue
        return pattern, dt
    return None, None


_MONTHS = [calendar.month_name[i] for i in range(1, 13)]
_MONTH_ABBRS = [calendar.month_abbr[i] for i in range(1, 13)]
_EDIT_CHARS = "0123456789 \t\n-/:,.TtZ%aAyY\u0663\uff13\u00a0"


def _recase(rng, word):
    return rng.choice([word, word.upper(), word.lower(), word.swapcase()])


def _date_field(rng, directive):
    """One field, mostly valid; sometimes out of range, mis-sized or misnamed."""
    roll = rng.random()
    if directive == "%Y":
        if roll < 0.1:
            return f"{rng.randint(1, 999):04d}"  # four digits, yet below 1000
        if roll < 0.2:
            return rng.choice([f"{rng.randint(0, 99):02d}", str(rng.randint(10000, 99999))])
        return f"{rng.randint(1900, 2099):04d}"
    if directive == "%y":
        if roll < 0.1:
            return str(rng.choice([rng.randint(0, 9), rng.randint(100, 999)]))
        return f"{rng.randint(0, 99):02d}"
    if directive == "%d":
        day = rng.randint(1, 31) if roll < 0.93 else rng.choice([0, 32, 123])
        return rng.choice([str(day), f"{day:02d}", f"{day:2d}"])  # "%2d" pads with a space
    if directive == "%m":
        month = rng.randint(1, 12) if roll < 0.93 else rng.choice([0, 13, 123])
        return rng.choice([str(month), f"{month:02d}"])
    if directive in ("%H", "%M", "%S"):
        value = rng.randint(0, 59) if roll < 0.93 else rng.choice([24, 60, 61, 99, 100])
        return rng.choice([str(value), f"{value:02d}"])
    if roll < 0.1:
        return rng.choice(["Sept", "Janu", "Mayo", "x", ""])
    names = _MONTHS if (directive == "%B") == (roll < 0.85) else _MONTH_ABBRS
    return _recase(rng, rng.choice(names))


def _date_text(rng):
    """A string in the style of one pattern, with seeded variations and damage."""
    pattern = rng.choice(REF_DATE_PATTERNS)
    parts = []
    for token in re.findall(r"%.|\s|.", pattern):
        if token.startswith("%"):
            parts.append(_date_field(rng, token))
        elif token == " ":
            parts.append(rng.choice([" ", " ", " ", "  ", "\t", " \t "]))
        elif token == "T":
            parts.append(rng.choice("TTt "))
        else:
            parts.append(token if rng.random() < 0.97 else rng.choice("-/:,. "))
    text = "".join(parts)
    roll = rng.random()
    if roll < 0.05:
        text += rng.choice([" x", "Z", "0", ".5", " ", "\n"])
    elif roll < 0.08:
        text = rng.choice([" ", "\t", "0"]) + text
    elif roll < 0.13:  # Arabic-Indic and fullwidth digits, which \d and strptime accept
        text = "".join(
            chr(int(c) + rng.choice([0x660, 0xFF10])) if c in "0123456789" and rng.random() < 0.5
            else c
            for c in text
        )
    for _ in range(rng.choice([0] * 7 + [1, 2, 3])):
        i = rng.randint(0, len(text))
        edit = rng.random()
        if edit < 0.4 and text:
            text = text[:i] + text[i + 1:]
        elif edit < 0.7:
            text = text[:i] + rng.choice(_EDIT_CHARS) + text[i:]
        elif text:
            text = text[:i] + rng.choice(_EDIT_CHARS) + text[i + 1:]
    return text


def test_date_patterns_match_the_reference():
    assert DATE_PATTERNS == REF_DATE_PATTERNS


def test_shape_filter_agrees_with_the_plain_strptime_loop():
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
