"""Expression DSL: parsing, printing, evaluation."""

from __future__ import annotations

import random
import re
from collections import Counter
from datetime import datetime
from operator import ge, gt, le, lt
from pathlib import Path

import pytest

from adprep.expr import (
    Binary,
    Call,
    ColRef,
    EvalError,
    ExprParseError,
    FUNCTIONS,
    Lit,
    MAX_DEPTH,
    Unary,
    _ISO_FORMATS,
    compile_expr,
    eval_expr,
    parse_expr,
    print_expr,
    tokenize,
)
from adprep.tables import BOOL, INT, INT64_MAX, INT64_MIN, LIST, REAL, TEXT
from conftest import random_cell
from reference_expr import column_refs, expr_nodes, walk_expr
from reference_lexers import call_tokenize, expr_tokenize
from reference_ops import _date_text
from test_tables import _typed


def test_parse_simple_arithmetic():
    e = parse_expr('col("a") + 1')
    assert e == Binary("+", ColRef("a"), Lit(1))


def test_parse_conditional_imputation_shape():
    e = parse_expr('if(is_null(col("x")), 0, col("x"))')
    assert e == Call(
        "if",
        (Call("is_null", (ColRef("x"),)), Lit(0), ColRef("x")),
    )


def test_col_requires_string_literal():
    with pytest.raises(ExprParseError) as err:
        parse_expr("col(a)")
    assert err.value.position == 4


def test_parse_precedence():
    assert parse_expr("1 + 2 * 3") == Binary("+", Lit(1), Binary("*", Lit(2), Lit(3)))
    assert parse_expr("not true or false") == Binary(
        "or", Unary("not", Lit(True)), Lit(False)
    )
    assert parse_expr('col("a") > 1 and col("b") > 2') == Binary(
        "and",
        Binary(">", ColRef("a"), Lit(1)),
        Binary(">", ColRef("b"), Lit(2)),
    )


def test_parse_negative_literal_folds():
    assert parse_expr("-5") == Lit(-5)
    assert parse_expr("-2.5") == Lit(-2.5)
    assert parse_expr('-col("a")') == Unary("-", ColRef("a"))


def test_parse_string_escapes():
    assert parse_expr('"a\\"b\\n"') == Lit('a"b\n')
    assert parse_expr("'single'") == Lit("single")


def test_parse_errors_carry_position():
    with pytest.raises(ExprParseError):
        parse_expr("1 +")
    with pytest.raises(ExprParseError):
        parse_expr("(1")
    with pytest.raises(ExprParseError):
        parse_expr("frobnicate(1)")
    with pytest.raises(ExprParseError):
        parse_expr('"unterminated')
    with pytest.raises(ExprParseError):
        parse_expr("lower(1, 2)")  # arity


def test_overflowing_real_literal_is_a_bad_number_literal():
    # a literal that reads as inf would print as `inf`, which does not parse back
    for src, pos, text in [
        ("1e400", 0, "1e400"),
        ("-1e400", 1, "1e400"),
        ("1E+400 > 2", 0, "1E+400"),
        ('col("a") * .5e999', 11, ".5e999"),
    ]:
        with pytest.raises(ExprParseError) as err:
            parse_expr(src)
        assert str(err.value) == f"bad number literal {text!r} at position {pos}"
    assert parse_expr("1.7e308") == Lit(1.7e308)
    assert parse_expr("1e-400") == Lit(0.0)


@pytest.mark.parametrize(
    "nest",
    [
        lambda n: "(" * n + "1" + ")" * n,
        lambda n: "- " * n + "1",
        lambda n: "not " * n + "true",
        lambda n: "to_int(" * n + "1" + ")" * n,
        lambda n: " + ".join(["1"] * (n + 1)),
        lambda n: " or ".join(["true"] * (n + 1)),
    ],
    ids=["parens", "negation", "not", "calls", "plus-chain", "or-chain"],
)
def test_nesting_depth_is_capped(nest):
    # at the cap the tree parses, evaluates and prints; past it (and far past
    # it, where recursion would overflow the stack) parsing fails cleanly
    e = parse_expr(nest(MAX_DEPTH))
    assert parse_expr(print_expr(e)) == e
    eval_expr(e, {})
    for n in (MAX_DEPTH + 1, 1500):
        with pytest.raises(ExprParseError, match="nests deeper"):
            parse_expr(nest(n))


def test_eval_arithmetic():
    assert eval_expr(parse_expr('col("a") + 1'), {"a": 2}) == 3
    assert eval_expr(parse_expr("7 % 3"), {}) == 1
    assert eval_expr(parse_expr("1 / 2"), {}) == 0.5
    assert eval_expr(parse_expr("2.0 * 3"), {}) == 6.0


def test_eval_null_propagation():
    row = {"a": None, "b": 2}
    assert eval_expr(parse_expr('col("a") + 1'), row) is None
    assert eval_expr(parse_expr('col("a") > col("b")'), row) is None
    assert eval_expr(parse_expr('col("a") == col("a")'), row) is None
    assert eval_expr(parse_expr('lower(col("a"))'), row) is None
    assert eval_expr(parse_expr('not col("a")'), row) is None
    assert eval_expr(parse_expr('col("a") and true'), row) is None


def test_eval_null_exceptions():
    row = {"a": None}
    assert eval_expr(parse_expr('is_null(col("a"))'), row) is True
    assert eval_expr(parse_expr("is_null(1)"), {}) is False
    assert eval_expr(parse_expr('coalesce(col("a"), 7)'), row) == 7
    assert eval_expr(parse_expr('if(col("a"), 1, 2)'), row) == 2


def test_eval_lazy_branches():
    # untaken branches must not raise
    assert eval_expr(parse_expr('if(col("d") != 0, 1 / col("d"), 0.0)'), {"d": 0}) == 0.0
    assert eval_expr(parse_expr('coalesce(1, to_int("boom"))'), {}) == 1


def test_eval_division_by_zero_is_error():
    with pytest.raises(EvalError):
        eval_expr(parse_expr("1 / 0"), {})
    with pytest.raises(EvalError):
        eval_expr(parse_expr("1 % 0"), {})


def test_eval_failed_cast_is_error():
    with pytest.raises(EvalError) as err:
        eval_expr(parse_expr('to_int("12x")'), {})
    assert "12x" in str(err.value)
    assert eval_expr(parse_expr('to_int("12")'), {}) == 12
    assert eval_expr(parse_expr("to_int(2.7)"), {}) == 2
    assert eval_expr(parse_expr('to_real("2.5")'), {}) == 2.5
    assert eval_expr(parse_expr("to_text(true)"), {}) == "true"
    assert eval_expr(parse_expr("to_text(2.0)"), {}) == "2.0"


def test_eval_string_functions():
    row = {"s": "  Ada Lovelace  "}
    assert eval_expr(parse_expr('trim(col("s"))'), row) == "Ada Lovelace"
    assert eval_expr(parse_expr('upper(trim(col("s")))'), row) == "ADA LOVELACE"
    assert eval_expr(parse_expr('split(trim(col("s")), " ")'), row) == ("Ada", "Lovelace")
    assert eval_expr(parse_expr('replace("a-b-c", "-", "+")'), {}) == "a+b+c"
    assert eval_expr(parse_expr('substr("hello", 1, 3)'), {}) == "ell"
    assert eval_expr(parse_expr('substr("hello", 3, 99)'), {}) == "lo"
    assert eval_expr(parse_expr('contains("hello", "ell")'), {}) is True
    assert eval_expr(parse_expr('starts_with("hello", "he")'), {}) is True
    assert eval_expr(parse_expr('concat("a", "-", "b")'), {}) == "a-b"
    assert eval_expr(parse_expr('concat("n=", 2)'), {}) == "n=2"


def test_eval_list_indexing():
    row = {"v": ("x", "y")}
    assert eval_expr(parse_expr('at(col("v"), 1)'), row) == "y"
    with pytest.raises(EvalError):
        eval_expr(parse_expr('at(col("v"), 2)'), row)


def test_eval_dates():
    assert eval_expr(parse_expr('parse_date("01/05/2023", "%m/%d/%Y")'), {}) == "2023-01-05"
    assert eval_expr(parse_expr('format_date("2023-01-05", "%Y/%m/%d")'), {}) == "2023/01/05"
    with pytest.raises(EvalError):
        eval_expr(parse_expr('parse_date("nonsense", "%Y-%m-%d")'), {})


def test_dates_render_a_year_below_1000_with_four_digits():
    assert eval_expr(parse_expr('format_date("0999-01-05", "%Y-%m-%d")'), {}) == "0999-01-05"
    assert eval_expr(parse_expr('format_date("0007-12-31", "%d.%m.%Y")'), {}) == "31.12.0007"
    assert eval_expr(parse_expr('parse_date("05/01/0999", "%d/%m/%Y")'), {}) == "0999-01-05"
    # a literal %%Y stays the text "%Y", beside a padded year or not
    assert eval_expr(parse_expr('format_date("0999-01-05", "%%Y %Y %%%Y")'), {}) == "%Y 0999 %0999"
    assert eval_expr(parse_expr('format_date("2023-01-05", "%%Y %Y")'), {}) == "%Y 2023"


def test_format_date_reads_the_first_iso_format_strptime_reads():
    """format_date reads its text as the first of _ISO_FORMATS that strptime
    accepts, or raises EvalError when none does, over the seeded date corpus
    StandardizeDatetime's differential uses."""
    rng = random.Random(5150)
    render = compile_expr(parse_expr('format_date(col("d"), "%Y-%m-%d %H:%M:%S")'), ["d"])
    winners = Counter()
    for _ in range(20000):
        text = _date_text(rng)
        want = winner = None
        for fmt in _ISO_FORMATS:
            try:
                dt = datetime.strptime(text, fmt)
            except ValueError:
                continue
            # four year digits, which glibc's strftime %Y does not give below 1000
            want, winner = f"{dt.year:04d}-{dt:%m-%d %H:%M:%S}", fmt
            break
        try:
            got = render((text,))
        except EvalError:
            got = None
        assert got == want, repr(text)
        winners[winner] += 1
    assert set(winners) == {*_ISO_FORMATS, None}


def test_eval_unknown_column():
    with pytest.raises(EvalError) as err:
        eval_expr(parse_expr('col("missing")'), {"a": 1})
    assert "missing" in str(err.value)


def test_eval_type_mismatch_is_error():
    with pytest.raises(EvalError):
        eval_expr(parse_expr('1 + "x"'), {})
    with pytest.raises(EvalError):
        eval_expr(parse_expr('1 < "x"'), {})
    # equality across kinds is defined, not an error
    assert eval_expr(parse_expr('1 == "x"'), {}) is False
    assert eval_expr(parse_expr("1 == 1.0"), {}) is True


def test_text_order_is_utf8_byte_order_random():
    # code points on both sides of the surrogate block and of the BMP edge,
    # where UTF-16 order and UTF-8 byte order part ways
    pool = ["", "a", "Z", " ", "~", "\x7f", "\x80", "é", "\u07ff", "\u0800", "\ud7ff",
            "\ue000", "\uffee", "\uffff", "\U00010000", "\U0001d538", "\U0010ffff"]
    order = {"<": lt, "<=": le, ">": gt, ">=": ge}
    rng = random.Random(1302)
    for _ in range(2000):
        a, b = ("".join(rng.choices(pool, k=rng.randint(0, 3))) for _ in range(2))
        for op, want in order.items():
            got = eval_expr(Binary(op, ColRef("a"), ColRef("b")), {"a": a, "b": b})
            assert got is want(a.encode("utf-8"), b.encode("utf-8")), (a, op, b)


def test_eval_overflow_is_error():
    with pytest.raises(EvalError):
        eval_expr(parse_expr("9223372036854775807 + 1"), {})
    with pytest.raises(EvalError):
        eval_expr(parse_expr("1e308 * 10"), {})


def test_column_refs():
    e = parse_expr('col("a") + col("b") * if(is_null(col("c")), 0, 1)')
    assert column_refs(e) == {"a", "b", "c"}


def _random_expr(rng: random.Random, depth: int):
    if depth <= 0:
        return rng.choice(
            [
                Lit(rng.randint(-30, 30)),
                Lit(round(rng.uniform(-5, 5), 2)),
                Lit(rng.choice(["x", "hello world", 'quo"te', "", "12", "2023-01-05", "%Y-%m-%d"])),
                Lit(rng.choice([True, False, None])),
                ColRef(rng.choice(["a", "b", "long_name"])),
            ]
        )
    kind = rng.randrange(4)
    if kind == 0:
        op = rng.choice(["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "and", "or"])
        return Binary(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == 1:
        inner = _random_expr(rng, depth - 1)
        # the parser folds unary minus over numeric literals; mirror that here
        if isinstance(inner, Lit) and isinstance(inner.value, (int, float)) \
                and not isinstance(inner.value, bool):
            return Lit(-inner.value)
        return Unary(rng.choice(["-", "not"]), inner)
    if kind == 2:
        name = rng.choice(list(FUNCTIONS))
        lo, hi = FUNCTIONS[name]
        n_args = rng.randint(lo, lo + 2 if hi is None else hi)
        return Call(name, tuple(_random_expr(rng, depth - 1) for _ in range(n_args)))
    return _random_expr(rng, depth - 1)


def test_print_parse_round_trip_random():
    rng = random.Random(99)
    for _ in range(400):
        e = _random_expr(rng, rng.randint(0, 4))
        text = print_expr(e)
        assert parse_expr(text) == e, f"round trip failed for {text!r}"


def test_eval_is_pure():
    e = parse_expr('concat(col("s"), "!")')
    row = {"s": "hi"}
    assert eval_expr(e, row) == eval_expr(e, row) == "hi!"
    assert row == {"s": "hi"}


# --- the compiler against the tree walker it replaced ----------------------

# cells a random row draws besides conftest's: the 64-bit and float edges
# (where arithmetic overflows), bools where numbers go, non-BMP and empty
# text, texts the casts and date functions accept, and list cells
_EDGE_CELLS = [
    INT64_MAX, INT64_MIN, INT64_MAX - 1, 0, 1.7976931348623157e308, -1e308, 5e-324, -0.0,
    True, False, "", "\U0001d11e", "a\U0001f600b", "12", " 7", "2023-01-05",
    "2023-01-05T10:20:30", "%Y-%m-%d", (), ("x", "y"), (1, "a"), (True,),
]
_ROW_NAMES = ["a", "b", "long_name"]  # the columns _random_expr refers to


def _random_row(rng, names):
    def cell():
        if rng.random() < 0.3:
            return rng.choice(_EDGE_CELLS)
        return random_cell(rng, rng.choice([INT, REAL, TEXT, BOOL, LIST]), null_rate=0.2)
    return tuple(cell() for _ in names)


def _eval_outcome(evaluate):
    """("value", the value with the type of every part), ("error", message,
    expr_text) for an EvalError, or ("raised", type, message) otherwise."""
    try:
        return "value", _typed(evaluate())
    except EvalError as exc:
        return "error", str(exc), exc.expr_text
    except Exception as exc:
        return "raised", type(exc).__name__, str(exc)


def test_compiled_expressions_match_the_tree_walker():
    """Same value and type, or the same EvalError text and expr_text, for
    random expressions over random rows; each expression is compiled once
    and applied to several rows of one column layout, some of which lack a
    column the expression names."""
    rng = random.Random(1201)
    kinds, called = Counter(), set()
    for _ in range(3000):
        e = _random_expr(rng, rng.randint(0, 4))
        called |= {node.name for node in expr_nodes(e) if isinstance(node, Call)}
        names = rng.sample(_ROW_NAMES, rng.randint(0, 3))
        compiled = compile_expr(e, names)
        for _ in range(4):
            row = _random_row(rng, names)
            binding = dict(zip(names, row))
            want = _eval_outcome(lambda: walk_expr(e, binding))
            assert _eval_outcome(lambda: compiled(row)) == want, (print_expr(e), row)
            assert _eval_outcome(lambda: eval_expr(e, binding)) == want, (print_expr(e), row)
            kinds[want[0]] += 1
    assert called == set(FUNCTIONS)
    assert kinds["value"] > 3000 and kinds["error"] > 3000, kinds


def test_unknown_column_raises_when_a_row_is_evaluated():
    e = parse_expr('col("a") + col("zz")')
    compiled = compile_expr(e, ["a", "b"])  # compiles: no row has been seen
    with pytest.raises(EvalError) as err:
        compiled((1, 2))
    assert str(err.value) == "unknown column 'zz' in 'col(\"zz\")'"
    assert err.value.expr_text == 'col("zz")'
    with pytest.raises(EvalError, match="unknown column 'zz'"):
        compiled((None, 2))  # both operands run before the null check
    assert compile_expr(e, ["a", "zz"])((1, 2)) == 3


# --- one lexer for both grammars ---------------------------------------------

# pieces the lexer fuzz joins into inputs: every character either grammar
# treats specially, non-ASCII digits, letters and spaces, and whole tokens
_LEX_PIECES = list("()[]{}:,+-*/%<>=!.eE_'\"\\ntr0159aZ@ \t\n") + [
    "\u0661", "\u0663", "\u00b2", "\u00e9", "\u00a0", "\u2003", "12", "3.5", "1e5",
    "-2", ".7", "1e-3", "==", "<=", "\\n", '\\"', "col", "true", '"ab"', "'c'",
]
# the only messages the merged lexer changed: call-text errors now end with
# the position the old call scanner left out
_CALL_MESSAGES_GAINING_A_POSITION = ("unterminated string literal", "bad number literal ")


def _lex_outcome(tokens_of, src):
    try:
        return [(*tok, type(tok[1])) for tok in tokens_of(src)]
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("call", [False, True], ids=["expr", "call"])
def test_lexer_matches_the_scanners_it_replaced(call):
    """Same tokens (with positions where the old scanner gave them) or the same error."""
    rng = random.Random(1807 if call else 1806)
    if call:
        old, new = call_tokenize, lambda src: [tok[:2] for tok in tokenize(src, call=True)]
    else:
        old, new = lambda src: [(t.kind, t.value, t.pos) for t in expr_tokenize(src)], tokenize
    for _ in range(20_000):
        src = "".join(rng.choice(_LEX_PIECES) for _ in range(rng.randint(0, 12)))
        want, got = _lex_outcome(old, src), _lex_outcome(new, src)
        if call and isinstance(want, str) and want.startswith(_CALL_MESSAGES_GAINING_A_POSITION):
            assert re.fullmatch(re.escape(want) + r" at position \d+", got), src
        else:
            assert got == want, src


def test_readme_lists_exactly_the_dsl_functions():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"fixed function list \(([^)]*)\)", readme).group(1)
    assert re.findall(r"`(\w+)`", listed) == list(FUNCTIONS)
