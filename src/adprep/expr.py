"""Row expression DSL: a small, safe language for operator `func` parameters.

Expressions reference columns with col("name"), combine literals with
arithmetic, comparison, and boolean operators, and call a fixed set of
functions. There is no attribute access, no subscripting, and no way to
reach host objects, so model-proposed expressions can be evaluated without
sandboxing.

Semantics are strict with three-valued null handling: a Null operand makes
arithmetic, comparisons, boolean operators, and most functions return Null.
The exceptions are is_null (never Null), coalesce (first non-null wins), and
if (a Null condition selects the else branch). if and coalesce evaluate
lazily, so the untaken branch cannot raise. Division by zero, failed casts,
and type mismatches raise EvalError rather than returning Null.

compile_expr turns a parsed tree into one closure per node over a row tuple,
with each column reference resolved to its index, so an operator compiles
its func once and calls it per row. It is the one evaluator.

Dates have no dedicated cell kind: parse_date(x, fmt) yields ISO text
("%Y-%m-%d", or "%Y-%m-%dT%H:%M:%S" when fmt carries a time part) and
format_date(x, fmt) rewrites ISO text in fmt. The date kernel below reads
and writes every date of the package: date_reader reads text against a list
of patterns with one regex per pattern, tried in order, read_date_column
reads each distinct text of a column once, and date_writer writes the fields
with a template compiled once per format. The template writes %Y (always
four digits), %m, %d, %H, %M, %S, %y, %B, %b and %%; a format with any other
directive goes to strftime. Month names are read and written in English
whatever LC_TIME holds, which differs from strptime and strftime only after
a setlocale call.

Operator precedence, loosest first: or, and, comparison, additive,
multiplicative, unary (not, -), then calls and atoms.

The same lexer and parser read operator-call text, whose `func` arguments
hold DSL text: parse_call shares parse_expr's literal rule, comma lists and
nesting cap, and each syntax error carries its position. print_value writes
the values of both grammars.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import datetime
from functools import lru_cache
from operator import ge, gt, itemgetter, le, lt
from typing import Any, Callable, Container, Sequence

from .tables import INT, INT64_MAX, INT64_MIN, REAL, TEXT, Cell, cell_hash_key, render_scalar


class ExprParseError(ValueError):
    """Syntax error with the byte offset where parsing stopped."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class EvalError(ValueError):
    """Runtime expression failure, tagged with the offending sub-expression."""

    def __init__(self, message: str, expr_text: str):
        super().__init__(f"{message} in {expr_text!r}")
        self.expr_text = expr_text


@dataclass(frozen=True)
class ColRef:
    name: str


@dataclass(frozen=True)
class Lit:
    value: Cell


@dataclass(frozen=True)
class Unary:
    op: str  # "-" or "not"
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Expr", ...]


Expr = ColRef | Lit | Unary | Binary | Call

# function name -> (min arity, max arity or None for unbounded)
FUNCTIONS: dict[str, tuple[int, int | None]] = {
    "lower": (1, 1),
    "upper": (1, 1),
    "trim": (1, 1),
    "concat": (2, None),
    "split": (2, 2),
    "replace": (3, 3),
    "substr": (3, 3),
    "contains": (2, 2),
    "starts_with": (2, 2),
    "is_null": (1, 1),
    "coalesce": (1, None),
    "to_int": (1, 1),
    "to_real": (1, 1),
    "to_text": (1, 1),
    "at": (2, 2),
    "parse_date": (2, 2),
    "format_date": (2, 2),
    "if": (3, 3),
}

# Deepest nesting the parser accepts. A level is a parenthesis, a call, a unary
# operator, one more operator in a binary chain or a list in call text, so the
# cap bounds the recursion of parsing and of evaluating and printing the tree.
MAX_DEPTH = 64


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

_TWO_CHAR_OPS = ("==", "!=", "<=", ">=")
_EXPR_PUNCT = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", **dict.fromkeys("+-*/%<>", "OP")}
_CALL_PUNCT = {
    "(": "LPAREN", ")": "RPAREN", ",": "COMMA", "[": "LBRACK", "]": "RBRACK",
    "{": "LBRACE", "}": "RBRACE", ":": "COLON",
}
_ESCAPES = {"\\": "\\", '"': '"', "'": "'", "n": "\n", "t": "\t", "r": "\r"}
_IDENT_TAIL = re.compile(r"\w*")  # \w is exactly str.isalnum() or "_"
# the text tokenize reads as one number; float() takes only decimal digits (\d)
_NUMBER_TEXT = re.compile(r"-?(?:[\d.]|[eE][+-]?)+")

Token = tuple[str, Any, int]  # (kind, value, position)


def tokenize(src: str, call: bool = False) -> list[Token]:
    """Split DSL text, or operator-call text when `call` is set, into tokens.

    Kinds: IDENT, INT, REAL, STRING, OP, LPAREN, RPAREN, COMMA, and a final
    EOF. The call grammar has no OP; it adds LBRACK, RBRACK, LBRACE, RBRACE,
    COLON and ARROW ("->"), and reads a "-" before a digit or "." as a sign.
    """
    punct = _CALL_PUNCT if call else _EXPR_PUNCT
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if not call and src[i : i + 2] in _TWO_CHAR_OPS:
            tokens.append(("OP", src[i : i + 2], i))
            i += 2
            continue
        if ch in punct:
            tokens.append((punct[ch], ch, i))
            i += 1
            continue
        start = i
        if ch == '"' or ch == "'":
            i += 1
            out = []
            while i < n and src[i] != ch:
                if src[i] == "\\":
                    if i + 1 >= n or src[i + 1] not in _ESCAPES:
                        raise ExprParseError("bad escape sequence", i)
                    out.append(_ESCAPES[src[i + 1]])
                    i += 2
                else:
                    out.append(src[i])
                    i += 1
            if i >= n:
                raise ExprParseError("unterminated string literal", start)
            tokens.append(("STRING", "".join(out), start))
            i += 1
            continue
        if ch.isdigit() or (i + 1 < n and (
            (ch == "." and src[i + 1].isdigit())
            or (call and ch == "-" and (src[i + 1].isdigit() or src[i + 1] == "."))
        )):
            i += 1  # the first digit, "." or sign
            while i < n and (src[i].isdigit() or src[i] in ".eE" or (src[i] in "+-" and src[i - 1] in "eE")):
                i += 1
            text = src[start:i]
            try:
                if "." in text or "e" in text or "E" in text:
                    tokens.append(("REAL", float(text), start))
                else:
                    tokens.append(("INT", int(text), start))
            except ValueError:
                raise ExprParseError(f"bad number literal {text!r}", start) from None
            continue
        if ch.isalpha() or ch == "_":
            i = _IDENT_TAIL.match(src, i + 1).end()
            tokens.append(("IDENT", src[start:i], start))
            continue
        if call and src.startswith("->", i):
            tokens.append(("ARROW", "->", i))
            i += 2
            continue
        raise ExprParseError(f"unexpected character {ch!r}", i)
    tokens.append(("EOF", None, n))
    return tokens


def real_literal(value: float, src: str, pos: int) -> float:
    """The value of a REAL token at `pos` in `src`. A literal too large for a
    float reads as inf, which prints back as no literal, so it is an error."""
    if not math.isfinite(value):
        text = _NUMBER_TEXT.match(src, pos).group()
        raise ExprParseError(f"bad number literal {text!r}", pos)
    return value


# ---------------------------------------------------------------------------
# parser (recursive descent)
# ---------------------------------------------------------------------------

_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5, "%": 5,
}
_UNARY_PREC = 6


_KEYWORDS = {"true": True, "false": False, "null": None}
_NO_LITERAL = object()  # literal() found none at the cursor


class _Parser:
    """Recursive descent over tokenize's tokens: DSL text, or operator-call
    text when `call` is set. One cursor, one literal rule, one comma list
    and one nesting cap serve both grammars."""

    def __init__(self, src: str, call: bool = False):
        self.src = src
        self.call = call
        self.tokens = tokenize(src, call)
        self.i = 0
        self.depth = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.cur
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        k, v, pos = self.cur
        if k != kind:
            raise ExprParseError(f"expected {kind}, found {v!r}", pos)
        return self.advance()

    def deeper(self) -> None:
        """Go one nesting level down; callers restore self.depth on the way up."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            what = "lists nest" if self.call else "expression nests"
            raise ExprParseError(f"{what} deeper than {MAX_DEPTH} levels", self.cur[2])

    def end(self) -> None:
        k, v, pos = self.cur
        if k != "EOF":
            raise ExprParseError(f"unexpected trailing input {v!r}", pos)

    def literal(self) -> Any:
        """The number, string, true, false or null at the cursor, consumed;
        _NO_LITERAL, with the cursor left in place, for any other token."""
        kind, value, pos = self.cur
        if kind == "REAL":
            value = real_literal(value, self.src, pos)
        elif kind == "IDENT" and value in _KEYWORDS:
            value = _KEYWORDS[value]
        elif kind != "INT" and kind != "STRING":
            return _NO_LITERAL
        self.i += 1
        return value

    def items(self, item: Callable[[], Any], close: str) -> list:
        """item() for each entry of a comma list, then the `close` token."""
        out = []
        if self.cur[0] != close:
            out.append(item())
            while self.cur[0] == "COMMA":
                self.i += 1
                out.append(item())
        self.expect(close)
        return out

    def parse(self) -> Expr:
        e = self.binary()
        self.end()
        return e

    def binary(self, prec: int = 1) -> Expr:
        """Left-associative binary operators binding at least as tightly as `prec`."""
        if prec == _UNARY_PREC:
            return self.unary_expr()
        depth = self.depth
        e = self.binary(prec + 1)
        while self.cur[0] in ("OP", "IDENT") and _PRECEDENCE.get(self.cur[1]) == prec:
            op = self.advance()[1]
            self.deeper()
            e = Binary(op, e, self.binary(prec + 1))
            if prec == _PRECEDENCE["=="]:
                break  # comparisons do not chain
        self.depth = depth
        return e

    def unary_expr(self) -> Expr:
        kind, value, _ = self.cur
        if (kind == "OP" and value == "-") or (kind == "IDENT" and value == "not"):
            self.advance()
            self.deeper()
            operand = self.unary_expr()
            self.depth -= 1
            # fold negative numeric literals so printing round-trips
            if value == "-" and isinstance(operand, Lit) and _is_number(operand.value):
                return Lit(-operand.value)
            return Unary(value, operand)
        return self.atom()

    def atom(self) -> Expr:
        value = self.literal()
        if value is not _NO_LITERAL:
            return Lit(value)
        kind, value, pos = self.cur
        if kind == "LPAREN":
            self.advance()
            self.deeper()
            e = self.binary()
            self.depth -= 1
            self.expect("RPAREN")
            return e
        if kind == "IDENT":
            if value == "col":
                self.advance()
                self.expect("LPAREN")
                name_kind, name, name_pos = self.cur
                if name_kind != "STRING":
                    raise ExprParseError("col() takes a string literal", name_pos)
                self.advance()
                self.expect("RPAREN")
                return ColRef(name)
            if value in FUNCTIONS:
                self.advance()
                self.expect("LPAREN")
                self.deeper()
                args = self.items(self.binary, "RPAREN")
                self.depth -= 1
                lo, hi = FUNCTIONS[value]
                if len(args) < lo or (hi is not None and len(args) > hi):
                    raise ExprParseError(
                        f"{value}() takes {lo}{'+' if hi is None else f'..{hi}'} arguments, "
                        f"got {len(args)}",
                        pos,
                    )
                return Call(value, tuple(args))
            raise ExprParseError(f"unknown identifier {value!r}", pos)
        raise ExprParseError(f"expected expression, found {value!r}", pos)

    # the call grammar: a value is a literal, a bare identifier (read as
    # text), a list of values, or a map whose keys and values are text

    def value(self) -> Any:
        value = self.literal()
        if value is not _NO_LITERAL:
            return value
        kind, value, pos = self.cur
        if kind == "IDENT":
            self.advance()
            return value
        if kind == "LBRACK":
            self.deeper()
            self.advance()
            values = self.items(self.value, "RBRACK")
            self.depth -= 1
            return values
        if kind == "LBRACE":
            self.advance()
            return dict(self.items(self.map_entry, "RBRACE"))
        raise ExprParseError(f"expected a value, found {value!r}", pos)

    def map_entry(self) -> tuple[str, str]:
        key = self.map_text("map key")
        self.expect("COLON")
        return key, self.map_text("map value")

    def map_text(self, what: str) -> str:
        kind, value, pos = self.cur
        if kind != "STRING" and kind != "IDENT":
            raise ExprParseError(f"expected text for {what}, found {value!r}", pos)
        self.advance()
        return value


def parse_expr(src: str) -> Expr:
    """Parse DSL source text into an expression tree."""
    return _Parser(src).parse()


def parse_call(src: str, names: Container[str]) -> tuple[str, list]:
    """Read operator-call text such as Deduplicate("t", ["id"], "first") as
    (operator name, argument values). A name not in `names` is an error
    before any later one; every error is an ExprParseError with its position."""
    parser = _Parser(src, call=True)
    kind, name, pos = parser.advance()
    if kind != "IDENT":
        raise ExprParseError(f"expected an operator name, found {name!r}", pos)
    if name not in names:
        raise ExprParseError(f"unknown operator {name!r}", pos)
    parser.expect("LPAREN")
    args = parser.items(parser.value, "RPAREN")
    parser.end()
    return name, args


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

def _string_literal(s: str) -> str:
    out = s.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
    return f'"{out}"'


def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return _PRECEDENCE[e.op]
    if isinstance(e, Unary):
        return _UNARY_PREC
    return 7


def print_value(v: Any) -> str:
    """Canonical text of a value, which the parser reads back: null, true or
    false, a quoted string or a number; and as call text writes them, a list
    of values, a map of text to text, or an expression as its quoted DSL."""
    if isinstance(v, str):
        return _string_literal(v)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return repr(v)
    if isinstance(v, list):
        return "[" + ", ".join(map(print_value, v)) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{_string_literal(k)}: {_string_literal(x)}" for k, x in v.items()) + "}"
    return _string_literal(print_expr(v))


def print_expr(e: Expr) -> str:
    """Render an expression back to canonical DSL text; parse round-trips."""
    if isinstance(e, ColRef):
        return f"col({_string_literal(e.name)})"
    if isinstance(e, Lit):
        return print_value(e.value)
    if isinstance(e, Unary):
        inner = print_expr(e.operand)
        if _prec(e.operand) < _UNARY_PREC:
            inner = f"({inner})"
        return f"-{inner}" if e.op == "-" else f"not {inner}"
    if isinstance(e, Binary):
        p = _PRECEDENCE[e.op]
        left = print_expr(e.left)
        # comparisons do not chain, so a comparison child always needs parens
        if _prec(e.left) < p or (p == 3 and _prec(e.left) == 3):
            left = f"({left})"
        right = print_expr(e.right)
        # binary operators are left-associative: parenthesize the right child
        # at equal precedence
        if _prec(e.right) <= p:
            right = f"({right})"
        return f"{left} {e.op} {right}"
    if isinstance(e, Call):
        return f"{e.name}({', '.join(print_expr(a) for a in e.args)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# evaluator
# ---------------------------------------------------------------------------

def _fail(message: str, node: Expr) -> EvalError:
    return EvalError(message, print_expr(node))


def _check_int(v: int, node: Expr) -> int:
    if not INT64_MIN <= v <= INT64_MAX:
        raise _fail("integer overflow", node)
    return v


def _check_real(v: float, node: Expr) -> float:
    if not math.isfinite(v):
        raise _fail("non-finite result", node)
    return v


def _is_number(v: Cell) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _arith(op: str, a: Cell, b: Cell, node: Expr) -> Cell:
    # not _is_number(a) or not _is_number(b), without the calls
    if isinstance(a, bool) or isinstance(b, bool) \
            or not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        raise _fail(f"operator {op} needs numeric operands", node)
    if op == "/":
        if b == 0:
            raise _fail("division by zero", node)
        return _check_real(a / b, node)
    if op == "%":
        if b == 0:
            raise _fail("division by zero", node)
        r = a % b
    elif op == "+":
        r = a + b
    elif op == "-":
        r = a - b
    else:
        r = a * b
    if isinstance(a, int) and isinstance(b, int):
        return _check_int(r, node)
    return _check_real(r, node)


_ORDER = {"<": lt, "<=": le, ">": gt, ">=": ge}


def _compare(op: str, a: Cell, b: Cell, node: Expr) -> bool:
    # two texts compare by code point: UTF-8 byte order for valid text, and
    # still defined for a lone surrogate, which has no UTF-8 form
    if not (isinstance(a, str) and isinstance(b, str)):
        if not (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and isinstance(a, bool) == isinstance(b, bool)):  # two numbers or two bools
            raise _fail(f"operator {op} cannot compare these operand kinds", node)
    return _ORDER[op](a, b)


def _text_arg(v: Cell, node: Call) -> str:
    if not isinstance(v, str):
        raise _fail(f"{node.name}() needs a text argument", node)
    return v


# English month names for %B and %b, whatever LC_TIME holds
_MONTH_NAMES = (
    "January", "February", "March", "April", "May", "June", "July", "August",
    "September", "October", "November", "December",
)
_MONTH_ABBRS = tuple(name[:3] for name in _MONTH_NAMES)
# the month number of each name a directive reads, in lower case
_MONTH_NUMBERS = {
    "B": {name.lower(): number for number, name in enumerate(_MONTH_NAMES, 1)},
    "b": {name.lower(): number for number, name in enumerate(_MONTH_ABBRS, 1)},
}
# days per month, February's in a leap year
_MONTH_DAYS = (0, 31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)

# each directive of a date pattern as CPython's _strptime.TimeRE writes it in
# the C locale; \d takes any Unicode decimal digit, which int() reads. A month
# name is a run of letters, looked up in _MONTH_NUMBERS: a pattern follows it
# with a non-letter, so the run is the one name strptime's alternation of the
# names would match, and one that names no month falls through, as a failed
# match does.
_DATE_DIRECTIVES = {
    "d": r"3[0-1]|[1-2]\d|0[1-9]|[1-9]| [1-9]",
    "m": r"1[0-2]|0[1-9]|[1-9]",
    "Y": r"\d\d\d\d",
    "y": r"\d\d",
    "H": r"2[0-3]|[0-1]\d|\d",
    "M": r"[0-5]\d|\d",
    "S": r"6[0-1]|[0-5]\d|\d",
    "B": r"[^\W\d_]+",
    "b": r"[^\W\d_]+",
}


# (year, month, day, hour, minute, second): a date as the kernel reads and writes it
DateFields = tuple[int, int, int, int, int, int]


def _date_pattern(pattern: str) -> tuple[str, list[int], str, str]:
    """The regex text of one date pattern, a group per directive; the
    numbers of its year, month and day groups and then of any H, M and S
    groups, counted from 1; and its year and month directives. The pattern
    holds a year, a month and a day, all or none of %H, %M and %S, and
    nothing else but literal text."""
    parts, keys, after_name = [], "", False
    for token in re.findall(r"%.|\s+|[^%\s]", pattern):
        if after_name and re.match(_DATE_DIRECTIVES["B"], token):
            raise ValueError(f"date pattern {pattern!r} has a letter right after a month name")
        after_name = token in ("%B", "%b")
        if token[0] == "%":
            keys += token[1]
            parts.append(f"({_DATE_DIRECTIVES[token[1]]})")
        else:
            parts.append(r"\s+" if token.isspace() else re.escape(token))
    year = "Y" if "Y" in keys else "y"
    month = "m" if "m" in keys else "B" if "B" in keys else "b"
    order = year + month + "d" + ("HMS" if "S" in keys else "")
    if sorted(keys) != sorted(order):
        raise ValueError(f"date pattern {pattern!r} needs one year, month and day, "
                         "and all or none of %H, %M and %S")
    return "".join(parts), [keys.index(key) + 1 for key in order], year, month


def date_reader(patterns: Sequence[str], min_year: int = 1) -> Callable[[str], DateFields | None]:
    """The date kernel's reader: a function that reads text as the first of
    `patterns` that `datetime.strptime(text, pattern)` reads in the C locale
    with a year of at least `min_year`, or returns None where none does.

    Each pattern is one regex, compiled here, and they are tried in list
    order. A regex matches case-insensitively and reads a whitespace run of
    its pattern as \\s+; it reads the text when its first match ends at the
    end of the text, the check strptime makes after its own match. The
    groups go through int(), the %y pivot (00-68 is the 2000s, 69-99 the
    1900s) and the month-name table; a date that does not exist (Feb 30,
    second 60, year 0), a name that is no month or a year below `min_year`
    goes on to the next pattern, as strptime's ValueError would."""
    readers = []
    for pattern in patterns:
        text, numbers, year, month = _date_pattern(pattern)
        hms = itemgetter(*numbers[3:]) if numbers[3:] else None
        readers.append((
            re.compile(text, re.IGNORECASE).match, itemgetter(*numbers[:3]), hms,
            year == "y", _MONTH_NUMBERS.get(month),
        ))
    min_year = max(min_year, 1)

    def read(text: str) -> DateFields | None:
        for match, ymd, hms, short_year, names in readers:
            m = match(text)
            if m is None or m.end() != len(text):
                continue
            year, month, day = ymd(m)
            year = int(year)
            if short_year:
                year += 2000 if year <= 68 else 1900
            # a name's case variant, such as "ſep", is no key: None
            month = int(month) if names is None else names.get(month.lower())
            day = int(day)
            hour, minute, second = (0, 0, 0) if hms is None else map(int, hms(m))
            if (
                year >= min_year and month is not None and second < 60
                and day <= _MONTH_DAYS[month]
                and (day < 29 or month != 2 or (year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)))
            ):
                return year, month, day, hour, minute, second
        return None

    return read


def read_date_column(
    read: Callable[[str], DateFields | None], cells: Sequence[Cell]
) -> dict[Cell, DateFields | None] | int:
    """The cells of a column read with `read` (a date_reader), each distinct
    text once: {cell: fields}, a null cell mapped to None. Where a cell is
    neither null nor text that reads, gives instead the row of the first."""
    fields: dict[Cell, DateFields | None] = {None: None}
    for r, v in enumerate(cells):
        if v not in fields:
            if not isinstance(v, str) or (f := read(v)) is None:
                return r
            fields[v] = f
    return fields


# each directive the kernel writes itself: its %-format and the index of its
# value in (*DateFields, year % 100, month name, month abbreviation). %Y is
# always four digits, where glibc's strftime writes year 999 as "999".
_WRITTEN_DIRECTIVES = {
    "Y": ("%04d", 0), "m": ("%02d", 1), "d": ("%02d", 2), "H": ("%02d", 3), "M": ("%02d", 4),
    "S": ("%02d", 5), "y": ("%02d", 6), "B": ("%s", 7), "b": ("%s", 8), "%": ("%%", None),
}
# strftime stops at a NUL and rejects a lone surrogate; such a format goes to it
_STRFTIME_ONLY = re.compile("[\0\ud800-\udfff]")
_YEAR_OR_PERCENT = re.compile("%[Y%]")


@lru_cache(maxsize=256)
def date_writer(fmt: str) -> Callable[[DateFields], str]:
    """The date kernel's writer: a function that writes date fields as
    `datetime(*fields).strftime(fmt)` does in the C locale, except that %Y
    is always four digits. A format of literal text and _WRITTEN_DIRECTIVES,
    one of them other than %%, becomes one %-template, compiled here once per
    format, that takes the fields as they are; any other format goes to
    strftime, cell by cell, and raises UnicodeEncodeError where strftime
    cannot write it (a lone surrogate), for the caller to report."""
    parts, picks = [], []
    for token in re.findall(r"%.?|[^%]+", fmt, re.DOTALL):
        if token[0] != "%":
            parts.append(token)
        elif token[1:] in _WRITTEN_DIRECTIVES:
            part, index = _WRITTEN_DIRECTIVES[token[1:]]
            parts.append(part)
            if index is not None:
                picks.append(index)
        else:
            break
    else:
        if picks and not _STRFTIME_ONLY.search(fmt):
            template = "".join(parts)
            # itemgetter of one index gives the value, which % takes as well
            pick = itemgetter(*picks)
            return lambda f: template % pick(
                (*f, f[0] % 100, _MONTH_NAMES[f[1] - 1], _MONTH_ABBRS[f[1] - 1])
            )

    def fallback(fields: DateFields) -> str:
        dt = datetime(*fields)
        if dt.year < 1000:
            year = f"{dt.year:04d}"
            return dt.strftime(_YEAR_OR_PERCENT.sub(lambda m: year if m[0] == "%Y" else "%%", fmt))
        return dt.strftime(fmt)

    return fallback


def write_date_column(
    write: Callable[[DateFields], str], cells: Sequence[Cell], fields: dict[Cell, DateFields | None]
) -> list[str | None]:
    """The cells of a column that read_date_column read into `fields`, each
    written with `write` (a date_writer), each distinct text once."""
    written = {v: None if f is None else write(f) for v, f in fields.items()}
    return [written[v] for v in cells]


_ISO_FORMATS = ("%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M:%S", "%Y-%m-%d")
_read_iso = date_reader(_ISO_FORMATS)


def _equal(op: str, a: Cell, b: Cell, node: Expr) -> bool:
    same = cell_hash_key(a) == cell_hash_key(b)
    return same if op == "==" else not same


def _logic(op: str, a: Cell, b: Cell, node: Expr) -> bool:
    if not isinstance(a, bool) or not isinstance(b, bool):
        raise _fail(f"{op} needs boolean operands", node)
    return (a and b) if op == "and" else (a or b)


# binary operator -> (op, left, right, node) -> cell, for non-null operands
_BINARY = {
    "==": _equal, "!=": _equal, "and": _logic, "or": _logic,
    **dict.fromkeys(("<", "<=", ">", ">="), _compare),
    **dict.fromkeys(("+", "-", "*", "/", "%"), _arith),
}


def _concat(node: Call, *args: Cell) -> str:
    out = ""
    for a in args:
        if isinstance(a, str):
            out += a
        elif isinstance(a, tuple):
            raise _fail("concat() cannot take list arguments", node)
        else:
            out += render_scalar(a)
    return out


def _split(node: Call, v: Cell, sep: Cell) -> tuple[str, ...]:
    v, sep = _text_arg(v, node), _text_arg(sep, node)
    if sep == "":
        raise _fail("split() separator must be non-empty", node)
    return tuple(v.split(sep))


def _replace(node: Call, v: Cell, old: Cell, new: Cell) -> str:
    v, old, new = _text_arg(v, node), _text_arg(old, node), _text_arg(new, node)
    if old == "":
        raise _fail("replace() needs a non-empty search string", node)
    return v.replace(old, new)


def _substr(node: Call, v: Cell, start: Cell, length: Cell) -> str:
    v = _text_arg(v, node)
    if not isinstance(start, int) or not isinstance(length, int) \
            or isinstance(start, bool) or isinstance(length, bool):
        raise _fail("substr() start and length must be integers", node)
    if start < 0 or length < 0:
        raise _fail("substr() start and length must be non-negative", node)
    return v[start : start + length]


def cast_cell(v: Cell, dtype: str) -> Cell:
    """A non-null cell cast to int, real, text or bool: the one cast rule of
    CastType and of to_int / to_real / to_text, each of which wraps its
    failures in its own error. A real truncates toward zero on the way to
    int; text reads as int(v, 10) or float(v) reads it; bool takes a bool,
    0 / 1, or the text true / false / 1 / 0 in any case. A list, text that
    does not read, a non-finite real, or any other value cast to bool raises
    ValueError. The 64-bit range is the caller's check."""
    if isinstance(v, tuple):
        raise ValueError("cannot cast a list cell")
    if dtype == INT:
        return int(v, 10) if isinstance(v, str) else int(v)
    if dtype == REAL:
        out = float(v)
        if not math.isfinite(out):
            raise ValueError("non-finite real")
        return out
    if dtype == TEXT:
        return render_scalar(v)
    if isinstance(v, str):
        low = v.lower()
        if low in ("true", "1"):
            return True
        if low in ("false", "0"):
            return False
    elif isinstance(v, int) and v in (0, 1):  # a bool among them
        return bool(v)
    raise ValueError(f"cannot cast {v!r} to bool")


def _cast_function(dtype: str) -> Callable[[Call, Cell], Cell]:
    """The DSL's to_<dtype>: cast_cell, its failures raised as EvalErrors.
    An int is returned as it is; text past 64 bits does not cast to int, and
    a real past them overflows."""

    def cast(node: Call, v: Cell) -> Cell:
        if isinstance(v, tuple):
            raise _fail(f"to_{dtype}() cannot take a list", node)
        try:
            out = cast_cell(v, dtype)
            if dtype == INT and isinstance(v, str):
                _check_int(out, node)  # an EvalError, so a ValueError: a failed cast
        except ValueError:
            raise _fail(f"cannot cast {v!r} to {dtype}", node) from None
        return _check_int(out, node) if dtype == INT and isinstance(v, float) else out

    return cast


def _at(node: Call, v: Cell, idx: Cell) -> Cell:
    if not isinstance(v, tuple):
        raise _fail("at() needs a list argument", node)
    if not isinstance(idx, int) or isinstance(idx, bool):
        raise _fail("at() index must be an integer", node)
    if not 0 <= idx < len(v):
        raise _fail(f"at() index {idx} out of range for length {len(v)}", node)
    return v[idx]


def _parse_date(node: Call, text: Cell, fmt: Cell) -> str:
    text, fmt = _text_arg(text, node), _text_arg(fmt, node)
    try:
        dt = datetime.strptime(text, fmt)
    except ValueError as exc:
        raise _fail(f"cannot parse date {text!r} with {fmt!r}: {exc}", node) from None
    timed = any(code in fmt for code in ("%H", "%M", "%S", "%I"))
    return date_writer("%Y-%m-%dT%H:%M:%S" if timed else "%Y-%m-%d")(dt.timetuple()[:6])


def _format_date(node: Call, text: Cell, fmt: Cell) -> str:
    text, fmt = _text_arg(text, node), _text_arg(fmt, node)
    fields = _read_iso(text)
    if fields is None:
        raise _fail(f"cannot parse {text!r} as an ISO date", node)
    try:
        return date_writer(fmt)(fields)
    except UnicodeEncodeError as exc:
        raise _fail(f"cannot write a date with format {fmt!r}: {exc.reason}", node) from None


def _unknown_function(node: Call, *args: Cell) -> Cell:
    raise _fail(f"unknown function {node.name!r}", node)


# the one-argument text functions, each a str method: the row closure below
# and operators' column pass over a text column both apply these
TEXT_METHODS: dict[str, Callable[[str], str]] = {
    "lower": str.lower, "upper": str.upper, "trim": str.strip,
}


def _text_function(method: Callable[[str], str]) -> Callable[[Call, Cell], str]:
    return lambda node, v: method(_text_arg(v, node))


# function name -> (node, *args) -> cell, for the strict functions (all but
# if, coalesce and is_null), called once every argument is evaluated and none
# is null
_STRICT_FUNCTIONS: dict[str, Callable[..., Cell]] = {
    **{name: _text_function(method) for name, method in TEXT_METHODS.items()},
    "concat": _concat,
    "split": _split,
    "replace": _replace,
    "substr": _substr,
    "contains": lambda node, v, part: _text_arg(part, node) in _text_arg(v, node),
    "starts_with": lambda node, v, prefix: _text_arg(v, node).startswith(_text_arg(prefix, node)),
    **{f"to_{dtype}": _cast_function(dtype) for dtype in (INT, REAL, TEXT)},
    "at": _at,
    "parse_date": _parse_date,
    "format_date": _format_date,
}

Compiled = Callable[[tuple], Cell]


def compile_expr(e: Expr, names: Sequence[str]) -> Compiled:
    """Compile an expression, once, into a function of a row tuple whose cells
    are bound in order to `names`: one closure per node, each column reference
    resolved to its tuple index. Pure. A column not in `names` raises
    EvalError when a row is evaluated, so a table with no rows never does."""
    return _compile(e, {name: i for i, name in enumerate(names)})


def _compile(e: Expr, index: dict[str, int]) -> Compiled:
    if isinstance(e, Lit):
        value = e.value
        return lambda row: value
    if isinstance(e, ColRef):
        if e.name in index:
            return itemgetter(index[e.name])
        def unknown_column(row: tuple) -> Cell:
            raise _fail(f"unknown column {e.name!r}", e)
        return unknown_column
    if isinstance(e, Unary):
        operand = _compile(e.operand, index)
        if e.op == "-":
            def negate(row: tuple) -> Cell:
                v = operand(row)
                if v is None:
                    return None
                if not _is_number(v):
                    raise _fail("unary - needs a numeric operand", e)
                return _check_int(-v, e) if isinstance(v, int) else -v
            return negate
        def not_(row: tuple) -> Cell:
            v = operand(row)
            if v is None:
                return None
            if not isinstance(v, bool):
                raise _fail("not needs a boolean operand", e)
            return not v
        return not_
    if isinstance(e, Binary):
        op, apply = e.op, _BINARY[e.op]
        left, right = _compile(e.left, index), _compile(e.right, index)
        def binary(row: tuple) -> Cell:
            a = left(row)
            b = right(row)  # both sides run, so an error on the right still raises
            if a is None or b is None:
                return None
            return apply(op, a, b, e)
        return binary
    if isinstance(e, Call):
        return _compile_call(e, [_compile(a, index) for a in e.args])
    raise TypeError(f"not an expression node: {e!r}")


def _compile_call(e: Call, args: list[Compiled]) -> Compiled:
    if e.name == "if":
        cond, then, other = args
        def if_(row: tuple) -> Cell:
            c = cond(row)
            if c is not None and not isinstance(c, bool):
                raise _fail("if() condition must be boolean or null", e)
            # a Null condition selects the else branch; branches are lazy
            return then(row) if c is True else other(row)
        return if_
    if e.name == "coalesce":
        def coalesce(row: tuple) -> Cell:
            for arg in args:
                v = arg(row)
                if v is not None:
                    return v
            return None
        return coalesce
    if e.name == "is_null":
        arg = args[0]
        return lambda row: arg(row) is None
    apply = _STRICT_FUNCTIONS.get(e.name, _unknown_function)
    def call(row: tuple) -> Cell:
        vs = [arg(row) for arg in args]  # every argument runs before the null check
        return None if None in vs else apply(e, *vs)
    return call
