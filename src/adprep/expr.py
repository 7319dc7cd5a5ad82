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
its func once and calls it per row; eval_expr is that, for one row binding.

Dates have no dedicated cell kind: parse_date(x, fmt) yields ISO text
("%Y-%m-%d", or "%Y-%m-%dT%H:%M:%S" when fmt carries a time part) and
format_date(x, fmt) renders ISO text through strftime, with %Y always four
digits. Month names follow the C locale (English).

Operator precedence, loosest first: or, and, comparison, additive,
multiplicative, unary (not, -), then calls and atoms.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import datetime
from operator import ge, gt, itemgetter, le, lt
from typing import Any, Callable, Mapping, Sequence

from .tables import INT64_MAX, INT64_MIN, Cell, cells_equal, render_scalar


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

_ISO_FORMATS = ("%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M:%S", "%Y-%m-%d")

# Deepest nesting the parsers accept. A level is a parenthesis, a call, a unary
# operator or one more operator in a binary chain, so the cap bounds the
# recursion of parsing and of evaluating and printing the resulting tree.
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
    EOF. The call grammar has no OP; it adds LBRACK, RBRACK, LBRACE, RBRACE
    and COLON, and reads a "-" directly before a digit or "." as a sign.
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


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = tokenize(src)
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
            raise ExprParseError(f"expression nests deeper than {MAX_DEPTH} levels", self.cur[2])

    def parse(self) -> Expr:
        e = self.binary()
        k, v, pos = self.cur
        if k != "EOF":
            raise ExprParseError(f"unexpected trailing input {v!r}", pos)
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
        if kind == "OP" and value == "-":
            self.advance()
            self.deeper()
            operand = self.unary_expr()
            self.depth -= 1
            # fold negative numeric literals so printing round-trips
            if isinstance(operand, Lit) and isinstance(operand.value, (int, float)) \
                    and not isinstance(operand.value, bool):
                return Lit(-operand.value)
            return Unary("-", operand)
        if kind == "IDENT" and value == "not":
            self.advance()
            self.deeper()
            operand = self.unary_expr()
            self.depth -= 1
            return Unary("not", operand)
        return self.atom()

    def atom(self) -> Expr:
        kind, value, pos = self.cur
        if kind == "REAL":
            value = real_literal(value, self.src, pos)
        if kind == "INT" or kind == "REAL" or kind == "STRING":
            self.advance()
            return Lit(value)
        if kind == "LPAREN":
            self.advance()
            self.deeper()
            e = self.binary()
            self.depth -= 1
            self.expect("RPAREN")
            return e
        if kind == "IDENT":
            if value == "true":
                self.advance()
                return Lit(True)
            if value == "false":
                self.advance()
                return Lit(False)
            if value == "null":
                self.advance()
                return Lit(None)
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
                args = []
                self.deeper()
                if self.cur[0] != "RPAREN":
                    args.append(self.binary())
                    while self.cur[0] == "COMMA":
                        self.advance()
                        args.append(self.binary())
                self.depth -= 1
                self.expect("RPAREN")
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


def parse_expr(src: str) -> Expr:
    """Parse DSL source text into an expression tree."""
    return _Parser(src).parse()


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


def print_expr(e: Expr) -> str:
    """Render an expression back to canonical DSL text; parse round-trips."""
    if isinstance(e, ColRef):
        return f"col({_string_literal(e.name)})"
    if isinstance(e, Lit):
        v = e.value
        if v is None:
            return "null"
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, str):
            return _string_literal(v)
        return repr(v) if isinstance(v, float) else str(v)
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
    "january", "february", "march", "april", "may", "june", "july", "august",
    "september", "october", "november", "december",
)
_MONTH_NUMBERS = {
    name: number
    for number, full in enumerate(_MONTH_NAMES, 1)
    for name in (full, full[:3])
}

# each directive of a date pattern as CPython's _strptime.TimeRE writes it in
# the C locale; \d takes any Unicode decimal digit, which int() reads. No
# month name is a prefix of another, so the order of the names is free.
_DATE_DIRECTIVES = {
    "d": r"3[0-1]|[1-2]\d|0[1-9]|[1-9]| [1-9]",
    "m": r"1[0-2]|0[1-9]|[1-9]",
    "Y": r"\d\d\d\d",
    "y": r"\d\d",
    "H": r"2[0-3]|[0-1]\d|\d",
    "M": r"[0-5]\d|\d",
    "S": r"6[0-1]|[0-5]\d|\d",
    "B": "|".join(_MONTH_NAMES),
    "b": "|".join(name[:3] for name in _MONTH_NAMES),
}


def date_reader(pattern: str) -> Callable[[str], datetime | None]:
    """The date kernel: a function that reads text as `datetime.strptime(text,
    pattern)` does in the C locale, or returns None where strptime raises
    ValueError. One regex, compiled here, matches case-insensitively, reads
    a whitespace run of the pattern as \\s+ and must consume the whole text;
    its groups then go through int(), the %y pivot (00-68 is the 2000s, 69-99
    the 1900s) and the month-name table into datetime(), whose range check
    rejects Feb 30 or second 60. The pattern holds a year, a month and a day
    plus any of %H, %M and %S, and nothing else but literal text."""
    parts, keys = [], []
    for token in re.findall(r"%.|\s+|[^%\s]", pattern):
        if token[0] == "%":
            keys.append(token[1])
            parts.append(f"(?P<{token[1]}>{_DATE_DIRECTIVES[token[1]]})")
        else:
            parts.append(r"\s+" if token.isspace() else re.escape(token))
    match = re.compile("".join(parts), re.IGNORECASE).match
    year_key = "Y" if "Y" in keys else "y"
    month_key = "m" if "m" in keys else "B" if "B" in keys else "b"
    fields = (year_key, month_key, "d", *(k for k in "HMS" if k in keys))
    if sorted(keys) != sorted(fields):
        raise ValueError(f"date pattern {pattern!r} needs one year, month and day")

    def read(text: str) -> datetime | None:
        m = match(text)
        if m is None or m.end() != len(text):
            return None
        year, month, *rest = m.group(*fields)
        year = int(year)
        if year_key == "y":
            year += 2000 if year <= 68 else 1900
        month = int(month) if month_key == "m" else _MONTH_NUMBERS.get(month.lower())
        if month is None:
            return None  # a Unicode case variant of a name, such as "ſep"
        try:
            return datetime(year, month, *map(int, rest))
        except ValueError:
            return None

    return read


_ISO_READERS = tuple(map(date_reader, _ISO_FORMATS))


def _parse_iso(text: str, node: Expr) -> datetime:
    for read in _ISO_READERS:
        if (dt := read(text)) is not None:
            return dt
    raise _fail(f"cannot parse {text!r} as an ISO date", node)


def _equal(op: str, a: Cell, b: Cell, node: Expr) -> bool:
    return cells_equal(a, b) if op == "==" else not cells_equal(a, b)


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
    if any(isinstance(a, tuple) for a in args):
        raise _fail("concat() cannot take list arguments", node)
    return "".join(a if isinstance(a, str) else render_scalar(a) for a in args)


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


def _to_int(node: Call, v: Cell) -> int:
    if isinstance(v, bool):
        return 1 if v else 0
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        return _check_int(int(v), node)  # truncates toward zero
    if isinstance(v, str):
        try:
            return _check_int(int(v, 10), node)
        except ValueError:
            raise _fail(f"cannot cast {v!r} to int", node) from None
    raise _fail("to_int() cannot take a list", node)


def _to_real(node: Call, v: Cell) -> float:
    if isinstance(v, bool):
        return 1.0 if v else 0.0
    if isinstance(v, (int, float)):
        return _check_real(float(v), node)
    if isinstance(v, str):
        try:
            return _check_real(float(v), node)
        except ValueError:
            raise _fail(f"cannot cast {v!r} to real", node) from None
    raise _fail("to_real() cannot take a list", node)


def _to_text(node: Call, v: Cell) -> str:
    if isinstance(v, tuple):
        raise _fail("to_text() cannot take a list", node)
    return render_scalar(v)


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
    if any(code in fmt for code in ("%H", "%M", "%S", "%I")):
        return _strftime(dt, "%Y-%m-%dT%H:%M:%S")
    return _strftime(dt, "%Y-%m-%d")


_YEAR_OR_PERCENT = re.compile("%[Y%]")


def _strftime(dt: datetime, fmt: str) -> str:
    """dt.strftime(fmt) with %Y always four digits: glibc writes year 999 as "999"."""
    if dt.year < 1000:
        year = f"{dt.year:04d}"
        fmt = _YEAR_OR_PERCENT.sub(lambda m: year if m[0] == "%Y" else "%%", fmt)
    return dt.strftime(fmt)


def _format_date(node: Call, text: Cell, fmt: Cell) -> str:
    text, fmt = _text_arg(text, node), _text_arg(fmt, node)
    return _strftime(_parse_iso(text, node), fmt)


def _unknown_function(node: Call, *args: Cell) -> Cell:
    raise _fail(f"unknown function {node.name!r}", node)


# function name -> (node, *args) -> cell, for the strict functions (all but
# if, coalesce and is_null), called once every argument is evaluated and none
# is null
_STRICT_FUNCTIONS: dict[str, Callable[..., Cell]] = {
    "lower": lambda node, v: _text_arg(v, node).lower(),
    "upper": lambda node, v: _text_arg(v, node).upper(),
    "trim": lambda node, v: _text_arg(v, node).strip(),
    "concat": _concat,
    "split": _split,
    "replace": _replace,
    "substr": _substr,
    "contains": lambda node, v, part: _text_arg(part, node) in _text_arg(v, node),
    "starts_with": lambda node, v, prefix: _text_arg(v, node).startswith(_text_arg(prefix, node)),
    "to_int": _to_int,
    "to_real": _to_real,
    "to_text": _to_text,
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


def eval_expr(e: Expr, row: Mapping[str, Cell]) -> Cell:
    """Evaluate an expression against one row binding: compile_expr over
    the binding's names, applied to its cells. Pure."""
    return compile_expr(e, list(row))(tuple(row.values()))


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
    if len(args) == 1:
        arg = args[0]
        def call_1(row: tuple) -> Cell:
            v = arg(row)
            return None if v is None else apply(e, v)
        return call_1
    def call(row: tuple) -> Cell:
        vs = [arg(row) for arg in args]  # every argument runs before the null check
        return None if None in vs else apply(e, *vs)
    return call
