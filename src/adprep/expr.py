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

Dates have no dedicated cell kind: parse_date(x, fmt) yields ISO text
("%Y-%m-%d", or "%Y-%m-%dT%H:%M:%S" when fmt carries a time part) and
format_date(x, fmt) renders ISO text through strftime. Month names follow
the C locale (English).

Operator precedence, loosest first: or, and, comparison, additive,
multiplicative, unary (not, -), then calls and atoms.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import datetime
from typing import Any, Mapping

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
    if not _is_number(a) or not _is_number(b):
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


def _compare(op: str, a: Cell, b: Cell, node: Expr) -> bool:
    if _is_number(a) and _is_number(b):
        pass
    elif isinstance(a, str) and isinstance(b, str):
        a, b = a.encode("utf-8"), b.encode("utf-8")
    elif isinstance(a, bool) and isinstance(b, bool):
        pass
    else:
        raise _fail(f"operator {op} cannot compare these operand kinds", node)
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


def _text_arg(v: Cell, fn: str, node: Expr) -> str:
    if not isinstance(v, str):
        raise _fail(f"{fn}() needs a text argument", node)
    return v


def _parse_iso(text: str, node: Expr) -> datetime:
    for fmt in _ISO_FORMATS:
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    raise _fail(f"cannot parse {text!r} as an ISO date", node)


def eval_expr(e: Expr, row: Mapping[str, Cell]) -> Cell:
    """Evaluate an expression against one row binding. Pure."""
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, ColRef):
        if e.name not in row:
            raise _fail(f"unknown column {e.name!r}", e)
        return row[e.name]
    if isinstance(e, Unary):
        v = eval_expr(e.operand, row)
        if v is None:
            return None
        if e.op == "-":
            if not _is_number(v):
                raise _fail("unary - needs a numeric operand", e)
            if isinstance(v, int):
                return _check_int(-v, e)
            return -v
        if not isinstance(v, bool):
            raise _fail("not needs a boolean operand", e)
        return not v
    if isinstance(e, Binary):
        left = eval_expr(e.left, row)
        right = eval_expr(e.right, row)
        if e.op == "==":
            if left is None or right is None:
                return None
            return cells_equal(left, right)
        if e.op == "!=":
            if left is None or right is None:
                return None
            return not cells_equal(left, right)
        if left is None or right is None:
            return None
        if e.op in ("and", "or"):
            if not isinstance(left, bool) or not isinstance(right, bool):
                raise _fail(f"{e.op} needs boolean operands", e)
            return (left and right) if e.op == "and" else (left or right)
        if e.op in ("<", "<=", ">", ">="):
            return _compare(e.op, left, right, e)
        return _arith(e.op, left, right, e)
    if isinstance(e, Call):
        return _eval_call(e, row)
    raise TypeError(f"not an expression node: {e!r}")


def _eval_call(e: Call, row: Mapping[str, Cell]) -> Cell:
    name = e.name

    if name == "if":
        cond = eval_expr(e.args[0], row)
        if cond is not None and not isinstance(cond, bool):
            raise _fail("if() condition must be boolean or null", e)
        # a Null condition selects the else branch; branches are lazy
        return eval_expr(e.args[1] if cond is True else e.args[2], row)

    if name == "coalesce":
        for arg in e.args:
            v = eval_expr(arg, row)
            if v is not None:
                return v
        return None

    if name == "is_null":
        return eval_expr(e.args[0], row) is None

    args = [eval_expr(a, row) for a in e.args]

    if name == "concat":
        if any(a is None for a in args):
            return None
        parts = []
        for a in args:
            if isinstance(a, tuple):
                raise _fail("concat() cannot take list arguments", e)
            parts.append(a if isinstance(a, str) else render_scalar(a))
        return "".join(parts)

    if any(a is None for a in args):
        return None

    if name in ("lower", "upper", "trim"):
        v = _text_arg(args[0], name, e)
        return v.lower() if name == "lower" else v.upper() if name == "upper" else v.strip()
    if name == "split":
        v = _text_arg(args[0], name, e)
        sep = _text_arg(args[1], name, e)
        if sep == "":
            raise _fail("split() separator must be non-empty", e)
        return tuple(v.split(sep))
    if name == "replace":
        v = _text_arg(args[0], name, e)
        old = _text_arg(args[1], name, e)
        new = _text_arg(args[2], name, e)
        if old == "":
            raise _fail("replace() needs a non-empty search string", e)
        return v.replace(old, new)
    if name == "substr":
        v = _text_arg(args[0], name, e)
        start, length = args[1], args[2]
        if not isinstance(start, int) or not isinstance(length, int) \
                or isinstance(start, bool) or isinstance(length, bool):
            raise _fail("substr() start and length must be integers", e)
        if start < 0 or length < 0:
            raise _fail("substr() start and length must be non-negative", e)
        return v[start : start + length]
    if name == "contains":
        return _text_arg(args[1], name, e) in _text_arg(args[0], name, e)
    if name == "starts_with":
        return _text_arg(args[0], name, e).startswith(_text_arg(args[1], name, e))
    if name == "to_int":
        v = args[0]
        if isinstance(v, bool):
            return 1 if v else 0
        if isinstance(v, int):
            return v
        if isinstance(v, float):
            return _check_int(int(v), e)  # truncates toward zero
        if isinstance(v, str):
            try:
                return _check_int(int(v, 10), e)
            except ValueError:
                raise _fail(f"cannot cast {v!r} to int", e) from None
        raise _fail("to_int() cannot take a list", e)
    if name == "to_real":
        v = args[0]
        if isinstance(v, bool):
            return 1.0 if v else 0.0
        if isinstance(v, (int, float)):
            return _check_real(float(v), e)
        if isinstance(v, str):
            try:
                return _check_real(float(v), e)
            except ValueError:
                raise _fail(f"cannot cast {v!r} to real", e) from None
        raise _fail("to_real() cannot take a list", e)
    if name == "to_text":
        v = args[0]
        if isinstance(v, tuple):
            raise _fail("to_text() cannot take a list", e)
        return render_scalar(v)
    if name == "at":
        v, idx = args[0], args[1]
        if not isinstance(v, tuple):
            raise _fail("at() needs a list argument", e)
        if not isinstance(idx, int) or isinstance(idx, bool):
            raise _fail("at() index must be an integer", e)
        if not 0 <= idx < len(v):
            raise _fail(f"at() index {idx} out of range for length {len(v)}", e)
        return v[idx]
    if name == "parse_date":
        text = _text_arg(args[0], name, e)
        fmt = _text_arg(args[1], name, e)
        try:
            dt = datetime.strptime(text, fmt)
        except ValueError as exc:
            raise _fail(f"cannot parse date {text!r} with {fmt!r}: {exc}", e) from None
        if any(code in fmt for code in ("%H", "%M", "%S", "%I")):
            return dt.strftime("%Y-%m-%dT%H:%M:%S")
        return dt.strftime("%Y-%m-%d")
    if name == "format_date":
        text = _text_arg(args[0], name, e)
        fmt = _text_arg(args[1], name, e)
        return _parse_iso(text, e).strftime(fmt)
    raise _fail(f"unknown function {name!r}", e)


def column_refs(e: Expr) -> set[str]:
    """All column names referenced by an expression."""
    if isinstance(e, ColRef):
        return {e.name}
    if isinstance(e, Unary):
        return column_refs(e.operand)
    if isinstance(e, Binary):
        return column_refs(e.left) | column_refs(e.right)
    if isinstance(e, Call):
        out: set[str] = set()
        for a in e.args:
            out |= column_refs(a)
        return out
    return set()
