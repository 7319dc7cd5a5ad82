"""The scanners the unified lexer replaced, kept as references.

`expr_tokenize` is the expression DSL scanner and `call_tokenize` the
operator-call scanner, each as it stood before `adprep.expr.tokenize` took
over both grammars. The lexer fuzz in test_expr.py checks the new lexer
against them input by input. `call_tokenize` has since gained the one rule
the call grammar added, the ARROW token for "->".

`split_chain` is the character loop that cut an operator chain at " -> "
before `adprep.agent.split_chain` cut it at the lexer's ARROW tokens.
test_agent.py checks the two splitters against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from adprep.expr import ExprParseError
from adprep.operators import OpParseError

_TWO_CHAR_OPS = ("==", "!=", "<=", ">=")
_ONE_CHAR_OPS = "+-*/%<>"
_ESCAPES = {"\\": "\\", '"': '"', "'": "'", "n": "\n", "t": "\t", "r": "\r"}


@dataclass
class Token:
    kind: str  # IDENT, INT, REAL, STRING, OP, LPAREN, RPAREN, COMMA, EOF
    value: Any
    pos: int


def expr_tokenize(src: str) -> list[Token]:
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if src[i : i + 2] in _TWO_CHAR_OPS:
            tokens.append(Token("OP", src[i : i + 2], i))
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token("OP", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(Token("LPAREN", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(Token("RPAREN", ch, i))
            i += 1
            continue
        if ch == ",":
            tokens.append(Token("COMMA", ch, i))
            i += 1
            continue
        if ch in "\"'":
            quote, start = ch, i
            i += 1
            out = []
            while i < n and src[i] != quote:
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
            tokens.append(Token("STRING", "".join(out), start))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            start = i
            while i < n and (src[i].isdigit() or src[i] in ".eE" or (src[i] in "+-" and src[i - 1] in "eE")):
                i += 1
            text = src[start:i]
            try:
                if any(c in text for c in ".eE"):
                    tokens.append(Token("REAL", float(text), start))
                else:
                    tokens.append(Token("INT", int(text), start))
            except ValueError:
                raise ExprParseError(f"bad number literal {text!r}", start) from None
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (src[i].isalnum() or src[i] == "_"):
                i += 1
            tokens.append(Token("IDENT", src[start:i], start))
            continue
        raise ExprParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token("EOF", None, n))
    return tokens


_PUNCT = {
    "(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK",
    "{": "LBRACE", "}": "RBRACE", ",": "COMMA", ":": "COLON",
}
_OP_ESCAPES = {"\\": "\\", '"': '"', "'": "'", "n": "\n", "t": "\t", "r": "\r"}


def call_tokenize(src: str) -> list[tuple[str, Any]]:
    tokens: list[tuple[str, Any]] = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((_PUNCT[ch], ch))
            i += 1
            continue
        if ch in "\"'":
            quote = ch
            i += 1
            out = []
            while i < n and src[i] != quote:
                if src[i] == "\\":
                    if i + 1 >= n or src[i + 1] not in _OP_ESCAPES:
                        raise OpParseError(f"bad escape sequence at position {i}")
                    out.append(_OP_ESCAPES[src[i + 1]])
                    i += 2
                else:
                    out.append(src[i])
                    i += 1
            if i >= n:
                raise OpParseError("unterminated string literal")
            tokens.append(("STRING", "".join(out)))
            i += 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and (src[i + 1].isdigit() or src[i + 1] == ".")) \
                or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            start = i
            if ch == "-":
                i += 1
            while i < n and (src[i].isdigit() or src[i] in ".eE" or (src[i] in "+-" and src[i - 1] in "eE")):
                i += 1
            text = src[start:i]
            try:
                if any(c in text for c in ".eE"):
                    tokens.append(("REAL", float(text)))
                else:
                    tokens.append(("INT", int(text)))
            except ValueError:
                raise OpParseError(f"bad number literal {text!r}") from None
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (src[i].isalnum() or src[i] == "_"):
                i += 1
            tokens.append(("IDENT", src[start:i]))
            continue
        if src.startswith("->", i):
            tokens.append(("ARROW", "->"))
            i += 2
            continue
        raise OpParseError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("EOF", None))
    return tokens


def split_chain(text: str) -> list[str]:
    """Split an operator chain on " -> " outside strings and brackets."""
    parts = []
    depth = 0
    quote = None
    start = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if quote is not None:
            if ch == "\\":
                i += 2
                continue
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif depth == 0 and text.startswith(" -> ", i):
            parts.append(text[start:i])
            i += 4
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return [p.strip() for p in parts]
