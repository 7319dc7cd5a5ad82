"""The operator-call parser that `adprep.expr.parse_call` replaced, kept as a
reference.

`parse_call` is the recursive descent that read call text in operators.py,
with its own cursor, literal rule, comma lists and list-nesting cap, before
the call grammar joined the DSL's parser in expr. Its errors carry no
position past the lexer's. `render_call` is the writer that chose a text for
each value by its parameter kind, before `adprep.expr.print_value` wrote
every value. test_operators.py checks the old and new pairs against each
other on mutated call texts.
"""

from __future__ import annotations

from typing import Any

from adprep.expr import MAX_DEPTH, ExprParseError, print_expr, real_literal, tokenize
from adprep.expr import _string_literal as _quote
from adprep.operators import (
    NAME_KINDS,
    NAME_LIST_KINDS,
    P_AGG_MAP,
    P_ASCENDING,
    P_CODE,
    P_ENUM,
    P_EXPR,
    P_INT,
    P_RENAME_MAP,
    P_TEXT,
    REGISTRY,
    OperatorInstance,
    OpParseError,
    Param,
    make_operator,
)


class _CallParser:
    """Recursive descent over the call grammar of the DSL's lexer."""

    def __init__(self, src: str):
        self.src = src
        try:
            self.tokens = tokenize(src, call=True)
        except ExprParseError as exc:
            raise OpParseError(str(exc)) from None
        self.i = 0

    @property
    def cur(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.cur
        self.i += 1
        return tok

    def expect(self, kind: str) -> Any:
        k, v, _ = self.cur
        if k != kind:
            raise OpParseError(f"expected {kind}, found {v!r}")
        return self.advance()[1]

    def value(self, depth: int = 0) -> Any:
        k, v, pos = self.cur
        if k == "REAL":
            try:
                v = real_literal(v, self.src, pos)
            except ExprParseError as exc:
                raise OpParseError(str(exc)) from None
        if k in ("STRING", "INT", "REAL"):
            self.advance()
            return v
        if k == "IDENT":
            self.advance()
            if v == "true":
                return True
            if v == "false":
                return False
            if v == "null":
                return None
            return v  # bare identifier reads as text
        if k == "LBRACK":
            if depth >= MAX_DEPTH:
                raise OpParseError(f"lists nest deeper than {MAX_DEPTH} levels")
            self.advance()
            items = []
            if self.cur[0] != "RBRACK":
                items.append(self.value(depth + 1))
                while self.cur[0] == "COMMA":
                    self.advance()
                    items.append(self.value(depth + 1))
            self.expect("RBRACK")
            return items
        if k == "LBRACE":
            self.advance()
            entries = {}
            if self.cur[0] != "RBRACE":
                while True:
                    key = self._map_text("map key")
                    self.expect("COLON")
                    entries[key] = self._map_text("map value")
                    if self.cur[0] != "COMMA":
                        break
                    self.advance()
            self.expect("RBRACE")
            return entries
        raise OpParseError(f"expected a value, found {v!r}")

    def _map_text(self, what: str) -> str:
        k, v, _ = self.cur
        if k in ("STRING", "IDENT"):
            self.advance()
            return v
        raise OpParseError(f"expected text for {what}, found {v!r}")


def parse_call(src: str) -> OperatorInstance:
    """Parse one operator call, as parse_operator_call did without its memo."""
    parser = _CallParser(src)
    k, v, _ = parser.cur
    if k != "IDENT":
        raise OpParseError(f"expected an operator name, found {v!r}")
    parser.advance()
    if v not in REGISTRY:
        raise OpParseError(f"unknown operator {v!r}")
    parser.expect("LPAREN")
    args = []
    if parser.cur[0] != "RPAREN":
        args.append(parser.value())
        while parser.cur[0] == "COMMA":
            parser.advance()
            args.append(parser.value())
    parser.expect("RPAREN")
    if parser.cur[0] != "EOF":
        raise OpParseError(f"unexpected trailing input {parser.cur[1]!r}")
    return make_operator(v, *args)


def _render_value(v: Any, p: Param) -> str:
    if p.kind == P_EXPR:
        return _quote(print_expr(v))
    if p.kind in NAME_KINDS or p.kind in (P_TEXT, P_CODE, P_ENUM):
        return _quote(v)
    if p.kind in NAME_LIST_KINDS:
        return "[" + ", ".join(_quote(x) for x in v) + "]"
    if p.kind in (P_RENAME_MAP, P_AGG_MAP):
        return "{" + ", ".join(f"{_quote(k)}: {_quote(val)}" for k, val in v.items()) + "}"
    if p.kind == P_INT:
        return str(v)
    if p.kind == P_ASCENDING:
        if isinstance(v, bool):
            return "true" if v else "false"
        return "[" + ", ".join("true" if x else "false" for x in v) + "]"
    raise AssertionError(f"unhandled param kind {p.kind}")


def render_call(op: OperatorInstance) -> str:
    """An operator's canonical call text, as op.text was written."""
    sig = REGISTRY[op.kind]
    rendered = ", ".join(_render_value(op.params[p.name], p) for p in sig.params)
    return f"{op.kind}({rendered})"
