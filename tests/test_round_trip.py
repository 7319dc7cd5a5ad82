"""Round-trip laws for the writer/reader pairs, over an adversarial alphabet.

The law: a reader given what its writer wrote returns an equal value, and
writing that value again gives the same text. Where a format cannot carry a
value, the test says so and checks exactly that case.
"""

from __future__ import annotations

import random

import pytest

from adprep.expr import Binary, Call, ColRef, Lit, print_expr
from adprep.operators import (
    P_AGG_MAP,
    P_ASCENDING,
    P_CODE,
    P_COLUMN_LIST,
    P_ENUM,
    P_EXPR,
    P_INT,
    P_NAME_LIST,
    P_NEW_COLUMN_LIST,
    P_RENAME_MAP,
    P_TABLE_LIST,
    P_TEXT,
    REGISTRY,
    AGG_FNS,
    OpParseError,
    make_operator,
    parse_operator_call,
    serialize_operator_call,
)

# pieces that break naive quoting, line splitting or literal sniffing
ALPHABET = [
    "a", "Z", "_", " ", "\t", "\r", "\n", "\r\n", '"', "'", "\\", ",", ":",
    "[", "]", "{", "}", "(", ")", " -> ", "#", "null", "true", "false", "1",
    "-2.5", "1e400", "\u00a0", "\u2028", "\u00e9", "\U0001d538", "\U0001f600", "\ud800",
]
EDGE_SPACE = ["", " ", "  ", "\t", "\n", "\r\n"]


def adversarial_text(rng: random.Random, *, empty_ok: bool = True) -> str:
    """Text joined from alphabet pieces, often with whitespace at either edge."""
    while True:
        core = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 4)))
        text = rng.choice(EDGE_SPACE) + core + rng.choice(EDGE_SPACE)
        if text or empty_ok:
            return text


def _name(rng):
    return adversarial_text(rng, empty_ok=False)  # call text has no empty names


def _names(rng, least=1):
    return [_name(rng) for _ in range(rng.randint(least, 3))]


def _call_value(rng: random.Random, p):
    k = p.kind
    if k == P_RENAME_MAP:
        return {_name(rng): _name(rng) for _ in range(rng.randint(0, 3))}
    if k == P_AGG_MAP:
        return {_name(rng): rng.choice(AGG_FNS) for _ in range(rng.randint(0, 3))}
    if k == P_EXPR:
        # DSL text whose column names and text literals come from the alphabet
        e = Binary("==", ColRef(_name(rng)), Lit(adversarial_text(rng)))
        if rng.random() < 0.5:
            e = Call("concat", (ColRef(_name(rng)), Lit(adversarial_text(rng)), e))
        return print_expr(e)
    if k in (P_TEXT, P_CODE):
        return adversarial_text(rng)
    if k == P_ENUM:
        return rng.choice(p.options)
    if k == P_INT:
        return rng.choice([0, -1, 7, 2**70, -(2**63)])
    if k == P_ASCENDING:
        if rng.random() < 0.5:
            return rng.random() < 0.5
        return [rng.random() < 0.5 for _ in range(rng.randint(1, 3))]
    if k in (P_TABLE_LIST, P_COLUMN_LIST, P_NEW_COLUMN_LIST, P_NAME_LIST):
        return _names(rng, least=0 if k == P_COLUMN_LIST else 1)
    return _name(rng)  # table, column, new_column


def test_call_text_round_trip_law():
    """parse(serialize(op)) == op for ops of every kind with adversarial
    names, texts and map entries, read through the memo and without it, and
    the text read back serializes to the same text."""
    rng = random.Random(1313)
    for _ in range(40):
        for kind, sig in REGISTRY.items():
            op = make_operator(kind, *(_call_value(rng, p) for p in sig.params))
            text = serialize_operator_call(op)
            for parse in (parse_operator_call, parse_operator_call.__wrapped__):
                back = parse(text)
                assert back == op, text
                assert serialize_operator_call(back) == text


@pytest.mark.parametrize("kind, args", [
    ("RenameColumn", ("t", {"a": 1})),
    ("RenameColumn", ("t", {"a": None})),
    ("RenameColumn", ("t", {1: "a"})),
    ("RenameColumn", ("t", {"a": ["b"]})),
    ("GroupBy", ("t", ["a"], {2.5: "sum"})),
])
def test_call_text_carries_map_entries_as_text_only(kind, args):
    # the call grammar reads a map key or value as text alone, so an operator
    # whose map holds anything else has no call text: make_operator refuses it
    with pytest.raises(OpParseError, match="expects a map of text to text"):
        make_operator(kind, *args)
