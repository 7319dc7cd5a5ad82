"""Round-trip laws for the writer/reader pairs, over an adversarial alphabet.

The law: a reader given what its writer wrote returns an equal value, and
writing that value again gives the same text. Where a format cannot carry a
value, the test says so and checks exactly that case.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from adprep.agent import Trajectory, TurnRecord
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
from adprep.harness import load_trajectory_log, write_trajectory_log
from adprep.synthesis import TaskBundle, read_bundle, write_bundle
from adprep.tables import (
    BOOL,
    INT,
    LIST,
    REAL,
    TEXT,
    ColumnSpec,
    Schema,
    Table,
    read_table,
    table_to_csv_text,
    tables_equal,
    write_table,
)

# pieces that break naive quoting, line splitting or literal sniffing
ALPHABET = [
    "a", "Z", "_", " ", "\t", "\r", "\n", "\r\n", '"', "'", "\\", ",", ":",
    "[", "]", "{", "}", "(", ")", " -> ", "#", "null", "true", "false", "1",
    "-2.5", "1e400", "\u00a0", "\u2028", "\u00e9", "\U0001d538", "\U0001f600", "\ud800",
]
EDGE_SPACE = ["", " ", "  ", "\t", "\n", "\r\n"]


# a UTF-8 file cannot hold a lone surrogate, so text written raw to a file
# draws from the alphabet without it (JSON escapes it, so JSON text need not)
FILE_ALPHABET = [piece for piece in ALPHABET if piece != "\ud800"]


def adversarial_text(rng: random.Random, *, empty_ok: bool = True, alphabet=ALPHABET) -> str:
    """Text joined from alphabet pieces, often with whitespace at either edge."""
    while True:
        core = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
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


# -- tables, bundles and logs on disk -----------------------------------------

def _file_text(rng, *, empty_ok=True):
    return adversarial_text(rng, empty_ok=empty_ok, alphabet=FILE_ALPHABET)


def _cell(rng, dtype, text):
    if rng.random() < 0.15:
        return None
    if dtype == TEXT:
        return text(rng)
    if dtype == INT:
        return rng.choice([0, -1, 7, 2**63 - 1, -(2**63)])
    if dtype == REAL:
        return rng.choice([0.0, -0.0, 2.5, 0.1, 1 / 3, -1e-300, 1e300])
    if dtype == BOOL:
        return rng.random() < 0.5
    elems = [None, True, 3, -2.5, text(rng)]
    return tuple(rng.choice(elems) for _ in range(rng.randint(0, 3)))


def _maybe(rng, make):
    return make(rng) if rng.random() < 0.6 else None


def random_file_table(rng, name, text=_file_text) -> Table:
    """A table whose names, descriptions and text cells are adversarial."""
    names = []
    while len(names) < rng.randint(1, 4):
        candidate = text(rng, empty_ok=False)
        if candidate not in names:
            names.append(candidate)
    cols = tuple(
        ColumnSpec(n, rng.choice([INT, REAL, TEXT, BOOL, LIST]), _maybe(rng, text)) for n in names
    )
    rows = tuple(
        tuple(_cell(rng, c.dtype, text) for c in cols) for _ in range(rng.randint(0, 4))
    )
    return Table(Schema(name, cols, _maybe(rng, text)), rows)


def _typed(cell):
    """A cell with the Python type of it and of every list element."""
    if isinstance(cell, tuple):
        return tuple(map(_typed, cell))
    return type(cell), cell


def assert_same_table(back: Table, want: Table):
    assert back.schema == want.schema
    assert tables_equal(back, want)
    assert [tuple(map(_typed, r)) for r in back.rows] == [tuple(map(_typed, r)) for r in want.rows]


def _empty_text_as_null(t: Table) -> Table:
    rows = tuple(
        tuple(None if v == "" and c.dtype == TEXT else v for c, v in zip(t.schema.columns, r))
        for r in t.rows
    )
    return Table(t.schema, rows)


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("fmt, suffix", [("csv", ".csv"), ("json-rows", ".json")])
def test_table_file_round_trip_law(tmp_path, fmt, suffix):
    """read_table(write_table(t)) with its sidecar gives t back: the same
    values, dtypes and cell types, and writing it again gives the same
    bytes. The one csv limit: an empty text cell reads back as null, since
    csv spells null and "" alike; json-rows carries it."""
    rng = random.Random(1414)
    for i in range(150):
        t = random_file_table(rng, _file_text(rng, empty_ok=False))
        first, again = tmp_path / f"t{i}{suffix}", tmp_path / f"t{i}-again{suffix}"
        write_table(t, first, fmt)
        back = read_table(first, fmt)
        assert_same_table(back, _empty_text_as_null(t) if fmt == "csv" else t)
        write_table(back, again, fmt)
        for ext in ("", ".schema.json"):
            assert Path(f"{again}{ext}").read_bytes() == Path(f"{first}{ext}").read_bytes()


@pytest.mark.parametrize("fmt, want", [("csv", None), ("json-rows", "")])
def test_an_empty_text_cell_reads_back_as_null_from_csv_only(tmp_path, fmt, want):
    t = Table(Schema("t", (ColumnSpec("a", TEXT), ColumnSpec("b", TEXT))), (("", "x"), (None, "")))
    write_table(t, tmp_path / "t.data", fmt)
    assert read_table(tmp_path / "t.data", fmt).rows == ((want, "x"), (None, want))


def test_a_csv_file_holds_exactly_the_csv_text(tmp_path):
    """write_table's csv file is table_to_csv_text, encoded as UTF-8, and
    reads back with the table's schema given in place of a sidecar."""
    rng = random.Random(1420)
    for i in range(150):
        t = random_file_table(rng, _file_text(rng, empty_ok=False))
        path = tmp_path / f"t{i}.csv"
        write_table(t, path, sidecar=False)
        assert path.read_bytes() == table_to_csv_text(t).encode("utf-8")
        assert_same_table(read_table(path, schema=t.schema), _empty_text_as_null(t))


@pytest.mark.parametrize("fmt", ["csv", "json-rows"])
def test_table_files_cannot_hold_a_lone_surrogate(tmp_path, fmt):
    t = Table(Schema("t", (ColumnSpec("a", TEXT),)), (("\ud800",),))
    with pytest.raises(UnicodeEncodeError):
        write_table(t, tmp_path / "t.data", fmt)


def test_bundle_round_trip_law(tmp_path):
    """read_bundle(write_bundle(b)) gives b back, source and target tables as
    the table law says, and writing it again gives the same files byte for
    byte. Table names are file names here, so they are plain words; column
    names, cells, call texts and provenance are adversarial."""
    rng = random.Random(1415)
    sigs = [(kind, REGISTRY[kind]) for kind in ("RenameColumn", "Filter", "GroupBy", "Sort")]
    for i in range(30):
        names = rng.sample(["orders", "regions", "t_1", "Staff", "x"], rng.randint(1, 3))
        sources = {n: random_file_table(rng, n) for n in names}
        target = random_file_table(rng, "target")
        ops = [
            make_operator(kind, *(_call_value(rng, p) for p in sig.params))
            for kind, sig in (rng.choice(sigs) for _ in range(rng.randint(0, 4)))
        ]
        gt = tuple(op for op in ops if "\ud800" not in op.text)  # gt_pipeline.txt is UTF-8
        provenance = {adversarial_text(rng): [adversarial_text(rng), 7, None] for _ in range(2)}
        bundle = TaskBundle(adversarial_text(rng), sources, target, gt, provenance)
        first = write_bundle(bundle, tmp_path / f"b{i}")
        back = read_bundle(first)
        assert back.task_id == bundle.task_id
        assert back.provenance == provenance
        assert back.gt_pipeline == gt
        assert back.target_schema == target.schema
        assert_same_table(back.target_table, _empty_text_as_null(target))
        assert sorted(back.sources) == sorted(sources)
        for n, t in sources.items():
            assert_same_table(back.sources[n], _empty_text_as_null(t))
        again = write_bundle(back, tmp_path / f"b{i}-again")
        assert _tree_bytes(again) == _tree_bytes(first)


def _turn(rng, index):
    def maybe():
        return _maybe(rng, adversarial_text)

    return TurnRecord(
        index,
        adversarial_text(rng),
        rng.choice(["expand", "answer", "protocol_error"]),
        plan=maybe(),
        category=maybe(),
        parent_path=maybe(),
        op_texts=[adversarial_text(rng) for _ in range(rng.randint(0, 3))],
        created_paths=[adversarial_text(rng) for _ in range(rng.randint(0, 2))],
        leaf_path=maybe(),
        failure_text=maybe(),
        failure_op_kind=maybe(),
        failure_detail=maybe(),
        feedback=maybe(),
    )


def test_trajectory_log_round_trip_law(tmp_path):
    """load_trajectory_log(write_trajectory_log(traj)) gives every logged
    field back, and writing it again gives the same bytes. JSON escapes what
    a UTF-8 file cannot hold, so plans, replies and feedback draw from the
    whole alphabet, lone surrogate included."""
    rng = random.Random(1416)
    for i in range(60):
        final = random_file_table(rng, adversarial_text(rng, empty_ok=False), adversarial_text)
        traj = Trajectory(
            adversarial_text(rng),
            rng.choice(["answered", "empty_result", "turn_limit", "protocol_abort"]),
            [_turn(rng, k) for k in range(rng.randint(0, 4))],
            answer_path=adversarial_text(rng),
            answer_plan=adversarial_text(rng),
            final_table=final if rng.random() < 0.8 else None,
            wall_time=rng.random() * 10,
            protocol_error_count=rng.randint(0, 3),
            usage={adversarial_text(rng): rng.randint(0, 99)} if rng.random() < 0.5 else None,
            error=adversarial_text(rng) if rng.random() < 0.3 else None,
        )
        scores = {"outcome": rng.random(), "note": adversarial_text(rng)}
        first, again = tmp_path / f"l{i}.jsonl", tmp_path / f"l{i}-again.jsonl"
        write_trajectory_log(first, traj, scores)
        back = load_trajectory_log(first)
        assert back.task_id == traj.task_id and back.status == traj.status
        assert back.turns == traj.turns
        for name in ("answer_path", "answer_plan", "wall_time", "protocol_error_count", "usage", "error"):
            assert getattr(back, name) == getattr(traj, name)
        if traj.final_table is None:
            assert back.final_table is None
        else:
            assert_same_table(back.final_table, traj.final_table)
        write_trajectory_log(again, back, scores)
        assert again.read_bytes() == first.read_bytes()
