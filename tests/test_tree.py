"""Reasoning tree: expansion, partial chains, parent resolution."""

import random

import pytest

from adprep.operators import ExecError, execute_operator, parse_operator_call
from adprep.synthesis import parse_pipeline
from adprep.tree import ReasoningTree, TreeError
from adprep.tables import BOOL, INT, REAL, TEXT, make_table
from conftest import random_table


def start_state():
    t = make_table(
        "people",
        [("id", INT), ("name", TEXT)],
        [(1, "ada"), (1, "ada"), (2, "grace"), (None, "alan")],
    )
    return {"people": t}


DEDUP = 'Deduplicate("people", ["id"], "first")'
DROPNA = 'DropNA("people", ["id"], "any")'
BAD = 'DropColumn("people", ["ghost"])'


def test_expand_creates_nodes_per_success():
    tree = ReasoningTree(start_state())
    result = tree.expand(tree.root, parse_pipeline(f"{DEDUP}\n{DROPNA}\n"))
    assert result.ok
    assert len(result.chain) == 2
    assert result.leaf.state["people"].n_rows == 2
    assert result.leaf.prefix == tuple(parse_pipeline(f"{DEDUP}\n{DROPNA}\n"))
    assert tree.root.children[0].state["people"].n_rows == 3


def test_partial_failure_keeps_prefix_nodes():
    tree = ReasoningTree(start_state())
    result = tree.expand(tree.root, parse_pipeline(f"{DEDUP}\n{BAD}\n{DROPNA}\n"))
    assert not result.ok
    assert len(result.chain) == 1  # the dedup survived
    assert result.leaf is result.chain[-1]
    assert result.leaf.failures[0].op == parse_operator_call(BAD)
    assert result.leaf.failures[0].detail == "ghost"
    # the failed suffix created no nodes
    assert len(tree.nodes) == 2


def test_first_op_failure_lands_on_parent():
    tree = ReasoningTree(start_state())
    result = tree.expand(tree.root, parse_pipeline(f"{BAD}\n"))
    assert not result.ok
    assert result.chain == []
    assert result.leaf is tree.root
    assert tree.root.failures[0].detail == "ghost"


def test_expand_reuses_existing_children():
    tree = ReasoningTree(start_state())
    tree.expand(tree.root, parse_pipeline(f"{DEDUP}\n"))
    tree.expand(tree.root, parse_pipeline(f"{DEDUP}\n{DROPNA}\n"))
    assert len(tree.root.children) == 1
    assert len(tree.nodes) == 3


def test_expand_reuses_a_child_only_for_the_same_call_text():
    # 1, 1.0 and true are one value to Python's ==, yet each literal keeps
    # its own dtype, so each edge is a state of its own
    t = make_table("t", [("a", INT), ("f", BOOL)], [(1, True), (2, False)])
    tree = ReasoningTree({"t": t})

    def leaf(call):
        return tree.expand(tree.root, [parse_operator_call(call)]).leaf

    plus_int = leaf('AddNewColumn("t", "b", "col(\\"a\\") + 1")')
    plus_real = leaf('AddNewColumn("t", "b", "col(\\"a\\") + 1.0")')
    is_true = leaf('Filter("t", "col(\\"f\\") == true")')
    is_one = leaf('Filter("t", "col(\\"f\\") == 1")')
    assert len(tree.root.children) == 4
    assert plus_int.state["t"].column("b") == (2, 3)
    assert plus_real.state["t"].column("b") == (2.0, 3.0)
    assert plus_real.state["t"].schema.columns[-1].dtype == REAL
    assert (is_true.state["t"].n_rows, is_one.state["t"].n_rows) == (1, 0)
    for node in (plus_int, plus_real, is_true, is_one):
        assert tree.resolve(node.prefix) is node


def test_resolve_walks_prefix_and_reports_misses():
    tree = ReasoningTree(start_state())
    result = tree.expand(tree.root, parse_pipeline(f"{DEDUP}\n{DROPNA}\n"))
    found = tree.resolve(result.leaf.prefix)
    assert found is result.leaf
    assert tree.resolve(()) is tree.root
    with pytest.raises(TreeError) as err:
        tree.resolve(parse_pipeline(f"{DROPNA}\n"))
    assert "Deduplicate" in str(err.value)  # available children are listed


def test_path_text():
    tree = ReasoningTree(start_state())
    result = tree.expand(tree.root, parse_pipeline(f"{DEDUP}\n"))
    assert tree.root.path_text == "root"
    assert result.leaf.path_text == 'Deduplicate("people", ["id"], "first")'


def test_each_edge_is_serialized_once(monkeypatch):
    from adprep import tree as tree_module
    from adprep.operators import serialize_operator_call

    calls = []

    def counting(op):
        calls.append(op)
        return serialize_operator_call(op)

    monkeypatch.setattr(tree_module, "serialize_operator_call", counting)
    tree = ReasoningTree(start_state())
    ops = parse_pipeline(f"{DEDUP}\n{DROPNA}\nTopK(\"people\", 1)\n")
    leaf = tree.expand(tree.root, ops).leaf
    assert len(calls) == 3
    for _ in range(3):
        for node in tree.nodes:
            node.path_text
        assert tree.resolve(leaf.prefix) is leaf
    assert len(calls) == 3
    assert leaf.path_text == " -> ".join(serialize_operator_call(op) for op in ops)
    assert tree.resolve(leaf.prefix[:-1]).path_text == f"{DEDUP} -> {DROPNA}"


def test_resolve_of_extracted_path_is_identity_randomized():
    rng = random.Random(77)
    for _ in range(30):
        t = random_table(rng, name="t", dtypes=(INT, TEXT), min_cols=1)
        tree = ReasoningTree({"t": t})
        names = list(t.column_names)
        candidates = [
            f'Deduplicate("t", [], "first")',
            f'DropNA("t", [], "any")',
            f'Sort("t", ["{rng.choice(names)}"], true)',
            f'TopK("t", {rng.randint(0, 3)})',
            f'Count("t")',
        ]
        rng.shuffle(candidates)
        for text in candidates[: rng.randint(1, 3)]:
            parent = rng.choice(tree.nodes)
            tree.expand(parent, parse_pipeline(text + "\n"))
        for node in tree.nodes:
            assert tree.resolve(node.prefix) is node


@pytest.mark.parametrize("call, text", [
    ('DropColumn("people", ["id", "name"])', "DropColumn: cannot drop every column (people)"),
    (BAD, "DropColumn: table 'people' has no column 'ghost'"),
])
def test_a_failure_record_reads_as_the_exec_error_it_copies(call, text):
    """The " (detail)" suffix has one home, operators.with_detail, for the
    ExecError text, the record's str() and the feedback's describe()."""
    op = parse_operator_call(call)
    with pytest.raises(ExecError) as err:
        execute_operator(op, start_state())
    tree = ReasoningTree(start_state())
    record = tree.expand(tree.root, [op]).failure
    assert str(record) == str(err.value) == text
    assert record.describe() == f"{call} failed: {text.split(': ', 1)[1]}"
