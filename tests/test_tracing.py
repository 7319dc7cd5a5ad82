"""The benchmark's span tracer (perfbench/tracing.py) binds adprep functions
by attribute, so a renamed or deleted name breaks it at import. Installing
and removing it here turns that into a test failure."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import adprep
from adprep import operators, tables


def test_benchmark_tracer_installs_and_restores():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.pop(0)
    before = (operators.parse_operator_call, adprep.parse_expr, tables.Table.__post_init__)
    restore = tracing.instrument(tracing.Tracer())
    try:
        assert operators.parse_operator_call is not before[0]
    finally:
        restore()
    assert (operators.parse_operator_call, adprep.parse_expr, tables.Table.__post_init__) == before
