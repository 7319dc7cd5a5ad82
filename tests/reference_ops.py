"""Independent naive reimplementations of the deterministic operators.

The engine in adprep.operators is checked against these on randomized table
sets: both sides run the same operator call, and either both must fail or
both must produce the same tables (names, column order, dtypes, cells).

Tables here are plain dicts {"name", "cols": [(name, dtype)], "rows":
[ {col: cell} ]} so nothing from the engine's row machinery is reused.
Operators whose func parameter is expression text are exercised through
generator-supplied (dsl_text, python_fn) pairs: the engine evaluates the
DSL, the reference calls the plain function.
"""

from __future__ import annotations

import calendar
import json
import math
import random
import re
from datetime import datetime

from conftest import COLUMN_POOL, WORDS, random_scalar, random_table

from adprep.operators import ExecError, execute_operator, make_operator
from adprep.tables import (
    BOOL, INT, LIST, REAL, TEXT, Schema, Table, TableError, cell_sort_key, make_table,
)

AGGS = ("sum", "avg", "min", "max", "count", "count_distinct", "first", "last", "concat")


class RefError(Exception):
    """Reference-side operator failure."""


# --- plain-table helpers -----------------------------------------------------


def to_plain(t: Table) -> dict:
    names = list(t.column_names)
    return {
        "name": t.name,
        "cols": [(c.name, c.dtype) for c in t.schema.columns],
        "rows": [dict(zip(names, row)) for row in t.rows],
    }


def plain_state(tables: dict[str, Table]) -> dict:
    return {name: to_plain(t) for name, t in tables.items()}


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def ref_render(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, str):
        return v
    return json.dumps(list(v), ensure_ascii=False)


def ref_key(v):
    """Grouping key: ints and equal-valued floats collide, bools stay apart."""
    if v is None:
        return ("null",)
    if isinstance(v, bool):
        return ("bool", v)
    if _is_num(v):
        return ("num", float(v))
    if isinstance(v, str):
        return ("text", v)
    return ("list", tuple(ref_key(x) for x in v))


def ref_sort_key(v):
    """Total-order key: null < bool < numeric < text < list."""
    if v is None:
        return (0,)
    if isinstance(v, bool):
        return (1, v)
    if _is_num(v):
        return (2, float(v))
    if isinstance(v, str):
        return (3, v.encode("utf-8"))
    return (4, tuple(ref_sort_key(x) for x in v))


def _cell_rank(v) -> int:
    if v is None:
        return 0
    if isinstance(v, bool):
        return 1
    if isinstance(v, (int, float)):
        return 2
    if isinstance(v, str):
        return 3
    return 4  # tuple


def compare_cells(a, b) -> int:
    """Total order over cells: Null < Boolean < numeric < Text < List.

    Numeric comparison is exact across int and real. Text compares by
    UTF-8 byte order. Lists compare elementwise, then by length.

    The engine orders cells with adprep.tables.cell_sort_key; this
    comparator spells the order out and is the reference the tests check
    that key against.
    """
    ra, rb = _cell_rank(a), _cell_rank(b)
    if ra != rb:
        return -1 if ra < rb else 1
    if ra == 0:
        return 0
    if ra in (1, 2):
        if a == b:
            return 0
        return -1 if a < b else 1
    if ra == 3:
        ba, bb = a.encode("utf-8"), b.encode("utf-8")
        if ba == bb:
            return 0
        return -1 if ba < bb else 1
    for x, y in zip(a, b):
        c = compare_cells(x, y)
        if c != 0:
            return c
    return (len(a) > len(b)) - (len(a) < len(b))


def ref_infer(cells, fallback):
    kinds = set()
    for c in cells:
        if c is None:
            continue
        if isinstance(c, bool):
            kinds.add(BOOL)
        elif isinstance(c, int):
            kinds.add(INT)
        elif isinstance(c, float):
            if not math.isfinite(c):
                raise RefError("non-finite real")
            kinds.add(REAL)
        elif isinstance(c, str):
            kinds.add(TEXT)
        elif isinstance(c, tuple):
            kinds.add(LIST)
        else:
            raise RefError(f"bad cell {c!r}")
    if not kinds:
        return fallback
    if kinds <= {INT, REAL}:
        return INT if kinds == {INT} else REAL
    if len(kinds) == 1:
        return next(iter(kinds))
    raise RefError(f"mixed kinds {sorted(kinds)}")


def ref_coerce(dtype, cells):
    if dtype == REAL:
        return [float(c) if isinstance(c, int) and not isinstance(c, bool) else c for c in cells]
    return list(cells)


def _ref_table(name, col_cells, fallbacks, descriptions=None):
    """Build a plain table from parallel (col_name, cells) pairs, inferring dtypes."""
    cols = []
    fixed = []
    for (cname, cells), fb in zip(col_cells, fallbacks):
        dtype = ref_infer(cells, fb)
        cols.append((cname, dtype))
        fixed.append(ref_coerce(dtype, cells))
    n = len(fixed[0]) if fixed else 0
    rows = [
        {cols[j][0]: fixed[j][r] for j in range(len(cols))}
        for r in range(n)
    ]
    return {"name": name, "cols": cols, "rows": rows}


def _need_col(pt, name):
    if name not in [c for c, _ in pt["cols"]]:
        raise RefError(f"no column {name}")


def _need_table(state, name):
    if name not in state:
        raise RefError(f"no table {name}")
    return state[name]


def _dtype_of(pt, name):
    for c, d in pt["cols"]:
        if c == name:
            return d
    raise RefError(f"no column {name}")


def _replace(state, remove, add):
    out = {k: v for k, v in state.items() if k not in remove}
    for pt in add:
        out[pt["name"]] = pt
    return out


def _rebuilt(pt, name=None):
    """Re-infer every column of a plain table from its own cells."""
    name = name or pt["name"]
    col_cells = [(c, [r[c] for r in pt["rows"]]) for c, _ in pt["cols"]]
    fallbacks = [d for _, d in pt["cols"]]
    return _ref_table(name, col_cells, fallbacks)


# --- reference handlers ------------------------------------------------------


def _call(fn, row):
    try:
        return fn(row)
    except RefError:
        raise
    except Exception as exc:
        raise RefError(f"func failed: {exc}") from None


def ref_dropna(p, state):
    pt = _need_table(state, p["table"])
    subset = p["subset"] or [c for c, _ in pt["cols"]]
    for c in subset:
        _need_col(pt, c)
    if p["how"] == "any":
        rows = [r for r in pt["rows"] if all(r[c] is not None for c in subset)]
    else:
        rows = [r for r in pt["rows"] if any(r[c] is not None for c in subset)]
    return _replace(state, [], [dict(pt, rows=rows)])


def ref_imputation(p, state):
    pt = _need_table(state, p["table"])
    col = p["column"]
    _need_col(pt, col)
    present = [r[col] for r in pt["rows"] if r[col] is not None]
    if not present:
        raise RefError("all null")
    mode = p["mode"]
    if mode in ("mean", "median"):
        if not all(_is_num(v) for v in present):
            raise RefError("not numeric")
        if mode == "mean":
            fill = sum(present) / len(present)
        else:
            fill = sorted(present)[(len(present) - 1) // 2]
    else:
        counts = {}
        for v in present:
            counts.setdefault(ref_key(v), []).append(v)
        best = max(len(vs) for vs in counts.values())
        winners = [vs[0] for vs in counts.values() if len(vs) == best]
        fill = min(winners, key=ref_sort_key)
    rows = [dict(r, **{col: fill if r[col] is None else r[col]}) for r in pt["rows"]]
    return _replace(state, [], [_rebuilt(dict(pt, rows=rows))])


def ref_deduplicate(p, state):
    pt = _need_table(state, p["table"])
    subset = p["subset"] or [c for c, _ in pt["cols"]]
    for c in subset:
        _need_col(pt, c)
    keys = [tuple(ref_key(r[c]) for c in subset) for r in pt["rows"]]
    if p["keep"] == "first":
        winner = {}
        for i, k in enumerate(keys):
            winner.setdefault(k, i)
    else:
        winner = {k: i for i, k in enumerate(keys)}
    rows = [r for i, r in enumerate(pt["rows"]) if winner[keys[i]] == i]
    return _replace(state, [], [dict(pt, rows=rows)])


def ref_error_detection(p, state):
    pt = _need_table(state, p["table"])
    _need_col(pt, p["column"])
    flag = p["column"] + "_invalid"
    if flag in [c for c, _ in pt["cols"]]:
        raise RefError("flag column exists")
    rows = []
    for r in pt["rows"]:
        v = _call(p["func"], r)
        if v is not None and not isinstance(v, bool):
            raise RefError("func must be boolean")
        rows.append(dict(r, **{flag: v}))
    return _replace(state, [], [dict(pt, cols=pt["cols"] + [(flag, BOOL)], rows=rows)])


def ref_outlier(p, state):
    pt = _need_table(state, p["table"])
    col = p["column"]
    if _dtype_of(pt, col) not in (INT, REAL):
        raise RefError("not numeric")
    vals = [r[col] for r in pt["rows"] if r[col] is not None]
    mean = sum(vals) / len(vals) if vals else 0.0
    sd = math.sqrt(sum((v - mean) ** 2 for v in vals) / len(vals)) if vals else 0.0

    def bad(v):
        return v is not None and abs(v - mean) > 3 * sd

    if p["action"] == "remove":
        rows = [r for r in pt["rows"] if not bad(r[col])]
        return _replace(state, [], [dict(pt, rows=rows)])
    flag = col + "_outlier"
    if flag in [c for c, _ in pt["cols"]]:
        raise RefError("flag column exists")
    rows = [dict(r, **{flag: bad(r[col])}) for r in pt["rows"]]
    return _replace(state, [], [dict(pt, cols=pt["cols"] + [(flag, BOOL)], rows=rows)])


def ref_value_transform(p, state):
    pt = _need_table(state, p["table"])
    col = p["column"]
    _need_col(pt, col)
    rows = [
        dict(r, **{col: None if r[col] is None else _call(p["func"], r)})
        for r in pt["rows"]
    ]
    return _replace(state, [], [_rebuilt(dict(pt, rows=rows))])


REF_DATE_PATTERNS = (
    "%Y-%m-%d", "%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M:%S", "%Y/%m/%d",
    "%m/%d/%Y", "%d-%m-%Y", "%m/%d/%y", "%B %d, %Y", "%d %B %Y",
    "%b %d, %Y", "%d %b %Y",
)


def _strptime_loop(text):
    """The strptime reference for the date kernel: every pattern, in order;
    a %Y pattern rejects a year below 1000. Gives (pattern, datetime), or
    (None, None) when no pattern parses the text."""
    for pattern in REF_DATE_PATTERNS:
        try:
            dt = datetime.strptime(text, pattern)
        except ValueError:
            continue
        if "%Y" in pattern and dt.year < 1000:
            continue
        return pattern, dt
    return None, None


_MONTHS = [calendar.month_name[i] for i in range(1, 13)]
_MONTH_ABBRS = [calendar.month_abbr[i] for i in range(1, 13)]
_EDIT_CHARS = "0123456789 \t\n-/:,.TtZ%aAyY\u0663\uff13\u00a0"


def _recase(rng, word):
    return rng.choice([word, word.upper(), word.lower(), word.swapcase()])


def _date_field(rng, directive):
    """One field, mostly valid; sometimes out of range, mis-sized or misnamed."""
    roll = rng.random()
    if directive == "%Y":
        if roll < 0.1:
            return f"{rng.randint(1, 999):04d}"  # four digits, yet below 1000
        if roll < 0.2:
            return rng.choice([f"{rng.randint(0, 99):02d}", str(rng.randint(10000, 99999))])
        return f"{rng.randint(1900, 2099):04d}"
    if directive == "%y":
        if roll < 0.1:
            return str(rng.choice([rng.randint(0, 9), rng.randint(100, 999)]))
        return f"{rng.randint(0, 99):02d}"
    if directive == "%d":
        day = rng.randint(1, 31) if roll < 0.93 else rng.choice([0, 32, 123])
        return rng.choice([str(day), f"{day:02d}", f"{day:2d}"])  # "%2d" pads with a space
    if directive == "%m":
        month = rng.randint(1, 12) if roll < 0.93 else rng.choice([0, 13, 123])
        return rng.choice([str(month), f"{month:02d}"])
    if directive in ("%H", "%M", "%S"):
        value = rng.randint(0, 59) if roll < 0.93 else rng.choice([24, 60, 61, 99, 100])
        return rng.choice([str(value), f"{value:02d}"])
    if roll < 0.1:
        return rng.choice(["Sept", "Janu", "Mayo", "x", ""])
    names = _MONTHS if (directive == "%B") == (roll < 0.85) else _MONTH_ABBRS
    return _recase(rng, rng.choice(names))


def _date_text(rng):
    """A string in the style of one pattern, with seeded variations and damage."""
    pattern = rng.choice(REF_DATE_PATTERNS)
    parts = []
    for token in re.findall(r"%.|\s|.", pattern):
        if token.startswith("%"):
            parts.append(_date_field(rng, token))
        elif token == " ":
            parts.append(rng.choice([" ", " ", " ", "  ", "\t", " \t "]))
        elif token == "T":
            parts.append(rng.choice("TTt "))
        else:
            parts.append(token if rng.random() < 0.97 else rng.choice("-/:,. "))
    text = "".join(parts)
    roll = rng.random()
    if roll < 0.05:
        text += rng.choice([" x", "Z", "0", ".5", " ", "\n"])
    elif roll < 0.08:
        text = rng.choice([" ", "\t", "0"]) + text
    elif roll < 0.13:  # Arabic-Indic and fullwidth digits, which \d and strptime accept
        text = "".join(
            chr(int(c) + rng.choice([0x660, 0xFF10])) if c in "0123456789" and rng.random() < 0.5
            else c
            for c in text
        )
    for _ in range(rng.choice([0] * 7 + [1, 2, 3])):
        i = rng.randint(0, len(text))
        edit = rng.random()
        if edit < 0.4 and text:
            text = text[:i] + text[i + 1:]
        elif edit < 0.7:
            text = text[:i] + rng.choice(_EDIT_CHARS) + text[i:]
        elif text:
            text = text[:i] + rng.choice(_EDIT_CHARS) + text[i + 1:]
    return text


def ref_standardize_datetime(p, state):
    pt = _need_table(state, p["table"])
    col = p["column"]
    _need_col(pt, col)
    rows = []
    for r in pt["rows"]:
        v = r[col]
        if v is None:
            rows.append(dict(r))
            continue
        if not isinstance(v, str):
            raise RefError("not text")
        parsed = _strptime_loop(v)[1]
        if parsed is None:
            raise RefError(f"bad date {v}")
        rows.append(dict(r, **{col: parsed.strftime(p["format"])}))
    return _replace(state, [], [_rebuilt(dict(pt, rows=rows))])


def _ref_cast(v, dtype):
    if isinstance(v, tuple):
        raise RefError("list cell")
    try:
        if dtype == INT:
            if isinstance(v, bool):
                return int(v)
            if isinstance(v, float):
                return math.trunc(v)
            if isinstance(v, str):
                return int(v, 10)
            return v
        if dtype == REAL:
            out = float(v)
            if not math.isfinite(out):
                raise RefError("bad real")
            return out
        if dtype == TEXT:
            return ref_render(v)
        if isinstance(v, bool):
            return v
        if isinstance(v, int):
            if v in (0, 1):
                return bool(v)
            raise RefError("bad bool")
        if isinstance(v, str):
            if v.lower() == "true" or v == "1":
                return True
            if v.lower() == "false" or v == "0":
                return False
        raise RefError("bad bool")
    except (ValueError, TypeError):
        raise RefError("cast failed") from None


def ref_cast_type(p, state):
    pt = _need_table(state, p["table"])
    col = p["column"]
    _need_col(pt, col)
    rows = [
        dict(r, **{col: None if r[col] is None else _ref_cast(r[col], p["dtype"])})
        for r in pt["rows"]
    ]
    cols = [(c, p["dtype"] if c == col else d) for c, d in pt["cols"]]
    return _replace(state, [], [dict(pt, cols=cols, rows=rows)])


def ref_rename(p, state):
    pt = _need_table(state, p["table"])
    for old in p["rename_map"]:
        _need_col(pt, old)
    new_names = [p["rename_map"].get(c, c) for c, _ in pt["cols"]]
    if len(set(new_names)) != len(new_names):
        raise RefError("collision")
    cols = [(n, d) for n, (_, d) in zip(new_names, pt["cols"])]
    rows = [
        {n: r[old] for n, (old, _) in zip(new_names, pt["cols"])}
        for r in pt["rows"]
    ]
    return _replace(state, [], [dict(pt, cols=cols, rows=rows)])


def ref_add_new_column(p, state):
    pt = _need_table(state, p["table"])
    name = p["name"]
    if name in [c for c, _ in pt["cols"]]:
        raise RefError("column exists")
    cells = [_call(p["func"], r) for r in pt["rows"]]
    dtype = ref_infer(cells, TEXT)
    cells = ref_coerce(dtype, cells)
    rows = [dict(r, **{name: cells[i]}) for i, r in enumerate(pt["rows"])]
    return _replace(state, [], [dict(pt, cols=pt["cols"] + [(name, dtype)], rows=rows)])


def ref_drop_column(p, state):
    pt = _need_table(state, p["table"])
    for c in p["columns"]:
        _need_col(pt, c)
    drop = set(p["columns"])
    cols = [(c, d) for c, d in pt["cols"] if c not in drop]
    if not cols:
        raise RefError("would drop everything")
    rows = [{c: r[c] for c, _ in cols} for r in pt["rows"]]
    return _replace(state, [], [dict(pt, cols=cols, rows=rows)])


def ref_split_column(p, state):
    pt = _need_table(state, p["table"])
    src = p["source"]
    _need_col(pt, src)
    targets = p["target"]
    if len(set(targets)) != len(targets):
        raise RefError("duplicate targets")
    others = [c for c, _ in pt["cols"] if c != src]
    for name in targets:
        if name in others:
            raise RefError("target exists")
    split_rows = []
    for r in pt["rows"]:
        if r[src] is None:
            split_rows.append((None,) * len(targets))
            continue
        v = _call(p["func"], r)
        if not isinstance(v, tuple):
            raise RefError("func must yield a list")
        split_rows.append(tuple(v[: len(targets)]) + (None,) * max(0, len(targets) - len(v)))
    col_cells = []
    fallbacks = []
    for c, d in pt["cols"]:
        if c == src:
            for k, name in enumerate(targets):
                col_cells.append((name, [piece[k] for piece in split_rows]))
                fallbacks.append(TEXT)
        else:
            col_cells.append((c, [r[c] for r in pt["rows"]]))
            fallbacks.append(d)
    return _replace(state, [], [_ref_table(pt["name"], col_cells, fallbacks)])


def ref_concatenate(p, state):
    pt = _need_table(state, p["table"])
    if not p["columns"]:
        raise RefError("no columns")
    for c in p["columns"]:
        _need_col(pt, c)
    return ref_add_new_column(
        {"table": p["table"], "name": p["target"], "func": p["func"]}, state
    )


def ref_select_column(p, state):
    pt = _need_table(state, p["table"])
    if not p["columns"]:
        raise RefError("empty selection")
    for c in p["columns"]:
        _need_col(pt, c)
    keep = set(p["columns"])
    cols = [(c, d) for c, d in pt["cols"] if c in keep]
    rows = [{c: r[c] for c, _ in cols} for r in pt["rows"]]
    return _replace(state, [], [dict(pt, cols=cols, rows=rows)])


def ref_subtitle(p, state):
    pt = _need_table(state, p["table"])
    name = p["target_col"]
    if name in [c for c, _ in pt["cols"]]:
        raise RefError("column exists")
    rows = [dict(r, **{name: p["title"]}) for r in pt["rows"]]
    return _replace(state, [], [dict(pt, cols=pt["cols"] + [(name, TEXT)], rows=rows)])


def ref_filter(p, state):
    pt = _need_table(state, p["table"])
    rows = []
    for r in pt["rows"]:
        v = _call(p["func"], r)
        if v is not None and not isinstance(v, bool):
            raise RefError("func must be boolean")
        if v is True:
            rows.append(r)
    return _replace(state, [], [dict(pt, rows=rows)])


def ref_sort(p, state):
    pt = _need_table(state, p["table"])
    if not p["by"]:
        raise RefError("no keys")
    for c in p["by"]:
        _need_col(pt, c)
    asc = p["ascending"]
    if isinstance(asc, bool):
        asc = [asc] * len(p["by"])
    if len(asc) != len(p["by"]):
        raise RefError("ascending length mismatch")
    rows = list(pt["rows"])
    for c, up in reversed(list(zip(p["by"], asc))):
        rows.sort(key=lambda r: ref_sort_key(r[c]), reverse=not up)
    return _replace(state, [], [dict(pt, rows=rows)])


def ref_topk(p, state):
    pt = _need_table(state, p["table"])
    if p["k"] < 0:
        raise RefError("negative k")
    return _replace(state, [], [dict(pt, rows=pt["rows"][: p["k"]])])


def ref_fold(fn, cells):
    present = [c for c in cells if c is not None]
    if fn == "count":
        return len(present)
    if fn == "count_distinct":
        return len({ref_key(c) for c in present})
    if fn == "first":
        return cells[0] if cells else None
    if fn == "last":
        return cells[-1] if cells else None
    if fn == "concat":
        return ",".join(ref_render(c) for c in present)
    if not present:
        return None
    if fn in ("sum", "avg"):
        if not all(_is_num(c) for c in present):
            raise RefError("not numeric")
        return sum(present) if fn == "sum" else sum(present) / len(present)
    if any(isinstance(c, tuple) for c in present):
        raise RefError("list cells are not comparable")
    kinds = {
        "bool" if isinstance(c, bool) else ("num" if _is_num(c) else "text")
        for c in present
    }
    if len(kinds) > 1:
        raise RefError("mixed kinds")
    pick = min if fn == "min" else max
    return pick(present, key=ref_sort_key)


def _ref_agg_fallback(fn, src_dtype):
    if fn in ("count", "count_distinct"):
        return INT
    if fn == "avg":
        return REAL
    if fn == "concat":
        return TEXT
    return src_dtype


def ref_group_by(p, state):
    pt = _need_table(state, p["table"])
    for c in list(p["by"]) + list(p["agg"]):
        _need_col(pt, c)
    out_names = list(p["by"]) + [f"{c}_{fn}" for c, fn in p["agg"].items()]
    if not out_names:
        raise RefError("nothing to output")
    if len(set(out_names)) != len(out_names):
        raise RefError("duplicate output")
    order = []
    groups = {}
    for r in pt["rows"]:
        k = tuple(ref_key(r[c]) for c in p["by"])
        if k not in groups:
            groups[k] = []
            order.append(k)
        groups[k].append(r)
    col_cells = [(c, [groups[k][0][c] for k in order]) for c in p["by"]]
    fallbacks = [_dtype_of(pt, c) for c in p["by"]]
    for c, fn in p["agg"].items():
        col_cells.append(
            (f"{c}_{fn}", [ref_fold(fn, [r[c] for r in groups[k]]) for k in order])
        )
        fallbacks.append(_ref_agg_fallback(fn, _dtype_of(pt, c)))
    return _replace(state, [], [_ref_table(pt["name"], col_cells, fallbacks)])


def ref_count(p, state):
    pt = _need_table(state, p["table"])
    out = {"name": pt["name"], "cols": [("count", INT)], "rows": [{"count": len(pt["rows"])}]}
    return _replace(state, [], [out])


def ref_calculate_statistic(p, state):
    pt = _need_table(state, p["table"])
    stat = p["stat"]
    values = [_call(p["func"], r) for r in pt["rows"]]
    present = [v for v in values if v is not None]
    if not present and stat != "sum":
        raise RefError("empty")
    result = 0 if (stat == "sum" and not present) else ref_fold(stat, present)
    dtype = ref_infer([result], INT)
    out = {"name": pt["name"], "cols": [(stat, dtype)], "rows": [{stat: result}]}
    return _replace(state, [], [out])


def ref_join(p, state):
    left = _need_table(state, p["left"])
    right = _need_table(state, p["right"])
    on = p["on"]
    if not on:
        raise RefError("no keys")
    for c in on:
        _need_col(left, c)
        _need_col(right, c)
    how = p["how"]

    def reconcile(a, b):
        if a == b:
            return a
        if {a, b} == {INT, REAL}:
            return REAL
        raise RefError("incompatible key dtypes")

    l_rest = [c for c, _ in left["cols"] if c not in on]
    r_rest = [c for c, _ in right["cols"] if c not in on]
    cols = [(c, reconcile(_dtype_of(left, c), _dtype_of(right, c))) for c in on]
    out_l = [(c, (c + "_left") if c in r_rest else c) for c in l_rest]
    out_r = [(c, (c + "_right") if c in l_rest else c) for c in r_rest]
    cols += [(out, _dtype_of(left, c)) for c, out in out_l]
    cols += [(out, _dtype_of(right, c)) for c, out in out_r]
    if len({c for c, _ in cols}) != len(cols):
        raise RefError("duplicate output column")
    promoted = {c for c, d in cols if c in on and d == REAL}

    def key(r):
        vals = [r[c] for c in on]
        if any(v is None for v in vals):
            return None
        return tuple(ref_key(v) for v in vals)

    def emit(l_row, r_row):
        out = {}
        for c in on:
            v = (l_row or r_row)[c]
            if c in promoted and isinstance(v, int) and not isinstance(v, bool):
                v = float(v)
            out[c] = v
        for c, name in out_l:
            out[name] = l_row[c] if l_row is not None else None
        for c, name in out_r:
            out[name] = r_row[c] if r_row is not None else None
        return out

    rows = []
    if how == "right":
        for r_row in right["rows"]:
            rk = key(r_row)
            matches = [l for l in left["rows"] if rk is not None and key(l) == rk]
            if matches:
                rows.extend(emit(l, r_row) for l in matches)
            else:
                rows.append(emit(None, r_row))
    else:
        matched = set()
        for l_row in left["rows"]:
            lk = key(l_row)
            matches = [r for r in right["rows"] if lk is not None and key(r) == lk]
            if matches:
                matched.add(lk)
                rows.extend(emit(l_row, r) for r in matches)
            elif how in ("left", "outer"):
                rows.append(emit(l_row, None))
        if how == "outer":
            for r_row in right["rows"]:
                rk = key(r_row)
                if rk is None or rk not in matched:
                    rows.append(emit(None, r_row))

    out = {"name": f"{p['left']}_{p['right']}_join", "cols": cols, "rows": rows}
    return _replace(state, [p["left"], p["right"]], [out])


def ref_union(p, state):
    tabs = [_need_table(state, n) for n in p["tables"]]
    first = tabs[0]
    base = [c for c, _ in first["cols"]]
    rows = []
    for pt in tabs:
        if {c for c, _ in pt["cols"]} != set(base):
            raise RefError("columns do not match")
        rows.extend({c: r[c] for c in base} for r in pt["rows"])
    if p["how"] == "distinct":
        seen = set()
        kept = []
        for r in rows:
            k = tuple(ref_key(r[c]) for c in base)
            if k not in seen:
                seen.add(k)
                kept.append(r)
        rows = kept
    col_cells = [(c, [r[c] for r in rows]) for c in base]
    fallbacks = [d for _, d in first["cols"]]
    out = _ref_table("_".join(p["tables"]) + "_union", col_cells, fallbacks)
    return _replace(state, p["tables"], [out])


def ref_append(p, state):
    pt = _need_table(state, p["table"])
    other = _need_table(state, p["other"])
    base = [c for c, _ in pt["cols"]]
    if {c for c, _ in other["cols"]} != set(base):
        raise RefError("columns do not match")
    rows = list(pt["rows"]) + [{c: r[c] for c in base} for r in other["rows"]]
    col_cells = [(c, [r[c] for r in rows]) for c in base]
    fallbacks = [d for _, d in pt["cols"]]
    out = _ref_table(pt["name"], col_cells, fallbacks)
    remove = [p["other"]] if p["other"] != p["table"] else []
    return _replace(state, remove, [out])


def ref_pivot(p, state):
    pt = _need_table(state, p["table"])
    for c in list(p["index"]) + [p["columns"], p["values"]]:
        _need_col(pt, c)
    labels = []
    order = []
    reps = {}
    buckets = {}
    for r in pt["rows"]:
        cv = r[p["columns"]]
        if cv is None:
            raise RefError("null label")
        label = ref_render(cv)
        ik = tuple(ref_key(r[c]) for c in p["index"])
        if ik not in reps:
            reps[ik] = r
            order.append(ik)
        if label not in labels:
            labels.append(label)
        buckets.setdefault(ik, {}).setdefault(label, []).append(r[p["values"]])
    for label in labels:
        if label in p["index"]:
            raise RefError("label collides with index")
    if p["aggfunc"] == "first_strict":
        for ik in order:
            for vals in buckets[ik].values():
                if len(vals) > 1:
                    raise RefError("duplicate pair")
    fn = "first" if p["aggfunc"] == "first_strict" else p["aggfunc"]
    col_cells = [(c, [reps[ik][c] for ik in order]) for c in p["index"]]
    fallbacks = [_dtype_of(pt, c) for c in p["index"]]
    for label in labels:
        cells = []
        for ik in order:
            vals = buckets[ik].get(label)
            cells.append(None if vals is None else ref_fold(fn, vals))
        col_cells.append((label, cells))
        fallbacks.append(_ref_agg_fallback(fn, _dtype_of(pt, p["values"])))
    out = _ref_table(pt["name"] + "_pivot", col_cells, fallbacks)
    return _replace(state, [p["table"]], [out])


def ref_stack(p, state):
    pt = _need_table(state, p["table"])
    if not p["value_vars"]:
        raise RefError("no value_vars")
    for c in list(p["id_vars"]) + list(p["value_vars"]):
        _need_col(pt, c)
    if set(p["id_vars"]) & set(p["value_vars"]):
        raise RefError("overlap")
    if "variable" in p["id_vars"] or "value" in p["id_vars"]:
        raise RefError("reserved name")
    rows = []
    for r in pt["rows"]:
        for c in p["value_vars"]:
            rows.append({**{k: r[k] for k in p["id_vars"]}, "variable": c, "value": r[c]})
    names = list(p["id_vars"]) + ["variable", "value"]
    col_cells = [(c, [r[c] for r in rows]) for c in names]
    fallbacks = [_dtype_of(pt, c) for c in p["id_vars"]] + [TEXT, TEXT]
    out = _ref_table(pt["name"] + "_stack", col_cells, fallbacks)
    return _replace(state, [p["table"]], [out])


def ref_wide_to_long(p, state):
    pt = _need_table(state, p["table"])
    stubs = p["stubnames"]
    for c in p["i"]:
        _need_col(pt, c)
    if len(set(stubs)) != len(stubs):
        raise RefError("duplicate stubs")
    by_len = sorted(stubs, key=lambda s: (-len(s), stubs.index(s)))
    col_map = {}
    suffixes = []
    matched = set()
    for c, _ in pt["cols"]:
        for stub in by_len:
            if not c.startswith(stub):
                continue
            rest = c[len(stub):]
            if rest[:1] in ("_", "-"):
                rest = rest[1:]
            if (stub, rest) in col_map:
                raise RefError("suffix collision")
            col_map[(stub, rest)] = c
            matched.add(c)
            if rest not in suffixes:
                suffixes.append(rest)
            break
    for stub in stubs:
        if not any(k[0] == stub for k in col_map):
            raise RefError("stub matches nothing")
    for c in p["i"]:
        if c in matched:
            raise RefError("id column matches a stub")
    if p["j"] in p["i"] or p["j"] in stubs:
        raise RefError("j collides")
    rows = []
    for r in pt["rows"]:
        for suffix in suffixes:
            out = {c: r[c] for c in p["i"]}
            out[p["j"]] = suffix
            for stub in stubs:
                src = col_map.get((stub, suffix))
                out[stub] = None if src is None else r[src]
            rows.append(out)
    names = list(p["i"]) + [p["j"]] + list(stubs)
    col_cells = [(c, [r[c] for r in rows]) for c in names]
    fallbacks = [_dtype_of(pt, c) for c in p["i"]] + [TEXT] * (1 + len(stubs))
    out = _ref_table(pt["name"] + "_widetolong", col_cells, fallbacks)
    return _replace(state, [p["table"]], [out])


def ref_transpose(p, state):
    pt = _need_table(state, p["table"])
    n = len(pt["rows"])
    names = ["column"] + [f"r{i}" for i in range(n)]
    rows = []
    for c, _ in pt["cols"]:
        row = {"column": c}
        for i, r in enumerate(pt["rows"]):
            row[f"r{i}"] = None if r[c] is None else ref_render(r[c])
        rows.append(row)
    out = {"name": pt["name"] + "_transpose", "cols": [(c, TEXT) for c in names], "rows": rows}
    return _replace(state, [p["table"]], [out])


def ref_explode(p, state):
    pt = _need_table(state, p["table"])
    col = p["column"]
    _need_col(pt, col)
    rows = []
    for r in pt["rows"]:
        v = r[col]
        if isinstance(v, tuple):
            elements = list(v) if v else [None]
        else:
            elements = [v]
        rows.extend(dict(r, **{col: e}) for e in elements)
    col_cells = [(c, [r[c] for r in rows]) for c, _ in pt["cols"]]
    fallbacks = [TEXT if c == col else d for c, d in pt["cols"]]
    out = _ref_table(pt["name"] + "_explode", col_cells, fallbacks)
    return _replace(state, [p["table"]], [out])


REF_HANDLERS = {
    "DropNA": ref_dropna,
    "MissingValueImputation": ref_imputation,
    "Deduplicate": ref_deduplicate,
    "ErrorDetection": ref_error_detection,
    "OutlierDetection": ref_outlier,
    "ValueTransform": ref_value_transform,
    "StandardizeDatetime": ref_standardize_datetime,
    "CastType": ref_cast_type,
    "RenameColumn": ref_rename,
    "AddNewColumn": ref_add_new_column,
    "DropColumn": ref_drop_column,
    "SplitColumn": ref_split_column,
    "Concatenate": ref_concatenate,
    "SelectColumn": ref_select_column,
    "Subtitle": ref_subtitle,
    "Filter": ref_filter,
    "Sort": ref_sort,
    "TopK": ref_topk,
    "GroupBy": ref_group_by,
    "Count": ref_count,
    "CalculateStatistic": ref_calculate_statistic,
    "Join": ref_join,
    "Union": ref_union,
    "Append": ref_append,
    "Pivot": ref_pivot,
    "Stack": ref_stack,
    "WideToLong": ref_wide_to_long,
    "Transpose": ref_transpose,
    "Explode": ref_explode,
}

DETERMINISTIC_KINDS = tuple(REF_HANDLERS)


# --- comparison --------------------------------------------------------------


def same_cell(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if _is_num(a) and _is_num(b):
        if type(a) is not type(b):
            return False
        if isinstance(a, float):
            return a == b or math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(same_cell(x, y) for x, y in zip(a, b))
    return False


def diff_states(engine_out: dict[str, Table], ref_out: dict) -> str | None:
    """Human-readable first difference between engine and reference output."""
    if set(engine_out) != set(ref_out):
        return f"table names differ: {sorted(engine_out)} vs {sorted(ref_out)}"
    for name in engine_out:
        e = to_plain(engine_out[name])
        r = ref_out[name]
        if e["cols"] != r["cols"]:
            return f"{name}: columns differ: {e['cols']} vs {r['cols']}"
        if len(e["rows"]) != len(r["rows"]):
            return f"{name}: row counts differ: {len(e['rows'])} vs {len(r['rows'])}"
        for i, (er, rr) in enumerate(zip(e["rows"], r["rows"])):
            for c, _ in e["cols"]:
                if not same_cell(er[c], rr[c]):
                    return f"{name} row {i} col {c}: {er[c]!r} vs {rr[c]!r}"
    return None


# --- randomized call generators ----------------------------------------------
#
# Each generator returns (tables, op, ref_params): the engine executes `op`
# against `tables`; the reference runs REF_HANDLERS[op.kind] with ref_params,
# where expression parameters are replaced by plain python functions.


def _dsl_col(c):
    return f'col("{c}")'


def _pick_col(rng, pt_table, dtypes=None):
    cols = [
        c.name for c in pt_table.schema.columns
        if dtypes is None or c.dtype in dtypes
    ]
    return rng.choice(cols) if cols else None


def _bool_func_pool(rng, t):
    """(dsl, fn) pairs returning bool-or-null for a random column of t."""
    out = []
    for c in t.schema.columns:
        n = c.name
        if c.dtype in (INT, REAL):
            out.append((f'{_dsl_col(n)} > 0', lambda r, n=n: None if r[n] is None else r[n] > 0))
        if c.dtype == TEXT:
            out.append((
                f'contains({_dsl_col(n)}, "a")',
                lambda r, n=n: None if r[n] is None else "a" in r[n],
            ))
        if c.dtype == BOOL:
            out.append((f'not {_dsl_col(n)}', lambda r, n=n: None if r[n] is None else not r[n]))
        out.append((f'is_null({_dsl_col(n)})', lambda r, n=n: r[n] is None))
    return rng.choice(out)


def _value_func_pool(rng, t, strict_nulls, only_col=None):
    """(dsl, fn) pairs producing a scalar from a column of t.

    With strict_nulls the function mirrors DSL null propagation; without it
    the caller guarantees nulls never reach the function, which is only safe
    when the function reads the caller's own column (hence only_col).
    """
    out = []
    for c in t.schema.columns:
        if only_col is not None and c.name != only_col:
            continue
        n = c.name

        def guard(fn, n=n):
            if strict_nulls:
                return lambda r: None if r[n] is None else fn(r)
            return fn

        if c.dtype in (INT, REAL):
            out.append((f'{_dsl_col(n)} + 1', guard(lambda r, n=n: r[n] + 1)))
            out.append((f'{_dsl_col(n)} * 2', guard(lambda r, n=n: r[n] * 2)))
        if c.dtype == TEXT:
            out.append((f'upper({_dsl_col(n)})', guard(lambda r, n=n: r[n].upper())))
            out.append((
                f'concat({_dsl_col(n)}, "!")', guard(lambda r, n=n: r[n] + "!"),
            ))
        if c.dtype == BOOL:
            out.append((f'not {_dsl_col(n)}', guard(lambda r, n=n: not r[n])))
        if c.dtype == LIST:
            out.append((f'at({_dsl_col(n)}, 0)', guard(lambda r, n=n: r[n][0])))
    out.append(('1', lambda r: 1))
    return rng.choice(out)


def _gen_table(rng, **kw):
    return random_table(rng, **kw)


def gen_dropna(rng):
    t = _gen_table(rng)
    names = list(t.column_names)
    subset = rng.sample(names, rng.randint(0, len(names)))
    op = make_operator("DropNA", t.name, subset, rng.choice(["any", "all"]))
    return {t.name: t}, op, op.params


def gen_imputation(rng):
    t = _gen_table(rng, dtypes=(INT, REAL, TEXT, BOOL), min_rows=1)
    col = rng.choice(list(t.column_names))
    op = make_operator("MissingValueImputation", t.name, col, rng.choice(["mean", "median", "mode"]))
    return {t.name: t}, op, op.params


def gen_deduplicate(rng):
    t = _gen_table(rng, null_rate=0.3)
    names = list(t.column_names)
    subset = rng.sample(names, rng.randint(0, min(2, len(names))))
    op = make_operator("Deduplicate", t.name, subset, rng.choice(["first", "last"]))
    return {t.name: t}, op, op.params


def gen_error_detection(rng):
    t = _gen_table(rng)
    col = rng.choice(list(t.column_names))
    dsl, fn = _bool_func_pool(rng, t)
    op = make_operator("ErrorDetection", t.name, col, dsl)
    return {t.name: t}, op, dict(op.params, func=fn)


def gen_outlier(rng):
    t = _gen_table(rng, dtypes=(INT, REAL), min_rows=2, max_rows=12)
    col = rng.choice(list(t.column_names))
    op = make_operator("OutlierDetection", t.name, col, rng.choice(["remove", "flag"]))
    return {t.name: t}, op, op.params


def gen_value_transform(rng):
    t = _gen_table(rng)
    col = rng.choice(list(t.column_names))
    dsl, fn = _value_func_pool(rng, t, strict_nulls=False, only_col=col)
    op = make_operator("ValueTransform", t.name, col, dsl)
    return {t.name: t}, op, dict(op.params, func=fn)


_DATE_RENDER = ("%Y-%m-%d", "%Y/%m/%d", "%m/%d/%Y", "%m/%d/%y", "%B %d, %Y", "%Y-%m-%dT%H:%M:%S")


def gen_standardize_datetime(rng):
    n_rows = rng.randint(0, 8)
    cells = []
    for _ in range(n_rows):
        roll = rng.random()
        if roll < 0.1:
            cells.append(None)
        elif roll < 0.17:
            cells.append(rng.choice(WORDS))  # unparseable
        else:
            dt = datetime(rng.randint(1999, 2023), rng.randint(1, 12), rng.randint(1, 28),
                          rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59))
            cells.append(dt.strftime(rng.choice(_DATE_RENDER)))
    t = make_table("dates", [("d", TEXT), ("k", INT)],
                   [(c, rng.randint(0, 9)) for c in cells])
    op = make_operator("StandardizeDatetime", "dates", "d",
                       rng.choice(["%Y-%m-%d", "%d/%m/%Y", "%Y.%m.%d"]))
    return {"dates": t}, op, op.params


def gen_cast_type(rng):
    if rng.random() < 0.5:
        t = _gen_table(rng, dtypes=(INT, REAL, BOOL, TEXT))
    else:
        # numeric-looking text exercises the text -> int / real paths
        pool = [str(rng.randint(-99, 99)), repr(round(rng.uniform(-9, 9), 2)),
                rng.choice(["true", "false", "1", "0"])]
        cells = [(rng.choice(pool),) if rng.random() > 0.1 else (None,)
                 for _ in range(rng.randint(0, 8))]
        t = make_table("t", [("a", TEXT)], cells)
    col = rng.choice(list(t.column_names))
    op = make_operator("CastType", t.name, col, rng.choice([INT, REAL, TEXT, BOOL]))
    return {t.name: t}, op, op.params


def gen_rename(rng):
    t = _gen_table(rng)
    names = list(t.column_names)
    n = rng.randint(1, min(2, len(names)))
    olds = rng.sample(names, n)
    mapping = {}
    for i, old in enumerate(olds):
        if rng.random() < 0.1 and len(names) > 1:
            mapping[old] = rng.choice(names)  # possible collision
        else:
            mapping[old] = f"x{i}"
    op = make_operator("RenameColumn", t.name, mapping)
    return {t.name: t}, op, op.params


def gen_add_new_column(rng):
    t = _gen_table(rng)
    dsl, fn = _value_func_pool(rng, t, strict_nulls=True)
    op = make_operator("AddNewColumn", t.name, "z", dsl)
    return {t.name: t}, op, dict(op.params, func=fn)


def gen_drop_column(rng):
    t = _gen_table(rng)
    names = list(t.column_names)
    k = rng.randint(1, len(names))  # k == len(names) exercises the error
    op = make_operator("DropColumn", t.name, rng.sample(names, k))
    return {t.name: t}, op, op.params


def gen_split_column(rng):
    t = _gen_table(rng, dtypes=(TEXT, INT), min_cols=1)
    texts = [c.name for c in t.schema.columns if c.dtype == TEXT]
    col = rng.choice(texts) if texts else rng.choice(list(t.column_names))
    targets = ["z", "w"][: rng.randint(1, 2)]
    dsl = f'split({_dsl_col(col)}, "a")'
    fn = lambda r, col=col: tuple(r[col].split("a"))
    op = make_operator("SplitColumn", t.name, col, targets, dsl)
    return {t.name: t}, op, dict(op.params, func=fn)


def gen_concatenate(rng):
    t = _gen_table(rng, dtypes=(INT, REAL, TEXT, BOOL), min_cols=2)
    c1, c2 = rng.sample(list(t.column_names), 2)
    dsl = f'concat({_dsl_col(c1)}, "-", {_dsl_col(c2)})'

    def fn(r, c1=c1, c2=c2):
        if r[c1] is None or r[c2] is None:
            return None
        return ref_render(r[c1]) + "-" + ref_render(r[c2])

    op = make_operator("Concatenate", t.name, [c1, c2], "z", dsl)
    return {t.name: t}, op, dict(op.params, func=fn)


def gen_select_column(rng):
    t = _gen_table(rng)
    names = list(t.column_names)
    op = make_operator("SelectColumn", t.name, rng.sample(names, rng.randint(1, len(names))))
    return {t.name: t}, op, op.params


def gen_subtitle(rng):
    t = _gen_table(rng)
    op = make_operator("Subtitle", t.name, rng.choice(WORDS + [""]), "z")
    return {t.name: t}, op, op.params


def gen_filter(rng):
    t = _gen_table(rng)
    dsl, fn = _bool_func_pool(rng, t)
    op = make_operator("Filter", t.name, dsl)
    return {t.name: t}, op, dict(op.params, func=fn)


def gen_sort(rng):
    t = _gen_table(rng)
    names = list(t.column_names)
    by = rng.sample(names, rng.randint(1, min(2, len(names))))
    asc = rng.choice([True, False]) if rng.random() < 0.5 else [
        rng.choice([True, False]) for _ in by
    ]
    op = make_operator("Sort", t.name, by, asc)
    return {t.name: t}, op, op.params


def gen_topk(rng):
    t = _gen_table(rng)
    op = make_operator("TopK", t.name, rng.randint(-1, t.n_rows + 2))
    return {t.name: t}, op, op.params


def gen_group_by(rng):
    t = _gen_table(rng, min_cols=2, null_rate=0.2)
    names = list(t.column_names)
    by = rng.sample(names, rng.randint(1, min(2, len(names))))
    others = [n for n in names if n not in by] or names
    agg = {}
    for c in rng.sample(others, rng.randint(0, min(2, len(others)))):
        agg[c] = rng.choice(AGGS)
    op = make_operator("GroupBy", t.name, by, agg)
    return {t.name: t}, op, op.params


def gen_count(rng):
    t = _gen_table(rng)
    op = make_operator("Count", t.name)
    return {t.name: t}, op, op.params


def gen_calculate_statistic(rng):
    t = _gen_table(rng, dtypes=(INT, REAL))
    col = rng.choice(list(t.column_names))
    op = make_operator(
        "CalculateStatistic", t.name, rng.choice(["sum", "avg", "min", "max"]), _dsl_col(col)
    )
    fn = lambda r, col=col: r[col]
    return {t.name: t}, op, dict(op.params, func=fn)


def gen_join(rng):
    key = rng.choice(COLUMN_POOL[:4])
    kd_left = rng.choice([INT, REAL, TEXT])
    kd_right = kd_left if rng.random() < 0.7 else rng.choice([INT, REAL])
    key_pool = [random_scalar(rng, kd_left) for _ in range(4)]

    def build(name, kd):
        rest = rng.sample([c for c in COLUMN_POOL if c != key], rng.randint(0, 2))
        cols = [(key, kd)] + [(c, rng.choice([INT, TEXT])) for c in rest]
        rows = []
        for _ in range(rng.randint(0, 6)):
            kv = None if rng.random() < 0.15 else rng.choice(key_pool)
            if kv is not None and kd == REAL:
                kv = float(kv) if not isinstance(kv, str) else kv
            if kv is not None and kd == INT and isinstance(kv, float):
                kv = int(kv)
            if isinstance(kv, str) and kd != TEXT:
                kv = rng.randint(-5, 5) if kd == INT else float(rng.randint(-5, 5))
            rows.append((kv,) + tuple(random_cell_for(rng, d) for _, d in cols[1:]))
        return make_table(name, cols, rows)

    left = build("lhs", kd_left)
    right = build("rhs", kd_right)
    op = make_operator("Join", "lhs", "rhs", [key], rng.choice(["inner", "left", "right", "outer"]))
    return {"lhs": left, "rhs": right}, op, op.params


def random_cell_for(rng, dtype):
    if rng.random() < 0.15:
        return None
    return random_scalar(rng, dtype)


def gen_union(rng):
    a = _gen_table(rng, name="u0", dtypes=(INT, REAL, TEXT, BOOL))
    cols = [(c.name, c.dtype) for c in a.schema.columns]
    rng.shuffle(cols)
    if rng.random() < 0.15:
        cols[0] = ("zz", cols[0][1])  # mismatched name set: both sides must fail
    elif rng.random() < 0.3:
        # int/real swap exercises promotion; other swaps exercise kind errors
        name, d = cols[0]
        cols[0] = (name, REAL if d == INT else (INT if d == REAL else TEXT))
    rows = [
        tuple(random_cell_for(rng, d) for _, d in cols)
        for _ in range(rng.randint(0, 5))
    ]
    b = make_table("u1", cols, rows)
    op = make_operator("Union", ["u0", "u1"], rng.choice(["all", "distinct"]))
    return {"u0": a, "u1": b}, op, op.params


def gen_append(rng):
    state, op, _ = gen_union(rng)
    op = make_operator("Append", "u0", "u1")
    return state, op, op.params


def gen_pivot(rng):
    n = rng.randint(0, 8)
    labels = rng.sample(WORDS, 3)
    rows = [
        (
            rng.choice(["g1", "g2", None if rng.random() < 0.2 else "g3"]),
            rng.choice(labels) if rng.random() > 0.05 else None,
            random_cell_for(rng, INT),
        )
        for _ in range(n)
    ]
    t = make_table("t", [("k", TEXT), ("c", TEXT), ("v", INT)], rows)
    aggfunc = rng.choice(AGGS + ("first_strict",))
    op = make_operator("Pivot", "t", ["k"], "c", "v", aggfunc)
    return {"t": t}, op, op.params


def gen_stack(rng):
    t = _gen_table(rng, min_cols=2, dtypes=(INT, REAL, TEXT, BOOL))
    names = list(t.column_names)
    n_val = rng.randint(1, min(2, len(names)))
    value_vars = rng.sample(names, n_val)
    rest = [c for c in names if c not in value_vars]
    id_vars = rng.sample(rest, rng.randint(0, len(rest)))
    op = make_operator("Stack", t.name, id_vars, value_vars)
    return {t.name: t}, op, op.params


def gen_wide_to_long(rng):
    seps = ["_", "", "-"]
    suffixes = rng.sample(["1", "2", "3"], rng.randint(1, 3))
    stubs = ["x", "y"][: rng.randint(1, 2)]
    cols = [("id", INT)]
    for stub in stubs:
        for s in suffixes:
            if rng.random() < 0.85:
                cols.append((stub + rng.choice(seps) + s, INT))
    if rng.random() < 0.3:
        cols.append(("other", TEXT))  # swept into the long output only if it matches a stub
    rows = [
        tuple(random_cell_for(rng, d) for _, d in cols)
        for _ in range(rng.randint(0, 4))
    ]
    t = make_table("t", cols, rows)
    op = make_operator("WideToLong", "t", stubs, ["id"], "j")
    return {"t": t}, op, op.params


def gen_transpose(rng):
    t = _gen_table(rng)
    op = make_operator("Transpose", t.name)
    return {t.name: t}, op, op.params


def gen_explode(rng):
    t = _gen_table(rng, dtypes=(LIST, INT, TEXT), min_cols=1)
    lists = [c.name for c in t.schema.columns if c.dtype == LIST]
    col = rng.choice(lists) if lists and rng.random() < 0.9 else rng.choice(list(t.column_names))
    op = make_operator("Explode", t.name, col)
    return {t.name: t}, op, op.params


GENERATORS = {
    "DropNA": gen_dropna,
    "MissingValueImputation": gen_imputation,
    "Deduplicate": gen_deduplicate,
    "ErrorDetection": gen_error_detection,
    "OutlierDetection": gen_outlier,
    "ValueTransform": gen_value_transform,
    "StandardizeDatetime": gen_standardize_datetime,
    "CastType": gen_cast_type,
    "RenameColumn": gen_rename,
    "AddNewColumn": gen_add_new_column,
    "DropColumn": gen_drop_column,
    "SplitColumn": gen_split_column,
    "Concatenate": gen_concatenate,
    "SelectColumn": gen_select_column,
    "Subtitle": gen_subtitle,
    "Filter": gen_filter,
    "Sort": gen_sort,
    "TopK": gen_topk,
    "GroupBy": gen_group_by,
    "Count": gen_count,
    "CalculateStatistic": gen_calculate_statistic,
    "Join": gen_join,
    "Union": gen_union,
    "Append": gen_append,
    "Pivot": gen_pivot,
    "Stack": gen_stack,
    "WideToLong": gen_wide_to_long,
    "Transpose": gen_transpose,
    "Explode": gen_explode,
}

assert set(GENERATORS) == set(REF_HANDLERS)


def check_agreement(tables: dict[str, Table], op, ref_params, where: str) -> ExecError | None:
    """Run one call on the engine and on the reference: either both fail
    (the engine's ExecError is returned) or both give the same tables, which
    the checked constructor also accepts as they stand (None is returned).
    Raises AssertionError on the first disagreement."""
    engine_out = engine_err = None
    try:
        engine_out = execute_operator(op, dict(tables))
    except ExecError as exc:
        engine_err = exc
    ref_out = ref_err = None
    try:
        ref_out = REF_HANDLERS[op.kind](ref_params, plain_state(tables))
    except RefError as exc:
        ref_err = exc
    if engine_err is not None and ref_err is not None:
        return engine_err
    assert engine_err is None, f"{where}: engine failed ({engine_err}) but reference passed"
    assert ref_err is None, f"{where}: reference failed ({ref_err}) but engine passed"
    for t in engine_out.values():
        # handlers build outputs unchecked; the checked constructor must agree
        assert isinstance(t.rows, tuple) and all(isinstance(r, tuple) for r in t.rows), (
            f"{where}: table {t.name!r} rows are not a tuple of tuples"
        )
        try:
            rechecked = Table(t.schema, t.rows)
        except TableError as exc:
            raise AssertionError(f"{where}: output fails the cell check: {exc}") from None
        assert rechecked == t, f"{where}: table {t.name!r} changes when re-checked"
    diff = diff_states(engine_out, ref_out)
    assert diff is None, f"{where}: {diff}\ncall: {op!r}"
    return None


def run_operator_trials(kind: str, n: int, seed: int) -> dict:
    """Run n randomized engine-vs-reference trials for one operator kind.

    Raises AssertionError with a repro hint on the first disagreement.
    Returns {"ok": successes-on-both-sides, "fail": errors-on-both-sides}.
    """
    rng = random.Random(seed)
    stats = {"ok": 0, "fail": 0}
    for trial in range(n):
        tables, op, ref_params = GENERATORS[kind](rng)
        where = f"{kind} trial {trial} (seed {seed})"
        failed = check_agreement(tables, op, ref_params, where) is not None
        stats["fail" if failed else "ok"] += 1
    return stats


# --- ordering and scoring ----------------------------------------------------


def ref_canonicalize(t: Table) -> Table:
    """adprep.tables.canonicalize as it was before sort_order: rows sorted
    by their tuples of cell_sort_key."""
    cols = t.schema.columns
    order = sorted(range(len(cols)), key=lambda i: cols[i].name)
    new_cols = tuple(cols[i] for i in order)
    new_rows = [tuple(row[i] for i in order) for row in t.rows]
    new_rows.sort(key=lambda row: tuple(map(cell_sort_key, row)))
    return Table.trusted(Schema(t.name, new_cols, t.schema.description), tuple(new_rows))


def ref_cell_score(predicted: Table, target: Table) -> float:
    """adprep.reward.cell_score as it was before column keys: every cell of
    both tables keyed by cell_sort_key."""
    shared = sorted(set(predicted.column_names) & set(target.column_names))
    if not shared:
        return 0.0
    n_hi = max(predicted.n_rows, target.n_rows)
    if n_hi == 0:
        return 1.0
    got = sorted(zip(*[map(cell_sort_key, predicted.column(n)) for n in shared]))
    want = sorted(zip(*[map(cell_sort_key, target.column(n)) for n in shared]))
    hits = sum(x == y for g, w in zip(got, want) for x, y in zip(g, w))
    return hits / (len(shared) * n_hi)
