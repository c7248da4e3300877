"""JSON schemas for every value the CLI reads or writes.

Emission goes through a small dumper that renders floats with 17
significant digits so that every number round-trips bit-faithfully.
Small and irregular documents are walked value by value. The two large
homogeneous lists, a dense matrix's entries and a completion's fill log,
are held as columns (`_Table`) and rendered one %-template per row,
byte for byte as the value-by-value walk would render the same list of
objects.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circleset import CircleSet, normalize
from .completion import PartialHermitianMatrix
from .errors import InputError
from .groupext import (
    FiniteGroup,
    GroupFunction,
    SymmetricSubset,
    group_function,
    validate_group,
    validate_subset,
)
from .pattern import CliqueTree, Pattern, validate_pattern


def load_json(path) -> dict:
    with open(Path(path), "r", encoding="utf-8") as fh:
        return json.load(fh)


def dumps(doc, pretty: bool = False) -> str:
    """Serialize with floats at 17 significant digits."""
    out: list[str] = []
    _emit(doc, out, 0 if pretty else None)
    return "".join(out)


def _emit(value, out: list[str], indent: int | None) -> None:
    if value is None or isinstance(value, (bool, str)):
        out.append(json.dumps(value))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x) or math.isinf(x):
            raise ValueError("non-finite numbers are not serializable")
        out.append(format(x, ".17g"))
    elif isinstance(value, dict):
        _emit_items(
            value.items(), out, indent, "{", "}", key=True
        )
    elif isinstance(value, (list, tuple)):
        _emit_items(value, out, indent, "[", "]", key=False)
    elif isinstance(value, _Table):
        _emit_table(value, out, indent)
    else:
        raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def _pad(indent: int | None, depth: int) -> str:
    return "" if indent is None else "\n" + "  " * (indent + depth)


def _emit_items(items, out, indent, open_ch, close_ch, key: bool) -> None:
    items = list(items)
    if not items:
        out.append(open_ch + close_ch)
        return
    nested = None if indent is None else indent + 1
    pad = _pad(indent, 1)
    sep = "," + pad
    colon = ":" if indent is None else ": "
    out.append(open_ch + pad)
    for item in items:
        if key:
            name, item = item
            out.append(json.dumps(str(name)) + colon)
        _emit(item, out, nested)
        out.append(sep)
    out[-1] = _pad(indent, 0) + close_ch  # the last separator closes the list


@dataclass(frozen=True, eq=False)
class _Table:
    """A list of objects that share one key order, held as columns.

    Each column holds only ints, only floats, or only tuples of ints.
    Iterating yields the objects as dicts.
    """

    keys: tuple[str, ...]
    columns: tuple[list, ...]

    def __iter__(self):
        return (dict(zip(self.keys, row)) for row in zip(*self.columns))


def _emit_table(table: _Table, out: list[str], indent: int | None) -> None:
    if not table.columns[0]:
        out.append("[]")
        return
    value_indent = None if indent is None else indent + 2
    specs, columns = zip(*(_column_format(c, value_indent) for c in table.columns))
    colon = ":" if indent is None else ": "
    fields = (
        _pad(indent, 2) + json.dumps(key) + colon + spec
        for key, spec in zip(table.keys, specs)
    )
    template = "{" + ",".join(fields) + _pad(indent, 1) + "}"
    out.append("[" + _pad(indent, 1))
    out.append(("," + _pad(indent, 1)).join([template % row for row in zip(*columns)]))
    out.append(_pad(indent, 0) + "]")


def _column_format(column: list, indent: int | None) -> tuple[str, list]:
    """The %-spec and the values that render a column as `_emit` renders its items."""
    kinds = set(map(type, column))
    if kinds == {int}:
        return "%d", column
    if kinds == {float}:
        if not all(map(math.isfinite, column)):
            raise ValueError("non-finite numbers are not serializable")
        return "%.17g", column
    if kinds == {tuple}:
        distinct = set(column)
        if {type(x) for v in distinct for x in v} - {int}:
            raise TypeError("a column of tuples must hold ints only")
        sep = "," + _pad(indent, 1)
        formats = {
            k: "[" + _pad(indent, 1) + sep.join(["%d"] * k) + _pad(indent, 0) + "]"
            for k in set(map(len, distinct))
        }
        formats[0] = "[]"
        encoded = {v: formats[len(v)] % v for v in distinct}
        return "%s", [encoded[v] for v in column]
    raise TypeError(f"cannot serialize a column of {sorted(k.__name__ for k in kinds)}")


def _complex_to_doc(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _complex_from_doc(doc) -> complex:
    z = complex(float(doc["re"]), float(doc["im"]))
    if not cmath.isfinite(z):
        raise InputError(f"non-finite number re={doc['re']!r}, im={doc['im']!r}")
    return z


# -- patterns ---------------------------------------------------------------

def pattern_to_json(p: Pattern) -> dict:
    return {"n": p.n, "edges": [list(e) for e in sorted(p.edges)]}


def pattern_from_json(doc) -> Pattern:
    return validate_pattern(int(doc["n"]), doc["edges"])


def clique_tree_to_json(t: CliqueTree) -> dict:
    return {
        "cliques": [list(c) for c in t.cliques],
        "tree_edges": [list(e) for e in t.tree_edges],
        "separators": [list(s) for s in t.separators],
    }


# -- dense Hermitian matrices -------------------------------------------------

def matrix_to_json(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    i, j = np.triu_indices(n)
    upper = a[i, j]
    columns = (i.tolist(), j.tolist(), upper.real.tolist(), upper.imag.tolist())
    return {"n": n, "entries": _Table(("i", "j", "re", "im"), columns)}


def matrix_from_json(doc) -> np.ndarray:
    n = int(doc["n"])
    if n < 0:
        raise InputError(f"matrix dimension must be nonnegative, got {n}")
    out = np.zeros((n, n), dtype=complex)
    seen = set()
    for entry in doc["entries"]:
        i, j = int(entry["i"]), int(entry["j"])
        if not (0 <= i <= j < n):
            raise InputError(f"entry ({i},{j}) must satisfy 0 <= i <= j < {n}")
        if (i, j) in seen:
            raise InputError(f"duplicate entry ({i},{j})")
        seen.add((i, j))
        z = _complex_from_doc(entry)
        if i == j and z.imag != 0.0:
            raise InputError(f"diagonal entry ({i},{i}) must be real")
        out[i, j] = z
        out[j, i] = z.conjugate()
    return out


def fill_log_to_json(log) -> _Table:
    """The fill log of a completion as a list of {separator, pair} objects."""
    return _Table(
        ("separator", "pair"),
        ([sep for sep, _ in log], [pair for _, pair in log]),
    )


# -- partial matrices ---------------------------------------------------------

def partial_to_json(m: PartialHermitianMatrix) -> dict:
    blocks = [
        {
            "i": i,
            "j": j,
            "block": [
                [_complex_to_doc(block[r, c]) for c in range(m.d)]
                for r in range(m.d)
            ],
        }
        for (i, j), block in sorted(m.blocks.items())
    ]
    return {
        "n": m.n,
        "d": m.d,
        "pattern": pattern_to_json(m.pattern),
        "blocks": blocks,
    }


def partial_from_json(doc) -> PartialHermitianMatrix:
    p = pattern_from_json(doc["pattern"])
    if int(doc["n"]) != p.n:
        raise InputError(f"n = {doc['n']} disagrees with the pattern's {p.n}")
    d = int(doc["d"])
    blocks = {}
    for item in doc["blocks"]:
        i, j = int(item["i"]), int(item["j"])
        if i > j:
            raise InputError(f"blocks list (i,j) with i <= j only, got ({i},{j})")
        if (i, j) in blocks:
            raise InputError(f"duplicate block ({i},{j})")
        rows = item["block"]
        blocks[(i, j)] = np.array(
            [[_complex_from_doc(z) for z in row] for row in rows], dtype=complex
        )
    return PartialHermitianMatrix(p, d, blocks)


# -- groups -------------------------------------------------------------------

def group_to_json(g: FiniteGroup) -> dict:
    return {
        "order": g.order,
        "table": [list(row) for row in g.table],
        "identity": g.identity,
    }


def group_from_json(doc) -> FiniteGroup:
    return validate_group(doc["table"], int(doc["identity"]))


def subset_to_json(e: SymmetricSubset) -> dict:
    return {"members": sorted(e.members)}


def subset_from_json(doc, g: FiniteGroup) -> SymmetricSubset:
    return validate_subset(g, doc["members"])


def function_to_json(f: GroupFunction) -> dict:
    return {
        "values": [
            {"g": k, **_complex_to_doc(v)} for k, v in sorted(f.values.items())
        ]
    }


def function_from_json(doc, g: FiniteGroup) -> GroupFunction:
    vals = {}
    for item in doc["values"]:
        k = int(item["g"])
        if k in vals:
            raise InputError(f"duplicate value for element {k}")
        vals[k] = _complex_from_doc(item)
    return group_function(g, vals)


# -- circle sets ----------------------------------------------------------------

def circleset_to_json(e: CircleSet) -> dict:
    if not e.is_closed_form():
        raise InputError("only closed canonical circle sets are serializable")
    return {
        "intervals": [[str(iv.a), str(iv.b)] for iv in e.intervals],
        "points": [str(p) for p in e.points],
    }


def circleset_from_json(doc) -> CircleSet:
    intervals = [(a, b) for a, b in doc["intervals"]]
    return normalize(intervals, doc["points"])
