"""JSON schemas for every value the CLI reads or writes.

Emission goes through a small dumper that renders floats with 17
significant digits so that every number round-trips bit-faithfully.
A list whose items are all exact ints, or all lists or tuples of exact
ints, goes to json's encoder (the C encoder when compact), which writes
ints and lays out lists as the walk below does. The large homogeneous
lists, a dense matrix's entries, a completion's fill log and a group
function's values, are held as typed columns (`_Table`) and rendered
with one % per chunk of rows. Everything else is walked value by value.
All three paths give the same bytes. Floats stay off json's path: it
writes repr(x), where this format writes %.17g.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from .circleset import CircleSet, normalize
from .completion import PartialHermitianMatrix, _check_dense_dim
from .errors import InputError
from .groupext import (
    FiniteGroup,
    GroupFunction,
    SymmetricSubset,
    group_function,
    validate_group,
    validate_subset,
)
from .pattern import CliqueTree, Pattern, _integers, validate_pattern


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
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
        _emit_items(value.items(), out, indent, "{", "}", key=True)
    elif isinstance(value, (list, tuple)):
        if _int_lists(value):
            _emit_int_lists(value, out, indent)
        else:
            _emit_items(value, out, indent, "[", "]", key=False)
    elif isinstance(value, _Table):
        _emit_table(value, out, indent)
    else:
        raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def _int_lists(value) -> bool:
    """True when the items are all exact ints, or all lists or tuples of exact ints."""
    kinds = set(map(type, value))
    if kinds <= {int}:
        return True
    return kinds <= {list, tuple} and set(map(type, chain.from_iterable(value))) <= {int}


def _emit_int_lists(value, out: list[str], indent: int | None) -> None:
    """json's encoder writes an int as str(int) and lays out lists as `_emit_items` does."""
    if indent is None:
        out.append(json.dumps(value, separators=(",", ":")))
    else:
        out.append(json.dumps(value, indent=2).replace("\n", _pad(indent, 0)))


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

    A column is a 1-D int or float array, a 2-D int array whose rows are
    rendered as lists, or a list of int tuples. Its producer fixes the
    kind, so the emitter renders a column without looking at its values.
    """

    keys: tuple[str, ...]
    columns: tuple


_CHUNK_ROWS = 256


def _emit_table(table: _Table, out: list[str], indent: int | None) -> None:
    rows = len(table.columns[0])
    if not rows:
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
    sep = "," + _pad(indent, 1)
    values = zip(*chain.from_iterable(columns))
    out.append("[" + _pad(indent, 1))
    for start in range(0, rows, _CHUNK_ROWS):
        count = min(_CHUNK_ROWS, rows - start)
        flat = tuple(chain.from_iterable(islice(values, count)))
        out.append(sep.join([template] * count) % flat)
        out.append(sep)
    out[-1] = _pad(indent, 0) + "]"  # the last separator closes the list


def _column_format(column, indent: int | None) -> tuple[str, list]:
    """The %-spec of a column and the value columns that fill it, as `_emit` renders."""
    if isinstance(column, list):
        encoded = {v: _tuple_spec(len(v), indent) % v for v in set(column)}
        return "%s", [list(map(encoded.__getitem__, column))]
    kind = (column.ndim, column.dtype.kind)
    if kind == (1, "i"):
        return "%d", [column.tolist()]
    if kind == (1, "f"):
        if not np.isfinite(column).all():
            raise ValueError("non-finite numbers are not serializable")
        return "%.17g", [column.tolist()]
    if kind == (2, "i"):
        return _tuple_spec(column.shape[1], indent), column.T.tolist()
    raise TypeError(f"cannot serialize a {column.dtype} column of shape {column.shape}")


def _tuple_spec(k: int, indent: int | None) -> str:
    sep = "," + _pad(indent, 1)
    return f"[{_pad(indent, 1)}{sep.join(['%d'] * k)}{_pad(indent, 0)}]" if k else "[]"


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
    (n,) = _integers([doc["n"]])
    return validate_pattern(n, doc["edges"])


def clique_tree_to_json(t: CliqueTree) -> dict:
    return {"cliques": t.cliques, "tree_edges": t.tree_edges, "separators": t.separators}


# -- dense Hermitian matrices -------------------------------------------------

def matrix_to_json(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    i, j = np.triu_indices(n)
    upper = a[i, j]
    columns = (i, j, upper.real, upper.imag)
    return {"n": n, "entries": _Table(("i", "j", "re", "im"), columns)}


def matrix_from_json(doc) -> np.ndarray:
    (n,) = _integers([doc["n"]])
    if n < 0:
        raise InputError(f"matrix dimension must be nonnegative, got {n}")
    _check_dense_dim(n)
    out = np.zeros((n, n), dtype=complex)
    seen = set()
    for entry in doc["entries"]:
        i, j = _integers((entry["i"], entry["j"]))
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


def fill_log_to_json(fills) -> _Table:
    """A completion's fills as {separator, pair} objects, one per filled pair.

    Step (separator, old, new) fills old x new row by row, so its k-th
    pair is (old[k // len(new)], new[k % len(new)]).
    """
    n_old = np.array([len(old) for _, old, _ in fills], dtype=int)
    n_new = np.array([len(new) for _, _, new in fills], dtype=int)
    sizes = n_old * n_new
    step = np.repeat(np.arange(len(sizes)), sizes)
    k = np.arange(len(step)) - (np.cumsum(sizes) - sizes)[step]
    width = n_new[step]
    old = np.fromiter(chain.from_iterable(old for _, old, _ in fills), int)
    new = np.fromiter(chain.from_iterable(new for _, _, new in fills), int)
    pairs = np.column_stack(
        (
            old[(np.cumsum(n_old) - n_old)[step] + k // width],
            new[(np.cumsum(n_new) - n_new)[step] + k % width],
        )
    )
    seps = list(chain.from_iterable(map(repeat, (sep for sep, _, _ in fills), sizes.tolist())))
    return _Table(("separator", "pair"), (seps, pairs))


# -- partial matrices ---------------------------------------------------------

def partial_to_json(m: PartialHermitianMatrix) -> dict:
    rows, cols = m.pattern.pairs
    blocks = [
        {
            "i": i,
            "j": j,
            "block": [list(map(_complex_to_doc, row)) for row in block],
        }
        for i, j, block in zip(rows.tolist(), cols.tolist(), m.values.tolist())
    ]
    return {
        "n": m.n,
        "d": m.d,
        "pattern": pattern_to_json(m.pattern),
        "blocks": blocks,
    }


def partial_from_json(doc) -> PartialHermitianMatrix:
    p = pattern_from_json(doc["pattern"])
    (n, d) = _integers((doc["n"], doc["d"]))
    if n != p.n:
        raise InputError(f"n = {doc['n']} disagrees with the pattern's {p.n}")
    blocks = {}
    for item in doc["blocks"]:
        i, j = _integers((item["i"], item["j"]))
        if i > j:
            raise InputError(f"blocks list (i,j) with i <= j only, got ({i},{j})")
        if (i, j) in blocks:
            raise InputError(f"duplicate block ({i},{j})")
        blocks[(i, j)] = [list(map(_complex_from_doc, row)) for row in item["block"]]
    return PartialHermitianMatrix(p, d, blocks)


# -- groups -------------------------------------------------------------------

def group_to_json(g: FiniteGroup) -> dict:
    return {
        "order": g.order,
        "table": [list(row) for row in g.table],
        "identity": g.identity,
    }


def group_from_json(doc) -> FiniteGroup:
    return validate_group(doc["table"], doc["identity"])


def subset_to_json(e: SymmetricSubset) -> dict:
    return {"members": sorted(e.members)}


def subset_from_json(doc, g: FiniteGroup) -> SymmetricSubset:
    return validate_subset(g, doc["members"])


def function_to_json(f: GroupFunction) -> dict:
    keys = sorted(f.values)
    z = np.array([f.values[k] for k in keys], dtype=complex)
    return {"values": _Table(("g", "re", "im"), (np.array(keys, dtype=int), z.real, z.imag))}


def function_from_json(doc, g: FiniteGroup) -> GroupFunction:
    vals = {}
    for item in doc["values"]:
        (k,) = _integers([item["g"]])
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
