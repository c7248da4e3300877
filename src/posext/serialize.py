"""JSON schemas for every value the CLI reads or writes.

Reading goes through json, except for the one int-rows field of a
document, which its kind locates: a group's "table", a pattern's
"edges", a partial matrix's "pattern"/"edges". `load_json` reads that
field as one int64 array with np.fromstring when its text is strictly a
list of equal-length lists of canonical ints, and leaves any other text
to json (see `_read_rows`). The rows and their widths are found with
numpy on the text's bytes, with no Python object per row. A document
nested deeper than json can follow is an InputError.

Emission goes through a small dumper that writes floats as %.17g, so
that every finite float except -0.0 round-trips bit-faithfully (-0.0 is
written "-0", which JSON readers take for the integer 0). A value takes
one of four paths, and all four give the same bytes:

- A list whose items are all exact ints is one % over a template made
  for it; %d writes an int as str(int) does, beyond int64 too.
- A list of int lists held as one flat int array and pointers
  (`_IntLists`: a clique tree's cliques, edges and separators, the
  maximal cliques of a chordal pattern, a pattern's edges), and a list
  of lists or tuples of exact ints within int64,
  are one uint8 buffer per chunk of `_CHUNK_ROWS` ints, a row per int
  and per empty list: the list's opening or closing text and the
  separators around the int, and its digits as a table's int slot
  holds them (below).
- The large homogeneous lists (a dense matrix's entries, a completion's
  fill log, a group function's values, a rank-one factor's vector) are
  held as typed columns (`_Table`). Each chunk of `_CHUNK_ROWS` rows is
  one uint8 buffer, a row per object: the constant text of a row
  (braces, keys, separators, the newlines and indents of the pretty
  layout) is broadcast into every row, and each value is written into
  a NUL-padded slot of its column. Ints are gathered from 4-digit
  tables, int tuples from their texts made once per table, and floats
  take `_format_17g`: zeros written as 0 or -0, the other values by the
  numpy kernel below when a chunk holds `_KERNEL_MIN_ROWS` of them or
  more, and by one padded % call otherwise, since the kernel's cost per
  call outweighs what it saves on few values. Dropping the NUL bytes
  turns the buffer into the chunk's text; no Python string is made per
  value.
- Everything else is walked value by value.

The kernel writes exactly what format(x, ".17g") writes. That text is
fixed by three things: D = round(|x| 10^s) with s = 16 - k, the 17-digit
integer in [10^16, 10^17) with ties to even; the exponent k; and C's %g
layout. The layout is fixed notation for -4 <= k < 17 and d.ddde+XX
otherwise, with trailing zeros dropped after the point, and the point
too when nothing follows it. The kernel reproduces all three:

- k starts as floor(log10 |x|) and moves by one where D falls outside
  [10^16, 10^17).
- a = |x| 2^s is exact. 5^s is held as hi + lo, each correctly rounded
  from the exact rational. Dekker's two-product (no FMA needed) writes
  a hi as p + e exactly, so y = |x| 10^s is p + (e + a lo) to within
  2^-47. That bound holds for y < 2^57, with |e + a lo| < 24. p is an
  even integer >= 2^53, so D = p + rint(e + a lo).
- format(x, ".17g") is called instead where the fraction of e + a lo
  lies within 2^-30 of 1/2, or D lies within 1 of 10^16 or 10^17. Only
  there could the 2^-47 error change the rounding or the exponent.
  Exact ties are always among these values; in random data almost no
  value is.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

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
from .pattern import (
    CliqueTree,
    Pattern,
    _integers,
    clique_tree,
    is_chordal,
    maximal_cliques,
    validate_pattern,
)


def load_json(path, field: tuple[str, ...] = ()) -> dict:
    """The JSON document at path, its int-rows field an int64 array when `_read_rows` takes the text.

    field is the key path of that field, which the document's kind
    fixes: ("table",) for a group, ("edges",) for a pattern and
    ("pattern", "edges") for a partial matrix. Any other text, and a
    document read without a field, goes through json, so it gives the
    same document, or raises the same error, as json does. A document
    nested deeper than json can follow raises InputError.
    """
    if field:
        with open(path, "rb") as fh:
            doc = _read_rows(fh.read(), field)
        if doc is not None:
            return doc
    with open(path, encoding="utf-8") as fh:
        return _loads(fh.read())


def _loads(text):
    """json.loads of text; InputError where json runs out of recursion depth."""
    try:
        return json.loads(text)
    except RecursionError:
        raise InputError("document nested too deeply: maximum recursion depth exceeded") from None


_WS = b" \t\n\r"  # JSON's whitespace
_WS_TO_SPACE = bytes.maketrans(b"\t\n\r", b"   ")
_AFTER_KEY = re.compile(rb"[ \t\n\r]*:[ \t\n\r]*")
_MAX_ROWS_INT = 10**18 - 1  # 18 digits: np.fromstring reads them exactly


def _read_rows(data: bytes, field: tuple[str, ...]) -> dict | None:
    """The JSON document data with its field read as one int64 array, or None.

    field is the key path from the top of the document to the field.
    The field is taken only when its text is a list of equal-length,
    nonempty lists of canonical JSON ints: an optional minus sign, no
    leading zeros, at most 18 digits. One np.fromstring parses it, and
    json.loads parses the rest of the document with the field replaced
    by []. Anything else gives None: the document needs the json route,
    which gives the same answer or raises the same error.

    np.fromstring reads "-" as 0 and "007" as 7, stops at a trailing
    comma, saturates past int64 and skips whitespace after a minus sign,
    so the text is checked around it:

    - Without a backslash in data every string reads as it is written,
      so the one occurrence of the field's key in data is the field when
      json.loads finds that key at the end of the path in the rest.
    - Without whitespace the text starts with [[, ends with a digit and
      ]], and its "],[" breaks part it into rows with the same number of
      commas (`_rows_layout`). So it has at least the rows' brackets,
      and np.fromstring is asked for one value per comma and row, which
      it allocates at once. It raises at whitespace between digits and
      at an empty item; only an empty last item would end the text early
      and leave values unread, and the last item is not empty. A minus
      sign before whitespace is refused.
    - What is left of the text is digits, minus signs and any bracket
      or byte beyond the rows'. An item never has fewer digits than its
      value written canonically, and the minus signs are counted against
      the negative values ("-" reads as 0). So the text's length is that
      of the values written canonically, with the commas and the rows'
      brackets, exactly when every item is canonical and nothing else is
      there.
    """
    name = field[-1]
    key = b'"' + name.encode() + b'"'
    at = data.find(key)
    colon = _AFTER_KEY.match(data, at + len(key)) if at >= 0 and b"\\" not in data else None
    if colon is None:
        return None
    start = colon.end()
    stop = data.find(b'"', start)  # the field's text ends before the next key or "}"
    stop = len(data) if stop < 0 else stop
    brace = data.find(b"}", start, stop)
    end = data.rfind(b"]", start, stop if brace < 0 else brace) + 1
    layout = _rows_layout(data[start:end])
    if layout is None or key in data[stop:]:
        return None
    n_rows, width, minus, length = layout
    flat = data[start:end].translate(_WS_TO_SPACE, b"[]")
    if minus and b"- " in flat:
        return None
    try:
        values = np.fromstring(flat, dtype=np.int64, count=n_rows * width, sep=",")
    except ValueError:
        return None
    low, high = int(values.min()), int(values.max())
    if low < -_MAX_ROWS_INT or high > _MAX_ROWS_INT or np.count_nonzero(values < 0) != minus:
        return None
    magnitude = np.abs(values)
    expected = values.size + minus + (values.size - 1) + 2 * (n_rows + 1)  # digits, signs, commas, brackets
    power = 10
    while power <= max(-low, high):  # a digit more for each power of ten a value reaches
        expected += np.count_nonzero(magnitude >= power)
        power *= 10
    if expected != length:
        return None
    try:
        doc = _loads((data[:start] + b"[]" + data[end:]).decode("utf-8"))
    except ValueError:  # the json route raises it again, with its own text
        return None
    parent = doc
    for step in field[:-1]:
        parent = parent.get(step) if type(parent) is dict else None
    if type(parent) is not dict or name not in parent:
        return None
    parent[name] = values.reshape(n_rows, width)
    return doc


def _rows_layout(text: bytes) -> tuple[int, int, int, int] | None:
    """(rows, items per row, minus signs, length without whitespace) of an int-rows text, or None.

    None unless, without whitespace, the text starts with [[, ends with a
    digit and ]], and its "],[" row breaks part it into rows with the
    same number of commas: width - 1 before the first break, and width
    from each break to the next. Those counts are taken modulo 256 when
    width < 256. Each count plus one for the first is then at least its
    residue, and the counts add up to rows * width - 1; so if each
    matches width modulo 256, each is exact.
    """
    compact = text.translate(None, _WS)
    if compact[:2] != b"[[" or compact[-2:] != b"]]" or not compact[-3:-2].isdigit():
        return None
    chars = np.frombuffer(compact, dtype=np.uint8)
    breaks = np.flatnonzero(chars[:-2] == ord("]"))  # a break never ends the text, which ends in "]]"
    breaks = breaks[(chars[breaks + 1] == ord(",")) & (chars[breaks + 2] == ord("["))]
    comma = (chars == ord(",")).view(np.uint8)
    items, rows = int(np.count_nonzero(comma)) + 1, len(breaks) + 1
    width = items // rows
    counts = np.add.reduceat(comma, np.r_[0, breaks], dtype=np.uint8 if width < 256 else np.uint32)
    if items != rows * width or counts[0] != width - 1 or (counts[1:] != width).any():
        return None
    minus = compact.count(b"-") if b"-" in compact else 0  # `in` finds a byte faster than count
    return rows, width, minus, len(compact)


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
        kinds = set(map(type, value))
        flat = list(chain.from_iterable(value)) if kinds <= {list, tuple} else None
        ints = flat is not None and set(map(type, flat)) <= {int}
        if kinds <= {int}:  # the empty list too
            out.append(_list_spec(len(value), indent) % tuple(value))
        elif ints and -(2**63) <= min(flat, default=0) <= max(flat, default=0) < 2**63:
            lists = _IntLists(np.array(flat, dtype=np.int64), np.cumsum([0, *map(len, value)]))
            _emit_int_lists(lists, out, indent)
        else:
            _emit_items(value, out, indent, "[", "]", key=False)
    elif isinstance(value, _Table):
        _emit_table(value, out, indent)
    elif isinstance(value, _IntLists):
        _emit_int_lists(value, out, indent)
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

    A column is a 1-D int or float array, a 2-D int array whose rows are
    rendered as lists, or a `_Coded` column of int tuples. Its producer
    fixes the kind, so the emitter renders a column without looking at
    its values.
    """

    keys: tuple[str, ...]
    columns: tuple


@dataclass(frozen=True, eq=False)
class _Coded:
    """A column of int tuples whose row r is values[codes[r]]; codes is an int array.

    Each value is formatted once, however many rows repeat it.
    """

    values: list[tuple[int, ...]]
    codes: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)


@dataclass(frozen=True, eq=False)
class _IntLists:
    """A list of int lists held as one flat int array and pointers: list k is flat[ptr[k]:ptr[k + 1]]."""

    flat: np.ndarray
    ptr: np.ndarray

    @staticmethod
    def of_rows(a: np.ndarray) -> _IntLists:
        """The rows of a 2-D int array as lists."""
        return _IntLists(a.ravel(), np.arange(len(a) + 1) * a.shape[1])


_CHUNK_ROWS = 4096  # rows of a byte buffer
_KERNEL_MIN_ROWS = 512  # fewer nonzero floats in a chunk go through one % call


def _emit_table(table: _Table, out: list[str], indent: int | None) -> None:
    """The rows laid out as `_emit_items` lays out their objects, one byte buffer per chunk.

    Every row of a chunk is one row of a uint8 buffer: the constant text
    of a row (braces, keys, separators, the layout's newlines and
    indents) written once by broadcasting, and one NUL-padded slot per
    value. Dropping the NUL bytes leaves the text; none of it is NUL,
    since keys go through json.dumps.
    """
    rows = len(table.columns[0])
    if not rows:
        out.append("[]")
        return
    value_indent = None if indent is None else indent + 2
    colon = ":" if indent is None else ": "
    row = bytearray(b"{")
    slots = []  # (offset, width, fill): fill(dest, start, stop) writes rows start..stop-1
    for n, (key, column) in enumerate(zip(table.keys, table.columns)):
        row += (("," if n else "") + _pad(indent, 2) + json.dumps(key) + colon).encode()
        text, column_slots = _column_slots(column, value_indent)
        slots += [(len(row) + at, width, fill) for at, width, fill in column_slots]
        row += text
    sep = "," + _pad(indent, 1)
    row = np.frombuffer(bytes(row + (_pad(indent, 1) + "}" + sep).encode()), dtype=np.uint8)
    buf = np.empty((min(rows, _CHUNK_ROWS), len(row)), dtype=np.uint8)
    out.append("[" + _pad(indent, 1))
    for start in range(0, rows, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, rows)
        chunk = buf[: stop - start]
        chunk[:] = row
        for at, width, fill in slots:
            fill(chunk[:, at : at + width], start, stop)
        if stop == rows:
            chunk[-1, -len(sep) :] = 0  # the last row takes no separator
        out.append(chunk.tobytes().translate(None, b"\0").decode("ascii"))
    out.append(_pad(indent, 0) + "]")


def _column_slots(column, indent: int | None) -> tuple[bytes, list]:
    """A column's text in a row, NUL where values go, and its (offset, width, fill) slots.

    The values are rendered as `_emit` renders them.
    """
    if isinstance(column, _Coded):
        texts = [(_tuple_spec(len(v), indent) % v).encode() for v in column.values]
        width = max(map(len, texts))
        encoded = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), dtype=np.uint8)
        encoded = encoded.reshape(len(texts), width)

        def fill(dest, start, stop):
            dest[:] = encoded.take(column.codes[start:stop], axis=0)

        return bytes(width), [(0, width, fill)]
    kind = (column.ndim, column.dtype.kind)
    if kind == (1, "i"):
        width, fill = _int_slot(column)
        return bytes(width), [(0, width, fill)]
    if kind == (1, "f"):
        if not np.isfinite(column).all():
            raise ValueError("non-finite numbers are not serializable")

        def fill(dest, start, stop):
            _format_17g(column[start:stop], dest)

        return bytes(_TEXT_WIDTH), [(0, _TEXT_WIDTH, fill)]
    if kind == (2, "i"):
        if not column.shape[1]:
            return b"[]", []
        sep = ("," + _pad(indent, 1)).encode()
        text = bytearray(b"[" + _pad(indent, 1).encode())
        slots = []
        for t in range(column.shape[1]):
            width, fill = _int_slot(column[:, t])
            slots.append((len(text), width, fill))
            text += bytes(width) + sep
        text[-len(sep) :] = (_pad(indent, 0) + "]").encode()
        return bytes(text), slots
    raise TypeError(f"cannot serialize a {column.dtype} column of shape {column.shape}")


def _int_slot(column: np.ndarray):
    """The width of an int column's slot and its fill.

    The slot holds a sign byte if any value is negative, then the digits.
    """
    column = column.astype(np.int64, copy=False)
    low, high = int(column.min()), int(column.max())
    quads = -(-len(str(max(-low, high))) // 4)
    sign = int(low < 0)

    def fill(dest, start, stop):
        values = column[start:stop]
        if sign:
            dest[:, 0] = np.where(values < 0, ord("-"), 0)
            values = np.abs(values).view(np.uint64)  # |-2**63| wraps to -2**63, which is 2**63 as uint64
        dest[:, sign:] = _int_text(values, quads)

    return sign + 4 * quads, fill


def _int_text(magnitude: np.ndarray, quads: int) -> np.ndarray:
    """The decimal digits of each value, NUL-padded on the left to 4 * quads bytes."""
    padded, lead, _ = _digit_tables()
    if quads == 1:
        return lead.take(magnitude).view(np.uint8).reshape(-1, 4)
    words = np.empty((len(magnitude), quads), dtype="<u4")
    seen = np.zeros(len(magnitude), dtype=bool)  # a nonzero group came before
    for t in range(quads):
        group = (magnitude // 10 ** (4 * (quads - 1 - t)) % 10**4).astype(np.intp)
        word = np.where(seen, padded.take(group), lead.take(group))
        seen |= group != 0
        if t < quads - 1:
            word[~seen] = 0  # a leading group of zeros
        words[:, t] = word
    return words.view(np.uint8).reshape(-1, 4 * quads)


def _emit_int_lists(lists: _IntLists, out: list[str], indent: int | None) -> None:
    """The lists laid out as `_emit_items` lays them out, one byte buffer per chunk of `_CHUNK_ROWS` rows.

    Each int is one row of a uint8 buffer, and so is each empty list. A
    row is three NUL-padded parts: "[" and the pad when the int comes
    first in its list, or "[]" for an empty list; a sign byte and the
    digits, as `_int_slot` writes them; and "," and the pad, or when the
    int comes last the closing pad, "]" and the separator of the lists.
    Dropping the NUL bytes leaves the text.
    """
    lengths = np.diff(lists.ptr)
    if not len(lengths):
        out.append("[]")
        return
    inner = None if indent is None else indent + 1
    sep = "," + _pad(indent, 1)
    opens = ("", "[" + _pad(inner, 1), "[]")
    closes = ("," + _pad(inner, 1), _pad(inner, 0) + "]" + sep, sep)
    spans = np.maximum(lengths, 1)
    ends = np.cumsum(spans)
    kind = np.zeros(ends[-1], dtype=np.uint8)  # row r takes texts[kind[r]]: opens[kind // 3], closes[kind % 3]
    kind[ends - spans] = 3
    kind[ends - 1] += 1
    empty = ends[lengths == 0] - 1
    kind[empty] = 8
    values = lists.flat[lists.ptr[0] : lists.ptr[-1]]
    if len(empty):
        values = np.insert(values, empty - np.arange(len(empty)), 0)  # written, then cleared
    width, fill = _int_slot(values)
    left, right = max(map(len, opens)), max(map(len, closes))
    texts = [o.encode().ljust(left, b"\0") + bytes(width) + c.encode().rjust(right, b"\0") for o in opens for c in closes]
    texts = np.frombuffer(b"".join(texts), dtype=np.uint8).reshape(9, -1)
    buf = np.empty((min(len(kind), _CHUNK_ROWS), texts.shape[1]), dtype=np.uint8)
    out.append("[" + _pad(indent, 1))
    for start in range(0, len(kind), _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, len(kind))
        chunk = buf[: stop - start]
        texts.take(kind[start:stop], axis=0, out=chunk)
        fill(chunk[:, left : left + width], start, stop)
        if len(empty):
            chunk[kind[start:stop] == 8, left : left + width] = 0
        if stop == len(kind):
            chunk[-1, -len(sep) :] = 0  # the last list takes no separator; closes are right-aligned
        out.append(chunk.tobytes().translate(None, b"\0").decode("ascii"))
    out.append(_pad(indent, 0) + "]")


def _list_spec(k: int, indent: int | None) -> str:
    """The % template of a list of k ints laid out as `_emit_items` lays it out."""
    sep = "," + _pad(indent, 1)
    return f"[{_pad(indent, 1)}{sep.join(['%d'] * k)}{_pad(indent, 0)}]" if k else "[]"


_tuple_spec = functools.lru_cache(maxsize=256)(_list_spec)  # for the tuples of a coded column, whose lengths repeat


# -- %.17g of a float column in numpy (see the module docstring) ---------------

_TIE_MARGIN = 2.0**-30
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
_S_MIN = -300  # the scales s of finite doubles lie in [-293, 341]
_SCALES = np.zeros((650, 4))  # row s - _S_MIN: 5^s as hi_hi + hi_lo + lo, then 2^s
_SCALES_MADE = np.zeros(len(_SCALES), dtype=bool)
# The text of each value is gathered from a source row of 28 bytes: NUL at
# 0-2, the 17 digits of D at 3-19, ".", "0", "-", the exponent's sign and
# "e" at 20-24, and |k| as 3 digits at 25-27. The layout of a text depends
# on its sign, its kind (fixed notation with k, or exponent notation with
# 2 or 3 exponent digits) and the number of digits kept, and it is one
# row of _LAYOUTS: the source byte of each character, NUL-padded.
_SRC_WIDTH = 28
_DOT, _ZERO, _MINUS, _EXP_SIGN, _E, _EXP = 20, 21, 22, 23, 24, 25
_TEXT_WIDTH = 24  # the longest text: -1.2345678901234567e-308
_LAYOUTS = np.zeros((2 * 23 * 17, _TEXT_WIDTH), dtype=np.intp)
_LAYOUTS_MADE = np.zeros(len(_LAYOUTS), dtype=bool)
_MINUS_ZERO = int.from_bytes(b"-0", "little")


def _format_17g(x: np.ndarray, text: np.ndarray) -> None:
    """Write format(v, ".17g") of each v of a finite float array into its row of text.

    text is a (len(x), _TEXT_WIDTH) uint8 array of NULs, and each text
    stays NUL-padded. Zeros are written as 0 and -0. The other values go
    through the kernel when there are _KERNEL_MIN_ROWS of them or more,
    and otherwise through one "%-24.17g" % call, whose space padding
    becomes NUL: on few values the kernel's cost per call outweighs what
    it saves.
    """
    nonzero = np.flatnonzero(x)
    if len(nonzero) < len(x):  # the rows of nonzero values are overwritten below
        text.view("<u2")[:, 0] = np.where(np.signbit(x), _MINUS_ZERO, ord("0"))
    rows = slice(None) if len(nonzero) == len(x) else nonzero  # a slice copies, an index gathers
    if len(nonzero) >= _KERNEL_MIN_ROWS:
        text[rows] = _format_nonzero(x[rows])
    elif len(nonzero):
        values = x[rows].tolist()
        padded = (f"%-{_TEXT_WIDTH}.17g" * len(values) % tuple(values)).encode().replace(b" ", b"\0")
        text[rows] = np.frombuffer(padded, dtype=np.uint8).reshape(-1, _TEXT_WIDTH)


def _format_nonzero(x: np.ndarray) -> np.ndarray:
    """The kernel: format(v, ".17g") of each v of a nonzero finite float array, as NUL-padded byte rows."""
    quads, _, trailing_zeros = _digit_tables()
    ax = np.abs(x)
    k = np.floor(np.log10(ax)).astype(np.int64)
    d, tie = _scaled(ax, k)
    off = np.flatnonzero((d < 10**16 - 1) | (d > 10**17 + 1))  # log10 missed by one
    if len(off):
        k[off] += np.where(d[off] > 10**17, 1, -1)
        d[off], tie[off] = _scaled(ax[off], k[off])
    near = (d <= 10**16 + 1) | (d >= 10**17 - 1) | (tie > 0.5 - _TIE_MARGIN)

    first, rest = np.divmod(d, 10**16)
    high, low = np.divmod(rest, 10**8)
    groups = (*np.divmod(high, 10**4), *np.divmod(low, 10**4))  # 4 digits each
    ak = np.abs(k)
    src = np.empty((len(x), _SRC_WIDTH // 4), dtype="<u4")
    src[:, 0] = quads[first] & 0xFF000000
    for word, group in enumerate(groups, 1):
        src[:, word] = quads[group]
    src[:, 5] = int.from_bytes(b".0-+", "little") + (k < 0) * (2 << 24)  # "+" + 2 is "-"
    src[:, 6] = quads[ak] & 0xFFFFFF00 | ord("e")
    zeros = trailing_zeros[groups[-1]]
    rest = np.flatnonzero(groups[-1] == 0)
    for group in groups[-2::-1]:  # behind a group of 0, count the zeros of the one before
        if not len(rest):
            break
        zeros[rest] += trailing_zeros[group[rest]]
        rest = rest[group[rest] == 0]
    kind = np.where((k >= -4) & (k < 17), k + 4, np.where(ak >= 100, 22, 21))
    key = (np.signbit(x) * 23 + kind) * 17 + 16 - zeros
    layout = _rows(_LAYOUTS, _LAYOUTS_MADE, key, _layout)
    layout += np.arange(0, src.size * 4, _SRC_WIDTH)[:, None]
    text = src.view(np.uint8).ravel().take(layout)
    for i, v in zip(np.flatnonzero(near).tolist(), x[near].tolist()):
        text[i] = np.frombuffer(format(v, ".17g").encode().ljust(_TEXT_WIDTH, b"\0"), dtype=np.uint8)
    return text


def _scaled(ax: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rint(y) for y = ax 10^(16 - k), as int64, and |y - rint(y)| up to 2^-47."""
    hi_hi, hi_lo, lo, two = _rows(_SCALES, _SCALES_MADE, 16 - k - _S_MIN, _scale).T
    a = ax * two
    p = a * (hi_hi + hi_lo)
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    e = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo  # p + e = a hi
    e += a * lo
    r = np.rint(e)
    return p.astype(np.int64) + r.astype(np.int64), np.abs(e - r)


def _scale(row: int) -> list[float]:
    s = row + _S_MIN
    exact = Fraction(5**s) if s >= 0 else Fraction(1, 5**-s)
    hi = float(exact)
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    return [hi_hi, hi - hi_hi, float(exact - Fraction(hi)), 2.0**s]


def _layout(key: int) -> list[int]:
    """The layout of key (sign * 23 + kind) * 17 + digits kept - 1.

    Kind k + 4 (-4 <= k < 17) is fixed notation; kinds 21 and 22 are
    exponent notation with 2 and 3 exponent digits. The digits kept end
    at the last nonzero one, or at the point in fixed notation; the point
    is dropped when no digit follows it, as %g does.
    """
    sign, kind, kept = key // (23 * 17), key // 17 % 23, key % 17 + 1
    digits = list(range(3, 20))
    text = [_MINUS] if sign else []
    if kind >= 21:
        text += digits[:1] + ([_DOT] + digits[1:kept] if kept > 1 else [])
        text += [_E, _EXP_SIGN] + [_EXP, _EXP + 1, _EXP + 2][22 - kind :]
    elif kind >= 4:
        point = kind - 4 + 1  # digits before the point
        text += digits[:point] + ([_DOT] + digits[point:kept] if kept > point else [])
    else:
        text += [_ZERO, _DOT] + [_ZERO] * (3 - kind) + digits[:kept]
    return text + [0] * (_TEXT_WIDTH - len(text))  # source byte 0 is NUL


def _rows(table: np.ndarray, made: np.ndarray, keys: np.ndarray, make) -> np.ndarray:
    """table[keys], each missing row made by make(key) on first use."""
    if not made.take(keys).all():
        for key in set(keys[~made[keys]].tolist()):
            table[key] = make(key)
            made[key] = True
    return table.take(keys, axis=0)


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tables for 0..9999: 4 ASCII digits, the digits without leading zeros, and trailing zeros.

    The digits are little-endian uint32 words; those without leading zeros
    are NUL-padded on the left, with 0 written "0". 0 has 4 trailing zeros.
    """
    n = np.arange(10000, dtype=np.int16)
    digits = np.empty((10000, 4), dtype=np.uint8)
    for k, unit in enumerate((1000, 100, 10, 1)):
        digits[:, k] = n // unit % 10
    zeros = np.where(n == 0, 4, np.argmax(digits[:, ::-1] != 0, axis=1))
    text = digits + np.uint8(ord("0"))
    shown = np.logical_or.accumulate(digits != 0, axis=1)
    shown[:, -1] = True
    lead = np.where(shown, text, 0).astype(np.uint8)
    return text.view("<u4").ravel(), lead.view("<u4").ravel(), zeros


def _complex_from_doc(doc) -> complex:
    z = complex(float(doc["re"]), float(doc["im"]))
    if not cmath.isfinite(z):
        raise InputError(f"non-finite number re={doc['re']!r}, im={doc['im']!r}")
    return z


# -- patterns ---------------------------------------------------------------

def pattern_to_json(p: Pattern) -> dict:
    return {"n": p.n, "edges": _IntLists.of_rows(p.edge_array)}


def pattern_from_json(doc) -> Pattern:
    (n,) = _integers([doc["n"]])
    return validate_pattern(n, doc["edges"])


def clique_tree_to_json(t: CliqueTree) -> dict:
    return {
        "cliques": _IntLists(t.members, t.clique_ptr),
        "tree_edges": _IntLists.of_rows(t.edge_array),
        "separators": _IntLists(t.separator_members, t.separator_ptr),
    }


def cliques_to_json(p: Pattern) -> dict:
    """The maximal cliques of p, straight from the clique tree's arrays when p is chordal."""
    if is_chordal(p):
        t = clique_tree(p)
        return {"cliques": _IntLists(t.members, t.clique_ptr)}
    return {"cliques": maximal_cliques(p)}


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

    Step (separator, old, new), old and new int arrays, fills old x new
    row by row, so its k-th pair is (old[k // len(new)], new[k % len(new)]).
    """
    seps, olds, news = zip(*fills) if fills else ((), (), ())
    n_old = np.array(list(map(len, olds)), dtype=int)
    n_new = np.array(list(map(len, news)), dtype=int)
    sizes = n_old * n_new
    step = np.repeat(np.arange(len(sizes)), sizes)
    k = np.arange(len(step)) - (np.cumsum(sizes) - sizes)[step]
    width = n_new[step]
    old = np.concatenate(olds) if fills else np.empty(0, dtype=int)
    new = np.concatenate(news) if fills else np.empty(0, dtype=int)
    pairs = np.column_stack(
        (
            old[(np.cumsum(n_old) - n_old)[step] + k // width],
            new[(np.cumsum(n_new) - n_new)[step] + k % width],
        )
    )
    return _Table(("separator", "pair"), (_Coded(list(seps), step), pairs))


def factors_to_json(factors) -> dict:
    """Rank-one factors as {vector, support} objects, each vector a table of re and im."""
    return {
        "factors": [
            {
                "vector": _Table(("re", "im"), (f.vector.real, f.vector.imag)),
                "support": list(f.support),
            }
            for f in factors
        ]
    }


# -- partial matrices ---------------------------------------------------------

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

def group_from_json(doc) -> FiniteGroup:
    return validate_group(doc["table"], doc["identity"])


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
