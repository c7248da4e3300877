"""JSON schemas for every value the CLI reads or writes.

Reading goes through json, except for the one int-rows field of a
document, which its kind locates: a group's "table", a pattern's
"edges", a partial matrix's "pattern"/"edges". `load_json` reads a file
once and takes that field as one int64 array with np.fromstring when
its text is strictly a list of equal-length lists of canonical ints, as
one byte comparison and numpy on its bytes check, and leaves any other
text to json (see `_read_rows`). A document nested deeper than json can
follow is an InputError. The blocks of a partial matrix are then read
in bulk: one comprehension each gathers i, j, re and im, and array
checks put them in the pattern's pair order as one stack. Any block
list that a check refuses is read again one item at a time, which
raises the error of its first bad item (see `partial_from_json`).

Emission goes through a small dumper that writes floats as %.17g and
-0.0 as "-0.0" (%.17g writes "-0", which JSON readers take for the
integer 0), so that every finite float, -0.0 included, round-trips
bit-faithfully. A value takes one of four paths, and all four give the
same bytes:

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
  take `_format_17g`: the numpy kernel below writes a chunk's column,
  zeros included, when it holds `_KERNEL_MIN_ROWS` nonzero values or
  more; otherwise zeros are written as 0 or -0.0 and the other values by
  one padded % call, since the kernel's cost per call outweighs what it
  saves on few values. Dropping the NUL bytes turns the buffer into the
  chunk's text; no Python string is made per value.
- Everything else is walked value by value.

The emitter appends the text to a list of pieces, one per chunk of a
buffered list and one per short text between them. A chunk's buffer is
a numpy view over a bytearray, so the NULs are dropped from the
bytearray itself, with no copy first. `document_to_json` returns the
pieces: the CLI builds them all, then writes them to stdout one after
another and never joins them. `dumps` joins them for library callers.

The kernel writes exactly what format(x, ".17g") writes, but "-0.0" for
-0.0. That text is fixed by three things: D = round(|x| 10^s) with
s = 16 - k, the 17-digit integer in [10^16, 10^17) with ties to even;
the exponent k; and C's %g layout. The layout is fixed notation for
-4 <= k < 17 and d.ddde+XX otherwise, with trailing zeros dropped after
the point, and the point too when nothing follows it. The kernel
reproduces all three:

- k starts as floor(log10 |x|) and moves by one where D falls outside
  [10^16, 10^17).
- a = |x| 2^s is exact. 5^s is held as hi + lo, each correctly rounded
  from the exact rational. Dekker's two-product (no FMA needed) writes
  a hi as p + e exactly, so y = |x| 10^s is p + (e + a lo) to within
  2^-47. That bound holds for y < 2^57, with |e + a lo| < 24. p is an
  even integer >= 2^53, so D = p + rint(e + a lo).
- The text is three little-endian uint64 words, 24 bytes with NUL
  wherever a character is absent. D's first digit and its 16 fraction
  digits, these as two words of four 4-digit groups from the digit
  tables, are shifted and or-ed into place with words from a table per
  sign and k. Exponent notation and k = 0 are sign, first digit, point,
  the 16 digits and "e", the exponent's sign and digits; -4 <= k < 0 is
  sign, "0.", -k - 1 zeros, the first digit and the 16 digits.
- The fraction's trailing zeros are NUL: a second 4-digit table, whose
  trailing zeros are NUL, gives the last group and every group behind
  groups of zeros only. The point is dropped when all 16 are zero.
- For 1 <= k <= 16 the words of k = 0 are shifted down by one byte
  over the k digits that go before the point, which are made digits
  again where they were trimmed, and the point goes behind them when a
  digit follows. A zero is written with the digits of 0 and k = 0, and
  the text of -0.0 is then made "-0.0".
- format(x, ".17g") is used instead, by one padded % call, where the
  fraction of e + a lo lies within 2^-30 of 1/2, or D lies within 1 of
  10^16 or 10^17. Only there could the 2^-47 error change the rounding
  or the exponent. Exact ties are always among these values; in random
  data almost no value is.
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
from .completion import PartialHermitianMatrix, _check_dense_dim, _step_pairs
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
    ("pattern", "edges") for a partial matrix. The file is read once, so
    a pipe reads as a file does. Any other text, and a document read
    without a field, goes through json with the newlines of text mode,
    so it gives the same document, or raises the same error, as json on
    the open file does. A document nested deeper than json can follow
    raises InputError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    doc = _read_rows(data, field) if field else None
    if doc is None:
        doc = _loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    return doc


def _loads(text):
    """json.loads of text; InputError where json runs out of recursion depth."""
    try:
        return json.loads(text)
    except RecursionError:
        raise InputError("document nested too deeply: maximum recursion depth exceeded") from None


_WS = b" \t\n\r"  # JSON's whitespace
_TO_SPACE = bytes.maketrans(b"\t\n\r[]", b"     ")
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
    which gives the same answer or raises the same error. Without a
    backslash in data every string reads as it is written, so the one
    occurrence of the field's key in data is the field when json.loads
    finds that key at the end of the path in the rest.

    np.fromstring reads a blank item, "-", "+", VT and FF as 0, stops
    at a trailing comma, saturates past int64 and skips whitespace after
    a minus sign, so the text is checked around it. Without whitespace
    it starts with [[, and without digits and minus signs too it is,
    byte for byte, the skeleton of rows x width lists, width read off
    the first row: "+", VT and FF are not JSON whitespace, so they are
    left in and refused. No item is blank, and no minus sign comes
    before whitespace. np.fromstring reads the text with its brackets
    made spaces, so that no two numbers join, and must give one value
    per item; the minus signs must be those of the negative values.
    Then each item holds one value and is never shorter than the value
    written canonically, so the text's length is that of the skeleton
    and the canonical values exactly when every item is canonical and
    nothing else is there.
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
    compact = data[start:end].translate(None, _WS)
    if compact[:2] != b"[[" or key in data[stop:]:
        return None
    skeleton = compact.translate(None, b"-0123456789")
    width = skeleton.find(b"]") - 1  # the first row is [, width - 1 commas and ]
    row = b"[" + b"," * (width - 1) + b"]"
    n_rows = (len(skeleton) - 1) // (width + 2)
    if skeleton != b"[" + (row + b",") * (n_rows - 1) + row + b"]" or _blank_item(compact):
        return None
    minus = compact.count(b"-") if b"-" in compact else 0  # `in` finds a byte faster than count
    flat = data[start:end].translate(_TO_SPACE)
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
    expected = len(skeleton) + values.size + minus  # the skeleton, a digit per value and the signs
    power = 10
    while power <= max(-low, high):  # a digit more for each power of ten a value reaches
        expected += np.count_nonzero(magnitude >= power)
        power *= 10
    if expected != len(compact):
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


def _blank_item(compact: bytes) -> bool:
    """Whether an int-rows text without whitespace has a blank item: "[,", ",,", ",]" or "[]"."""
    chars = np.frombuffer(compact, dtype=np.uint8)
    comma = chars == ord(",")
    return bool((((chars[:-1] == ord("[")) | comma[:-1]) & (comma[1:] | (chars[1:] == ord("]")))).any())


def dumps(doc, pretty: bool = False) -> str:
    """Serialize with floats at 17 significant digits: the pieces of `document_to_json`, joined."""
    return "".join(document_to_json(doc, pretty))


def document_to_json(doc, pretty: bool = False) -> list[str]:
    """The text of `dumps` as the pieces the emitter builds, for a writer to take in turn.

    A large list gives one piece per chunk of `_CHUNK_ROWS` rows, so the
    whole text is never held as one string.
    """
    out: list[str] = []
    _emit(doc, out, 0 if pretty else None)
    return out


def _emit(value, out: list[str], indent: int | None) -> None:
    if value is None or isinstance(value, (bool, str)):
        out.append(json.dumps(value))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x) or math.isinf(x):
            raise ValueError("non-finite numbers are not serializable")
        out.append("-0.0" if x == 0 and math.copysign(1, x) < 0 else format(x, ".17g"))
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
    raw, buf = _chunk_buffer(min(rows, _CHUNK_ROWS), len(row))
    out.append("[" + _pad(indent, 1))
    for start in range(0, rows, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, rows)
        chunk = buf[: stop - start]
        chunk[:] = row
        for at, width, fill in slots:
            fill(chunk[:, at : at + width], start, stop)
        if stop == rows:
            chunk[-1, -len(sep) :] = 0  # the last row takes no separator
        out.append(_chunk_text(raw, chunk))
    out.append(_pad(indent, 0) + "]")


def _chunk_buffer(rows: int, width: int) -> tuple[bytearray, np.ndarray]:
    """A bytearray of rows x width bytes and a (rows, width) uint8 view of it."""
    raw = bytearray(rows * width)
    return raw, np.frombuffer(raw, dtype=np.uint8).reshape(rows, width)


def _chunk_text(raw: bytearray, chunk: np.ndarray) -> str:
    """The text of the leading rows of raw that chunk views: its bytes without the NULs.

    The bytearray is translated in place of a copy; only a short last
    chunk is sliced first.
    """
    if chunk.size < len(raw):
        raw = raw[: chunk.size]
    return raw.translate(None, b"\0").decode("ascii")


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
    raw, buf = _chunk_buffer(min(len(kind), _CHUNK_ROWS), texts.shape[1])
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
        out.append(_chunk_text(raw, chunk))
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
_TEXT_WIDTH = 24  # the longest text: -1.2345678901234567e-308
_MINUS_ZERO = int.from_bytes(b"-0.0", "little")


def _format_17g(x: np.ndarray, text: np.ndarray) -> None:
    """Write format(v, ".17g") of each v of a finite float array, -0.0 as "-0.0", into its row of text.

    text is a (len(x), _TEXT_WIDTH) uint8 array of NULs, and each text
    stays NUL-padded. The kernel writes the chunk when it holds
    _KERNEL_MIN_ROWS nonzero values or more. Otherwise zeros are written
    as 0 and -0.0, and the other values go through one "%-24.17g" % call,
    whose space padding becomes NUL: on few values the kernel's cost per
    call outweighs what it saves.
    """
    nonzero = np.flatnonzero(x)
    if len(nonzero) >= _KERNEL_MIN_ROWS:
        text[:] = _format_nonzero(x)
        return
    if len(nonzero) < len(x):  # the rows of nonzero values are overwritten below
        text.view("<u4")[:, 0] = np.where(np.signbit(x), _MINUS_ZERO, ord("0"))
    rows = slice(None) if len(nonzero) == len(x) else nonzero  # a slice copies, an index gathers
    if len(nonzero):
        values = x[rows].tolist()
        padded = (f"%-{_TEXT_WIDTH}.17g" * len(values) % tuple(values)).encode().replace(b" ", b"\0")
        text[rows] = np.frombuffer(padded, dtype=np.uint8).reshape(-1, _TEXT_WIDTH)


def _format_nonzero(x: np.ndarray) -> np.ndarray:
    """The kernel: format(v, ".17g") of each v of a finite float array, as NUL-padded byte rows.

    Zeros are written too, -0.0 as "-0.0". Each row is written as three
    little-endian uint64 words (see the module docstring).
    """
    padded, _, _ = _digit_tables()
    trimmed, layouts, shifts = _kernel_tables()
    ax = np.abs(x)
    zeros = np.flatnonzero(ax == 0)
    ax[zeros] = 1.0  # written as 0 below, by its digits
    k = np.floor(np.log10(ax)).astype(np.int64)
    d, tie = _scaled(ax, k)
    off = np.flatnonzero((d < 10**16 - 1) | (d > 10**17 + 1))  # log10 missed by one
    if len(off):
        k[off] += np.where(d[off] > 10**17, 1, -1)
        d[off], tie[off] = _scaled(ax[off], k[off])
    near = (d <= 10**16 + 1) | (d >= 10**17 - 1) | (tie > 0.5 - _TIE_MARGIN)
    near[zeros] = False
    d[zeros] = 0

    first, rest = _split(d, 10**16)
    high, low = _split(rest, 10**8)
    groups = (*_split(high, 10**4), *_split(low, 10**4))  # the fraction's 16 digits, 4 to a group
    fraction = np.empty((len(x), 4), dtype="<u4")
    columns = fraction.T
    for group, column in zip(groups[:3], columns):
        padded.take(group, out=column)
    trimmed.take(groups[3], out=columns[3])
    behind = np.flatnonzero(groups[3] == 0)  # trailing zeros reach into the group before
    for group, column in zip(groups[2::-1], columns[2::-1]):
        if not len(behind):
            break
        group = group[behind]
        column[behind] = trimmed.take(group)
        behind = behind[group == 0]
    lo, hi = fraction.view("<u8").T  # fraction digits 1-8 and 9-16, the first in the low byte

    layout = layouts.take(16 - k - _S_MIN + len(_SCALES) * np.signbit(x), axis=0)
    head, lead, shift, back, tail = layout.T
    words = np.empty((len(x), 3), dtype="<u8")
    w0, w1, w2 = words.T
    np.left_shift(lo, shift, out=w0)
    w0 |= head
    w0 |= first.view(np.uint64) << lead
    w0 |= (rest != 0) * np.uint64(ord(".") << 16)
    np.right_shift(lo, back, out=w1)
    w1 |= hi << shift
    np.right_shift(hi, back, out=w2)
    w2 |= tail

    fixed = np.flatnonzero((k > 0) & (k < 17))
    rows = words.view(_ROW).ravel()  # a row per text, to gather and scatter whole texts
    if len(fixed):  # written as for k = 0; move the point right by k digits
        keep, moved, dots = shifts
        row = k[fixed] - 1
        w = rows.take(fixed).view("<u8")  # the texts' words end to end
        kept = w & keep.take(row, axis=0).ravel()  # sign, first digit, the digits behind the new point
        down = w >> np.uint64(8)
        down[:-1] |= w[1:] << np.uint64(56)  # the next word's lowest byte; moved ends before byte 23
        point = (kept[::3] >> np.uint64(16) | kept[1::3] | kept[2::3]) != 0  # a digit follows it
        down |= np.uint64(_ZEROS)  # digits before the point are never trimmed
        down &= moved.take(row, axis=0).ravel()
        kept |= down
        kept |= dots.take(row + 16 * point, axis=0).ravel()
        rows[fixed] = kept.view(_ROW)

    words.view("<u4")[zeros[np.signbit(x[zeros])], 0] = _MINUS_ZERO  # written "-0" above
    near = np.flatnonzero(near)
    if len(near):  # one padded % call, its spaces made NUL
        values = x[near].tolist()
        padded = (f"%-{_TEXT_WIDTH}.17g" * len(values) % tuple(values)).encode().replace(b" ", b"\0")
        rows[near] = np.frombuffer(padded, dtype=_ROW)
    return words.view(np.uint8)


def _split(n: np.ndarray, unit: int) -> tuple[np.ndarray, np.ndarray]:
    """n // unit and n % unit, by // and a product: np.divmod and % are slower on int64."""
    high = n // unit
    return high, n - high * unit


_ZEROS = int.from_bytes(b"0" * 8, "little")
_ROW = np.dtype((np.void, _TEXT_WIDTH))


def _scaled(ax: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rint(y) for y = ax 10^(16 - k), as int64, and |y - rint(y)| up to 2^-47."""
    rows = 16 - k - _S_MIN
    if not _SCALES_MADE.take(rows).all():  # each row is made on first use
        for row in set(rows[~_SCALES_MADE[rows]].tolist()):
            _SCALES[row] = _scale(row)
            _SCALES_MADE[row] = True
    hi_hi, hi_lo, lo, two = _SCALES.take(rows, axis=0).T
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


@functools.cache
def _kernel_tables() -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The kernel's tables, made on first use: trimmed digits, layouts and point shifts.

    trimmed holds the 4-digit words of `_digit_tables` with trailing
    zeros NUL; 0 is all NUL. layouts has a row per sign and k, at
    16 - k - _S_MIN + 650 sign, of uint64 columns head, lead, shift,
    back and tail: a text's first word is head | first digit << lead |
    lo << shift, its second lo >> back | hi << shift, and its third
    hi >> back | tail, where lo and hi hold fraction digits 1-8 and 9-16.
    The point shifts have a row per k in 1..16: keep masks the bytes
    that stay, moved those that take the digit of the next byte, and
    dots holds the point (a row per k, then per k with a point).
    """
    text, _, zeros = _digit_tables()
    digits = text.view(np.uint8).reshape(-1, 4)
    trimmed = np.where(np.arange(4) < 4 - zeros[:, None], digits, 0).astype(np.uint8)

    k = 16 - _S_MIN - np.arange(len(_SCALES))
    ak = np.abs(k)
    below = (k >= -4) & (k < 0)  # "0.", zeros, then the digits
    exponent = (k < -4) | (k > 16)
    head = np.zeros((2, len(k), 8), dtype=np.uint8)
    head[:, :, 1] = ord("0")
    head[:, below, 2] = ord(".")
    head[:, below, 7] = ord("0")
    head[:, below, 3:6] = np.where(np.arange(3) < -k[below, None] - 1, ord("0"), 0)
    head[1, :, 0] = ord("-")
    tail = np.zeros((len(k), 8), dtype=np.uint8)
    tail[exponent, 3] = ord("e")
    tail[exponent, 4] = np.where(k[exponent] < 0, ord("-"), ord("+"))
    for at, unit in ((5, 100), (6, 10), (7, 1)):
        tail[exponent, at] = ak[exponent] // unit % 10 + ord("0")
    tail[exponent & (ak < 100), 5] = 0
    layouts = np.empty((2, len(k), 5), dtype=np.uint64)
    layouts[..., 0] = head.view("<u8")[..., 0]
    layouts[..., 1] = np.where(below, 56, 8)
    layouts[..., 2] = np.where(below, 64, 24)
    layouts[..., 3] = np.where(below, 0, 40)
    layouts[..., 4] = tail.view("<u8")[:, 0]

    byte = np.arange(_TEXT_WIDTH)
    shift = np.arange(1, 17)[:, None]
    keep = np.where((byte < 2) | (byte >= 3 + shift), 0xFF, 0).astype(np.uint8)
    moved = np.where((byte >= 2) & (byte < 2 + shift), 0xFF, 0).astype(np.uint8)
    dots = np.zeros((2, 16, _TEXT_WIDTH), dtype=np.uint8)
    dots[1][byte == 2 + shift] = ord(".")
    shifts = tuple(a.view("<u8").reshape(-1, 3) for a in (keep, moved, dots))
    return trimmed.view("<u4").ravel(), layouts.reshape(-1, 5), shifts


def _is_number(x) -> bool:
    """Whether x is an int or a float, numpy's included; a bool or a string is not."""
    return type(x) in (float, int) or isinstance(x, (np.floating, np.integer))


# -- patterns ---------------------------------------------------------------

def pattern_to_json(p: Pattern) -> dict:
    return {"n": p.n, "edges": _IntLists.of_rows(p.edge_array)}


def pattern_from_json(doc, where: str = "a pattern") -> Pattern:
    """The pattern of a document {"n": ..., "edges": [[i, j], ...]}; InputError naming where and the field at fault.

    The edges may already be the int64 array that `_read_rows` made of them.
    """
    (n,) = _integers([_field(doc, "n", where)])
    edges = _field(doc, "edges", where)
    if type(edges) is not list and not isinstance(edges, np.ndarray):
        raise InputError(f'the "edges" of {where} must be a list of vertex pairs, got {type(edges).__name__}')
    return validate_pattern(n, edges)


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
    (n,) = _integers([_field(doc, "n", "a matrix")])
    if n < 0:
        raise InputError(f"matrix dimension must be nonnegative, got {n}")
    _check_dense_dim(n)
    entries = _field(doc, "entries", "a matrix")
    if type(entries) is not list:
        raise InputError(f"entries must be a list of entry objects, got {type(entries).__name__}")
    out = np.zeros((n, n), dtype=complex)
    seen = set()
    for at, entry in enumerate(entries):
        where = f"entry {at}"
        i, j = _integers((_field(entry, "i", where), _field(entry, "j", where)))
        if not (0 <= i <= j < n):
            raise InputError(f"entry ({i},{j}) must satisfy 0 <= i <= j < {n}")
        if (i, j) in seen:
            raise InputError(f"duplicate entry ({i},{j})")
        seen.add((i, j))
        z = _entry(entry, where)
        if i == j and z.imag != 0.0:
            raise InputError(f"diagonal entry ({i},{i}) must be real")
        out[i, j] = z
        out[j, i] = z.conjugate()
    return out


def fill_log_to_json(result) -> _Table:
    """A completion's fills as {separator, pair} objects, one per filled pair.

    Step k of the CompletionResult fills old x new row by row: each
    vertex of its old set, repeated len(new) times, against its new set.
    """
    n_old, n_new = np.diff(result.old_ptr), np.diff(result.new_ptr)
    step = np.repeat(np.arange(len(n_old)), n_old * n_new)
    pairs = np.column_stack(_step_pairs(result.old, result.old_ptr, result.new, result.new_ptr))
    return _Table(("separator", "pair"), (_Coded(list(result.separators), step), pairs))


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
    """The partial matrix of a document, its blocks read in bulk when they pass every check.

    Otherwise `_blocks_by_item` reads them one at a time and raises the
    error of the first bad item, and the mapping constructor checks
    them against the pattern.
    """
    p = pattern_from_json(doc["pattern"], "the pattern of a partial matrix")
    (n, d) = _integers((doc["n"], doc["d"]))
    if n != p.n:
        raise InputError(f"n = {doc['n']} disagrees with the pattern's {p.n}")
    values = _block_stack(doc["blocks"], p, d)
    if values is None:
        return PartialHermitianMatrix(p, d, _blocks_by_item(doc["blocks"]))
    return PartialHermitianMatrix.from_stack(p, d, values)


def _block_stack(items, p: Pattern, d: int) -> np.ndarray | None:
    """The block items as a (pairs, d, d) complex stack in the order of p.pairs, or None.

    i, j, re and im are gathered by one comprehension each. None unless
    every block is a list of d lists of d entries, i and j are ints with
    i <= j, re and im are finite ints or floats, and the items hold each
    pair of p once, in any order. The stack constructor checks the
    diagonal blocks.
    """
    if type(items) is not list or d < 1:
        return None
    try:
        i = [item["i"] for item in items]
        j = [item["j"] for item in items]
        blocks = [item["block"] for item in items]
        block_rows = list(chain.from_iterable(blocks))
        entries = list(chain.from_iterable(block_rows))
        real = [z["re"] for z in entries]
        imag = [z["im"] for z in entries]
    except (KeyError, TypeError):  # a field missing or of the wrong type
        return None
    shapes = set(map(len, blocks)) | set(map(len, block_rows))
    containers = set(map(type, blocks)) | set(map(type, block_rows))
    ints = set(map(type, i)) | set(map(type, j))
    numbers = set(map(type, real)) | set(map(type, imag))
    if shapes - {d} or containers - {list} or ints - {int} or numbers - {int, float}:
        return None
    rows, cols = p.pairs
    try:
        i, j = np.array(i, dtype=np.int64), np.array(j, dtype=np.int64)
        values = np.empty(len(entries), dtype=complex)
        values.real, values.imag = real, imag
    except OverflowError:  # an int beyond int64 or beyond the double range
        return None
    if len(i) != len(rows) or not np.isfinite(values).all():
        return None
    if len(i) and not (i.min() >= 0 and j.max() < p.n and (i <= j).all()):
        return None
    keys = i * p.n + j  # 0 <= i <= j < n: no overflow, see pattern.MAX_VERTICES
    order = np.argsort(keys, kind="stable")
    if not np.array_equal(keys[order], rows * p.n + cols):
        return None
    return values.reshape(-1, d, d)[order]


def _blocks_by_item(items) -> dict:
    """The block items as a dict {(i, j): block}, read one at a time.

    The fields are read in the order i, j, block, then the entries row
    by row, and the first that is wrong raises InputError: a missing
    field, a container that is not a list or an object, or a number as
    `_entry` reads it. Shapes and coverage are left to the
    mapping constructor.
    """
    if type(items) is not list:
        raise InputError(f"blocks must be a list of block items, got {type(items).__name__}")
    blocks = {}
    for at, item in enumerate(items):
        where = f"block item {at}"
        i, j = _integers((_field(item, "i", where), _field(item, "j", where)))
        if i > j:
            raise InputError(f"blocks list (i,j) with i <= j only, got ({i},{j})")
        if (i, j) in blocks:
            raise InputError(f"duplicate block ({i},{j})")
        block = _field(item, "block", where)
        if type(block) is not list:
            raise InputError(f"{where}: block must be a list of rows, got {type(block).__name__}")
        rows = []
        for row in block:
            if type(row) is not list:
                raise InputError(f"{where}: a row of block must be a list, got {type(row).__name__}")
            rows.append([_entry(z, f"{where}: an entry") for z in row])
        blocks[(i, j)] = rows
    return blocks


def _field(obj, name: str, where: str):
    """obj[name]; InputError naming the object where when it is not a JSON object or lacks name."""
    if type(obj) is not dict:
        raise InputError(f"{where} must be an object, got {type(obj).__name__}")
    if name not in obj:
        raise InputError(f'{where} has no "{name}"')
    return obj[name]


def _entry(z, where: str) -> complex:
    """The complex number of an entry {"re": ..., "im": ...}; InputError naming it when it is not one."""
    real, imag = _field(z, "re", where), _field(z, "im", where)
    if not (_is_number(real) and _is_number(imag)):
        raise InputError(f"re and im must be numbers, got re={real!r}, im={imag!r}")
    try:
        z = complex(float(real), float(imag))
    except OverflowError:  # an integer beyond the double range
        z = complex(math.inf)
    if not cmath.isfinite(z):
        raise InputError(f"non-finite number re={real!r}, im={imag!r}")
    return z


# -- groups -------------------------------------------------------------------

def group_from_json(doc) -> FiniteGroup:
    return validate_group(doc["table"], doc["identity"])


def subset_from_json(doc, g: FiniteGroup) -> SymmetricSubset:
    members = _field(doc, "members", "a subset")
    if type(members) is not list:
        raise InputError(f"members must be a list of group elements, got {type(members).__name__}")
    return validate_subset(g, members)


def function_to_json(f: GroupFunction) -> dict:
    keys = sorted(f.values)
    z = np.array([f.values[k] for k in keys], dtype=complex)
    return {"values": _Table(("g", "re", "im"), (np.array(keys, dtype=int), z.real, z.imag))}


def function_from_json(doc, g: FiniteGroup) -> GroupFunction:
    values = _field(doc, "values", "a function")
    if type(values) is not list:
        raise InputError(f"values must be a list of value objects, got {type(values).__name__}")
    vals = {}
    for at, item in enumerate(values):
        (k,) = _integers([_field(item, "g", f"value {at}")])
        if k in vals:
            raise InputError(f"duplicate value for element {k}")
        vals[k] = _entry(item, f"value {at}")
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
    """The circle set of {"intervals": [[a, b], ...], "points": [...]}; any other shape is an InputError."""
    if type(doc) is not dict or type(doc.get("intervals")) is not list or type(doc.get("points")) is not list:
        raise InputError('a circle set is {"intervals": [[a, b], ...], "points": [...]}')
    for interval in doc["intervals"]:
        if type(interval) is not list or len(interval) != 2:
            raise InputError(f"an interval is a list of two endpoints, got {interval!r}")
    return normalize(doc["intervals"], doc["points"])
