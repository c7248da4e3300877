import itertools
import json
import math
import random
import re
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    NON_CANONICAL_ITEMS,
    ROWS_FIELDS,
    bits,
    int_lists,
    malformed_documents,
    packed,
    partial_document,
    random_chordal_pattern,
    random_psd,
    ref_dumps,
    ref_float_text,
    rows_document,
)
from posext import (
    CompletionResult,
    PartialHermitianMatrix,
    RankOneFactor,
    cexi_truncation,
    cyclic_group,
    dihedral_group,
    group_function,
    normalize,
    restrict_to_pattern,
    validate_pattern,
    validate_subset,
)
from posext import serialize as ser
from posext.errors import InputError

FIXTURES = Path(__file__).parent / "fixtures"


def test_dumps_is_bit_faithful_for_floats():
    values = [0.81, 0.1 + 0.2, 1.0, -0.0, 2.2, 1e-300, 123456.789]
    doc = {"xs": values}
    back = json.loads(ser.dumps(doc))
    assert bits([float(x) for x in back["xs"]]) == bits(values)


def test_dumps_pretty_parses_to_same_document():
    doc = {"a": [1, 2.5], "b": {"c": True, "d": None}, "e": "text"}
    assert json.loads(ser.dumps(doc)) == json.loads(ser.dumps(doc, pretty=True))


_INTS = st.integers(-(10**20), 10**20)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0)
_INT64 = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([-(2**63), 2**63 - 1])


@st.composite
def tables(draw):
    """A _Table with one column of each drawn kind, all of one length.

    Ints span int64; a float column is drawn value by value, or is all 0.0 or all -0.0.
    """
    rows = draw(st.integers(0, 4))
    columns = []
    for kind in draw(st.lists(st.sampled_from("ifpt"), min_size=1, max_size=3)):
        if kind == "i":
            ints = draw(st.lists(_INT64, min_size=rows, max_size=rows))
            columns.append(np.array(ints, dtype=np.int64))
        elif kind == "f":
            floats = _FLOATS | st.just(0.0) | st.just(-0.0)
            same = floats.map(lambda x: [x] * rows)  # all 0.0 and all -0.0 among them
            values = draw(st.lists(floats, min_size=rows, max_size=rows) | same)
            columns.append(np.array(values, dtype=float))
        elif kind == "p":
            pairs = draw(st.lists(st.tuples(_INT64, _INT64), min_size=rows, max_size=rows))
            columns.append(np.array(pairs, dtype=np.int64).reshape(rows, 2))
        else:
            tuples = st.lists(_INT64, max_size=3).map(tuple)
            values = draw(st.lists(tuples, min_size=1, max_size=3))
            codes = draw(st.lists(st.integers(0, len(values) - 1), min_size=rows, max_size=rows))
            columns.append(ser._Coded(values, np.array(codes, dtype=int)))
    return ser._Table(tuple(f"k{c}" for c in range(len(columns))), tuple(columns))


_INT_ROWS = st.lists(_INTS, max_size=4) | st.lists(_INTS, max_size=4).map(tuple)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    _INTS,
    _FLOATS,
    st.text(max_size=4),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _FLOATS.map(np.float64),
    st.lists(_INTS, max_size=6),
    st.lists(_INT_ROWS, max_size=4),
    st.lists(_INT_ROWS, max_size=4).map(tuple),
    tables(),
    st.lists(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=4), max_size=4).map(int_lists),
)
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), kids, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=400)
@given(_DOCUMENTS, st.booleans())
def test_dumps_matches_the_value_by_value_walk(doc, pretty):
    """Int lists take the % path; `_IntLists`, lists of int64 lists and tables byte buffers; the rest the generic walk."""
    assert ser.dumps(doc, pretty) == ref_dumps(doc, pretty)


_INT64_LISTS = st.lists(st.lists(_INT64, max_size=4), max_size=6) | st.lists(st.just([]), min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(_INT64_LISTS, st.booleans(), st.booleans())
def test_int_lists_emit_like_json(lists, many, pretty):
    """dumps of an `_IntLists` is json's compact text, and the value-by-value walk's under --pretty.

    With many, the lists repeat until there are more of them than
    `_CHUNK_ROWS`, so that their rows fill several byte buffers.
    """
    if many and lists:
        lists = lists * (ser._CHUNK_ROWS // len(lists) + 1)
    got = ser.dumps({"lists": int_lists(lists)}, pretty)
    want = ref_dumps({"lists": lists}, True) if pretty else json.dumps({"lists": lists}, separators=(",", ":"))
    same = got == want  # pytest's diff of two long texts would take minutes on each shrinking step
    assert same


def test_pattern_roundtrip_and_normalization():
    doc = {"n": 4, "edges": [[1, 0], [0, 1], [2, 3]]}
    p = ser.pattern_from_json(doc)
    assert json.loads(ser.dumps(ser.pattern_to_json(p))) == {"n": 4, "edges": [[0, 1], [2, 3]]}


def test_matrix_roundtrip():
    rng = np.random.default_rng(3)
    a = random_psd(rng, 5)
    back = ser.matrix_from_json(json.loads(ser.dumps(ser.matrix_to_json(a))))
    assert np.array_equal(back, a)


@st.composite
def hermitian_matrices(draw):
    n = draw(st.integers(0, 12))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    a = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            z = complex(draw(finite), draw(finite) if i < j else 0.0)
            a[i, j], a[j, i] = z, z.conjugate()
    return a


def explicit_matrix_doc(a) -> dict:
    """The matrix document as the generic emitter walks it: one dict per entry."""
    n = a.shape[0]
    entries = [
        {"i": i, "j": j, "re": float(a[i, j].real), "im": float(a[i, j].imag)}
        for i in range(n)
        for j in range(i, n)
    ]
    return {"n": n, "entries": entries}


@given(hermitian_matrices(), st.booleans())
def test_matrix_columns_emit_like_the_generic_walk(a, pretty):
    got = ser.dumps({"matrix": ser.matrix_to_json(a)}, pretty)
    assert got == ser.dumps({"matrix": explicit_matrix_doc(a)}, pretty)
    assert np.array_equal(ser.matrix_from_json(json.loads(got)["matrix"]), a)


def array_steps(fills) -> CompletionResult:
    """The steps with their old and new sets end to end in two int arrays, as positive_completion holds them."""
    seps, olds, news = zip(*fills) if fills else ((), (), ())
    return CompletionResult(np.zeros((0, 0), dtype=complex), seps, *packed(olds), *packed(news))


def explicit_fill_log(fills) -> list[dict]:
    """The fill log as the generic emitter walks it: one dict per filled pair."""
    return [
        {"separator": list(sep), "pair": [u, v]}
        for sep, old, new in fills
        for u in old
        for v in new
    ]


@pytest.mark.parametrize("pretty", [False, True])
@pytest.mark.parametrize(
    "log",
    [
        (),
        (((1,), (0,), (2,)),),
        (((), (0,), (3,)), ((1, 2), (0, 3), (4,)), ((1,), (2, 4), (5, 6)), ((1, 2), (3,), (4,))),
        # steps that fill nothing around one that does
        (((0,), (), (1, 2)), ((1,), (0,), (2,)), ((0,), (1,), ())),
    ],
)
def test_fill_log_columns_emit_like_the_generic_walk(log, pretty):
    assert ser.dumps({"fill_log": ser.fill_log_to_json(array_steps(log))}, pretty) == ser.dumps(
        {"fill_log": explicit_fill_log(log)}, pretty
    )


# row counts on both sides of the float kernel's cut-over and of the chunk size
_CUTS = [c + d for c in (ser._KERNEL_MIN_ROWS, ser._CHUNK_ROWS) for d in (-1, 1)]
_CHUNK = ser._CHUNK_ROWS
_HALF = _CHUNK // 2  # counts that fill about half of one chunk


@pytest.mark.parametrize("pretty", [False, True])
@pytest.mark.parametrize("last_sep", [(3, 4), ()])
@pytest.mark.parametrize("rows", [255, 256, 257, 600, _HALF - 1, _HALF + 1, *_CUTS, _CHUNK, 2 * _CHUNK])
def test_fill_logs_of_several_chunks_emit_like_the_generic_walk(rows, last_sep, pretty):
    fills = [((1, 2), (0,), tuple(range(3, rows - 4))), (last_sep, tuple(range(7)), (9,))]
    got = ser.dumps({"fill_log": ser.fill_log_to_json(array_steps(fills))}, pretty)
    assert got == ref_dumps({"fill_log": explicit_fill_log(fills)}, pretty)


@pytest.mark.parametrize("pretty", [False, True])
@pytest.mark.parametrize("n", [22, 23, 31, 32, 35, 63, 64, 90, 91])
def test_matrices_of_several_chunks_emit_like_the_generic_walk(n, pretty):
    """496 | 528 entries straddle the kernel's cut-over, 4095 | 4186 the chunk size."""
    a = random_psd(np.random.default_rng(n), n)  # n (n + 1) / 2 entries
    got = ser.dumps({"matrix": ser.matrix_to_json(a)}, pretty)
    assert got == ref_dumps({"matrix": explicit_matrix_doc(a)}, pretty)


@pytest.mark.parametrize("pretty", [False, True])
@pytest.mark.parametrize(
    "count", [_HALF - 1, _HALF, _HALF + 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK, 2 * _CHUNK + 1]
)
def test_int_lists_of_several_chunks_emit_like_json(count, pretty):
    rng = np.random.default_rng(count)
    lists = [rng.integers(-(2**40), 2**40, int(k)).tolist() for k in rng.integers(0, 5, count)]
    lists[-1] = list(range(3000))  # one list longer than a chunk's count of lists
    got = ser.dumps({"lists": int_lists(lists)}, pretty)
    assert got == json.dumps({"lists": lists}, **({"indent": 2} if pretty else {"separators": (",", ":")}))


@pytest.mark.parametrize("pretty", [False, True])
def test_mostly_zero_float_column_emits_alike_on_both_paths(monkeypatch, pretty):
    """The kernel is chosen by the nonzero count: a 1000-row column of 11 nonzeros skips it."""
    rng = np.random.default_rng(1000)
    column = np.zeros(1000)
    column[::97] = rng.standard_normal(11)
    column[5] = -0.0
    table = ser._Table(("x",), (column,))
    kernel = ser._format_nonzero
    rows = []
    monkeypatch.setattr(ser, "_format_nonzero", lambda x: rows.append(len(x)) or kernel(x))
    plain = ser.dumps({"t": table}, pretty)
    assert rows == []
    monkeypatch.setattr(ser, "_KERNEL_MIN_ROWS", 0)
    assert ser.dumps({"t": table}, pretty) == plain
    assert rows == [1000]  # the kernel writes the zeros of its chunk too
    assert plain == ref_dumps({"t": table}, pretty)


@pytest.mark.parametrize("pretty", [False, True])
def test_mostly_zero_vector_tables_emit_like_the_generic_walk(pretty):
    """decompose's shape: many small tables whose rows are almost all zero, and a few -0.0."""
    rng = np.random.default_rng(40)
    factors = []
    for k in range(40):
        vector = np.zeros(700, dtype=complex)
        support = np.sort(rng.choice(700, 3, replace=False))
        vector[support] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        vector.imag[support[0]] = -0.0 if k % 2 else 0.0
        factors.append(RankOneFactor(vector, tuple(support.tolist())))
    doc = ser.factors_to_json(factors)
    assert ser.dumps(doc, pretty) == ref_dumps(doc, pretty)


@pytest.mark.parametrize("pretty", [False, True])
def test_int_columns_at_the_int64_extremes_emit_like_the_generic_walk(pretty):
    """Digits come in groups of 4, so the values around 10^4k and the int64 ends are the edges."""
    values = [0, -1, 9, 9999, 10000, -10000, 10**8 - 1, 10**8, 10**12, 10**16, 10**18, 2**63 - 1, -(2**63)]
    ints = np.array(values, dtype=np.int64)
    table = ser._Table(("i", "pair", "small"), (ints, np.column_stack((ints[::-1], ints)), ints % 7))
    assert ser.dumps({"t": table}, pretty) == ref_dumps({"t": table}, pretty)


def _texts(rows: np.ndarray) -> list[str]:
    """The NUL-padded byte rows of the float kernel as strings, as the table emitter reads them."""
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in rows]


def _format_17g(x: np.ndarray) -> list[str]:
    text = np.zeros((len(x), ser._TEXT_WIDTH), dtype=np.uint8)
    ser._format_17g(x, text)
    return _texts(text)


@given(st.lists(_FLOATS, max_size=600))
def test_float_kernel_matches_format_17g(xs):
    """_format_17g as the emitter calls it, and the kernel alone on the nonzero values."""
    x = np.array(xs, dtype=float)
    assert _format_17g(x) == [ref_float_text(v) for v in xs]
    assert _texts(ser._format_nonzero(x[x != 0])) == [format(v, ".17g") for v in xs if v != 0]


def _kernel_corpus() -> np.ndarray:
    """Values at the edges of the kernel's arithmetic, both signs, and random bit patterns."""
    rng = np.random.default_rng(2718)
    tiny = 5e-324
    powers = np.array([float(f"1e{k}") for k in range(-310, 309)])
    ties = [np.arange(1, 2**13, 2) * 2.0**-25]  # j 2^-25, j odd: exact ties at k = -8
    for s in range(1, 26):  # m 2^-(s+1), m odd, in [10^(16-s), 10^(17-s)): x 10^s ends in .5
        m = int(10 ** (16 - s) * 2 ** (s + 1)) | 1
        ties.append(np.arange(m, m + 400, 2) * 2.0 ** -(s + 1))
    bits = rng.integers(-(2**63), 2**63, 10**5, dtype=np.int64).view(np.float64)
    values = np.concatenate(
        [
            [tiny, 2 * tiny, 3 * tiny, 2.2250738585072009e-308, 2.2250738585072014e-308],
            rng.integers(1, 2**52, 200).astype(np.int64).view(np.float64),  # subnormals
            [np.finfo(float).max, np.nextafter(np.finfo(float).max, 0)],
            powers,
            np.nextafter(powers, 0),
            np.nextafter(powers, np.inf),
            np.arange(1000.0),
            2.0 ** np.arange(54),
            2.0 ** np.arange(54) - 1,
            rng.integers(0, 2**53, 1000).astype(float),
            1e16 + 2.0 * np.arange(-60, 61),
            1e17 + 16.0 * np.arange(-60, 61),
            *ties,
            _trailing_zero_values(),
        ]
    )
    return np.concatenate([values, -values, bits[np.isfinite(bits)]])


def _digits_17(x: float) -> str:
    """The 17 significant digits of format(x, ".17g"), the point and exponent left out."""
    return format(x, ".16e").partition("e")[0].replace(".", "").lstrip("-")


def _trailing_zero_values() -> np.ndarray:
    """For each decimal exponent in [-330, 310] and each count 0-16, a value whose 17 digits end in that many zeros.

    The digits are 1, random digits ending in a nonzero one, then the
    zeros. A draw is kept when its double prints those digits; after 8
    misses the last draw is kept as it is, which happens where doubles
    are too sparse (subnormals) and below the smallest one (0). Above
    the largest double there is none.
    """
    rng = random.Random(330)
    values = []
    for exponent in range(-330, 311):
        for zeros in range(17):
            for _ in range(8):
                middle = [rng.choice("0123456789") for _ in range(15 - zeros)]
                digits = "1" + "".join(middle) + rng.choice("123456789") * (zeros < 16) + "0" * zeros
                x = float(f"{digits[0]}.{digits[1:]}e{exponent}")
                if x == 0 or math.isinf(x) or _digits_17(x) == digits:
                    break
            if not math.isinf(x):
                values.append(x)
    return np.array(values)


def test_kernel_corpus_reaches_every_trim_of_every_layout():
    """Each layout (exponent notation, k = 0, k in [-4, -1], k in [1, 16]) meets 0 to 16 trailing zeros."""
    kinds = {"exponent": set(), "k = 0": set(), "k < 0": set(), "k > 0": set()}
    for x in _kernel_corpus().tolist():
        if x == 0:
            continue
        k = int(format(x, ".16e").partition("e")[2])
        kind = "k = 0" if k == 0 else "k < 0" if -4 <= k < 0 else "k > 0" if 0 < k < 17 else "exponent"
        digits = _digits_17(x)
        kinds[kind].add(len(digits) - len(digits.rstrip("0")))
    assert kinds == dict.fromkeys(kinds, set(range(17)))


@pytest.mark.parametrize("seed", range(3))
def test_float_kernel_writes_zeros_between_nonzero_values(seed):
    """Kernel-sized columns with 0.0 and -0.0 scattered among nonzero values of every layout."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(ser._CHUNK_ROWS) * 10.0 ** rng.integers(-30, 30, ser._CHUNK_ROWS)
    zeros = rng.random(len(x)) < [0.01, 0.3, 0.8][seed]
    x[zeros] = np.where(rng.random(np.count_nonzero(zeros)) < 0.5, -0.0, 0.0)
    assert np.count_nonzero(x) >= ser._KERNEL_MIN_ROWS
    assert _format_17g(x) == [ref_float_text(v) for v in x.tolist()]
    assert _texts(ser._format_nonzero(x)) == [ref_float_text(v) for v in x.tolist()]


def test_float_kernel_matches_format_17g_on_a_fixed_corpus():
    xs = _kernel_corpus()
    chunks = (xs[a : a + ser._CHUNK_ROWS] for a in range(0, len(xs), ser._CHUNK_ROWS))
    assert [s for c in chunks for s in _format_17g(c)] == [ref_float_text(x) for x in xs.tolist()]
    assert _format_17g(np.array([-0.0, 0.0, -1.5])) == ["-0.0", "0", "-1.5"]


def _int64_digit_tables():
    """_digit_tables as it was built from int64 digits: the reference for the tables."""
    n = np.arange(10000)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    zeros = np.where(n == 0, 4, np.argmax(digits[:, ::-1] != 0, axis=1))
    text = (digits + ord("0")).astype(np.uint8)
    shown = np.logical_or.accumulate(digits != 0, axis=1)
    shown[:, -1] = True
    lead = np.where(shown, text, 0).astype(np.uint8)
    return text.view("<u4").ravel(), lead.view("<u4").ravel(), zeros


def test_digit_tables_match_the_int64_build():
    for got, want in zip(ser._digit_tables(), _int64_digit_tables(), strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("pretty", [False, True])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.5, np.nan)])
def test_non_finite_matrix_entry_is_not_serializable(value, pretty):
    a = np.eye(3, dtype=complex)
    a[0, 2] = value
    with pytest.raises(ValueError, match="non-finite"):
        ser.dumps(ser.matrix_to_json(a), pretty)


def test_empty_matrix_emits_no_entries():
    doc = ser.matrix_to_json(np.zeros((0, 0)))
    assert ser.dumps(doc) == '{"n":0,"entries":[]}'
    assert ser.dumps(doc, pretty=True) == '{\n  "n": 0,\n  "entries": []\n}'


def test_matrix_from_json_rejects_bad_entries():
    with pytest.raises(InputError):
        ser.matrix_from_json({"n": 2, "entries": [{"i": 1, "j": 0, "re": 1, "im": 0}]})
    with pytest.raises(InputError):
        ser.matrix_from_json(
            {
                "n": 2,
                "entries": [
                    {"i": 0, "j": 1, "re": 1, "im": 0},
                    {"i": 0, "j": 1, "re": 2, "im": 0},
                ],
            }
        )
    with pytest.raises(InputError):
        ser.matrix_from_json({"n": 1, "entries": [{"i": 0, "j": 0, "re": 1, "im": 2}]})


def test_partial_roundtrip_block_case():
    """A random d = 2 partial and every partial of the corpus come back bit for bit, signed zeros too."""
    rng = np.random.default_rng(9)
    p = random_chordal_pattern(rng, 5)
    corpus = sorted(FIXTURES.glob("partial_*.json"))
    partials = [restrict_to_pattern(random_psd(rng, 10), p, d=2)]
    partials += [ser.partial_from_json(ser.load_json(path)) for path in corpus]
    assert len(partials) == 8
    for m in partials:
        doc = json.loads(ser.dumps(partial_document(m)))
        back = ser.partial_from_json(doc)
        assert back.pattern == m.pattern and back.d == m.d
        assert bits(back.values) == bits(m.values)


# Numbers the bulk reader must refuse, or read exactly as the item loop does.
_ODD_NUMBERS = [
    2**53 + 1, -(2**53) - 3, 2**63 + 5, 2**64 - 1, 10**400, -(10**400), 7, 0, -0.0, 1e308,
    True, False, "1", None, [1.0], math.nan, math.inf,
]
_MUTATIONS = ["shuffle", "number", "int", "duplicate", "swap", "drop", "extra", "hermitian"]
_BREAKS = ["field", "container"]  # the document's shape: applied last


def _mutate(doc: dict, kind: str, rnd: random.Random) -> None:
    """Change doc's blocks in place, in one of the ways _MUTATIONS and _BREAKS name."""
    items = doc["blocks"]
    if not items:
        items.append({"i": 0, "j": 0, "block": [[{"re": 1.0, "im": 0.0}]]})
        return
    item = rnd.choice(items)
    entries = [z for row in item["block"] for z in row]
    if kind == "shuffle":
        rnd.shuffle(items)
    elif kind == "number":
        rnd.choice(entries)[rnd.choice(["re", "im"])] = rnd.choice(_ODD_NUMBERS)
    elif kind == "int":
        z = rnd.choice(entries)
        if type(z["re"]) is float and math.isfinite(z["re"]):
            z["re"] = int(z["re"] * 1e6)
    elif kind == "duplicate":
        items.insert(rnd.randrange(len(items) + 1), json.loads(json.dumps(item)))
    elif kind == "swap":
        item["i"], item["j"] = item["j"], item["i"] + rnd.choice([0, 1])
    elif kind == "drop":
        items.remove(item)
    elif kind == "extra":
        n = doc["n"]
        items.append({**item, "i": rnd.randrange(-1, n + 1), "j": rnd.randrange(-1, n + 2)})
    elif kind == "hermitian":
        entries[-1]["im"] = 0.5
    elif kind == "field":
        target = rnd.choice([item, rnd.choice(entries)])
        del target[rnd.choice(sorted(target)[:2] if "re" in target else ["i", "j", "block"])]
    else:
        item["block"] = rnd.choice([{"0": entries}, entries, [entries[0]], "block", [[entries[0], 1]]])


@st.composite
def mutated_partial_documents(draw):
    """A partial matrix document on a random pattern, d 1 or 2, with up to three mutations and a break."""
    n = draw(st.integers(0, 5))
    d = draw(st.sampled_from([1, 2]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    doc = partial_document(restrict_to_pattern(random_psd(rng, n * d), validate_pattern(n, edges), d))
    rnd = draw(st.randoms(use_true_random=False))
    kinds = draw(st.lists(st.sampled_from(_MUTATIONS), max_size=3))
    for kind in kinds + draw(st.lists(st.sampled_from(_BREAKS), max_size=1)):
        _mutate(doc, kind, rnd)
    return doc


def _read_partial(doc: dict, by_item: bool):
    """partial_from_json's matrix as (n, d, bits), or its error as (type, message)."""
    with pytest.MonkeyPatch.context() as patch:
        if by_item:
            patch.setattr(ser, "_block_stack", lambda items, p, d: None)
        try:
            m = ser.partial_from_json(doc)
        except InputError as exc:
            return type(exc), str(exc)
    return m.n, m.d, bits(m.values)


@settings(max_examples=300)
@given(mutated_partial_documents())
def test_bulk_block_reader_agrees_with_the_item_loop(doc):
    """Both give the same values bit for bit, or raise the same exception type and message."""
    assert _read_partial(doc, by_item=False) == _read_partial(doc, by_item=True)


def test_valid_partial_documents_are_read_in_bulk():
    """The corpus and random shuffled documents pass every check of the bulk reader."""
    rng = np.random.default_rng(25)
    docs = [ser.load_json(path) for path in sorted(FIXTURES.glob("partial_*.json"))]
    for d in (1, 2, 3):
        doc = partial_document(restrict_to_pattern(random_psd(rng, 6 * d), random_chordal_pattern(rng, 6), d))
        rng.shuffle(doc["blocks"])
        docs.append(doc)
    for doc in docs:
        p = ser.pattern_from_json(doc["pattern"])
        assert ser._block_stack(doc["blocks"], p, doc["d"]) is not None
        m = ser.partial_from_json(doc)
        assert bits(m.values) == _read_partial(doc, by_item=True)[2]


def test_group_subset_function_roundtrip():
    g = dihedral_group(3)
    doc = {"order": g.order, "table": g.table_array.tolist(), "identity": g.identity}
    assert ser.group_from_json(json.loads(ser.dumps(doc))) == g

    e = validate_subset(g, {0, 1, 2})
    assert ser.subset_from_json(json.loads(ser.dumps({"members": [0, 1, 2]})), g) == e

    z4 = cyclic_group(4)
    u = group_function(z4, {0: 1.0, 1: 0.25 + 0.5j, 3: 0.25 - 0.5j})
    doc = json.loads(ser.dumps(ser.function_to_json(u)))
    assert ser.function_from_json(doc, z4).values == u.values


def test_circleset_roundtrip_including_cut_pieces():
    for e in [
        cexi_truncation(2),
        normalize([(F(9, 10), F(11, 10))]),
        normalize([(F(-1, 2), F(1, 2))], [F(3, 4)]),
    ]:
        doc = json.loads(ser.dumps(ser.circleset_to_json(e)))
        assert ser.circleset_from_json(doc) == e


# -- the array reader of int-rows fields -------------------------------------------

_EDGE_INTS = [0, 1, 9, 10, 99, 100, -1, -10, 10**17, 10**18 - 1, -(10**18 - 1)]


def _table_text(tokens, layout: str, ws) -> str:
    """The rows of item texts laid out as the layout says; ws draws the random layout's whitespace."""
    if layout == "random":
        def join(items):
            return "[" + ws() + ("," + ws()).join(f"{t}{ws()}" for t in items) + "]"
        return join([join(row) for row in tokens])
    sep, row_sep, pad, outer_pad = {  # pad opens a list; without its last indent it closes it
        "compact": (",", ",", "", ""),
        "spaced": (", ", ", ", "", ""),
        "indent": (",\n    ", ",\n  ", "\n    ", "\n  "),
    }[layout]
    rows = ["[" + pad + sep.join(row) + pad[:-2] + "]" for row in tokens]
    return "[" + outer_pad + row_sep.join(rows) + outer_pad[:-2] + "]"


def _field_parent(doc, field):
    """The object that holds the field at the key path, or None."""
    for step in field[:-1]:
        doc = doc.get(step) if type(doc) is dict else None
    return doc if type(doc) is dict and field[-1] in doc else None


def _obj(draw, entries) -> str:
    return "{" + ", ".join(draw(st.permutations(entries))) + "}"


@st.composite
def _rows_documents(draw):
    """(kind, document bytes, whether it is unmutated): the reader must take exactly the unmutated ones."""
    kind = draw(st.sampled_from(sorted(ROWS_FIELDS)))
    name = ROWS_FIELDS[kind][-1]
    n_rows, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    ints = st.integers(-(10**18 - 1), 10**18 - 1) | st.integers(0, 20) | st.sampled_from(_EDGE_INTS)
    tokens = [[str(draw(ints)) for _ in range(width)] for _ in range(n_rows)]
    mutation = draw(st.sampled_from(
        [None, None, "item", "trailing-comma", "empty-item", "ragged", "[]", "[[]]",
         "duplicate-key", "string-value", "nested-key", "moved", "bom", "invalid-utf-8", "missing-key"]
    ))
    r, c = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, width - 1))
    if mutation == "item":
        tokens[r][c] = draw(st.sampled_from(NON_CANONICAL_ITEMS))
    elif mutation == "trailing-comma":
        tokens[r][-1] += ","
    elif mutation == "empty-item":
        tokens[r].insert(c, "")
    elif mutation == "ragged":
        tokens.append(["0"] * (width + 1))
    layout = draw(st.sampled_from(["compact", "spaced", "indent", "random"]))
    text = _table_text(tokens, layout, lambda: draw(st.text(" \t\n\r", max_size=2)))
    if mutation in ("[]", "[[]]"):
        text = mutation
    entry = f'"{name}": {text}'
    inner = {"group": [f'"order": {n_rows}', '"identity": 0'], "pattern": ['"n": 3'], "partial": ['"n": 3']}[kind]
    outer = ['"n": 3', '"d": 1', '"blocks": []']  # a partial matrix's, around its pattern
    if mutation == "duplicate-key":
        inner.append(f'"{name}": [[0]]')
    elif mutation == "string-value":
        (outer if kind == "partial" and draw(st.booleans()) else inner).append(f'"note": "{name}"')
    elif mutation == "nested-key":
        entry = f'"meta": {{"{name}": [[0]]}}'
    elif mutation == "moved":  # the whole field one level down, or to the top of a partial matrix
        if kind == "partial":
            outer.append(entry)
        else:
            inner.append(f'"meta": {{{entry}}}')
        entry = None
    elif mutation == "invalid-utf-8":
        inner.append('"note": "\udcff"')
    elif mutation == "missing-key":
        entry = entry.replace(f'"{name}"', f'"{name}s"')
    text = _obj(draw, inner + ([entry] if entry else []))
    if kind == "partial":
        text = _obj(draw, outer + [f'"pattern": {text}'])
    data = text.encode("utf-8", "surrogateescape")
    if mutation == "bom":
        data = b"\xef\xbb\xbf" + data
    return kind, data, mutation is None


@settings(max_examples=600, deadline=None)
@given(_rows_documents())
def test_table_reader_gives_what_json_gives_or_declines(case):
    """The reader's document is json's with the field as np.array(field), or it declines.

    It takes every field of canonical ints, in any JSON layout, in a
    group, a pattern or a partial matrix, and declines every field or
    document that is mutated away from one.
    """
    kind, data, canonical = case
    field = ROWS_FIELDS[kind]
    got = ser._read_rows(data, field)
    if not canonical:
        assert got is None
        return
    want = json.loads(data.decode("utf-8"))
    rows = np.array(_field_parent(want, field).pop(field[-1]))
    got_rows = _field_parent(got, field).pop(field[-1])
    assert got_rows.dtype == np.int64 and got_rows.shape == rows.shape
    assert (got_rows == rows).all()
    assert got == want


# A group's cases keep the ids they had before patterns and partial matrices joined.
@pytest.mark.parametrize(
    "kind, item, layout",
    [
        pytest.param(kind, item, layout, id=("" if kind == "group" else kind + "-") + f"{item}-{layout}")
        for kind in sorted(ROWS_FIELDS)
        for item in NON_CANONICAL_ITEMS
        for layout in ["compact", "spaced", "indent"]
    ],
)
def test_table_reader_declines_each_non_canonical_item(kind, item, layout):
    name = ROWS_FIELDS[kind][-1]
    data = rows_document(kind, f'"{name}": ' + _table_text([["0", "1"], ["1", item]], layout, None) + ", ")
    assert ser._read_rows(data, ROWS_FIELDS[kind]) is None


@pytest.mark.parametrize(
    "kind, data",
    [
        pytest.param(kind, data, id=("" if kind == "group" else kind + "-") + name)
        for kind in sorted(ROWS_FIELDS)
        for name, data in malformed_documents(kind)
    ],
)
def test_table_reader_declines_documents_that_need_json(kind, data):
    assert ser._read_rows(data, ROWS_FIELDS[kind]) is None


@pytest.mark.parametrize("text", [b"[[0, 1], [1, 0,]]", b"[[2, 000,]]", b"[[0], []]", b"[[]]"])
def test_table_layout_refuses_an_empty_last_item(text):
    """np.fromstring, asked for one value per item, would leave the last value unread and uninitialised."""
    assert ser._read_rows(rows_document("group", f'"table": {text.decode()}, '), ("table",)) is None


@st.composite
def _int_rows_texts(draw):
    """Int-rows texts with whitespace around every token, at times ragged, with a stray or a missing byte.

    Items may be blank, "+", VT, FF, split by whitespace or written with
    leading zeros, and a stray bracket, comma or digit may sit anywhere.
    """
    pads = itertools.cycle(draw(st.lists(st.text(" \t\n\r", max_size=2), min_size=1, max_size=7)))

    def ws():
        return next(pads)

    def join(items):
        return "[" + ws() + ("," + ws()).join(item + ws() for item in items) + "]"

    width = draw(st.sampled_from([1, 2, 3, 255, 256, 257]))
    items = ["0", "7", "-3", "12", "-", "00", "07", "", "+", "\x0b", "\x0c", "1 2", "- 5", "-0"]
    tokens = draw(st.lists(st.sampled_from(items[:4]) | st.sampled_from(items), min_size=1, max_size=3))
    widths = [width] * draw(st.integers(1, 5))
    if draw(st.booleans()):  # ragged by one item or by 256, at times with as many items as before
        step, row = draw(st.sampled_from([-1, 1, 256, -256])), st.integers(0, len(widths) - 1)
        widths[draw(row)] += step
        if draw(st.booleans()):
            widths[draw(row)] -= step
    text = ws() + join([join((tokens * w)[:w]) for w in widths if w >= 0]) + ws()
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["stray", "missing"]))
        if edit == "stray":
            text = text[:at] + draw(st.sampled_from("[],05-")) + text[at:]
        else:
            text = text[:at] + text[at + 1 :]
    return text


_WS = r"[ \t\n\r]*"
_ROW = rf"\[{_WS}(?:0|-?[1-9][0-9]{{0,17}}){_WS}(?:,{_WS}(?:0|-?[1-9][0-9]{{0,17}}){_WS})*\]"
_CANONICAL_ROWS = re.compile(rf"{_WS}\[{_WS}{_ROW}{_WS}(?:,{_WS}{_ROW}{_WS})*\]{_WS}")


@settings(max_examples=600, deadline=None)
@given(_int_rows_texts(), st.sampled_from(sorted(ROWS_FIELDS)))
def test_table_reader_gives_what_json_gives_on_int_rows_texts(text, kind):
    """The reader gives json's document with the field as json's int rows in int64, or declines.

    It takes exactly the texts of equal-length lists of canonical ints.
    """
    field = ROWS_FIELDS[kind]
    data = rows_document(kind, f'"{field[-1]}": {text}, ')
    got = ser._read_rows(data, field)
    canonical = _CANONICAL_ROWS.fullmatch(text) and len(set(map(len, json.loads(text)))) == 1
    assert (got is not None) == bool(canonical)
    if got is not None:
        want = json.loads(data)
        rows = _field_parent(want, field).pop(field[-1])
        got_rows = _field_parent(got, field).pop(field[-1])
        assert got_rows.dtype == np.int64 and got_rows.tolist() == rows
        assert got == want


@pytest.mark.parametrize("text", ["[[1, 18]0]", "[[5]0, [3]]", "[[1, 2], [3, 4]5]"])
def test_table_reader_keeps_brackets_between_numbers(text):
    """The skeleton, the digits and the length would all pass if the brackets were dropped ("18]0" read as 180)."""
    assert ser._read_rows(rows_document("pattern", f'"edges": {text}, '), ("edges",)) is None


def test_table_reader_on_the_edges_of_its_range():
    """±(10**18 - 1) are read; 10**18 and 2**63, which np.fromstring misreads or saturates, are not."""
    edge = [[10**18 - 1, -(10**18 - 1)], [0, -1]]
    for kind, field in ROWS_FIELDS.items():
        name = field[-1]
        doc = ser._read_rows(rows_document(kind, f'"{name}": {json.dumps(edge)}, '), field)
        assert _field_parent(doc, field)[name].tolist() == edge
        for big in (10**18, -(10**18), 2**63, 2**63 - 1, -(2**63), 2**64 + 5):
            assert ser._read_rows(rows_document(kind, f'"{name}": [[0, {big}]], '), field) is None


@pytest.mark.parametrize(
    "data",
    [b'{"n": 1,\r\n"edges": []}', b'{"n": 1,\r\n"edges": [],\r\n}', b'{"n":\r\r 1, "edges": [x]}',
     b'{"n": 1, "edges": []}\r\n\r\nx', b'{"n": 1, "note": "\r"}', b'{"n": 1, "note": "\xff"}'],
)
def test_json_route_reads_as_json_reads_the_open_file(tmp_path, data):
    """Documents and errors, their line and column too, are those of json.load on the file in text mode."""
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    for field in [(), ("edges",)]:
        try:
            with open(path, encoding="utf-8") as fh:
                want = json.load(fh)
        except ValueError as exc:
            with pytest.raises(type(exc)) as got:
                ser.load_json(path, field)
            assert str(got.value) == str(exc)
        else:
            assert ser.load_json(path, field) == want


def test_group_documents_read_as_json_reads_them(tmp_path):
    """load_json with a field gives json's document, the field an int64 array when the text allows."""
    path = tmp_path / "doc.json"
    rows = np.arange(12).reshape(3, 4) - 5
    for kind, field in ROWS_FIELDS.items():
        for layout in (None, 2):
            doc = json.loads(rows_document(kind, f'"{field[-1]}": {json.dumps(rows.tolist())}, '))
            path.write_text(json.dumps(doc, indent=layout))
            got, want = ser.load_json(path, field), ser.load_json(path)
            got_rows = _field_parent(got, field).pop(field[-1])
            assert got_rows.dtype == np.int64 and (got_rows == rows).all()
            assert _field_parent(want, field).pop(field[-1]) == rows.tolist()
            assert got == want
        path.write_bytes(rows_document(kind, f'"{field[-1]}": [[0, 1], [1, 0.0]], '))
        assert ser.load_json(path, field) == ser.load_json(path) == json.loads(path.read_text())
