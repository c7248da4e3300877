import json
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_chordal_pattern, random_psd
from posext import (
    PartialHermitianMatrix,
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


def test_dumps_is_bit_faithful_for_floats():
    values = [0.81, 0.1 + 0.2, 1.0, -0.0, 2.2, 1e-300, 123456.789]
    doc = {"xs": values}
    back = json.loads(ser.dumps(doc))
    assert [float(x) for x in back["xs"]] == values


def test_dumps_pretty_parses_to_same_document():
    doc = {"a": [1, 2.5], "b": {"c": True, "d": None}, "e": "text"}
    assert json.loads(ser.dumps(doc)) == json.loads(ser.dumps(doc, pretty=True))


def test_pattern_roundtrip_and_normalization():
    doc = {"n": 4, "edges": [[1, 0], [0, 1], [2, 3]]}
    p = ser.pattern_from_json(doc)
    assert ser.pattern_to_json(p) == {"n": 4, "edges": [[0, 1], [2, 3]]}


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
    assert np.array_equal(ser.matrix_from_json(ser.matrix_to_json(a)), a)


@pytest.mark.parametrize("pretty", [False, True])
@pytest.mark.parametrize(
    "log",
    [
        (),
        (((1,), (0, 2)),),
        (((), (0, 3)), ((1, 2), (0, 4)), ((1,), (2, 5)), ((1, 2), (3, 4))),
    ],
)
def test_fill_log_columns_emit_like_the_generic_walk(log, pretty):
    explicit = [{"separator": list(sep), "pair": list(pair)} for sep, pair in log]
    got = ser.dumps({"fill_log": ser.fill_log_to_json(log)}, pretty)
    assert got == ser.dumps({"fill_log": explicit}, pretty)


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
    rng = np.random.default_rng(9)
    p = random_chordal_pattern(rng, 5)
    m = restrict_to_pattern(random_psd(rng, 10), p, d=2)
    doc = json.loads(ser.dumps(ser.partial_to_json(m)))
    back = ser.partial_from_json(doc)
    assert back.pattern == m.pattern and back.d == 2
    for key, block in m.blocks.items():
        assert np.array_equal(back.blocks[key], block)


def test_group_subset_function_roundtrip():
    g = dihedral_group(3)
    doc = json.loads(ser.dumps(ser.group_to_json(g)))
    back = ser.group_from_json(doc)
    assert back == g

    e = validate_subset(g, {0, 1, 2})
    assert ser.subset_from_json(json.loads(ser.dumps(ser.subset_to_json(e))), g) == e

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
