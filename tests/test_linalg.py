import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_hermitian, random_psd
from posext import linalg
from posext.errors import InputError, NotPSD


def test_eigh_examples():
    w, _ = linalg.eigh(np.diag([3.0, 1.0]))
    assert np.allclose(w, [1, 3], atol=1e-12)
    w, _ = linalg.eigh(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(w, [-1, 1], atol=1e-12)
    w, _ = linalg.eigh(np.array([[2, 1], [1, 2]], dtype=complex))
    assert np.allclose(w, [1, 3], atol=1e-12)


@given(st.integers(0, 10 ** 6), st.integers(1, 24))
def test_eigh_reconstruction_and_unitarity(seed, n):
    a = random_hermitian(np.random.default_rng(seed), n)
    w, v = linalg.eigh(a)
    assert list(w) == sorted(w)
    assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-10
    err = np.abs((v * w) @ v.conj().T - a).max()
    assert err <= 1e-9 * (1 + np.abs(a).max())


def test_eigh_large_matrix():
    # Prescribed spectrum behind a random unitary, so the oracle is not an eigensolver.
    rng = np.random.default_rng(7)
    z = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    q, _ = np.linalg.qr(z)
    spectrum = np.sort(rng.uniform(-5.0, 5.0, 64))
    a = (q * spectrum) @ q.conj().T
    w, v = linalg.eigh(a)
    assert np.abs((v * w) @ v.conj().T - a).max() <= 1e-9 * (1 + np.abs(a).max())
    assert np.allclose(w, spectrum, atol=1e-10)


def test_is_psd_examples():
    assert linalg.is_psd(np.eye(3))
    assert not linalg.is_psd(np.array([[1, 2], [2, 1]], dtype=complex))
    assert linalg.is_psd(np.array([[2, 1], [1, 2]], dtype=complex))


def test_psd_cholesky_examples():
    assert np.array_equal(linalg.psd_cholesky(np.eye(2)), np.eye(2))
    low = linalg.psd_cholesky(np.array([[4.0, 2.0], [2.0, 1.0]]))
    assert np.allclose(low, [[2, 0], [1, 0]], atol=1e-14)
    assert np.allclose(low @ low.conj().T, [[4, 2], [2, 1]], atol=1e-12)
    with pytest.raises(NotPSD):
        linalg.psd_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


@given(st.integers(0, 10 ** 6), st.integers(1, 12))
def test_psd_cholesky_gram_roundtrip(seed, n):
    a = random_psd(np.random.default_rng(seed), n)
    assert linalg.is_psd(a)
    low = linalg.psd_cholesky(a)
    assert np.abs(low @ low.conj().T - a).max() <= 1e-8 * (1 + np.abs(a).max())


def test_pseudo_inverse_examples():
    assert np.allclose(linalg.pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))
    assert np.allclose(linalg.pseudo_inverse(np.eye(3)), np.eye(3))
    ones = np.ones((2, 2), dtype=complex)
    assert np.allclose(linalg.pseudo_inverse(ones), ones / 4, atol=1e-13)


@given(st.integers(0, 10 ** 6), st.integers(1, 10))
def test_pseudo_inverse_moore_penrose_identities(seed, n):
    rng = np.random.default_rng(seed)
    a = random_psd(rng, n, rank=max(1, n // 2)) if seed % 2 else random_hermitian(rng, n)
    pinv = linalg.pseudo_inverse(a)
    assert np.abs(a @ pinv @ a - a).max() <= 1e-9 * (1 + np.abs(a).max())
    assert np.abs(pinv @ a @ pinv - pinv).max() <= 1e-9 * (1 + np.abs(pinv).max())
    assert np.abs((a @ pinv) - (a @ pinv).conj().T).max() <= 1e-9
    assert np.abs((pinv @ a) - (pinv @ a).conj().T).max() <= 1e-9


def test_schur_complement_examples():
    out = linalg.schur_complement(np.array([[1.0, 0.9], [0.9, 1.0]]), [1])
    assert np.allclose(out, [[0.19]], atol=1e-12)
    assert np.allclose(linalg.schur_complement(np.eye(3), [0]), np.eye(2))
    singular = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(
        linalg.schur_complement(singular, [1]), [[0, 0], [0, 1]], atol=1e-12
    )


@given(st.integers(0, 10 ** 6), st.integers(2, 12))
def test_schur_complement_of_psd_is_psd(seed, n):
    rng = np.random.default_rng(seed)
    a = random_psd(rng, n)
    k = int(rng.integers(1, n))
    block = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
    out = linalg.schur_complement(a, block)
    assert np.linalg.eigvalsh(out).min() >= -1e-9 * (1 + np.abs(a).max())


def test_rank_one_factors_examples():
    factors = linalg.rank_one_factors(np.diag([1.0, 0.0]))
    assert len(factors) == 1
    assert factors[0].support == (0,)
    assert np.allclose(factors[0].vector, [1, 0])

    factors = linalg.rank_one_factors(np.eye(2))
    assert len(factors) == 2
    gram = np.array(
        [[np.vdot(f.vector, g.vector) for g in factors] for f in factors]
    )
    assert np.allclose(gram, np.eye(2), atol=1e-12)

    a = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    recon = sum(np.outer(f.vector, f.vector.conj()) for f in linalg.rank_one_factors(a))
    assert np.abs(recon - a).max() <= 1e-8 * (1 + np.abs(a).max())


def test_rank_one_factors_rejects_indefinite():
    with pytest.raises(NotPSD):
        linalg.rank_one_factors(np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize(
    "call", [linalg.eigh, linalg.is_psd, linalg.pseudo_inverse, linalg.rank_one_factors]
)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
def test_non_finite_matrix_is_rejected(call, value):
    a = np.eye(2, dtype=complex)
    a[0, 1] = value
    with pytest.raises(InputError, match="non-finite"):
        call(a)
