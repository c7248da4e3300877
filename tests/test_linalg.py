import warnings

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


def test_pseudo_inverse_examples():
    assert np.allclose(linalg.pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))
    assert np.allclose(linalg.pseudo_inverse(np.eye(3)), np.eye(3))
    ones = np.ones((2, 2), dtype=complex)
    assert np.allclose(linalg.pseudo_inverse(ones), ones / 4, atol=1e-13)


def test_pseudo_inverse_drops_eigenvalues_whose_reciprocal_overflows():
    """1 / 1e-310 is inf: the eigenvalue counts as zero, and numpy warns of nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = linalg.pseudo_inverse(np.array([[[1e-310]], [[4e-308]]]))
    assert out.ravel().tolist() == [0, 0.25e308]


@given(st.integers(0, 10 ** 6), st.integers(1, 10))
def test_pseudo_inverse_moore_penrose_identities(seed, n):
    rng = np.random.default_rng(seed)
    a = random_psd(rng, n, rank=max(1, n // 2)) if seed % 2 else random_hermitian(rng, n)
    pinv = linalg.pseudo_inverse(a)
    assert np.abs(a @ pinv @ a - a).max() <= 1e-9 * (1 + np.abs(a).max())
    assert np.abs(pinv @ a @ pinv - pinv).max() <= 1e-9 * (1 + np.abs(pinv).max())
    assert np.abs((a @ pinv) - (a @ pinv).conj().T).max() <= 1e-9
    assert np.abs((pinv @ a) - (pinv @ a).conj().T).max() <= 1e-9


def random_stack(rng: np.random.Generator, k: int, s: int) -> np.ndarray:
    """k Hermitian s x s matrices: PSD of random rank (often singular) or indefinite."""
    out = np.zeros((k, s, s), dtype=complex)
    for a in range(k):
        if rng.random() < 0.3:
            out[a] = random_hermitian(rng, s)
        else:
            out[a] = random_psd(rng, s, rank=int(rng.integers(0, s + 1))) if s else 0
    return out


@given(st.integers(0, 10 ** 6), st.integers(0, 5), st.integers(0, 6))
def test_stacked_calls_match_per_matrix_calls_bitwise(seed, k, s):
    stack = random_stack(np.random.default_rng(seed), k, s)
    one_by_one = [linalg.pseudo_inverse(a) for a in stack]
    assert linalg.pseudo_inverse(stack).tobytes() == np.array(one_by_one).tobytes()
    tols = [linalg.default_psd_tol(a) for a in stack]
    assert linalg.default_psd_tol(stack).tobytes() == np.array(tols).tobytes()
    lows = [np.linalg.eigvalsh(a)[0] if s else np.inf for a in stack]
    assert linalg.smallest_eigenvalues(stack).tobytes() == np.array(lows).tobytes()
    for tol in (None, 0.0, 1e-3):
        flags = [linalg.is_psd(a, tol) for a in stack]
        assert linalg.is_psd(stack, tol).tolist() == flags


def test_stacked_pseudo_inverse_cuts_each_matrix_on_its_own_scale():
    stack = np.array([np.diag([1e6, 1e-7]), np.diag([1.0, 1e-7])])
    got = linalg.pseudo_inverse(stack)
    assert np.allclose(got[0], np.diag([1e-6, 0.0]))
    assert np.allclose(got[1], np.diag([1.0, 1e7]))
    assert linalg.pseudo_inverse(np.zeros((3, 0, 0))).shape == (3, 0, 0)


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
