"""Exact `complete` stdout at the benchmark's scale, pinned by sha256.

The goldens stop at n = 8. These inputs reach the sizes the benchmark
runs: a band-2 n = 200 complex partial made with the benchmark's own
recipe (rebuilt here, so the suite does not depend on `bench/`), a d = 2
chordal pattern of several components, and a pattern with isolated
vertices. A change that alters any of these bytes must say which bytes
changed and why.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from conftest import partial_document, random_chordal_components, random_psd
from posext import restrict_to_pattern, validate_pattern
from posext.cli import main


def band_document(rng: np.random.Generator, n: int, width: int) -> dict:
    """The benchmark's band partial: B B* / 6 + 0.1 I restricted to the band, B complex n x 6."""
    r = 6
    b = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    a = b @ b.conj().T / r + 0.1 * np.eye(n)
    a[np.diag_indices(n)] = a.diagonal().real
    edges = [[i, j] for i in range(n) for j in range(i + 1, min(n, i + width + 1))]
    pairs = sorted([(i, i) for i in range(n)] + [tuple(e) for e in edges])
    blocks = [
        {"i": i, "j": j, "block": [[{"re": float(a[i, j].real), "im": float(a[i, j].imag)}]]}
        for i, j in pairs
    ]
    return {"n": n, "d": 1, "pattern": {"n": n, "edges": edges}, "blocks": blocks}


def components_document(rng: np.random.Generator) -> dict:
    """d = 2 PSD data on a random chordal pattern of several components."""
    p = random_chordal_components(rng, 60, 5, density=0.3)
    return partial_document(restrict_to_pattern(random_psd(rng, 2 * p.n), p, 2))


def isolated_document(rng: np.random.Generator) -> dict:
    """PSD data on band-1 pieces among 20 isolated vertices of 50."""
    labels = rng.permutation(50).tolist()
    edges = [(labels[k], labels[k + 1]) for k in range(30) if k % 6 != 5]
    p = validate_pattern(50, edges)
    assert np.count_nonzero(np.diff(p.indptr) == 0) == 20
    return partial_document(restrict_to_pattern(random_psd(rng, p.n), p))


# band2-n200 is the first input of the benchmark's band-complete pool for seed 721.
INPUTS = {
    "band2-n200": lambda: band_document(np.random.default_rng([721, 1]), 200, 2),
    "components-d2": lambda: components_document(np.random.default_rng(722)),
    "isolated": lambda: isolated_document(np.random.default_rng(723)),
}

SHA256 = {
    "band2-n200": "3d73c18cffe3a322c60a8cfdbe621e058fffd0bc7e5fee6afaa07e9f7afce6f0",
    "components-d2": "f4c2d6e87b971589c0b4ad0fb70775d65e83d1130eb5d9532982b1afb1a65f11",
    "isolated": "584635c7b3846dfccab1b341c756264ee80c262d67690f7ef580ee11e2fb8afd",
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_complete_stdout_at_bench_scale_is_pinned(name, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(INPUTS[name]()), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["complete", str(path)]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == SHA256[name]
