"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Every
expected value is either asserted directly or certified by an independent
brute-force oracle (exhaustive enumeration, dense grid search, or the
spectrum of a finished output). The library builds completions and
extensions from Schur-complement fills, and no eigensolver runs over the
matrix or kernel while it is built, so `np.linalg.eigvalsh` of that
output checks the fill rather than repeating it.
"""

import itertools
import json

import numpy as np

from conftest import (
    all_small_groups,
    band_pattern,
    chordless_cycles,
    is_valid_elimination_order,
    psd_supported_on,
    random_chordal_pattern,
    random_pattern,
    random_pd_function,
    random_psd,
    symmetric_subsets,
    word_chordality_oracle,
)
from posext import (
    PartialHermitianMatrix,
    cb_norm_positive,
    cexi_truncation,
    contains_symmetric_neighborhood_of_zero,
    contains_zero,
    invariant_kernel,
    is_chordal,
    is_chordal_subset,
    is_symmetric,
    maximal_cliques,
    partially_positive,
    perfect_elimination_order,
    positive_completion,
    positive_definite_extension,
    rank_one_positive_decomposition,
    restrict_to_pattern,
    validate_pattern,
    verify_extension,
)
from posext.errors import NotChordal


def report(number: int, ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def _equiv_holds(p) -> bool:
    chordal = is_chordal(p)
    try:
        peo_ok = is_valid_elimination_order(p, perfect_elimination_order(p).tolist())
    except NotChordal:
        peo_ok = False
    cycle_free = chordless_cycles(p, p.n) == []
    return chordal == peo_ok == cycle_free


def test_criterion_1_chordality_equivalence():
    checked = 0
    ok = True
    for n in range(1, 5):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for r in range(len(pairs) + 1):
            for chosen in itertools.combinations(pairs, r):
                ok = ok and _equiv_holds(validate_pattern(n, chosen))
                checked += 1
    rng = np.random.default_rng(2024)
    for _ in range(500):
        n = int(rng.integers(5, 7))
        ok = ok and _equiv_holds(random_pattern(rng, n, 9))
        checked += 1
    report(1, ok, f"chordal <=> PEO <=> cycle-free on {checked} patterns")


def test_criterion_2_completion_soundness():
    rng = np.random.default_rng(7)
    ok = True
    for k in range(200):
        d = 1 + k % 2
        n = int(rng.integers(1, 9))
        p = random_chordal_pattern(rng, n)
        m = restrict_to_pattern(random_psd(rng, n * d), p, d)
        pp, _ = partially_positive(m)
        result = positive_completion(m)
        agrees = verify_extension(m, result.matrix)
        scale = 1 + max(result.matrix[i, i].real for i in range(n * d))
        psd = np.linalg.eigvalsh(result.matrix).min() >= -1e-9 * scale
        ok = ok and pp and agrees and psd
    report(2, ok, "200 restricted-PSD chordal completions succeed and stay PSD")


def test_criterion_3_completion_necessity_four_cycle():
    p = validate_pattern(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    entries = {(i, i): 1.0 for i in range(4)}
    entries.update({(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): -1.0})
    m = PartialHermitianMatrix(
        p, 1, {k: np.array([[v]], dtype=complex) for k, v in entries.items()}
    )
    pp, _ = partially_positive(m)

    grid = np.arange(-1.0, 1.0001, 0.01)
    xs, ys = np.meshgrid(grid, grid, indexing="ij")
    mats = np.zeros((grid.size, grid.size, 4, 4))
    mats[..., range(4), range(4)] = 1.0
    for (i, j), val in entries.items():
        if i != j:
            mats[..., i, j] = mats[..., j, i] = val
    mats[..., 0, 2] = mats[..., 2, 0] = xs
    mats[..., 1, 3] = mats[..., 3, 1] = ys
    worst = np.linalg.eigvalsh(mats)[..., 0].max()
    report(
        3,
        pp and worst < -1e-3,
        f"partially positive 4-cycle has no completion (grid max min-eig {worst:.4f})",
    )


def test_criterion_4_rank_one_decomposition():
    rng = np.random.default_rng(12)
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 9))
        p = random_chordal_pattern(rng, n)
        t = psd_supported_on(rng, p)
        factors = rank_one_positive_decomposition(t, p)
        recon = sum(
            (np.outer(f.vector, f.vector.conj()) for f in factors),
            np.zeros((n, n), dtype=complex),
        )
        ok = ok and np.abs(recon - t).max() <= 1e-8 * (1 + np.abs(t).max())
        cliques = [set(c) for c in maximal_cliques(p)]
        ok = ok and all(
            any(set(f.support) <= c for c in cliques) for f in factors
        )
    report(4, ok, "200 rank-one decompositions reconstruct with clique supports")


def test_criterion_5_named_completion_value():
    p = validate_pattern(3, [(0, 1), (1, 2)])
    blocks = {
        (0, 0): [[1.0]], (1, 1): [[1.0]], (2, 2): [[1.0]],
        (0, 1): [[0.9]], (1, 2): [[0.9]],
    }
    m = PartialHermitianMatrix(
        p, 1, {k: np.array(v, dtype=complex) for k, v in blocks.items()}
    )
    fill = float(positive_completion(m).matrix[0, 2].real)

    grid = np.round(np.arange(-1.0, 1.0001, 0.01), 10)
    trials = np.tile(np.array([[1, 0.9, 0], [0.9, 1, 0.9], [0, 0.9, 1]]), (grid.size, 1, 1))
    trials[:, 0, 2] = trials[:, 2, 0] = grid
    argmax = grid[np.argmax(np.linalg.det(trials))]
    ok = abs(fill - 0.81) <= 1e-12 and abs(fill - argmax) <= 1e-2
    report(5, ok, f"band fill {fill} matches 0.81 and the max-det argmax {argmax}")


def test_criterion_6_word_oracle_agreement():
    checked = 0
    ok = True
    for _, g in all_small_groups():
        for e in symmetric_subsets(g):
            ok = ok and word_chordality_oracle(g, e) == is_chordal_subset(g, e)
            checked += 1
    report(6, ok, f"word oracle matches pattern chordality on {checked} subsets")


def test_criterion_7_extension_on_every_chordal_subset():
    rng = np.random.default_rng(77)
    ok = True
    count = 0
    for _, g in all_small_groups():
        for e in symmetric_subsets(g):
            if not is_chordal_subset(g, e):
                continue
            for _ in range(50):
                u = random_pd_function(rng, g, e)
                v = positive_definite_extension(g, e, u)
                ok = ok and all(v(x) == u(x) for x in e.members)
                kernel = invariant_kernel(g, v)
                ok = ok and np.linalg.eigvalsh(kernel).min() >= -1e-9
                ok = ok and abs(cb_norm_positive(kernel) - u(g.identity).real) <= 1e-10
                count += 1
    report(7, ok, f"{count} extensions restrict exactly with PSD kernels")


def test_criterion_8_arithmetic_progressions_as_bands():
    ok = all(
        is_chordal(band_pattern(n, m)) for n in range(1, 13) for m in range(1, 5)
    )
    p = band_pattern(12, 1)
    entries = {(i, i): 1.0 for i in range(12)}
    entries.update({(i, i + 1): 0.5 for i in range(11)})
    m = PartialHermitianMatrix(
        p, 1, {k: np.array([[v]], dtype=complex) for k, v in entries.items()}
    )
    completed = positive_completion(m).matrix
    target = np.array([[0.5 ** abs(i - j) for j in range(12)] for i in range(12)])
    ok = ok and np.abs(completed - target).max() <= 1e-10
    report(8, ok, "bands are chordal; band-1 Toeplitz completes geometrically")


def test_criterion_9_isolated_origin_family():
    ok = True
    for depth in range(1, 11):
        e = cexi_truncation(depth)
        ok = (
            ok
            and not contains_symmetric_neighborhood_of_zero(e)
            and is_symmetric(e)
            and contains_zero(e)
        )
    report(9, ok, "depths 1..10: symmetric, 0 in the set, never an interior point")


def test_criterion_10_cli_determinism(capsys):
    from posext.cli import main
    from test_cli import ALL_COMMANDS, fx

    corpus = [(cmd[0], *[fx(f) for f in cmd[1:]]) for cmd in ALL_COMMANDS]
    corpus += [("cexi", "3"), ("cexi", "2", "--t", "1,1/2,1/3,1/4")]

    def run_all() -> bytes:
        chunks = []
        for argv in corpus:
            code = main(list(argv))
            out = capsys.readouterr().out
            assert code == 0
            json.loads(out)
            chunks.append(out.encode())
        return b"\x00".join(chunks)

    first = run_all()
    second = run_all()
    ok = first == second
    with capsys.disabled():
        report(10, ok, f"byte-identical stdout over {len(corpus)} invocations")
