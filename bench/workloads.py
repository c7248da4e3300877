"""Seeded input generators for the benchmark workloads.

Each workload turns a seed into a small pool of distinct inputs of one
fixed shape, writes them as JSON files, and returns one `Case` per input:
the CLI argument list, the generator's own knowledge of the input (used
by the output checker as an independent oracle), and the input
descriptors that go into the report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

POOL_SIZE = 3


@dataclass
class Case:
    """One generated input and what the checker needs to know about it."""

    argv: list[str]
    truth: dict
    descriptors: dict = field(default_factory=dict)


def _write(path: Path, doc) -> int:
    text = json.dumps(doc)
    path.write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


def _cplx(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


# -- band-complete ------------------------------------------------------------

def band_partial(rng: np.random.Generator, n: int, width: int) -> tuple[dict, np.ndarray]:
    """Band partial matrix restricted from a random positive definite matrix.

    The source is B B* / r + 0.1 I with a complex n x r factor B, so the
    specified entries are of order one and every clique block is
    comfortably positive definite.
    """
    r = 6
    b = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    a = b @ b.conj().T / r + 0.1 * np.eye(n)
    a[np.diag_indices(n)] = a.diagonal().real
    edges = [[i, j] for i in range(n) for j in range(i + 1, min(n, i + width + 1))]
    pairs = [(i, i) for i in range(n)] + [tuple(e) for e in edges]
    blocks = [
        {"i": i, "j": j, "block": [[_cplx(a[i, j])]]} for i, j in sorted(pairs)
    ]
    doc = {"n": n, "d": 1, "pattern": {"n": n, "edges": edges}, "blocks": blocks}
    return doc, a


def make_band_complete(seed: int, workdir: Path, n: int = 200, width: int = 2) -> list[Case]:
    rng = np.random.default_rng([seed, 1])
    cases = []
    for k in range(POOL_SIZE):
        doc, a = band_partial(rng, n, width)
        path = workdir / f"partial-{k}.json"
        size = _write(path, doc)
        edges = {tuple(e) for e in doc["pattern"]["edges"]}
        cases.append(
            Case(
                argv=["complete", str(path)],
                truth={"n": n, "edges": edges, "source": a},
                descriptors={
                    "n": n,
                    "d": 1,
                    "edges": len(edges),
                    "cliques": n - width if n > width else 1,
                    "max_clique": min(n, width + 1),
                    "max_separator": width if n > width + 1 else 0,
                    "input_bytes": size,
                },
            )
        )
    return cases


# -- chordal-structure --------------------------------------------------------

def random_chordal(rng: np.random.Generator, n: int, max_clique: int = 4):
    """Random connected chordal pattern grown as a tree of cliques.

    Each new vertex joins a proper or full subset S of a random maximal
    clique C. If S is all of C, C grows by the vertex; otherwise S plus
    the vertex is a new maximal clique joined to C through separator S.
    The generator therefore knows the maximal cliques and the separator
    multiset exactly. Vertices are relabelled by a random permutation so
    that the input order carries no elimination order.
    """
    cliques: list[set[int]] = [{0}]
    separators: list[frozenset[int]] = []
    edges: list[tuple[int, int]] = []
    for v in range(1, n):
        c = cliques[int(rng.integers(len(cliques)))]
        size = int(rng.choice([1, 2, 3], p=[0.35, 0.45, 0.20]))
        size = min(size, len(c), max_clique - 1)
        s = {int(x) for x in rng.choice(sorted(c), size, replace=False)}
        edges.extend((u, v) for u in s)
        if s == c:
            c.add(v)
        else:
            cliques.append(s | {v})
            separators.append(frozenset(s))
    perm = [int(x) for x in rng.permutation(n)]

    def relabel(vs) -> frozenset[int]:
        return frozenset(perm[x] for x in vs)

    edges = sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges)
    return (
        edges,
        {relabel(c) for c in cliques},
        sorted((relabel(s) for s in separators), key=sorted),
    )


def make_chordal_structure(seed: int, workdir: Path, n: int = 1200) -> list[Case]:
    rng = np.random.default_rng([seed, 2])
    cases = []
    for k in range(POOL_SIZE):
        edges, cliques, seps = random_chordal(rng, n)
        path = workdir / f"pattern-{k}.json"
        size = _write(path, {"n": n, "edges": [list(e) for e in edges]})
        cases.append(
            Case(
                argv=["clique-tree", str(path)],
                truth={"n": n, "edges": set(edges), "cliques": cliques, "separators": seps},
                descriptors={
                    "n": n,
                    "d": 1,
                    "edges": len(edges),
                    "cliques": len(cliques),
                    "max_clique": max(map(len, cliques)),
                    "max_separator": max(map(len, seps), default=0),
                    "input_bytes": size,
                },
            )
        )
    return cases


# -- group-extend -------------------------------------------------------------

def cyclic_table(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def positive_definite_on(rng: np.random.Generator, n: int, members: list[int]) -> dict[int, complex]:
    """Restriction to `members` of a random positive definite function on Z_n.

    u(x) = sum_k c_k exp(2 pi i k x / n) with every c_k > 0 is positive
    definite on all of Z_n (Bochner). Values at -x are set to the exact
    conjugate, and self-inverse elements get an exactly real value, as
    the CLI's Hermitian-symmetry check demands.
    """
    c = rng.uniform(0.1, 1.0, n)
    c /= c.sum()
    ks = np.arange(n)
    out: dict[int, complex] = {}
    for x in members:
        xi = (-x) % n
        if xi < x:
            continue
        z = complex(np.sum(c * np.exp(2j * np.pi * ks * x / n)))
        if xi == x:
            z = complex(z.real, 0.0)
        out[x] = z
        out[xi] = z.conjugate()
    return out


def make_group_extend(seed: int, workdir: Path, n: int = 128, index: int = 4) -> list[Case]:
    rng = np.random.default_rng([seed, 3])
    members = list(range(0, n, index))
    group_path = workdir / "group.json"
    subset_path = workdir / "subset.json"
    shared = _write(group_path, {"order": n, "table": cyclic_table(n), "identity": 0})
    shared += _write(subset_path, {"members": members})
    cases = []
    for k in range(POOL_SIZE):
        u = positive_definite_on(rng, n, members)
        fn_path = workdir / f"function-{k}.json"
        size = _write(
            fn_path, {"values": [{"g": g, **_cplx(z)} for g, z in sorted(u.items())]}
        )
        coset = n // index
        cases.append(
            Case(
                argv=["group-extend", str(group_path), str(subset_path), str(fn_path)],
                truth={"n": n, "u": u},
                descriptors={
                    "n": n,
                    "d": 1,
                    "subset": len(members),
                    "edges": index * coset * (coset - 1) // 2,
                    "cliques": index,
                    "max_clique": coset,
                    "max_separator": 0,
                    "input_bytes": shared + size,
                },
            )
        )
    return cases


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[..., list[Case]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "band-complete",
            "complete on band-2 n=200 data: a 2.2 MB output, so serialize dominates; "
            "completion, pattern and ~400 tiny eigh calls make up the rest",
            make_band_complete,
        ),
        Workload(
            "chordal-structure",
            "clique-tree on a random chordal pattern, n=1200, cliques <= 4: "
            "pattern (MCS, cliques, Kruskal) is ~99% of the call; no linalg, small output",
            make_chordal_structure,
        ),
        Workload(
            "group-extend",
            "group-extend on Z_128 with the index-4 subgroup: large input, few big "
            "eigendecompositions (linalg) and the O(n^3) group validation, tiny output",
            make_group_extend,
        ),
    )
}
