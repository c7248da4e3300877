"""Output checkers, one per workload, run outside the timed region.

Each checker parses the CLI's stdout and verifies it against oracles
that do not share code with the library: numpy's LAPACK `eigvalsh` for
positivity, the generator's own record of the input, and direct
set arithmetic for the clique-tree properties. A checker returns None
for a correct output and a one-line description of the first problem
otherwise.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

PSD_TOL = 1e-9


def _psd_problem(a: np.ndarray, scale: float) -> str | None:
    low = float(np.linalg.eigvalsh(a)[0])
    if low < -PSD_TOL * scale:
        return f"minimum eigenvalue {low:.3e} is below -{PSD_TOL:g} * {scale:.3g}"
    return None


def check_complete(text: str, truth: dict) -> str | None:
    """Completion agrees exactly on the pattern, fills every other pair once, and is PSD."""
    doc = json.loads(text)
    n, source, edges = truth["n"], truth["source"], truth["edges"]
    mat = doc["matrix"]
    if mat["n"] != n:
        return f"matrix dimension {mat['n']} != {n}"
    if len(mat["entries"]) != n * (n + 1) // 2:
        return f"{len(mat['entries'])} entries, expected {n * (n + 1) // 2}"
    a = np.zeros((n, n), dtype=complex)
    seen = set()
    for e in mat["entries"]:
        i, j = e["i"], e["j"]
        if not 0 <= i <= j < n or (i, j) in seen:
            return f"entry ({i},{j}) is out of range or repeated"
        seen.add((i, j))
        a[i, j] = complex(e["re"], e["im"])
        a[j, i] = a[i, j].conjugate()
    for i in range(n):
        if a[i, i] != source[i, i]:
            return f"diagonal entry ({i},{i}) differs from the input"
    for i, j in edges:
        if a[i, j] != source[i, j]:
            return f"pattern entry ({i},{j}) differs from the input"
    filled = Counter(tuple(sorted(f["pair"])) for f in doc["fill_log"])
    unspecified = {(i, j) for i in range(n) for j in range(i + 1, n)} - set(edges)
    if set(filled) != unspecified or any(c != 1 for c in filled.values()):
        return "fill log does not name every unspecified pair exactly once"
    return _psd_problem(a, 1.0 + float(np.max(a.diagonal().real)))


def check_clique_tree(text: str, truth: dict) -> str | None:
    """Maximal covering cliques joined by a spanning tree with running intersection."""
    doc = json.loads(text)
    n, edges = truth["n"], truth["edges"]
    cliques = [frozenset(c) for c in doc["cliques"]]
    tree_edges = [tuple(e) for e in doc["tree_edges"]]
    separators = [frozenset(s) for s in doc["separators"]]
    m = len(cliques)
    if len(set(cliques)) != m:
        return "repeated clique"
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    for c in cliques:
        if not c or any(not 0 <= v < n for v in c):
            return f"clique {sorted(c)} is empty or out of range"
        if any(u != v and v not in nbrs[u] for u in c for v in c):
            return f"{sorted(c)} is not a clique"
        common = set.intersection(*(nbrs[v] for v in c)) - c
        if common:
            return f"clique {sorted(c)} is not maximal (extends by {min(common)})"
    covered = {tuple(sorted((u, v))) for c in cliques for u in c for v in c if u != v}
    if covered != edges or set().union(*cliques) != set(range(n)):
        return "cliques do not cover exactly the edges and vertices"
    if set(cliques) != truth["cliques"]:
        return "cliques differ from the generated maximal cliques"
    if len(tree_edges) != m - 1 or len(separators) != m - 1:
        return f"{len(tree_edges)} tree edges for {m} cliques"
    adj: list[list[int]] = [[] for _ in range(m)]
    for (i, j), sep in zip(tree_edges, separators):
        if not (0 <= i < m and 0 <= j < m) or i == j:
            return f"tree edge ({i},{j}) is out of range"
        if sep != cliques[i] & cliques[j]:
            return f"separator of tree edge ({i},{j}) is not the intersection"
        adj[i].append(j)
        adj[j].append(i)
    reached, stack = {0}, [0]
    while stack:
        for k in adj[stack.pop()]:
            if k not in reached:
                reached.add(k)
                stack.append(k)
    if m and len(reached) != m:
        return "tree edges do not connect the cliques"
    # In a tree, the cliques holding v are connected exactly when the tree
    # edges between two of them (those whose separator holds v) number one less.
    holding = Counter(v for c in cliques for v in c)
    joining = Counter(v for s in separators for v in s)
    for v, count in holding.items():
        if joining[v] != count - 1:
            return f"running intersection fails at vertex {v}"
    if sorted(map(sorted, separators)) != sorted(map(sorted, truth["separators"])):
        return "separator multiset differs from the generated one"
    return None


def check_group_extend(text: str, truth: dict) -> str | None:
    """Extension restricts to u, is Hermitian-symmetric, and has a PSD kernel on Z_n."""
    doc = json.loads(text)
    n, u = truth["n"], truth["u"]
    items = doc["values"]
    if [item["g"] for item in items] != list(range(n)):
        return "values do not list every group element once, in order"
    v = np.array([complex(item["re"], item["im"]) for item in items])
    for x, ux in u.items():
        if v[x] != ux:
            return f"value at {x} differs from the input function"
    for x in range(n):
        if v[(-x) % n] != v[x].conjugate():
            return f"value at {x} is not Hermitian-symmetric"
    idx = np.arange(n)
    kernel = v[(idx[None, :] - idx[:, None]) % n]
    return _psd_problem(kernel, 1.0 + abs(v[0]))


CHECKERS = {
    "band-complete": check_complete,
    "chordal-structure": check_clique_tree,
    "group-extend": check_group_extend,
}
