#!/usr/bin/env python3
"""Survey positive definite extension over the small-group fixture families.

Enumerates every symmetric unital subset of the cyclic groups up to a
given order (plus the Klein four-group and the dihedral group of order
six), marks which are chordal, and for chordal ones extends a random
positive definite function, reporting the kernel spectrum floor and the
norm bound attained at the identity.
"""

import argparse

import numpy as np

from posext import (
    cb_norm_positive,
    cyclic_group,
    dihedral_group,
    group_function,
    invariant_kernel,
    is_chordal_subset,
    klein_four_group,
    positive_definite_extension,
    validate_subset,
)


def symmetric_subsets(g):
    orbits = []
    seen = set()
    for x in range(g.order):
        if x == g.identity or x in seen:
            continue
        orbit = frozenset({x, g.inverse[x]})
        seen |= orbit
        orbits.append(orbit)
    for mask in range(1 << len(orbits)):
        members = {g.identity}
        for k, orbit in enumerate(orbits):
            if mask >> k & 1:
                members |= orbit
        yield validate_subset(g, members)


def random_pd_function(rng, g, e):
    f = rng.normal(size=g.order) + 1j * rng.normal(size=g.order)
    vals = {}
    for x in sorted(e.members):
        xi = g.inverse[x]
        if xi in vals:
            vals[x] = vals[xi].conjugate()
            continue
        acc = sum(f[r].conjugate() * f[g.table_array[x, r]] for r in range(g.order)) / g.order
        vals[x] = complex(acc.real, 0.0) if x == xi else acc
    return group_function(g, vals)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    groups = [(f"Z{n}", cyclic_group(n)) for n in range(1, args.max_order + 1)]
    groups += [("K4", klein_four_group()), ("D3", dihedral_group(3))]

    for name, g in groups:
        for e in symmetric_subsets(g):
            members = sorted(e.members)
            if not is_chordal_subset(g, e):
                print(f"{name:3s} E={members}  not chordal, no extension guarantee")
                continue
            u = random_pd_function(rng, g, e)
            v = positive_definite_extension(g, e, u)
            kernel = invariant_kernel(g, v)
            floor = np.linalg.eigvalsh(kernel).min()
            bound = cb_norm_positive(kernel)
            print(
                f"{name:3s} E={members}  chordal, kernel floor {floor:+.2e}, "
                f"norm at identity {bound:.4f} (= u(e) {u(g.identity).real:.4f})"
            )


if __name__ == "__main__":
    main()
