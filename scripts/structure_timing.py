#!/usr/bin/env python3
"""Time the chordal structure of a pattern in process, stage by stage.

Two inputs: the three patterns of the chordal-structure benchmark for a
seed (random chordal, n = 1200, cliques of at most 4 vertices; times are
means over the three), and the band-2 pattern on n = 100000 vertices.
Prints microseconds for these rows:

- csr: the compressed sparse rows of a fresh pattern (`Pattern._csr`);
- search: `pattern._chordal_structure` up to its call of `_are_pairs`:
  the maximum cardinality search and each edge's endpoints and follower;
- chordality test: that `_are_pairs` call;
- cliques: from there up to the call of `_lexicographic_order`;
- order: that `_lexicographic_order` call;
- tree: the rest, the clique tree's edges and gathers;
- total: the whole `_chordal_structure` call.

The stages are timed as differences of the least times of
`_chordal_structure` run up to a mark: with `_are_pairs` or
`_lexicographic_order` replaced by a stub that stops it on entry or on
return. So any checkout whose `_chordal_structure` calls these two
functions once each, in that order, can be timed alike. Noise on the
band-2 pattern, timed one call at a time, can leave a short stage there
slightly negative.

With the `src` directory of another checkout as argument, the same
inputs go through that checkout too, and the last column is the ratio of
its time to this one's. Each side runs in its own interpreter, the two
alternate for a number of rounds, and the least time of any round is
reported. Run from the repository root:

    PYTHONPATH=src python scripts/structure_timing.py [OTHER_SRC] [--rounds 2]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import timeit
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
ROWS = ("csr", "search", "chordality test", "cliques", "order", "tree", "total")
STOPS = (("_are_pairs", "enter"), ("_are_pairs", "return"), ("_lexicographic_order", "enter"), ("_lexicographic_order", "return"))


class _Stop(Exception):
    pass


def inputs(seed: int, band: int) -> dict[str, list[tuple[int, np.ndarray]]]:
    """(n, edges as an (m, 2) int64 array) of each input pattern, by input name."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import POOL_SIZE, random_chordal

    rng = np.random.default_rng([seed, 2])  # as the benchmark draws them
    pool = [(1200, np.array(random_chordal(rng, 1200)[0], dtype=np.int64)) for _ in range(POOL_SIZE)]
    edges = np.stack((np.arange(band - 1), np.arange(1, band)), axis=1)
    return {"chordal-structure": pool, f"band-2 n = {band}": [(band, np.concatenate((edges, edges[:-1] + [0, 1])))]}


def marks(pattern, p, repeats: int, number: int) -> list[float]:
    """The least times of the csr and of _chordal_structure up to each stop and in full, in microseconds."""

    def best(call) -> float:
        if number > 1:
            call()
        return min(timeit.repeat(call, number=number, repeat=repeats)) / number * 1e6

    def upto(name: str, when: str) -> float:
        real = getattr(pattern, name)

        def stub(*args):
            if when == "return":
                real(*args)
            raise _Stop

        def call():
            try:
                pattern._chordal_structure(p)
            except _Stop:
                pass

        with mock.patch.object(pattern, name, stub):
            return best(call)

    csr = best(lambda: pattern.Pattern(p.n, p.edge_array)._csr)
    return [csr] + [upto(*stop) for stop in STOPS] + [best(lambda: pattern._chordal_structure(p))]


def rows(marks: list[float]) -> dict[str, float]:
    """The table's rows from the marks: each stage the difference of two marks."""
    stages = np.diff([0.0] + marks[1:]).tolist()
    return dict(zip(ROWS, [marks[0], *stages, marks[-1]]))


def worker(src: str, seed: int, band: int, repeats: int) -> None:
    """Print the rows of each input under src, in microseconds."""
    sys.path.insert(0, src)
    from posext import pattern

    if Path(pattern.__file__).resolve().parent != (Path(src) / "posext").resolve():
        sys.exit(f"imported {pattern.__file__} instead of the sources under {src}")
    out = {}
    for name, cases in inputs(seed, band).items():
        got = []
        for n, edges in cases:
            p = pattern.validate_pattern(n, edges)
            p.indptr  # the search reads the CSR; its row times it on a fresh pattern
            got.append(marks(pattern, p, repeats, number=10 if n < 10_000 else 1))
        out[name] = np.mean(got, axis=0).tolist()
    print(json.dumps(out))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("other", nargs="?", help="the src directory of another checkout")
    ap.add_argument("--rounds", type=int, default=2, help="alternations of the two sides")
    ap.add_argument("--repeats", type=int, default=3, help="timings per row, input and round")
    ap.add_argument("--seed", type=int, default=1, help="the chordal-structure benchmark seed")
    ap.add_argument("--band", type=int, default=100_000, help="vertices of the band-2 pattern")
    ap.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker(args.worker, args.seed, args.band, args.repeats)
        return

    sources = [str(ROOT / "src")] + ([str(Path(args.other).resolve())] if args.other else [])
    least: list[dict] = [{} for _ in sources]
    for _ in range(args.rounds):
        for side, src in enumerate(sources):
            command = [sys.executable, __file__, "--worker", src, "--seed", str(args.seed),
                       "--band", str(args.band), "--repeats", str(args.repeats)]
            got = json.loads(subprocess.run(command, check=True, capture_output=True, text=True).stdout)
            for name, times in got.items():
                least[side][name] = np.minimum(least[side].get(name, np.inf), times).tolist()

    best = [{name: rows(times) for name, times in side.items()} for side in least]
    for name in best[0]:
        print(f"{name:<20} {'this us':>10}" + (f" {'other us':>10} {'other/this':>10}" if args.other else ""))
        for row in ROWS:
            line = f"  {row:<18} {best[0][name][row]:>10.1f}"
            if args.other:
                line += f" {best[1][name][row]:>10.1f} {best[1][name][row] / best[0][name][row]:>10.2f}"
            print(line)


if __name__ == "__main__":
    main()
