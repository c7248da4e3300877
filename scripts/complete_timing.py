#!/usr/bin/env python3
"""Time `complete` and `decompose` in process on band-2 n = 200 data.

The `complete` input is the band-complete benchmark's. Prints
microseconds for four things:

- completion: one `positive_completion` call;
- per fill step: that call's time less the time of the same call with
  its fill steps cut to none, over the number of steps (197): the
  separators' pseudo-inverses, gathers, products and scatters;
- emit and write: what the CLI does with the document that `complete`
  prints, written to a temporary file: `serialize.document_to_json`,
  then `writelines` of its pieces, a newline and a flush. A checkout
  whose serialize has no `document_to_json` writes the text of
  `serialize.dumps` instead, as its CLI does;
- decompose: one `rank_one_positive_decomposition` call on a sum of one
  random full-rank 3 x 3 PSD block per clique.

With the `src` directory of another checkout as argument, the same input
goes through that checkout too, and the last column is the ratio of its
time to this one's. Each side runs in its own interpreter, the two
alternate for a number of rounds, and the least time of any round is
reported. The emit-and-write row moves by up to ~15% with the process's
memory layout alone (identical sources have read 6.4 or 7.3 ms depending
on the length of their path), so compare it only between checkouts whose
paths have the same length. Run from the repository root:

    PYTHONPATH=src python scripts/complete_timing.py [OTHER_SRC] [--rounds 2]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
ROWS = ("completion", "per fill step", "emit and write", "decompose")


def band_pattern(n: int):
    """The band-2 pattern on n vertices: i ~ j when 0 < |i - j| <= 2."""
    from posext import validate_pattern

    return validate_pattern(n, [(i, j) for i in range(n) for j in range(i + 1, min(n, i + 3))])


def band_partial(seed: int, n: int = 200):
    """A band-2 partial matrix restricted from B B* / 6 + 0.1 I, B a complex n x 6 matrix."""
    from posext import restrict_to_pattern

    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))
    a = b @ b.conj().T / 6 + 0.1 * np.eye(n)
    return restrict_to_pattern(a, band_pattern(n))


def band_clique_sum(seed: int, n: int = 200) -> np.ndarray:
    """The sum over the band-2 cliques {s, s + 1, s + 2} of B B*, B a complex 3 x 3 matrix, made Hermitian."""
    rng = np.random.default_rng(seed)
    t = np.zeros((n, n), dtype=complex)
    for s in range(n - 2):
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        t[s : s + 3, s : s + 3] += b @ b.conj().T
    return (t + t.conj().T) / 2


def worker(src: str, seed: int, repeats: int) -> None:
    """Print the least times of the four rows under src, in microseconds."""
    sys.path.insert(0, src)
    from posext import completion, serialize

    if Path(completion.__file__).resolve().parent != (Path(src) / "posext").resolve():
        sys.exit(f"imported {completion.__file__} instead of the sources under {src}")
    m = band_partial(seed)
    result = completion.positive_completion(m)
    doc = {"matrix": serialize.matrix_to_json(result.matrix), "fill_log": serialize.fill_log_to_json(result)}

    def best(call, number: int) -> float:
        call()
        return min(timeit.repeat(call, number=number, repeat=repeats)) / number * 1e6

    times = {"completion": best(lambda: completion.positive_completion(m), 10)}
    steps = len(result.fills)
    fill_steps = completion._fill_steps

    def no_steps(tree, n):
        """What _fill_steps returns, each per-step sequence cut to no step and each pointer array to [0]."""
        out = fill_steps(tree, n)
        return tuple(a[:1] if len(a) == steps + 1 and a[0] == 0 else a[:0] for a in out)

    with mock.patch.object(completion, "_fill_steps", no_steps):
        times["per fill step"] = (times["completion"] - best(lambda: completion.positive_completion(m), 10)) / steps
    with tempfile.TemporaryFile("w", encoding="utf-8") as fh:

        def emit_and_write():
            if hasattr(serialize, "document_to_json"):
                pieces = serialize.document_to_json(doc)
            else:  # a checkout whose CLI writes the joined text
                pieces = [serialize.dumps(doc)]
            fh.seek(0)
            fh.writelines(pieces)
            fh.write("\n")
            fh.flush()

        times["emit and write"] = best(emit_and_write, 2)
    t, p = band_clique_sum(seed), band_pattern(200)
    times["decompose"] = best(lambda: completion.rank_one_positive_decomposition(t, p), 2)
    print(json.dumps(times))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("other", nargs="?", help="the src directory of another checkout")
    ap.add_argument("--rounds", type=int, default=2, help="alternations of the two sides")
    ap.add_argument("--repeats", type=int, default=5, help="timings per row and round")
    ap.add_argument("--seed", type=int, default=26)
    ap.add_argument("--worker", nargs=2, metavar=("SRC", "SEED"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker(args.worker[0], int(args.worker[1]), args.repeats)
        return

    sources = [str(ROOT / "src")] + ([str(Path(args.other).resolve())] if args.other else [])
    best = [dict.fromkeys(ROWS, float("inf")) for _ in sources]
    for _ in range(args.rounds):
        for side, src in enumerate(sources):
            command = [sys.executable, __file__, "--worker", src, str(args.seed), "--repeats", str(args.repeats)]
            got = json.loads(subprocess.run(command, check=True, capture_output=True, text=True).stdout)
            best[side] = {row: min(best[side][row], got[row]) for row in ROWS}

    print(f"{'band-2 n = 200':<16} {'this us':>9}" + (f" {'other us':>9} {'other/this':>10}" if args.other else ""))
    for row in ROWS:
        line = f"{row:<16} {best[0][row]:>9.1f}"
        if args.other:
            line += f" {best[1][row]:>9.1f} {best[1][row] / best[0][row]:>10.2f}"
        print(line)


if __name__ == "__main__":
    main()
