#!/usr/bin/env python3
"""Time the float kernel, `serialize._format_nonzero`, on four kinds of data.

Prints microseconds per call on 4096 nonzero values of each kind:

- band-complete: entries of a band-2 n = 200 positive completion, as
  `complete` prints them (most in exponent notation);
- order one: standard normal values;
- |x| >= 10: values 10^U(1, 16) of either sign, in fixed notation;
- dyadic: m 2^-e with m < 2^20 and e < 20, so most texts end early.

With the `src` directory of another checkout as argument, the same values
go through that checkout's kernel too, and the last column is the ratio
of its time to this one's. Each kernel runs in its own interpreter, the
two alternate for a number of rounds, and the least time per call of any
round is reported. Run from the repository root:

    PYTHONPATH=src python scripts/float_kernel_timing.py [OTHER_SRC] [--rounds 3]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
ROWS = 4096
KINDS = ("band-complete", "order one", "|x| >= 10", "dyadic")


def band_complete_values(rng: np.random.Generator, n: int = 200) -> np.ndarray:
    """The nonzero real and imaginary parts of a band-2 completion's upper triangle."""
    from posext import positive_completion, restrict_to_pattern, validate_pattern

    b = rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))
    a = b @ b.conj().T / 6 + 0.1 * np.eye(n)
    p = validate_pattern(n, [(i, j) for i in range(n) for j in range(i + 1, min(n, i + 3))])
    w = positive_completion(restrict_to_pattern(a, p)).matrix
    upper = w[np.triu_indices(n)]
    values = np.concatenate([upper.real, upper.imag])
    return values[values != 0]


def datasets(seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    sign = np.where(rng.random(ROWS) < 0.5, -1.0, 1.0)
    band = band_complete_values(rng)
    return {
        "band-complete": rng.choice(band, ROWS, replace=False),
        "order one": rng.standard_normal(ROWS),
        "|x| >= 10": sign * 10.0 ** rng.uniform(1, 16, ROWS),
        "dyadic": sign * rng.integers(1, 2**20, ROWS) * 2.0 ** -rng.integers(0, 20, ROWS),
    }


def worker(src: str, data: str, repeats: int) -> None:
    """Print the least time per call of the kernel under src on each dataset, in microseconds."""
    sys.path.insert(0, src)
    from posext import serialize

    if Path(serialize.__file__).resolve().parent != (Path(src) / "posext").resolve():
        sys.exit(f"imported {serialize.__file__} instead of the sources under {src}")
    arrays = np.load(data)
    times = {}
    for kind in KINDS:
        x = arrays[kind]
        serialize._format_nonzero(x)  # tables are built on first use
        timer = timeit.Timer(lambda: serialize._format_nonzero(x))
        number = 20
        times[kind] = min(timer.repeat(repeats, number)) / number * 1e6
    print(json.dumps(times))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("other", nargs="?", help="the src directory of another checkout")
    ap.add_argument("--rounds", type=int, default=2, help="alternations of the kernels")
    ap.add_argument("--repeats", type=int, default=5, help="timings of 20 calls per round")
    ap.add_argument("--seed", type=int, default=25)
    ap.add_argument("--worker", nargs=2, metavar=("SRC", "DATA"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker(*args.worker, args.repeats)
        return

    sources = [str(ROOT / "src")] + ([str(Path(args.other).resolve())] if args.other else [])
    best = [dict.fromkeys(KINDS, float("inf")) for _ in sources]
    with tempfile.TemporaryDirectory() as tmp:
        data = str(Path(tmp) / "values.npz")
        arrays = datasets(args.seed)
        np.savez(data, **arrays)
        for _ in range(args.rounds):
            for side, src in enumerate(sources):
                command = [sys.executable, __file__, "--worker", src, data, "--repeats", str(args.repeats)]
                got = json.loads(subprocess.run(command, check=True, capture_output=True, text=True).stdout)
                best[side] = {kind: min(best[side][kind], got[kind]) for kind in KINDS}

    header = f"{'data (4096 values)':<20} {'exponent share':>14} {'this us':>9}"
    print(header + (f" {'other us':>9} {'other/this':>10}" if args.other else ""))
    for kind in KINDS:
        x = np.abs(arrays[kind])
        share = np.mean((x < 1e-4) | (x >= 1e17))
        line = f"{kind:<20} {share:>14.0%} {best[0][kind]:>9.1f}"
        if args.other:
            line += f" {best[1][kind]:>9.1f} {best[1][kind] / best[0][kind]:>10.2f}"
        print(line)


if __name__ == "__main__":
    main()
