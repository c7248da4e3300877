"""Exact CLI stdout on the fixture corpus, pinned against stored goldens.

`fixtures/golden_stdout.json` maps each argument list (fixture file names
and flags joined by spaces) to the exact stdout of `posext` on it. A
change that alters any of these bytes must say which bytes changed and
why.
Regenerate with `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from posext.cli import main
from test_cli import ALL_COMMANDS, fx

GOLDEN = Path(__file__).parent / "fixtures" / "golden_stdout.json"

CASES = ALL_COMMANDS + [
    ("clique-tree", "pattern_band2_n6.json"),
    ("clique-tree", "pattern_two_blocks.json"),
] + [
    (*argv, "--pretty")
    for argv in [
        ("complete", "partial_band09_n3.json"),
        ("complete", "partial_block_d2_n3.json"),
        ("apply-mult", "partial_band09_n3.json", "matrix_tband1_n3.json"),
        ("decompose", "matrix_tband1_n3.json", "pattern_complete3.json"),
        ("group-extend", "group_z6.json", "subset_z6_evens.json", "fn_z6_evens.json"),
        ("clique-tree", "pattern_band2_n6.json"),
    ]
]


def render(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([argv[0], *(a if a.startswith("--") else fx(a) for a in argv[1:])]) == 0
    return out.getvalue()


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_stdout_matches_golden(argv):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert render(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    doc = {" ".join(argv): render(argv) for argv in CASES}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
