"""Exact CLI stdout on the fixture corpus, pinned against stored goldens.

`fixtures/golden_stdout.json` maps each argument list (fixture file names
and flags joined by spaces) to the exact stdout of `posext` on it. A
change that alters any of these bytes must say which bytes changed and
why.
Add the entries of new cases with `PYTHONPATH=src python tests/test_golden.py`.
It writes only the missing keys: when an existing entry renders
differently it names the key, writes nothing and exits 1, so a changed
byte is never re-pinned by a regeneration.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from posext.cli import main
from test_cli import ALL_COMMANDS, fx

GOLDEN = Path(__file__).parent / "fixtures" / "golden_stdout.json"

CASES = ALL_COMMANDS + [
    ("clique-tree", "pattern_band2_n6.json"),
    ("clique-tree", "pattern_two_blocks.json"),
    ("complete", "partial_mixed_separators.json"),
    # H = {0} in S3: zero off H, with no sign that depends on how S3 is labelled
    ("group-extend", "group_s3.json", "subset_s3_identity.json", "fn_s3_identity.json"),
] + [
    (*argv, "--pretty")
    for argv in [
        ("complete", "partial_band09_n3.json"),
        ("complete", "partial_block_d2_n3.json"),
        ("complete", "partial_mixed_separators.json"),
        ("apply-mult", "partial_band09_n3.json", "matrix_tband1_n3.json"),
        ("decompose", "matrix_tband1_n3.json", "pattern_complete3.json"),
        ("group-extend", "group_z6.json", "subset_z6_evens.json", "fn_z6_evens.json"),
        ("clique-tree", "pattern_band2_n6.json"),
        ("peo", "pattern_band2_n6.json"),
        ("square-partition", "pattern_cycle4.json"),
        ("star-pattern", "group_z6.json", "subset_z6_evens.json"),
        ("star-pattern", "group_s3.json", "subset_s3_reflection.json"),
        ("partially-positive", "partial_cycle4_witness.json"),
        ("cliques", "pattern_two_blocks.json"),
        ("cliques", "pattern_cycle4.json"),
    ]
] + [
    ("cliques", "pattern_cycle4.json"),
] + [
    (*argv, *flags)
    for argv in [
        ("square-partition", "pattern_nonchordal_components.json"),
        ("square-partition", "pattern_chordal_components.json"),
        ("peo", "pattern_chordal_components.json"),
        ("clique-tree", "pattern_chordal_components.json"),
    ]
    for flags in [(), ("--pretty",)]
] + [
    ("cliques", "pattern_chordal_components.json"),
    ("clique-tree", "pattern_empty.json"),
    ("cliques", "pattern_empty.json"),
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


def add_missing() -> int:
    """Add the entries of cases without one; 1, writing nothing, if an entry has changed."""
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    changed = []
    for argv in CASES:
        key, text = " ".join(argv), render(argv)
        if doc.setdefault(key, text) != text:
            changed.append(key)
    if changed:
        print("stdout differs from the golden entry of:", *changed, sep="\n  ", file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(add_missing())
