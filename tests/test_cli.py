import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    ROWS_FIELDS,
    band_pattern,
    malformed_documents,
    partial_document,
    random_chordal_components,
    random_psd,
    rows_document,
    tree_views,
)
from posext import (
    Pattern,
    clique_tree,
    is_psd,
    maximal_cliques,
    positive_completion,
    restrict_to_pattern,
    validate_pattern,
    verify_extension,
)
from posext import cli
from posext import serialize as ser
from posext.cli import main
from posext.errors import InputError
from posext.groupext import validate_group

FIXTURES = Path(__file__).parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_chordal_command(capsys):
    code, out = run_cli(capsys, "chordal", fx("pattern_cycle4.json"))
    assert code == 0
    assert json.loads(out) == {"chordal": False}


def test_complete_command_reports_fill(capsys):
    code, out = run_cli(capsys, "complete", fx("partial_band09_n3.json"))
    assert code == 0
    doc = json.loads(out)
    entry = next(
        e for e in doc["matrix"]["entries"] if (e["i"], e["j"]) == (0, 2)
    )
    assert abs(entry["re"] - 0.81) <= 1e-12
    assert doc["fill_log"] == [{"separator": [1], "pair": [0, 2]}]


def test_complete_infeasible_exits_3(capsys):
    code, out = run_cli(capsys, "complete", fx("partial_cycle4_witness.json"))
    assert code == 3
    assert out == ""


def test_group_extend_nonchordal_exits_3(capsys):
    code, out = run_cli(
        capsys,
        "group-extend",
        fx("group_z5.json"),
        fx("subset_z5_cycle.json"),
        fx("fn_z5_cycle.json"),
    )
    assert code == 3 and out == ""


def test_group_extend_failure_names_the_first_coset(tmp_path, capsys):
    """A relabelled Z_6 with identity 3 and H = {2, 3}: the error names the coset (0, 4), not H."""
    a = np.arange(6)
    label = np.array([3, 0, 1, 2, 4, 5])
    table = np.empty((6, 6), dtype=int)
    table[label[:, None], label] = label[(a[:, None] + a) % 6]
    docs = {
        "group": {"order": 6, "table": table.tolist(), "identity": 3},
        "subset": {"members": [2, 3]},
        "function": {"values": [{"g": 3, "re": 1, "im": 0}, {"g": 2, "re": 2, "im": 0}]},
    }
    paths = []
    for name, doc in docs.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    code = main(["group-extend", *map(str, paths)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        3,
        "",
        "error: NotPositiveDefinite: kernel fails: clique (0, 4) has a non-PSD block\n",
    )


@pytest.mark.parametrize(
    "group, subset, function",
    [
        ("group_z6.json", "subset_z6_evens.json", "fn_z6_evens.json"),
        ("group_s3.json", "subset_s3_reflection.json", "fn_s3_reflection.json"),
        ("group_z5.json", "subset_z5_cycle.json", "fn_z5_cycle.json"),
    ],
)
def test_group_extend_builds_no_pattern_and_no_completion(
    monkeypatch, capsys, group, subset, function
):
    """group-extend answers without the induced pattern or a chordal completion."""
    argv = ("group-extend", fx(group), fx(subset), fx(function))
    expected = run_cli(capsys, *argv)

    def forbidden(*args, **kwargs):
        raise AssertionError("group-extend went through the dense completion route")

    for module in [m for name, m in sys.modules.items() if name.startswith("posext.")]:
        for name in ("star_pattern", "positive_completion"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    assert run_cli(capsys, *argv) == expected


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(capsys, "chordal", str(bad))[0] == 2
    missing = tmp_path / "missing.json"
    assert run_cli(capsys, "chordal", str(missing))[0] == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"n": 2, "edges": [[0, 9]]}')
    assert run_cli(capsys, "chordal", str(wrong))[0] == 2


def _partial(n=2, d=1, i=1, j=1) -> dict:
    """A 2 x 2 diagonal partial matrix with one field replaced."""
    one = [[{"re": 1, "im": 0}]]
    return {
        "n": n,
        "d": d,
        "pattern": {"n": 2, "edges": []},
        "blocks": [{"i": 0, "j": 0, "block": one}, {"i": i, "j": j, "block": one}],
    }


def _matrix(n=2, i=0, j=1) -> dict:
    return {"n": n, "entries": [{"i": i, "j": j, "re": 0, "im": 0}]}


def _function(g) -> dict:
    return {"values": [{"g": 0, "re": 1, "im": 0}, {"g": g, "re": 0.5, "im": 0}]}


# Fixture files that precede the malformed document on the command line.
_LEAD = {
    "star-pattern": ("group_z4.json",),
    "group-extend": ("group_z4.json", "subset_z4_02.json"),
}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("chordal", {"n": 3, "edges": [[0]]}),
        ("chordal", {"n": 3, "edges": [[0, 1, 2]]}),
        ("chordal", {"n": 3, "edges": [[0.5, 1]]}),
        ("chordal", {"n": 3, "edges": [["0", 1]]}),
        ("group-validate", {"table": [[0, 1], [1, 0.5]], "identity": 0}),
        ("group-validate", {"table": [[0, 1], [1, 0]], "identity": 0.7}),
        # integer fields that a bare int() used to truncate
        ("chordal", {"n": 3.7, "edges": [[0, 1]]}),
        ("chordal", {"n": math.inf, "edges": []}),
        ("chordal", {"n": "3", "edges": []}),
        ("star-pattern", {"members": [0, 2.5]}),
        ("star-pattern", {"members": [0, None]}),
        ("cb-norm", _matrix(n=2.5)),
        ("cb-norm", _matrix(i=0.5)),
        ("cb-norm", _matrix(j=1.5)),
        ("cb-norm", _matrix(j=-math.inf)),
        ("partially-positive", _partial(n=2.5)),
        ("partially-positive", _partial(d=1.5)),
        ("partially-positive", _partial(d="1")),
        ("partially-positive", _partial(i=1.2)),
        ("partially-positive", _partial(j=1.9)),
        ("partially-positive", _partial(j=math.inf)),
        ("group-extend", _function(2.5)),
        ("group-extend", _function("2")),
        # circle sets whose intervals or points are not lists, or whose interval has three endpoints
        ("circle-predicates", {"intervals": ["01"], "points": "0"}),
        ("circle-predicates", {"intervals": [["0", "1/2", "1"]], "points": []}),
        ("circle-predicates", {"intervals": [["0", "1"]]}),
    ],
)
def test_malformed_integers_exit_2(tmp_path, capsys, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main([command, *map(fx, _LEAD.get(command, ())), str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: InputError: ")
    assert captured.err.count("\n") == 1


_ONE = [[{"re": 1, "im": 0}]]


@pytest.mark.parametrize(
    "command, doc",
    [
        ("chordal", {"n": 3, "edges": [[True, 2]]}),
        ("chordal", {"n": True, "edges": []}),
        ("group-validate", {"table": [[0, 1], [1, False]], "identity": 0}),
        ("group-validate", {"table": [[0, 1], [1, 0]], "identity": False}),
        ("star-pattern", {"members": [False, 2]}),
        ("cb-norm", {"n": True, "entries": [{"i": 0, "j": 0, "re": 1, "im": 0}]}),
        ("cb-norm", _matrix(i=False)),
        ("cb-norm", _matrix(j=True)),
        ("partially-positive", _partial(d=True)),
        ("partially-positive", _partial(i=True)),
        ("partially-positive", _partial(j=True)),
        (
            "partially-positive",
            {"n": True, "d": 1, "pattern": {"n": 1, "edges": []},
             "blocks": [{"i": 0, "j": 0, "block": _ONE}]},
        ),
        ("group-extend", {"values": [{"g": False, "re": 1, "im": 0}, {"g": 2, "re": 0.5, "im": 0}]}),
        ("cb-norm", {"n": 1, "entries": [{"i": 0, "j": 0, "re": True, "im": 0}]}),
        ("cb-norm", {"n": 1, "entries": [{"i": 0, "j": 0, "re": "2.5", "im": "0"}]}),
        (
            "partially-positive",
            {"n": 1, "d": 1, "pattern": {"n": 1, "edges": []},
             "blocks": [{"i": 0, "j": 0, "block": [[{"re": 1, "im": False}]]}]},
        ),
        (
            "partially-positive",
            {"n": 1, "d": 1, "pattern": {"n": 1, "edges": []},
             "blocks": [{"i": 0, "j": 0, "block": [[{"re": "1", "im": 0}]]}]},
        ),
        ("group-extend", {"values": [{"g": 0, "re": True, "im": 0}, {"g": 2, "re": 0.5, "im": 0}]}),
        ("group-extend", {"values": [{"g": 0, "re": 1, "im": 0}, {"g": 2, "re": "0.5", "im": 0}]}),
    ],
    ids=[
        "edge", "pattern-n", "table", "identity", "members", "matrix-n", "entry-i",
        "entry-j", "partial-d", "block-i", "block-j", "partial-n", "function-g",
        "entry-re", "entry-re-string", "block-im", "block-re-string", "function-re",
        "function-re-string",
    ],
)
def test_booleans_are_not_integers(tmp_path, capsys, command, doc):
    """Each of these documents was read with true as 1, false as 0 and "2.5" as 2.5."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main([command, *map(fx, _LEAD.get(command, ())), str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: InputError: ")


_ZERO = {"re": 0, "im": 0}


@pytest.mark.parametrize(
    "doc, err",
    [
        (_partial(i=0, j=0), "InputError: duplicate block (0,0)"),
        (
            {"n": 1, "d": 2, "pattern": {"n": 1, "edges": []},
             "blocks": [{"i": 0, "j": 0, "block": [[_ONE[0][0], _ZERO], [_ONE[0][0]]]}]},
            "DimensionMismatch: block (0, 0) has shape (2,), expected (2,2)",
        ),
    ],
    ids=["duplicate", "ragged"],
)
def test_malformed_blocks_exit_2(tmp_path, capsys, doc, err):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main(["partially-positive", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {err}\n")


_GOOD_ITEM = {"i": 0, "j": 0, "block": _ONE}


@pytest.mark.parametrize(
    "blocks, err",
    [
        ({"0": _GOOD_ITEM}, "blocks must be a list of block items, got dict"),
        ([_GOOD_ITEM, 5], "block item 1 must be an object, got int"),
        ([{"j": 0, "block": _ONE}], 'block item 0 has no "i"'),
        ([_GOOD_ITEM, {"i": 1, "block": _ONE}], 'block item 1 has no "j"'),
        ([{"i": 0, "j": 0}], 'block item 0 has no "block"'),
        ([{"i": 0, "j": 0, "block": {"0": _ONE[0]}}], "block item 0: block must be a list of rows, got dict"),
        ([{"i": 0, "j": 0, "block": ["ab"]}], "block item 0: a row of block must be a list, got str"),
        ([_GOOD_ITEM, {"i": 1, "j": 1, "block": [[[1, 0]]]}], "block item 1: an entry must be an object, got list"),
        ([{"i": 0, "j": 0, "block": [[{"im": 0}]]}], 'block item 0: an entry has no "re"'),
        ([{"i": 0, "j": 0, "block": [[{"re": 1}]]}], 'block item 0: an entry has no "im"'),
    ],
    ids=[
        "blocks-object", "item-int", "no-i", "no-j", "no-block", "block-object", "row-string",
        "entry-list", "no-re", "no-im",
    ],
)
def test_malformed_block_items_exit_2_naming_the_item_and_field(tmp_path, capsys, blocks, err):
    """Each of these ended as a KeyError or TypeError caught only by main's catch-all."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"n": 2, "d": 1, "pattern": {"n": 2, "edges": []}, "blocks": blocks}))
    code = main(["partially-positive", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: InputError: {err}\n")


_ENTRY = {"i": 0, "j": 0, "re": 1, "im": 0}


@pytest.mark.parametrize("command", ["cb-norm", "verify"])
@pytest.mark.parametrize(
    "doc, err",
    [
        ({"n": 1, "entries": [{"i": 0, "j": 0, "re": 1}]}, 'entry 0 has no "im"'),
        ({"n": 1, "entries": [{"i": 0, "j": 0, "im": 0}]}, 'entry 0 has no "re"'),
        ({"n": 1, "entries": [{"j": 0, "re": 1, "im": 0}]}, 'entry 0 has no "i"'),
        ({"n": 1, "entries": [_ENTRY, {"i": 0, "re": 1, "im": 0}]}, 'entry 1 has no "j"'),
        ({"entries": []}, 'a matrix has no "n"'),
        ({"n": 1}, 'a matrix has no "entries"'),
        ({"n": 1, "entries": {"a": 1}}, "entries must be a list of entry objects, got dict"),
        ({"n": 1, "entries": [[0, 0, 1]]}, "entry 0 must be an object, got list"),
        ([1], "a matrix must be an object, got list"),
    ],
    ids=["no-im", "no-re", "no-i", "no-j", "no-n", "no-entries", "entries-object", "entry-list", "top-list"],
)
def test_malformed_matrix_entries_exit_2_naming_the_entry_and_field(tmp_path, capsys, command, doc, err):
    """Each of these ended as a KeyError or TypeError caught only by main's catch-all."""
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(doc))
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"n": 1, "d": 1, "pattern": {"n": 1, "edges": []}, "blocks": [_GOOD_ITEM]}))
    code = main([command, *([str(partial)] if command == "verify" else []), str(matrix)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: InputError: {err}\n")


@pytest.mark.parametrize(
    "command, subset, function, err",
    [
        ("group-extend", [0], {"values": [{"g": 0, "re": 1}]}, 'value 0 has no "im"'),
        ("group-extend", [0], {"values": [{"re": 1, "im": 0}]}, 'value 0 has no "g"'),
        ("group-extend", [0], {"values": {"a": 1}}, "values must be a list of value objects, got dict"),
        ("group-extend", [0], {"values": [{"g": 0, "re": 1, "im": 0}, 5]}, "value 1 must be an object, got int"),
        ("group-extend", [0], {}, 'a function has no "values"'),
        ("group-extend", [0], [1], "a function must be an object, got list"),
        ("star-pattern", None, None, 'a subset has no "members"'),
        ("chordal-subset", 5, None, "members must be a list of group elements, got int"),
    ],
    ids=["no-im", "no-g", "values-object", "value-int", "no-values", "function-list", "no-members", "members-int"],
)
def test_malformed_functions_and_subsets_exit_2_naming_the_value_and_field(
    tmp_path, capsys, command, subset, function, err
):
    """Each of these ended as a KeyError or TypeError caught only by main's catch-all."""
    subset_path, function_path = tmp_path / "subset.json", tmp_path / "function.json"
    subset_path.write_text(json.dumps({} if subset is None else {"members": subset}))
    function_path.write_text(json.dumps(function))
    args = [str(FIXTURES / "group_z4.json"), str(subset_path)]
    code = main([command, *args, *([str(function_path)] if function is not None else [])])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: InputError: {err}\n")


def _values(*triples) -> dict:
    return {"values": [{"g": g, "re": re, "im": im} for g, re, im in triples]}


_PD_CHECK = ("pd-check", "group_z4.json", "subset_z4_02.json", None)
_BAND09_N4 = {**json.loads((FIXTURES / "partial_band09_n3.json").read_text()), "n": 4}


@pytest.mark.parametrize(
    "argv, doc, err",
    [
        (("star-pattern", "group_z4.json", None), {"members": [0, 99]}, "DomainMismatch: subset members outside [0,4)"),
        (("star-pattern", "group_z4.json", None), {"members": [1, 3]}, "InputError: subset must contain the identity"),
        (("star-pattern", "group_z4.json", None), {"members": [0, 1]}, "InputError: subset must be closed under inverses"),
        (_PD_CHECK, _values((0, 1, 0), (2, 0.5, 0.1)), "InputError: function is not Hermitian-symmetric at element 2"),
        (_PD_CHECK, _values((0, 1, 0), (0, 1, 0), (2, 0.5, 0)), "InputError: duplicate value for element 0"),
        (_PD_CHECK, _function(9), "DomainMismatch: function arguments outside [0,4)"),
        (("cb-norm", None), {"n": -1, "entries": []}, "InputError: matrix dimension must be nonnegative, got -1"),
        (
            ("cb-norm", "matrix_identity4.json", "--block-size", "3"), None,
            "DimensionMismatch: dimension 4 is not a multiple of block size 3",
        ),
        (
            ("apply-mult", "partial_band09_n3.json", "matrix_identity4.json"), None,
            "DimensionMismatch: matrix has shape (4, 4), expected (3, 3)",
        ),
        (
            ("verify", "partial_band09_n3.json", "matrix_identity4.json"), None,
            "DimensionMismatch: matrix has shape (4, 4), expected (3, 3)",
        ),
        (("complete", None), _BAND09_N4, "InputError: n = 4 disagrees with the pattern's 3"),
    ],
    ids=[
        "member-99", "no-identity", "not-inverse-closed", "not-hermitian", "duplicate-g", "g-9",
        "negative-n", "block-size-3", "apply-mult-shape", "verify-shape", "n-disagrees",
    ],
)
def test_invalid_subsets_functions_and_dimensions_exit_2_naming_the_fault(tmp_path, capsys, argv, doc, err):
    """The library's own checks of valid JSON; None in argv is the file holding doc."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    args = [str(path) if a is None else fx(a) if a.endswith(".json") else a for a in argv[1:]]
    code = main([argv[0], *args])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {err}\n")


def test_cb_norm_takes_a_block_size_that_divides_the_dimension(capsys):
    assert run_cli(capsys, "cb-norm", fx("matrix_identity4.json"), "--block-size", "2") == (0, '{"cb_norm":1}\n')


def test_apply_mult_overflow_exits_2(tmp_path):
    """1e200 * 1e200 overflows: one error line, no warning and no traceback."""
    big = {"re": 1e200, "im": 0}
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(
        {"n": 1, "d": 1, "pattern": {"n": 1, "edges": []},
         "blocks": [{"i": 0, "j": 0, "block": [[big]]}]}
    ))
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"n": 1, "entries": [{"i": 0, "j": 0, **big}]}))
    proc = subprocess.run(
        [sys.executable, "-m", "posext", "apply-mult", str(partial), str(matrix)],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: InputError: entry (0,0) of the product overflows\n"


def _run_complete(name):
    return subprocess.run(
        [sys.executable, "-m", "posext", "complete", fx(name)], capture_output=True, text=True
    )


def test_complete_treats_a_subnormal_separator_eigenvalue_as_zero():
    """1 / 1e-310 overflows to inf; the pseudo-inverse drops that eigenvalue instead of filling NaN."""
    name = "partial_subnormal_separator.json"
    proc = _run_complete(name)
    assert (proc.returncode, proc.stderr) == (0, "")
    m = ser.partial_from_json(ser.load_json(fx(name)))
    phi = ser.matrix_from_json(json.loads(proc.stdout)["matrix"])
    assert phi[0, 2] == 0 and np.isfinite(phi).all()
    assert verify_extension(m, phi)


def test_complete_with_a_fill_beyond_the_float_range_exits_2(capsys):
    """1e295 * 1e300 * 1e295 overflows: one error line naming the entry, no warning and no traceback."""
    code, out = run_cli(capsys, "partially-positive", fx("partial_overflowing_fill.json"))
    assert (code, json.loads(out)["partially_positive"]) == (0, True)
    proc = _run_complete("partial_overflowing_fill.json")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: InputError: entry (0,2) of the completion overflows\n"


def test_decompose_with_a_factor_beyond_the_float_range_exits_2():
    """Positive definite, but its largest eigenvalue, ~2.9e308, overflows: one error line naming the entry, no warning and no traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "posext", "decompose", fx("matrix_overflowing_factor.json"), fx("pattern_complete3.json")],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: InputError: entry 0 of factor 1 overflows\n"


def _assert_decompose_sums_back(capsys, matrix, pattern, rank):
    """decompose exits 0, each factor lies inside a clique, and the factors miss T by at most 1e-5 max |T|."""
    files = fx(matrix), fx(pattern)
    t = ser.matrix_from_json(ser.load_json(files[0]))
    p = ser.pattern_from_json(ser.load_json(files[1]))
    assert is_psd(t) and np.linalg.matrix_rank(t) == rank
    code, out = run_cli(capsys, "decompose", *files)
    assert code == 0
    factors = json.loads(out)["factors"]
    cliques = [set(c) for c in maximal_cliques(p)]
    recon = np.zeros((p.n, p.n), dtype=complex)
    for f in factors:
        v = np.array([complex(x["re"], x["im"]) for x in f["vector"]])
        held = set(f["support"]) | set(np.flatnonzero(v).tolist())
        assert any(held <= c for c in cliques)
        recon += np.outer(v, v.conj())
    assert np.abs(recon - t).max() <= 1e-5 * np.abs(t).max()


def test_decompose_drops_part_eigenvalues_that_elimination_pushes_below_tol(capsys):
    """A rank-8 sum of one v v^T per clique of band-2 n = 10 that is_psd accepts.

    Undamped, elimination left a part the eigenvalue -8.0e-06, below
    -tol = -2.2e-09, and dropping it put the factors 4.7e-06 off. The
    damped leaf step keeps every part eigenvalue above -tol: 9 factors,
    9.3e-12 off.
    """
    _assert_decompose_sums_back(capsys, "matrix_band2_n10_rank8.json", "pattern_band2_n10.json", 8)


def test_decompose_of_a_rank_deficient_band2_clique_sum(capsys):
    """One real standard-normal 3-vector per clique of band-2 n = 100 (seed 0), rank 98.

    Undamped, small pivots amplified the rounding along the tree until the
    root part had the eigenvalue -7.2, and the call exited 3.
    """
    _assert_decompose_sums_back(
        capsys, "matrix_band2_n100_rank_deficient.json", "pattern_band2_n100.json", 98
    )


def test_decompose_exits_3_where_dropped_part_eigenvalues_would_miss_the_matrix(capsys):
    """Band-1 n = 3 with T[2,2] = 1e-8, T[1,2]^2 = 1.1e-8: is_psd accepts it (least eigenvalue -1e-9).

    The leaf step leaves the root part an eigenvalue -0.1; dropping it would
    give factors that sum to 1.1 at (1,1), where T has 1.
    """
    files = fx("matrix_band1_n3_near_indefinite.json"), fx("pattern_band1_n3.json")
    assert is_psd(ser.matrix_from_json(ser.load_json(files[0])))
    code, out = run_cli(capsys, "decompose", *files)
    assert (code, out) == (3, "")


def test_pd_check_on_a_non_chordal_subset_of_a_large_group(tmp_path, capsys):
    """Only the cliques inside E = {0, 1, 20} are enumerated, not those of Z_21."""
    n = 21
    table = {"order": n, "table": [[(a + b) % n for b in range(n)] for a in range(n)], "identity": 0}
    values = [{"g": g, "re": re, "im": 0} for g, re in ((0, 1), (1, 0.1), (20, 0.1))]
    files = []
    for name, doc in (("g", table), ("e", {"members": [0, 1, 20]}), ("u", {"values": values})):
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(json.dumps(doc))
    code, out = run_cli(capsys, "pd-check", *map(str, files))
    assert code == 0 and json.loads(out) == {"positive_definite": True}


def test_whole_number_floats_still_read_as_integers(tmp_path, capsys):
    """A JSON 2.0 is the integer 2, as it was."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_partial(n=2.0, d=1.0, i=1.0, j=1)))
    code, out = run_cli(capsys, "partially-positive", str(path))
    assert code == 0 and json.loads(out)["partially_positive"] is True


def test_size_limit_exits_4(tmp_path, capsys):
    n = 22
    edges = [[i, (i + 1) % n] for i in range(n)]
    f = tmp_path / "big_cycle.json"
    f.write_text(json.dumps({"n": n, "edges": edges}))
    code, _ = run_cli(capsys, "cliques", str(f))
    assert code == 4


@pytest.mark.parametrize("depth", ["10001", "1000000000"])
def test_cexi_depth_beyond_the_cap_exits_4_before_building(capsys, depth):
    code = main(["cexi", depth])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == f"error: depth {depth} exceeds the cap of 10000\n"


def test_huge_matrix_dimension_exits_4_before_allocating(tmp_path, capsys):
    f = tmp_path / "huge.json"
    f.write_text(json.dumps({"n": 10000000, "entries": []}))
    code = main(["cb-norm", str(f)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == "error: dense matrix dimension 10000000 exceeds the cap of 4096\n"


@pytest.mark.parametrize("message", ["Unable to allocate 7.45 GiB for an array", ""])
def test_running_out_of_memory_exits_4_with_one_line(monkeypatch, capsys, message):
    """A pattern within every cap can still outgrow memory: exit 4, not a traceback."""
    from posext import pattern

    def exhausted(p):
        raise MemoryError(message)

    monkeypatch.setattr(pattern, "_chordal_structure", exhausted)
    code = main(["chordal", fx("pattern_band1_n4.json")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == f"error: MemoryError: {message or 'out of memory'}\n"


def _stdout_on(p: Pattern, *argv) -> str:
    """The stdout of the CLI on argv, with p in place of the pattern file."""
    out = io.StringIO()
    with mock.patch.object(cli, "_load_pattern", return_value=p), contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def _json_text(doc, pretty: bool) -> str:
    return json.dumps(doc, **({"indent": 2} if pretty else {"separators": (",", ":")})) + "\n"


def _assert_tree_and_cliques_emit_as_json(p: Pattern, pretty: bool) -> None:
    flag = ["--pretty"] if pretty else []
    tree = clique_tree(p)
    views = tree_views(tree)
    assert _stdout_on(p, "clique-tree", "pattern.json", *flag) == _json_text(views, pretty)
    cliques = {"cliques": maximal_cliques(p)}
    assert _stdout_on(p, "cliques", "pattern.json", *flag) == _json_text(cliques, pretty)


@st.composite
def chordal_patterns(draw):
    """Random chordal patterns of up to 40 vertices, often disconnected, with isolated vertices."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 40))
    return random_chordal_components(rng, n, draw(st.integers(1, 5)), draw(st.floats(0.0, 0.6)))


@settings(max_examples=60, deadline=None)
@example(validate_pattern(0, []), False)
@example(validate_pattern(1, []), True)
@example(validate_pattern(4, [(1, 2)]), True)
@given(chordal_patterns(), st.booleans())
def test_clique_tree_and_cliques_stdout_is_json_of_the_tuple_views(p, pretty):
    _assert_tree_and_cliques_emit_as_json(p, pretty)


@pytest.mark.parametrize("pretty", [False, True])
def test_cliques_stdout_of_the_non_chordal_fixture_is_json_of_maximal_cliques(capsys, pretty):
    flag = ["--pretty"] if pretty else []
    p = ser.pattern_from_json(ser.load_json(fx("pattern_cycle4.json")))
    assert not p.structure.chordal
    code, out = run_cli(capsys, "cliques", fx("pattern_cycle4.json"), *flag)
    assert (code, out) == (0, _json_text({"cliques": maximal_cliques(p)}, pretty))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 10), st.floats(0.1, 0.7), st.booleans())
def test_cliques_stdout_of_small_patterns_is_json_of_maximal_cliques(seed, n, density, pretty):
    """Chordal patterns emit the clique tree's arrays, others Bron-Kerbosch's cliques: the same text."""
    rng = np.random.default_rng(seed)
    p = validate_pattern(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density])
    flag = ["--pretty"] if pretty else []
    expected = _json_text({"cliques": maximal_cliques(p)}, pretty)
    assert _stdout_on(p, "cliques", "pattern.json", *flag) == expected


@pytest.mark.parametrize("pretty", [False, True])
def test_clique_tree_stdout_of_a_big_clique_with_pendant_vertices(pretty):
    """Clique {0..1499} with pendant vertices 1500 + k on 75 k, and an isolated vertex."""
    n = 1521
    i, j = np.triu_indices(1500, 1)
    pendants = [(75 * k, 1500 + k) for k in range(20)]
    edges = np.concatenate((np.stack((i, j), axis=1), pendants))
    p = Pattern(n, edges[np.argsort(edges[:, 0] * n + edges[:, 1])])
    assert len(clique_tree(p).clique_ptr) == 23
    _assert_tree_and_cliques_emit_as_json(p, pretty)


def test_boolean_false_still_exits_0(capsys):
    code, out = run_cli(
        capsys, "chordal-subset", fx("group_z5.json"), fx("subset_z5_cycle.json")
    )
    assert code == 0
    assert json.loads(out) == {"chordal_subset": False}


def test_cexi_command(capsys):
    code, out = run_cli(capsys, "cexi", "1")
    assert code == 0
    assert json.loads(out) == {
        "intervals": [["-1", "-1/2"], ["1/2", "1"]],
        "points": ["0"],
    }
    code, out = run_cli(capsys, "cexi", "1", "--t", "9/10,3/10")
    assert json.loads(out) == {
        "intervals": [["-9/10", "-3/10"], ["3/10", "9/10"]],
        "points": ["0"],
    }


def test_circle_predicates_command(capsys):
    code, out = run_cli(capsys, "circle-predicates", fx("circle_cexi2.json"))
    assert code == 0
    assert json.loads(out) == {
        "symmetric": True,
        "contains_zero": True,
        "closure_of_interior": False,
        "generated_by_squares": False,
    }


def test_pretty_flag_changes_layout_not_content(capsys):
    _, plain = run_cli(capsys, "cliques", fx("pattern_band1_n4.json"))
    _, pretty = run_cli(capsys, "cliques", fx("pattern_band1_n4.json"), "--pretty")
    assert plain != pretty
    assert json.loads(plain) == json.loads(pretty)


def test_tol_flag_is_accepted(capsys):
    for tol in ("1e-6", "0"):
        code, out = run_cli(
            capsys, "partially-positive", fx("partial_band09_n3.json"), "--tol", tol
        )
        assert code == 0
        assert json.loads(out)["partially_positive"] is True


def _with_number(tmp_path, name, path, value):
    """Copy of a fixture with the number at the given key path replaced."""
    doc = json.loads((FIXTURES / name).read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    out = tmp_path / name
    out.write_text(json.dumps(doc))  # writes the Infinity / NaN tokens
    return str(out)


@pytest.mark.parametrize(
    "argv, path, value",
    [
        pytest.param(
            ("decompose", "!matrix_tband1_n3.json", "pattern_complete3.json"),
            ("entries", 1, "re"), math.inf, id="decompose-inf",
        ),
        pytest.param(
            ("cb-norm", "!matrix_identity4.json"),
            ("entries", 1, "re"), math.inf, id="cb-norm-inf",
        ),
        pytest.param(
            ("complete", "!partial_band09_n3.json"),
            ("blocks", 0, "block", 0, 0, "re"), math.inf, id="complete-inf-diagonal",
        ),
        pytest.param(
            ("partially-positive", "!partial_band09_n3.json"),
            ("blocks", 1, "block", 0, 0, "re"), math.nan, id="partially-positive-nan",
        ),
        pytest.param(
            ("verify", "partial_band09_n3.json", "!matrix_band09_completed.json"),
            ("entries", 2, "im"), -math.inf, id="verify-minus-inf",
        ),
        pytest.param(
            ("group-extend", "group_z4.json", "subset_z4_02.json", "!fn_z4.json"),
            ("values", 1, "re"), math.inf, id="group-extend-inf",
        ),
        pytest.param(
            ("cb-norm", "!matrix_identity4.json"),
            ("entries", 1, "re"), 10**400, id="cb-norm-int-beyond-double",
        ),
    ],
)
def test_non_finite_input_exits_2(tmp_path, capsys, argv, path, value):
    """The fixture marked "!" gets a non-finite number at `path`."""
    files = [
        _with_number(tmp_path, name[1:], path, value) if name[0] == "!" else fx(name)
        for name in argv[1:]
    ]
    code = main([argv[0], *files])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: InputError: non-finite number")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("tol", ["nan", "-5", "inf", "-inf", "abc", ""])
def test_tol_must_be_finite_and_nonnegative(capsys, tol):
    with pytest.raises(SystemExit) as exc:
        main(["partially-positive", fx("partial_band09_n3.json"), f"--tol={tol}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        f"argument --tol: expected a finite number >= 0, got '{tol}'"
    )


@pytest.mark.parametrize("size", ["0", "-2", "two"])
def test_block_size_must_be_a_positive_integer(capsys, size):
    with pytest.raises(SystemExit) as exc:
        main(["cb-norm", fx("matrix_identity4.json"), f"--block-size={size}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "posext cb-norm: error: argument --block-size: "
        f"expected a positive integer, got '{size}'"
    )


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["cexi", "3", "--t", "1/0"], None),
        (["cexi", "1", "--t", "1/2,0/0"], None),
        (["circle-predicates"], {"intervals": [["1/5", "1/0"]], "points": []}),
        (["circle-predicates"], {"intervals": [], "points": ["0/0"]}),
        (["circle-predicates"], {"intervals": [[0, math.inf]], "points": []}),
        (["cexi", "1", "--t", "1/2,1e100000000"], None),
        (["circle-predicates"], {"intervals": [["0", "1e100000000"]], "points": []}),
        (["circle-predicates"], {"intervals": [["0", "1"]], "points": [True]}),
        (["circle-predicates"], {"intervals": [["0", False]], "points": []}),
        (["circle-predicates"], {"intervals": [["0", "1"]], "points": ["a"]}),
        (["circle-predicates"], {"intervals": [["0", "1"]], "points": [[1]]}),
        (["cexi", "1", "--t", "1/2,a"], None),
    ],
)
def test_non_finite_rational_exits_2(tmp_path, capsys, argv, doc):
    if doc is not None:
        path = tmp_path / "circle.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: InputError: not a finite rational")
    assert captured.err.count("\n") == 1


ALL_COMMANDS = [
    ("chordal", "pattern_band1_n4.json"),
    ("chordal", "pattern_cycle4.json"),
    ("peo", "pattern_band2_n6.json"),
    ("cliques", "pattern_two_blocks.json"),
    ("clique-tree", "pattern_band1_n4.json"),
    ("square-partition", "pattern_cycle4.json"),
    ("partially-positive", "partial_cycle4_witness.json"),
    ("partially-positive", "partial_block_d2_n3.json"),
    ("complete", "partial_band09_n3.json"),
    ("complete", "partial_toeplitz_band1_n5.json"),
    ("complete", "partial_block_d2_n3.json"),
    ("decompose", "matrix_tband1_n3.json", "pattern_complete3.json"),
    ("apply-mult", "partial_band09_n3.json", "matrix_tband1_n3.json"),
    ("cb-norm", "matrix_identity4.json"),
    ("verify", "partial_band09_n3.json", "matrix_band09_completed.json"),
    ("group-validate", "group_s3.json"),
    ("star-pattern", "group_z6.json", "subset_z6_evens.json"),
    ("chordal-subset", "group_klein.json", "subset_klein_pair.json"),
    ("pd-check", "group_z6.json", "subset_z6_evens.json", "fn_z6_evens.json"),
    ("group-extend", "group_z6.json", "subset_z6_evens.json", "fn_z6_evens.json"),
    ("group-extend", "group_z4.json", "subset_z4_02.json", "fn_z4.json"),
    ("group-extend", "group_klein.json", "subset_klein_pair.json", "fn_klein.json"),
    ("star-pattern", "group_s3.json", "subset_s3_reflection.json"),
    ("pd-check", "group_s3.json", "subset_s3_reflection.json", "fn_s3_reflection.json"),
    ("group-extend", "group_s3.json", "subset_s3_reflection.json", "fn_s3_reflection.json"),
    ("circle-predicates", "circle_symmetric.json"),
    ("circle-predicates", "circle_asym.json"),
]


# Each subcommand once, with the files of its first ALL_COMMANDS entry.
ONE_CALL_PER_COMMAND = {"cexi": ["cexi", "1"]}
for _argv in ALL_COMMANDS:
    ONE_CALL_PER_COMMAND.setdefault(_argv[0], [_argv[0], *map(fx, _argv[1:])])

TOL_COMMANDS = {
    "partially-positive", "complete", "decompose", "cb-norm", "verify", "pd-check", "group-extend"
}


@pytest.mark.parametrize("command", sorted(ONE_CALL_PER_COMMAND))
def test_only_the_commands_that_use_a_tolerance_take_tol(capsys, command):
    argv = [*ONE_CALL_PER_COMMAND[command], "--tol", "1e-3"]
    if command in TOL_COMMANDS:
        assert cli.build_parser().parse_args(argv).tol == 1e-3
        assert run_cli(capsys, *argv)[0] == 0
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1].endswith("unrecognized arguments: --tol 1e-3")


def test_the_tol_table_covers_every_command():
    usage = cli.build_parser().format_usage()
    commands = set(usage[usage.index("{") + 1 : usage.index("}")].split(","))
    assert commands == set(ONE_CALL_PER_COMMAND) and len(commands) == 18
    assert TOL_COMMANDS < commands and len(TOL_COMMANDS) == 7


def test_chordal_subset_rejects_the_word_oracle_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chordal-subset", fx("group_z5.json"), fx("subset_z5_cycle.json"), "--word-oracle"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1].endswith("unrecognized arguments: --word-oracle")


@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: "-".join(a[:2]))
def test_full_corpus_succeeds_and_roundtrips(argv, capsys):
    files = [fx(name) for name in argv[1:]]
    code, out = run_cli(capsys, argv[0], *files)
    assert code == 0
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc


def test_console_entry_point_runs_in_subprocess():
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "posext", *argv], capture_output=True)

    proc = run("cexi", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["points"] == ["0"]
    # the column emitter's and json's encoder's bytes as they reach a real stdout
    golden = json.loads((FIXTURES / "golden_stdout.json").read_text(encoding="utf-8"))
    for argv in [
        ("complete", "partial_mixed_separators.json"),
        ("complete", "partial_mixed_separators.json", "--pretty"),
        ("complete", "partial_band09_n3.json"),
        ("clique-tree", "pattern_band2_n6.json"),
        ("clique-tree", "pattern_band2_n6.json", "--pretty"),
    ]:
        proc = run(argv[0], fx(argv[1]), *argv[2:])
        expected = (0, golden[" ".join(argv)].encode(), b"")
        assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_partial_matrix_on_a_million_vertices_exits_2_in_linear_memory(tmp_path):
    """Missing blocks of an n = 10**6 partial matrix are named without an n x n allocation.

    The child caps its own address space at 1 GiB once numpy is loaded;
    a dense n x n support would need 931 GiB.
    """
    n = 10**6
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": n, "d": 1, "pattern": {"n": n, "edges": []}, "blocks": []}))
    code = (
        "import resource, sys\n"
        "from posext.cli import main\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "partially-positive", str(path)],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: InputError: blocks must cover the pattern pairs exactly "
        "(missing [(0, 0), (1, 1), (2, 2), (3, 3)], extraneous [])\n"
    )


def test_cached_parser_is_reentrant(tmp_path, capsys, monkeypatch):
    """Calls through the one cached parser give what a new parser per call gives."""
    from posext import cli

    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"n": 2, "edges": [[0, 9]]}')
    calls = [
        ["complete", fx("partial_band09_n3.json"), "--tol", "1e-3"],
        ["clique-tree", fx("pattern_band2_n6.json"), "--pretty"],
        ["chordal", str(wrong)],
        ["cb-norm", fx("matrix_identity4.json"), "--block-size", "two"],
        ["complete", fx("partial_band09_n3.json"), "--tol", "1e-3"],
        ["complete", fx("partial_band09_n3.json")],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cached = [outcome(argv) for argv in calls]
    assert [c[0] for c in cached] == [0, 0, 2, ("SystemExit", 2), 0, 0]
    assert cached[4] == cached[0]
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)
        fresh = [outcome(argv) for argv in calls]
    assert cached == fresh
    args = cli._parser().parse_args(["cb-norm", "m.json"])
    assert (args.tol, args.pretty, args.block_size) == (None, False, 1)
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def _group_validate_by_json(path):
    """What group-validate gives when the table is read by json and checked as lists."""
    try:
        doc = ser.load_json(path)
        g = validate_group(doc["table"], doc["identity"])
    except (InputError, OSError, KeyError, TypeError, ValueError) as exc:
        return 2, "", f"error: {type(exc).__name__}: {exc}\n"
    return 0, ser.dumps({"valid": True, "order": g.order, "identity": g.identity}) + "\n", ""


@pytest.mark.parametrize("data", [d for _, d in malformed_documents("group")],
                         ids=[name for name, _ in malformed_documents("group")])
def test_group_validate_on_malformed_tables_answers_as_the_json_route(tmp_path, capsys, data):
    path = tmp_path / "group.json"
    path.write_bytes(data)
    code = main(["group-validate", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == _group_validate_by_json(path)
    assert (captured.out + captured.err).count("\n") == 1


def _outcome(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_MALFORMED_EDGES = [
    (command, data, f"{kind}-{name}")
    for kind, command in [("pattern", "peo"), ("partial", "partially-positive")]
    for name, data in malformed_documents(kind)
]


@pytest.mark.parametrize("command, data", [c[:2] for c in _MALFORMED_EDGES], ids=[c[2] for c in _MALFORMED_EDGES])
def test_malformed_edges_answer_as_the_json_route(tmp_path, capsys, monkeypatch, command, data):
    """A pattern's or a partial matrix's edges the reader declines give what json's lists give."""
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    got = _outcome(capsys, command, str(path))
    monkeypatch.setattr(ser, "_read_rows", lambda data, field: None)
    assert got == _outcome(capsys, command, str(path))
    assert (got[1] + got[2]).count("\n") == 1


@pytest.mark.parametrize("kind, command", [("pattern", "chordal"), ("partial", "complete"), ("group", "group-validate")])
def test_canonical_rows_answer_as_the_json_route(tmp_path, capsys, monkeypatch, kind, command):
    """Int rows the reader takes as an array give what json's lists give, results and errors alike."""
    name = ROWS_FIELDS[kind][-1]
    path = tmp_path / "doc.json"
    for text in ["[[0, 1], [1, 2], [0, 2]]", "[[0,1],[2,1]]", "[[0, 1, 2], [1, 2, 0], [2, 0, 1]]",
                 "[[0, 3]]", "[[-1, 0]]", "[[0, 1], [999999999999999999, 0]]", "[[1, 0], [0, 1]]"]:
        path.write_bytes(rows_document(kind, f'"{name}": {text}, '))
        assert ser._read_rows(path.read_bytes(), ROWS_FIELDS[kind]) is not None
        got = _outcome(capsys, command, str(path))
        with monkeypatch.context() as m:
            m.setattr(ser, "_read_rows", lambda data, field: None)
            assert got == _outcome(capsys, command, str(path))
        assert (got[1] + got[2]).count("\n") == 1


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "text",
    ['{"n": 2, "edges": ' + _DEEP + "}", '{"n": 2, "edges": [[0, 1]], "meta": ' + _DEEP + "}"],
    ids=["in-the-edges", "beside-canonical-edges"],
)
def test_a_document_nested_too_deeply_exits_2_with_one_line(tmp_path, capsys, text):
    """json runs out of recursion depth on 10**5 brackets, on the json route and on the reader's."""
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = _outcome(capsys, "chordal", str(path))
    assert (code, out) == (2, "")
    assert err == "error: InputError: document nested too deeply: maximum recursion depth exceeded\n"


def test_a_document_piped_to_stdin_is_read_once():
    """The backslash sends the document to json, which reads the bytes already read, not a drained pipe."""
    proc = subprocess.run(
        [sys.executable, "-m", "posext", "chordal", "/dev/stdin"],
        input=b'{"n": 2, "edges": [[0, 1]], "note": "a\\\\b"}',
        capture_output=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b'{"chordal":true}\n', b"")


def _band2_n200_partial(tmp_path) -> str:
    """The path of a band-2 n = 200 partial matrix, whose completion prints ~2 MB in many pieces."""
    m = restrict_to_pattern(random_psd(np.random.default_rng(200), 200), band_pattern(200, 2))
    path = tmp_path / "band2_n200.json"
    path.write_text(json.dumps(partial_document(m)))
    return str(path)


@pytest.mark.parametrize("command", ["decompose", "complete"])
def test_a_reader_that_closes_the_pipe_early_gets_one_error_line(tmp_path, command):
    """Output beyond the pipe's buffer meets a closed pipe: exit 2 and one stderr line, no traceback.

    complete's output meets it in the middle of its pieces.
    """
    argv, head = {
        "decompose": (
            ["decompose", fx("matrix_band2_n100_rank_deficient.json"), fx("pattern_band2_n100.json")],
            b'{"factors":[{"vector":',
        ),
        "complete": (["complete", _band2_n200_partial(tmp_path)], b'{"matrix":{"n":200,"entries":['),
    }[command]
    with subprocess.Popen(
        [sys.executable, "-m", "posext", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:  # closes stderr on the way out
        assert proc.stdout.read(100).startswith(head)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 2
    assert err == "error: BrokenPipeError: [Errno 32] Broken pipe\n"


class _RecordingStdout(io.StringIO):
    """A stdout that keeps every text written to it, one item per write."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return super().write(text)


def test_complete_writes_the_document_in_pieces(tmp_path):
    """The writes add up to dumps' text and a newline, and none of them holds the whole document."""
    path = _band2_n200_partial(tmp_path)
    out = _RecordingStdout()
    with contextlib.redirect_stdout(out):
        assert main(["complete", path]) == 0
    result = positive_completion(ser.partial_from_json(ser.load_json(path)))
    text = ser.dumps({"matrix": ser.matrix_to_json(result.matrix), "fill_log": ser.fill_log_to_json(result)})
    assert "".join(out.writes) == text + "\n"
    assert max(map(len, out.writes)) < len(text)
