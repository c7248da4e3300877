import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from posext.cli import main

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


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(capsys, "chordal", str(bad))[0] == 2
    missing = tmp_path / "missing.json"
    assert run_cli(capsys, "chordal", str(missing))[0] == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"n": 2, "edges": [[0, 9]]}')
    assert run_cli(capsys, "chordal", str(wrong))[0] == 2


def test_size_limit_exits_4(tmp_path, capsys):
    n = 22
    edges = [[i, (i + 1) % n] for i in range(n)]
    f = tmp_path / "big_cycle.json"
    f.write_text(json.dumps({"n": n, "edges": edges}))
    code, _ = run_cli(capsys, "cliques", str(f))
    assert code == 4


def test_boolean_false_still_exits_0(capsys):
    code, out = run_cli(
        capsys, "chordal-subset", fx("group_z5.json"), fx("subset_z5_cycle.json")
    )
    assert code == 0
    assert json.loads(out) == {"chordal_subset": False}


def test_word_oracle_flag(capsys):
    code, out = run_cli(
        capsys,
        "chordal-subset",
        fx("group_z5.json"),
        fx("subset_z5_cycle.json"),
        "--word-oracle",
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
    ("circle-predicates", "circle_symmetric.json"),
    ("circle-predicates", "circle_asym.json"),
]


@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: "-".join(a[:2]))
def test_full_corpus_succeeds_and_roundtrips(argv, capsys):
    files = [fx(name) for name in argv[1:]]
    code, out = run_cli(capsys, argv[0], *files)
    assert code == 0
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc


def test_console_entry_point_runs_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "posext", "cexi", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["points"] == ["0"]
