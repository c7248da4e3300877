"""Tests of the benchmark's own parts: checkers, determinism check, tracer.

Run from the repository root with `python3 -m pytest bench -q`.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

import run
import tracing
import workloads
from checks import check_clique_tree, check_complete, check_group_extend

ROOT = Path(__file__).resolve().parent.parent
cli = run.load_program(ROOT)


def cli_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.fixture
def band(tmp_path):
    case = workloads.make_band_complete(7, tmp_path, n=12)[0]
    return case, json.loads(cli_stdout(case.argv))


@pytest.fixture
def chordal(tmp_path):
    case = workloads.make_chordal_structure(7, tmp_path, n=40)[0]
    return case, json.loads(cli_stdout(case.argv))


@pytest.fixture
def group(tmp_path):
    case = workloads.make_group_extend(7, tmp_path, n=16)[0]
    return case, json.loads(cli_stdout(case.argv))


def test_checkers_accept_program_output(band, chordal, group):
    for checker, (case, doc) in (
        (check_complete, band),
        (check_clique_tree, chordal),
        (check_group_extend, group),
    ):
        assert checker(json.dumps(doc), case.truth) is None


def _entry(doc, i, j):
    return next(e for e in doc["matrix"]["entries"] if (e["i"], e["j"]) == (i, j))


def test_complete_checker_rejects_changed_pattern_entry(band):
    case, doc = band
    _entry(doc, 3, 4)["re"] += 1e-12
    assert "pattern entry (3,4)" in check_complete(json.dumps(doc), case.truth)


def test_complete_checker_rejects_non_psd_fill(band):
    case, doc = band
    _entry(doc, 0, 11)["re"] = 50.0
    assert "minimum eigenvalue" in check_complete(json.dumps(doc), case.truth)


def test_complete_checker_rejects_incomplete_fill_log(band):
    case, doc = band
    doc["fill_log"].pop()
    assert "fill log" in check_complete(json.dumps(doc), case.truth)


def test_clique_tree_checker_rejects_non_maximal_clique(chordal):
    case, doc = chordal
    big = max(range(len(doc["cliques"])), key=lambda k: len(doc["cliques"][k]))
    doc["cliques"][big] = doc["cliques"][big][:-1]
    assert check_clique_tree(json.dumps(doc), case.truth) is not None


def test_clique_tree_checker_rejects_wrong_separator(chordal):
    case, doc = chordal
    doc["separators"][0] = doc["separators"][0][:-1]
    assert "not the intersection" in check_clique_tree(json.dumps(doc), case.truth)


def test_clique_tree_checker_rejects_broken_running_intersection(chordal):
    case, doc = chordal
    cliques = [set(c) for c in doc["cliques"]]
    # Re-attach a leaf that shares vertices with its neighbour to a clique
    # sharing none of them; the tree stays a tree but loses running intersection.
    degree = [0] * len(cliques)
    for i, j in doc["tree_edges"]:
        degree[i] += 1
        degree[j] += 1
    k, (i, j) = next(
        (k, e) for k, e in enumerate(doc["tree_edges"])
        if doc["separators"][k] and (degree[e[0]] == 1 or degree[e[1]] == 1)
    )
    leaf, other = (i, j) if degree[i] == 1 else (j, i)
    target = next(c for c in range(len(cliques)) if c not in (leaf, other) and not cliques[c] & cliques[leaf])
    doc["tree_edges"][k] = [leaf, target]
    doc["separators"][k] = []
    assert check_clique_tree(json.dumps(doc), case.truth) is not None


def test_clique_tree_checker_rejects_missing_tree_edge(chordal):
    case, doc = chordal
    doc["tree_edges"].pop()
    doc["separators"].pop()
    assert "tree edges" in check_clique_tree(json.dumps(doc), case.truth)


def test_group_checker_rejects_changed_value_on_subset(group):
    case, doc = group
    doc["values"][4]["re"] *= 1.0 + 1e-12
    assert "value at 4 differs" in check_group_extend(json.dumps(doc), case.truth)


def test_group_checker_rejects_asymmetric_value(group):
    case, doc = group
    doc["values"][3]["im"] += 0.25
    assert "Hermitian" in check_group_extend(json.dumps(doc), case.truth)


def test_group_checker_rejects_non_psd_kernel(group):
    case, doc = group
    for g in (1, 15):
        doc["values"][g].update(re=5.0, im=0.0)
    assert "minimum eigenvalue" in check_group_extend(json.dumps(doc), case.truth)


class _DriftingCli:
    """Stand-in CLI whose output changes between calls."""

    def __init__(self) -> None:
        self.calls = 0

    def main(self, argv) -> int:
        self.calls += 1
        print(json.dumps({"call": self.calls}))
        return 0


def test_loop_counts_non_identical_stdout_as_failure(tmp_path):
    loop = run.Loop(_DriftingCli(), [workloads.Case(["x"], {})], tmp_path)
    first = loop.call(0, traced=False)
    second = loop.call(1, traced=False)
    assert first["problem"] is None
    assert "differs" in second["problem"]


def test_tracer_wraps_every_binding_and_self_times_add_up(tmp_path):
    case = workloads.make_band_complete(3, tmp_path, n=10)[0]
    tracer = tracing.Tracer()
    original = cli.comp.clique_tree
    assert "posext.completion.clique_tree" in tracer.bindings()
    tracer.install(0)
    try:
        assert cli.comp.clique_tree is not original
        traced = cli_stdout(case.argv)
    finally:
        tracer.uninstall()
    assert cli.comp.clique_tree is original
    assert traced == cli_stdout(case.argv)
    m = tracing.call_metrics(tracer.calls()[0])
    layer_self = [m[f"{layer}.self_s"] for layer in ("cli", "pattern", "linalg", "completion", "groupext")]
    assert sum(layer_self) + m["serialize.parse_s"] + m["serialize.emit_s"] == pytest.approx(m["trace.wall_s"])
    assert m["completion.fill_pairs"] == 10 * 9 // 2 - (9 + 8)
    assert m["linalg.eigh_calls"] > 0 and m["pattern.n_cliques"] == 8


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
