#!/usr/bin/env python3
"""Benchmark of the posext CLI, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload band-complete --seed 1 --seconds 36 --trace 0

The benchmark generates a small pool of inputs from the seed, writes
them as JSON under `.bench_work/`, and then drives `posext.cli.main`
in this process as a closed loop from one single-threaded client, the
pool cycled, for the given number of seconds. Every call's stdout is
captured; all outputs for one input must be byte-identical, and one
output per input is checked against independent oracles after timing.

With `--trace 0` it reports the end-to-end metrics; a fresh interpreter
that imports posext.cli and builds its parser is timed before every
third call, for `setup_s`. With `--trace 1` untraced and traced calls
alternate; traced calls run with every public layer function wrapped
(see tracing.py), and the run reports per-layer metrics and the tracing
overhead. Human-readable lines come first, with the raw timings; the
last line of stdout is one JSON object.

Reported times are calibrated to a nominal machine speed. Right before
each call (and each set-up interpreter) the run times a fixed
pure-Python task, and that call's times are multiplied by
PROBE_NOMINAL_S over the probe time. On a shared host the machine's
speed drifts by a quarter between half-minute runs; the drift hits the
probe and the program alike, so calibrated times repeat far better than
raw wall times.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import CHECKERS  # noqa: E402
from tracing import LAYERS, Tracer, call_metrics  # noqa: E402
from workloads import POOL_SIZE, WORKLOADS  # noqa: E402

WORK_DIR = ".bench_work"
SETUP_EVERY = 3
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import posext.cli as c; c.build_parser()"
PROBE_NOMINAL_S = 0.015

END_TO_END_UNITS = {
    "calls_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "serialize.parse_s": "s",
    "serialize.emit_s": "s",
    "serialize.emit_bytes": "bytes",
    "pattern.self_s": "s",
    "pattern.structure_calls": "count",
    "pattern.n_cliques": "count",
    "pattern.max_clique": "count",
    "linalg.self_s": "s",
    "linalg.eigh_calls": "count",
    "linalg.eigh_work_n3": "count",
    "linalg.pinv_calls": "count",
    "completion.self_s": "s",
    "completion.pp_calls": "count",
    "completion.fill_pairs": "count",
    "groupext.validate_s": "s",
    "groupext.self_s": "s",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


class ProgramMissing(Exception):
    pass


def load_program(root: Path):
    """Import posext.cli from `root/src`, refusing any other copy."""
    src = (root / "src").resolve()
    if not (src / "posext" / "cli.py").is_file():
        raise ProgramMissing(f"no posext sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import posext.cli as cli

    if Path(cli.__file__).resolve().parent != src / "posext":
        raise ProgramMissing(f"imported {cli.__file__} instead of the sources under {src}")
    return cli


def _probe_work() -> None:
    acc = 0
    for i in range(100_000):
        acc += i * i
    seen, text = set(), {}
    for i in range(12_000):
        k = (i * 7919) % 50021
        text[k] = format(i * 0.1, ".17g")
        seen.add(k)
    [k for k in sorted(seen) if k in text]


def probe() -> float:
    """Median of three timings of a fixed pure-Python task: the machine's current speed.

    The task mixes integer arithmetic with dict, set, float formatting and
    sorting, the kinds of work the program's own Python code does.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def time_setup(root: Path) -> dict:
    """One fresh interpreter that imports posext.cli and builds the parser."""
    scale = PROBE_NOMINAL_S / probe()
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(root / "src")],
        cwd=root, check=True, capture_output=True, timeout=120,
    )
    return {"raw": time.perf_counter() - t0, "scale": scale}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, percentile, beyond)."""
    xs = sorted(latencies)
    beyond = 10 if len(xs) > 10 else 0
    k = len(xs) - 1 - beyond
    return xs[k], 100.0 * (k + 1) / len(xs), beyond


class Loop:
    """Closed-loop client: one call at a time, outputs hashed per input."""

    def __init__(self, cli, cases, workdir: Path, tracer: Tracer | None = None) -> None:
        self.cli, self.cases, self.workdir, self.tracer = cli, cases, workdir, tracer
        self.reference: dict[int, str] = {}
        self.records: list[dict] = []
        self.setups: list[dict] = []

    def call(self, index: int, traced: bool) -> dict:
        k = index % len(self.cases)
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        scale = PROBE_NOMINAL_S / probe()
        if traced:
            self.tracer.install(index)
        problem = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(self.cases[k].argv)
        except (Exception, SystemExit) as exc:  # any escape from main is a failed call
            code, problem = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if traced:
            self.tracer.uninstall()
        if problem is None and code != 0:
            problem = f"exit code {code}: {err.getvalue().strip()}"
        text = out.getvalue()
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if k not in self.reference:
            self.reference[k] = digest
            (self.workdir / f"out-{k}.json").write_text(text, encoding="utf-8")
        elif problem is None and digest != self.reference[k]:
            problem = "stdout differs from the first output for this input"
        return {
            "index": index, "case": k, "latency": latency, "scale": scale,
            "traced": traced, "problem": problem,
        }

    def run(self, seconds: float, traced: bool, setup_root: Path | None = None) -> float:
        """Call until `seconds` have passed and every input has run; returns elapsed time.

        With `traced`, every other call is traced. With `setup_root`, a
        set-up interpreter is timed before every SETUP_EVERY-th call.
        """
        start = time.perf_counter()
        index = 0
        while time.perf_counter() - start < seconds or index < len(self.cases) * (1 + traced):
            if setup_root is not None and index % SETUP_EVERY == 0:
                self.setups.append(time_setup(setup_root))
            self.records.append(self.call(index, traced=traced and index % 2 == 1))
            index += 1
        return time.perf_counter() - start

    def check(self, checker) -> dict[int, str]:
        """Run the checker on the reference output of each input; failures by input."""
        bad = {}
        for k, case in enumerate(self.cases):
            text = (self.workdir / f"out-{k}.json").read_text(encoding="utf-8")
            try:
                problem = checker(text, case.truth)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
            if problem:
                bad[k] = problem
        for rec in self.records:
            if rec["problem"] is None and rec["case"] in bad:
                rec["problem"] = f"check failed: {bad[rec['case']]}"
        return bad


def end_to_end(loop: Loop, peak_rss_mb: float) -> tuple[dict, dict]:
    raw = [r["latency"] for r in loop.records]
    latencies = [r["latency"] * r["scale"] for r in loop.records]
    setups = [s["raw"] * s["scale"] for s in loop.setups]
    passed = sum(r["problem"] is None for r in loop.records)
    value, pct, beyond = tail(latencies)
    metrics = {
        "calls_per_s": passed / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "calls_per_s": f"{passed} checked calls; raw {passed / sum(raw):.4g}",
        "latency_p50_s": f"raw {statistics.median(raw):.4g} s",
        "latency_tail_s": f"p{pct:.1f} of {len(raw)} calls, {beyond} beyond; raw {tail(raw)[0]:.4g} s",
        "setup_s": f"median of {len(setups)} interpreters; "
        f"raw {statistics.median(s['raw'] for s in loop.setups):.4g} s",
    }
    return metrics, notes


def per_layer(loop: Loop) -> tuple[dict, dict, list[str]]:
    """Medians of per-call times; counts from each input's first traced call, averaged."""
    problems = []
    by_call = loop.tracer.calls()
    per_call, first_of_case = [], {}
    for rec in loop.records:
        if not rec["traced"]:
            continue
        try:
            m = call_metrics(by_call[rec["index"]])
        except ValueError as exc:
            problems.append(f"call {rec['index']}: {exc}")
            rec["problem"] = rec["problem"] or f"trace: {exc}"
            continue
        per_call.append((m, rec["scale"]))
        first_of_case.setdefault(rec["case"], m)
    metrics = {}
    if not per_call:
        return metrics, {}, problems or ["no traced call succeeded"]
    for name, unit in PER_LAYER_UNITS.items():
        if name == "trace.overhead_ratio":
            continue
        if unit == "s":
            metrics[name] = statistics.median(m[name] * scale for m, scale in per_call)
        else:
            metrics[name] = statistics.fmean(m[name] for m in first_of_case.values())
    plain = [r["latency"] * r["scale"] for r in loop.records if not r["traced"]]
    traced = [r["latency"] * r["scale"] for r in loop.records if r["traced"]]
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    notes = {
        "trace.overhead_ratio": f"median of {len(traced)} traced over {len(plain)} untraced calls",
        "trace.wall_s": "median traced cli.main span; layer self times add up to it per call",
    }
    return metrics, notes, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    try:
        cli = load_program(root)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = root / WORK_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    cases = workload.make(args.seed, workdir)
    loop = Loop(cli, cases, workdir, Tracer() if args.trace else None)
    loop.call(-1, traced=False)  # warm-up: lazy imports and first-call set-up
    elapsed = loop.run(args.seconds, traced=bool(args.trace), setup_root=None if args.trace else root)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bad = loop.check(CHECKERS[workload.name])
    problems = [f"input {k}: {p}" for k, p in sorted(bad.items())]
    if args.trace:
        metrics, notes, trace_problems = per_layer(loop)
        problems += trace_problems
        loop.tracer.write(workdir / "spans.jsonl")
        units = PER_LAYER_UNITS
    else:
        metrics, notes = end_to_end(loop, peak_rss_mb)
        units = END_TO_END_UNITS
    problems += sorted({r["problem"] for r in loop.records if r["problem"]})

    attempted = len(loop.records)
    failed = sum(r["problem"] is not None for r in loop.records)
    scale = statistics.median(r["scale"] for r in loop.records)
    metrics_doc = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": elapsed,
        "inputs": [c.descriptors for c in cases],
        "pool": POOL_SIZE,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": metrics_doc,
        "notes": notes,
        "problems": problems,
        "calls": loop.records,
        "setups": loop.setups,
    }
    (workdir / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"workload {workload.name}: {workload.why}")
    for k, case in enumerate(cases):
        print(f"  input {k}: " + " ".join(f"{a}={b}" for a, b in case.descriptors.items()))
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:24s} {value:.6g} {units[name]}{note}")
    print(f"  {'error_rate':24s} {failed / attempted:.6g} ratio  ({failed} of {attempted} calls failed)")
    print(f"  {'speed_scale':24s} {scale:.4g}  (median of nominal / measured probe time)")
    for p in problems[:10]:
        print(f"  problem: {p}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_doc,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
