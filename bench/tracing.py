"""Span tracing of posext's layers from outside the package.

`Tracer` wraps the public functions of each layer module and, while
installed, replaces *every* module binding of them across the package,
so `completion.clique_tree` (imported by name from `pattern`) and the
calls a module makes to its own functions are traced as well. Spans are
kept in memory; `call_metrics` turns the spans of one CLI call into
per-layer self times and counts.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

PACKAGE = "posext"
LAYERS = ("cli", "serialize", "pattern", "linalg", "completion", "groupext")

# Functions whose calls are counted; the pattern ones all (re)compute the
# chordal structure, so calls beyond the first are repeated work.
_COUNTED = {
    **{
        ("pattern", name): "pattern.structure_calls"
        for name in ("is_chordal", "perfect_elimination_order", "maximal_cliques", "clique_tree")
    },
    ("linalg", "eigh"): "linalg.eigh_calls",
    ("linalg", "pseudo_inverse"): "linalg.pinv_calls",
    ("completion", "partially_positive"): "completion.pp_calls",
}

# Sizes read off a function's result after its span has ended.
_NOTES = {
    ("serialize", "dumps"): len,
    ("pattern", "maximal_cliques"): lambda r: [len(r), max(map(len, r), default=0)],
    ("linalg", "eigh"): lambda r: len(r[0]),
    ("completion", "positive_completion"): lambda r: len(r.fill_log),
}


@dataclass
class Span:
    call: int
    id: int
    parent: int
    layer: str
    name: str
    t0: int
    t1: int
    failed: bool
    note: object = None


class Tracer:
    """Wraps posext's public layer functions; `install`/`uninstall` swap the bindings."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.call = -1
        self._stack: list[int] = []
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[fn] = self._wrap(layer, name, fn)
        self._bindings = [
            (module, attr, fn, wrappers[fn])
            for mod_name, module in sorted(sys.modules.items())
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            for attr, fn in vars(module).items()
            if inspect.isfunction(fn) and fn in wrappers
        ]

    def _wrap(self, layer: str, name: str, fn):
        note = _NOTES.get((layer, name))
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans[sid] = Span(self.call, sid, parent, layer, name, t0, t1, True)
                raise
            t1 = clock()
            stack.pop()
            spans[sid] = Span(
                self.call, sid, parent, layer, name, t0, t1, False,
                note(result) if note else None,
            )
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self, call: int) -> None:
        self.call = call
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn, _ in self._bindings:
            setattr(module, attr, fn)

    def bindings(self) -> list[str]:
        return [f"{m.__name__}.{attr}" for m, attr, _, _ in self._bindings]

    def calls(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            out[span.call].append(span)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def call_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times (s) and counts for the spans of one CLI call.

    Self time is a span's duration minus the durations of its direct
    children; calls are synchronous, so children never overlap and the
    self times of all spans add up to the root span's duration.
    Raises ValueError unless the spans form a single tree under cli.main.
    """
    roots = [s for s in spans if s.parent < 0]
    if len(roots) != 1 or (roots[0].layer, roots[0].name) != ("cli", "main"):
        raise ValueError(f"expected one cli.main root span, got {len(roots)} roots")
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] += s.t1 - s.t0
    self_ns = dict.fromkeys(LAYERS, 0)
    errors = dict.fromkeys(LAYERS, 0)
    emit_ns = parse_ns = validate_ns = 0
    counts = defaultdict(int)
    cliques = [0, 0]
    for s in spans:
        own = s.t1 - s.t0 - child_ns[s.id]
        self_ns[s.layer] += own
        errors[s.layer] += s.failed
        if s.layer == "serialize":
            if s.name == "dumps" or s.name.endswith("_to_json"):
                emit_ns += own
            else:
                parse_ns += own
        if (s.layer, s.name) == ("groupext", "validate_group"):
            validate_ns += own
        if (s.layer, s.name) in _COUNTED:
            counts[_COUNTED[s.layer, s.name]] += 1
        if s.note is None:
            continue
        if s.name == "dumps":
            counts["serialize.emit_bytes"] += s.note
        elif s.name == "maximal_cliques":
            cliques = s.note
        elif s.name == "eigh":
            counts["linalg.eigh_work_n3"] += s.note**3
        elif s.name == "positive_completion":
            counts["completion.fill_pairs"] += s.note
    wall_ns = roots[0].t1 - roots[0].t0
    if sum(self_ns.values()) != wall_ns:
        raise ValueError("layer self times do not add up to the traced wall time")
    sec = 1e-9
    out = {
        "cli.self_s": self_ns["cli"] * sec,
        "serialize.parse_s": parse_ns * sec,
        "serialize.emit_s": emit_ns * sec,
        "serialize.emit_bytes": counts["serialize.emit_bytes"],
        "pattern.self_s": self_ns["pattern"] * sec,
        "pattern.structure_calls": counts["pattern.structure_calls"],
        "pattern.n_cliques": cliques[0],
        "pattern.max_clique": cliques[1],
        "linalg.self_s": self_ns["linalg"] * sec,
        "linalg.eigh_calls": counts["linalg.eigh_calls"],
        "linalg.eigh_work_n3": counts["linalg.eigh_work_n3"],
        "linalg.pinv_calls": counts["linalg.pinv_calls"],
        "completion.self_s": self_ns["completion"] * sec,
        "completion.pp_calls": counts["completion.pp_calls"],
        "completion.fill_pairs": counts["completion.fill_pairs"],
        "groupext.validate_s": validate_ns * sec,
        "groupext.self_s": self_ns["groupext"] * sec,
        "trace.wall_s": wall_ns * sec,
    }
    out.update({f"{layer}.errors": errors[layer] for layer in LAYERS})
    return out
