"""Command-line front end: one subcommand per library operation.

Every command reads JSON files, writes a single JSON document to stdout,
and reports problems on stderr. Exit codes: 0 success (boolean predicate
results are data, not failures), 2 malformed input or a stdout that
cannot take the output (a reader that closed the pipe early), 3
mathematical infeasibility, 4 size-limit violations (a cap, or memory
running out).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import asdict

from . import circleset as circ
from . import completion as comp
from . import groupext as grp
from . import pattern as pat
from . import serialize as ser
from .errors import InfeasibleError, InputError, TooLarge


def _load_pattern(path):
    return ser.pattern_from_json(ser.load_json(path, ("edges",)))


def _load_partial(path):
    return ser.partial_from_json(ser.load_json(path, ("pattern", "edges")))


def _load_matrix(path):
    return ser.matrix_from_json(ser.load_json(path))


def _load_group(path):
    return ser.group_from_json(ser.load_json(path, ("table",)))


def _cmd_chordal(args):
    return {"chordal": pat.is_chordal(_load_pattern(args.pattern))}


def _cmd_peo(args):
    return {"order": pat.perfect_elimination_order(_load_pattern(args.pattern)).tolist()}


def _cmd_cliques(args):
    return ser.cliques_to_json(_load_pattern(args.pattern))


def _cmd_clique_tree(args):
    return ser.clique_tree_to_json(pat.clique_tree(_load_pattern(args.pattern)))


def _cmd_square_partition(args):
    return {"blocks": [list(b) for b in pat.square_partition(_load_pattern(args.pattern))]}


def _cmd_partially_positive(args):
    ok, witness = comp.partially_positive(_load_partial(args.partial), args.tol)
    return {"partially_positive": ok, "witness": witness}  # a tuple emits as a list


def _cmd_complete(args):
    result = comp.positive_completion(_load_partial(args.partial), args.tol)
    return {
        "matrix": ser.matrix_to_json(result.matrix),
        "fill_log": ser.fill_log_to_json(result),
    }


def _cmd_decompose(args):
    t = _load_matrix(args.matrix)
    p = _load_pattern(args.pattern)
    return ser.factors_to_json(comp.rank_one_positive_decomposition(t, p, args.tol))


def _cmd_apply_mult(args):
    out = comp.apply_multiplier(_load_partial(args.partial), _load_matrix(args.matrix))
    return {"matrix": ser.matrix_to_json(out)}


def _cmd_cb_norm(args):
    value = comp.cb_norm_positive(_load_matrix(args.matrix), args.block_size, args.tol)
    return {"cb_norm": float(value)}


def _cmd_verify(args):
    ok = comp.verify_extension(
        _load_partial(args.partial), _load_matrix(args.matrix), args.tol
    )
    return {"verified": ok}


def _cmd_group_validate(args):
    g = _load_group(args.group)
    return {"valid": True, "order": g.order, "identity": g.identity}


def _load_subset(args):
    g = _load_group(args.group)
    return g, ser.subset_from_json(ser.load_json(args.subset), g)


def _load_function(args):
    g, e = _load_subset(args)
    return g, e, ser.function_from_json(ser.load_json(args.function), g)


def _cmd_star_pattern(args):
    return ser.pattern_to_json(grp.star_pattern(*_load_subset(args)))


def _cmd_chordal_subset(args):
    return {"chordal_subset": grp.is_chordal_subset(*_load_subset(args))}


def _cmd_pd_check(args):
    ok = grp.is_positive_definite_on(*_load_function(args), args.tol)
    return {"positive_definite": ok}


def _cmd_group_extend(args):
    v = grp.positive_definite_extension(*_load_function(args), args.tol)
    return ser.function_to_json(v)


def _cmd_circle_predicates(args):
    e = ser.circleset_from_json(ser.load_json(args.circleset))
    return asdict(circ.is_positivity_domain_star(e))


def _cmd_cexi(args):
    seq = None if args.t is None else args.t.split(",")
    return ser.circleset_to_json(circ.cexi_truncation(args.depth, seq))


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _block_size(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the posext command line."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indent the output")
    tolerance = argparse.ArgumentParser(add_help=False)  # only for the commands that use one
    tolerance.add_argument("--tol", type=_tolerance, default=None, help="tolerance override")

    ap = argparse.ArgumentParser(
        prog="posext",
        description="Chordal PSD completion and positive definite extension tools",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *files, tol=False):
        parents = [tolerance, common] if tol else [common]
        sp = sub.add_parser(name, parents=parents, help=help_text)
        for file_arg in files:
            sp.add_argument(file_arg)
        sp.set_defaults(func=func)
        return sp

    add("chordal", _cmd_chordal, "chordality of a pattern", "pattern")
    add("peo", _cmd_peo, "perfect elimination order", "pattern")
    add("cliques", _cmd_cliques, "maximal cliques", "pattern")
    add("clique-tree", _cmd_clique_tree, "clique tree with separators", "pattern")
    add("square-partition", _cmd_square_partition, "clique partition", "pattern")
    add(
        "partially-positive",
        _cmd_partially_positive,
        "clique-wise PSD check of a partial matrix",
        "partial",
        tol=True,
    )
    add("complete", _cmd_complete, "positive completion", "partial", tol=True)
    add(
        "decompose",
        _cmd_decompose,
        "rank-one positive decomposition of a supported matrix",
        "matrix",
        "pattern",
        tol=True,
    )
    add(
        "apply-mult",
        _cmd_apply_mult,
        "entrywise multiplier action on a supported matrix",
        "partial",
        "matrix",
    )
    add(
        "cb-norm",
        _cmd_cb_norm,
        "norm of the map induced by a positive multiplier",
        "matrix",
        tol=True,
    ).add_argument("--block-size", type=_block_size, default=1)
    add("verify", _cmd_verify, "agreement plus positivity check", "partial", "matrix", tol=True)
    add("group-validate", _cmd_group_validate, "validate a multiplication table", "group")
    add("star-pattern", _cmd_star_pattern, "pattern induced by a subset", "group", "subset")
    add("chordal-subset", _cmd_chordal_subset, "chordality of a group subset", "group", "subset")
    add(
        "pd-check",
        _cmd_pd_check,
        "positive definiteness on a subset",
        "group",
        "subset",
        "function",
        tol=True,
    )
    add(
        "group-extend",
        _cmd_group_extend,
        "positive definite extension to the whole group",
        "group",
        "subset",
        "function",
        tol=True,
    )
    add(
        "circle-predicates",
        _cmd_circle_predicates,
        "positivity-domain predicates of a circle set",
        "circleset",
    )
    cexi = add("cexi", _cmd_cexi, "finite stage of the isolated-origin circle construction")
    cexi.add_argument("depth", type=int)
    cexi.add_argument("--t", default=None, help="comma-separated rationals")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call and reused by later ones.

    parse_args keeps nothing between calls: each call fills a new
    namespace from the parser's defaults, which nothing modifies.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        doc = args.func(args)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # an input within every cap can still outgrow the memory at hand
        print(f"error: MemoryError: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4
    except InfeasibleError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    pieces = ser.document_to_json(doc, pretty=args.pretty)  # all of them before the first write
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except OSError as exc:  # a reader that closed the pipe early, a full disk
        _drop_stdout()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


def _drop_stdout() -> None:
    """Point the stdout file descriptor at os.devnull.

    What stdout still buffers then goes nowhere when the interpreter
    flushes it at exit, instead of failing again with an "Exception
    ignored" message.
    """
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # not backed by a file descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def console() -> None:
    raise SystemExit(main())
