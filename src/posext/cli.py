"""Command-line front end: one subcommand per library operation.

Every command reads JSON files, writes a single JSON document to stdout,
and reports problems on stderr. Exit codes: 0 success (boolean predicate
results are data, not failures), 2 malformed input, 3 mathematical
infeasibility, 4 size-limit violations.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import circleset as circ
from . import completion as comp
from . import groupext as grp
from . import pattern as pat
from . import serialize as ser
from .errors import InfeasibleError, InputError, TooLarge


def _load_pattern(path):
    return ser.pattern_from_json(ser.load_json(path))


def _load_partial(path):
    return ser.partial_from_json(ser.load_json(path))


def _load_matrix(path):
    return ser.matrix_from_json(ser.load_json(path))


def _load_group(path):
    return ser.group_from_json(ser.load_json(path))


def _cmd_chordal(args):
    return {"chordal": pat.is_chordal(_load_pattern(args.pattern))}


def _cmd_peo(args):
    order = pat.perfect_elimination_order(_load_pattern(args.pattern))
    return {"order": list(order.order)}


def _cmd_cliques(args):
    return {"cliques": [list(c) for c in pat.maximal_cliques(_load_pattern(args.pattern))]}


def _cmd_clique_tree(args):
    return ser.clique_tree_to_json(pat.clique_tree(_load_pattern(args.pattern)))


def _cmd_square_partition(args):
    return {"blocks": [list(b) for b in pat.square_partition(_load_pattern(args.pattern))]}


def _cmd_partially_positive(args):
    ok, witness = comp.partially_positive(_load_partial(args.partial), args.tol)
    return {
        "partially_positive": ok,
        "witness": None if witness is None else list(witness),
    }


def _cmd_complete(args):
    result = comp.positive_completion(_load_partial(args.partial), args.tol)
    return {
        "matrix": ser.matrix_to_json(result.matrix),
        "fill_log": ser.fill_log_to_json(result.fill_log),
    }


def _cmd_decompose(args):
    t = _load_matrix(args.matrix)
    p = _load_pattern(args.pattern)
    factors = comp.rank_one_positive_decomposition(t, p, args.tol)
    return {
        "factors": [
            {
                "vector": [
                    {"re": float(z.real), "im": float(z.imag)} for z in f.vector
                ],
                "support": list(f.support),
            }
            for f in factors
        ]
    }


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


def _cmd_star_pattern(args):
    g = _load_group(args.group)
    e = ser.subset_from_json(ser.load_json(args.subset), g)
    return ser.pattern_to_json(grp.star_pattern(g, e))


def _cmd_chordal_subset(args):
    g = _load_group(args.group)
    e = ser.subset_from_json(ser.load_json(args.subset), g)
    if args.word_oracle:
        return {"chordal_subset": grp.word_chordality_oracle(g, e)}
    return {"chordal_subset": grp.is_chordal_subset(g, e)}


def _cmd_pd_check(args):
    g = _load_group(args.group)
    e = ser.subset_from_json(ser.load_json(args.subset), g)
    u = ser.function_from_json(ser.load_json(args.function), g)
    return {"positive_definite": grp.is_positive_definite_on(g, e, u, args.tol)}


def _cmd_group_extend(args):
    g = _load_group(args.group)
    e = ser.subset_from_json(ser.load_json(args.subset), g)
    u = ser.function_from_json(ser.load_json(args.function), g)
    v = grp.positive_definite_extension(g, e, u, args.tol)
    return ser.function_to_json(v)


def _cmd_circle_predicates(args):
    e = ser.circleset_from_json(ser.load_json(args.circleset))
    flags = circ.is_positivity_domain_star(e)
    return {
        "symmetric": flags.symmetric,
        "contains_zero": flags.contains_zero,
        "closure_of_interior": flags.closure_of_interior,
        "generated_by_squares": flags.generated_by_squares,
    }


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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=_tolerance, default=None, help="tolerance override")
    common.add_argument("--pretty", action="store_true", help="indent the output")

    ap = argparse.ArgumentParser(
        prog="posext",
        description="Chordal PSD completion and positive definite extension tools",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *files, extra=None):
        sp = sub.add_parser(name, parents=[common], help=help_text)
        for file_arg in files:
            sp.add_argument(file_arg)
        if extra:
            extra(sp)
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
    )
    add("complete", _cmd_complete, "positive completion", "partial")
    add(
        "decompose",
        _cmd_decompose,
        "rank-one positive decomposition of a supported matrix",
        "matrix",
        "pattern",
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
        extra=lambda sp: sp.add_argument("--block-size", type=_block_size, default=1),
    )
    add("verify", _cmd_verify, "agreement plus positivity check", "partial", "matrix")
    add("group-validate", _cmd_group_validate, "validate a multiplication table", "group")
    add("star-pattern", _cmd_star_pattern, "pattern induced by a subset", "group", "subset")
    add(
        "chordal-subset",
        _cmd_chordal_subset,
        "chordality of a group subset",
        "group",
        "subset",
        extra=lambda sp: sp.add_argument(
            "--word-oracle",
            action="store_true",
            help="use the exhaustive group-word search instead of the graph test",
        ),
    )
    add(
        "pd-check",
        _cmd_pd_check,
        "positive definiteness on a subset",
        "group",
        "subset",
        "function",
    )
    add(
        "group-extend",
        _cmd_group_extend,
        "positive definite extension to the whole group",
        "group",
        "subset",
        "function",
    )
    add(
        "circle-predicates",
        _cmd_circle_predicates,
        "positivity-domain predicates of a circle set",
        "circleset",
    )
    add(
        "cexi",
        _cmd_cexi,
        "finite stage of the isolated-origin circle construction",
        extra=lambda sp: (
            sp.add_argument("depth", type=int),
            sp.add_argument("--t", default=None, help="comma-separated rationals"),
        ),
    )
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = args.func(args)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InfeasibleError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (
        InputError,
        OSError,
        json.JSONDecodeError,
        KeyError,
        TypeError,
        ValueError,
    ) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(ser.dumps(doc, pretty=args.pretty))
    sys.stdout.write("\n")
    return 0


def console() -> None:
    raise SystemExit(main())
