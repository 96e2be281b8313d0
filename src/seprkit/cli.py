"""Command-line interface.

Four subcommands: ``verify-paper`` runs the full claim verification on the
built-in matrix, ``det`` prints one principal minor exactly, ``sepr``
evaluates the sign-set sequence at a positive point, and ``classify``
reports the orthant sign class of each principal minor.  All output is
deterministic for fixed inputs and seed.  A flag's help shows its default
by writing ``(default: %(default)s)`` itself.

Exit codes: 0 success / all claims pass, 1 a claim fails, 2 verification
inconclusive, 3 invalid flags or bad input, 141 (a shell's status for death by
SIGPIPE) the reader closed the output pipe early, as ``| head`` does.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .certify import FAIL, INCONCLUSIVE, PASS, verify_paper_claims
from .minors import all_principal_minors, principal_minor
from .orthant import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    SignKind,
    classify_polynomial,
    sepr_at_point,
)
from .polyring import RationalPoint
from .symmatrix import IndexSet, SymMatrix, _read_json, load_matrix, paper_matrix

__all__ = ["main"]

_EXIT_BY_STATUS = {PASS: 0, FAIL: 1, INCONCLUSIVE: 2}
# An integer flag: ASCII digits, an optional sign and surrounding whitespace.
_INT_RE = re.compile(r"\s*[+-]?[0-9]+\s*")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with code 3 (2 is taken by the
    'verification inconclusive' outcome)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _ascii_int(text: str) -> int | None:
    """The integer ``text`` spells in ASCII digits, else None: ``int()``
    alone also takes underscores ("1_0") and the digits of other scripts."""
    return int(text) if _INT_RE.fullmatch(text) else None


def _integer(text: str) -> int:
    value = _ascii_int(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = _ascii_int(text)
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _subset_list(text: str) -> list[int]:
    indices = [_ascii_int(piece) for piece in text.split(",") if piece.strip()]
    if None in indices:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not indices:
        raise argparse.ArgumentTypeError("expected at least one index")
    return indices


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="seprkit",
        description="Exact principal-minor sign analysis over the positive orthant.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_verify = sub.add_parser(
        "verify-paper", help="verify the built-in matrix's sign-set claims end to end")
    p_verify.add_argument("--seed", type=_integer, default=DEFAULT_SEED,
                          help="sampling seed (default: %(default)s)")
    p_verify.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                          help="samples per polynomial in witness searches "
                               "(default: %(default)s)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text",
                          help="report format (default: %(default)s)")
    p_verify.add_argument("--output", metavar="FILE", default=None,
                          help="write the report to FILE instead of stdout")
    p_verify.set_defaults(handler=_cmd_verify_paper)

    p_det = sub.add_parser(
        "det", help="print the exact polynomial of one principal minor")
    _add_matrix_flag(p_det)
    p_det.add_argument("--subset", type=_subset_list, required=True,
                       metavar="I,J,...", help="1-based row/column indices")
    p_det.set_defaults(handler=_cmd_det)

    p_sepr = sub.add_parser(
        "sepr", help="evaluate the per-order sign sets at a positive point")
    _add_matrix_flag(p_sepr)
    which = p_sepr.add_mutually_exclusive_group(required=True)
    which.add_argument("--assign", metavar="FILE", default=None,
                       help="JSON file mapping each variable to an integer "
                            "or 'p/q' value")
    which.add_argument("--all-ones", action="store_true",
                       help="assign 1 to every variable")
    p_sepr.set_defaults(handler=_cmd_sepr)

    p_classify = sub.add_parser(
        "classify", help="classify each principal minor's sign over the orthant")
    _add_matrix_flag(p_classify)
    p_classify.add_argument("--k", type=_positive_int, default=None,
                            help="restrict to minors of this order "
                                 "(default: all orders)")
    p_classify.add_argument("--seed", type=_integer, default=DEFAULT_SEED,
                            help="sampling seed (default: %(default)s)")
    p_classify.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                            help="samples per polynomial in witness searches "
                                 "(default: %(default)s)")
    p_classify.set_defaults(handler=_cmd_classify)

    return parser


def _add_matrix_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--matrix", metavar="FILE", default=None,
                        help="matrix JSON document "
                             "(default: the built-in 12x12 matrix)")


def _load_matrix_arg(path: str | None) -> SymMatrix:
    if path is None:
        return paper_matrix()
    return load_matrix(path)


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    report = verify_paper_claims(budget=args.budget, seed=args.seed)
    if args.format == "json":
        rendered = json.dumps(report.to_document(), indent=2) + "\n"
    else:
        rendered = report.render_text()
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        sys.stdout.write(rendered)
    return _EXIT_BY_STATUS[report.overall]


def _cmd_det(args: argparse.Namespace) -> int:
    matrix = _load_matrix_arg(args.matrix)
    print(principal_minor(matrix, IndexSet.of(args.subset, matrix.n).mask()))
    return 0


def _load_assignment(matrix: SymMatrix, path: str) -> RationalPoint:
    document = _read_json(path)
    if not isinstance(document, dict):
        raise ValueError("assignment document must be a JSON object")
    return RationalPoint.from_mapping(matrix.table, document)


def _cmd_sepr(args: argparse.Namespace) -> int:
    matrix = _load_matrix_arg(args.matrix)
    if args.all_ones:
        point = RationalPoint.all_ones(matrix.table)
    else:
        point = _load_assignment(matrix, args.assign)
    print(sepr_at_point(matrix, point))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    matrix = _load_matrix_arg(args.matrix)
    if args.k is not None and args.k > matrix.n:
        raise ValueError(f"order {args.k} out of range 1..{matrix.n}")
    minors = all_principal_minors(matrix)
    masks = range(1, 1 << matrix.n) if args.k is None else minors.masks_of_order(args.k)
    for mask in masks:
        verdict = classify_polynomial(minors.minor(mask),
                                      budget=args.budget, seed=args.seed)
        subset = IndexSet.from_mask(mask)
        print(f"{subset}  {verdict.label()}")
        if verdict.kind in (SignKind.MIXED, SignKind.UNRESOLVED):
            if verdict.pos_witness is not None:
                print(f"  + at {verdict.pos_witness.render()}")
            if verdict.neg_witness is not None:
                print(f"  - at {verdict.neg_witness.render()}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Python flushes stdout again at exit; devnull keeps that one quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except (OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
