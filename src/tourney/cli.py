"""Command-line interface.

Subcommands: gen (emit a .tour), count (counting report as JSON),
classify (classification report as JSON), verify (bound and identity
drivers as JSON), enumerate (regular corpus generation/verification).
Each command path takes exactly the flags it reads, so any other flag,
also one before the command, is a usage error that names it: each gen
family and verify target has a parser of its own, count takes the
library's quantity names (c5, w4, tr5, ...) as positional arguments,
and --time-budget belongs to the two paths that run against a clock,
enumerate --n and verify thm1.

Exit codes: 0 success, 1 a mathematical claim failed its check, 2 usage,
parse, or input errors.  Every number from a flag, a file header or a
count name is read by io._decimal: ASCII decimal digits only (a --seed
may start with one '-', a --time-budget hold one '.'), and a value too
long for an int exits 2 too.  JSON output never contains floats; exact
rationals are {"num": ..., "den": ...}.  A printed report's JSON is
exactly its dataclass fields, in declaration order (see _exact).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Any, Iterable, Sequence

from . import classify, counting, enumeration, extremal, generators, io
from .core import Tournament
from .errors import (
    InternalParityError,
    InvalidInput,
    ParseError,
    TourneyError,
    VerificationFailedError,
)


def _exact(value: Any) -> dict[str, Any]:
    """json's hook for what it cannot encode itself.  A Fraction prints
    as {"num": ..., "den": ...}; any other value must be a result
    dataclass, whose JSON is exactly its fields in declaration order.
    For anything else dataclasses.fields raises TypeError, as json
    expects of a default hook."""
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}


def _emit(doc: Any) -> None:
    json.dump(doc, sys.stdout, indent=2, default=_exact)
    sys.stdout.write("\n")


# -- subcommand handlers -----------------------------------------------------

def _cmd_gen(args: argparse.Namespace) -> int:
    t = args.build(args)
    if args.out is None:
        sys.stdout.write(io.format_tour(t))
    else:
        io.write_tour(t, args.out)
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    t = io.read_tour(args.input)
    report = counting.count_report(t, args.names, args.method)
    _emit(report)
    return 0 if report.cross_checked else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    t = io.read_tour(args.input)
    _emit(classify.classification_report(t))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    _emit(args.build(args))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.verify is not None:
        if args.out is not None or args.time_budget is not None:
            raise InvalidInput("--out and --time-budget go with an "
                               "enumeration by --n, not with --verify")
        corpus = enumeration.read_corpus(args.verify)
        enumeration.verify_corpus(corpus)
    else:
        corpus = enumeration.enumerate_regular(
            args.n, time_budget=args.time_budget)
        if args.out is not None:
            enumeration.write_corpus(corpus, args.out)
    _emit({
        "n": corpus.n,
        "constraint": "regular",
        "labeled_count": corpus.labeled_count,
        "classes": len(corpus.classes),
        "keys": [cf.hex() for cf, _ in corpus.classes],
    })
    return 0


# -- gen families and verify targets that need more than one call -----------

def _rotational(args: argparse.Namespace) -> Tournament:
    try:
        diffs = [io._decimal(d, "a --symbol part")
                 for d in args.symbol.split(",")]
    except ParseError as exc:  # with no column: too many digits
        raise InvalidInput(
            exc.reason if exc.col is None else
            f"--symbol must be comma-separated ASCII decimal integers, "
            f"got {io._echo(args.symbol)}") from None
    for i, d in enumerate(diffs):
        if d in diffs[:i]:
            raise InvalidInput(f"--symbol repeats the difference {d}")
    return generators.gen_rotational(
        generators.RotationalSymbol(args.n, frozenset(diffs)))


def _eq7(args: argparse.Namespace) -> dict[str, Any]:
    t = io.read_tour(args.input)
    lhs, rhs = extremal.regular_identity(t)
    tl, tr = extremal.regular_identity_trace(t)
    if lhs != rhs or tl != tr:
        raise VerificationFailedError(
            f"identity failed: {lhs} != {rhs} or {tl} != {tr}")
    return {
        "n": t.n,
        "lhs": lhs,
        "rhs": rhs,
        "trace_lhs": tl,
        "trace_rhs": tr,
        "equal": True,
    }


# -- parser ------------------------------------------------------------------

def _argument(text: str, digits: str, rule: str) -> int:
    """io._decimal's value of digits, the digits of the flag value text,
    as argparse takes it from a type function: a bad character is
    reported as rule with the text, a value with too many digits by
    io._decimal's message, which leaves the value out."""
    try:
        return io._decimal(digits, "the value")
    except ParseError as exc:
        raise argparse.ArgumentTypeError(
            exc.reason if exc.col is None else f"{rule}, got {io._echo(text)}"
        ) from None


_DIGITS = "must be ASCII decimal digits"


def _natural(text: str) -> int:
    return _argument(text, text, _DIGITS)


def _seconds(text: str) -> float:
    """A --time-budget value, whose digits are the text without its
    first '.'.  The range check is enumeration._deadline's, which the
    two commands that take a budget reach before they start work."""
    _argument(text, text.replace(".", "", 1),
              "must be a positive finite number of seconds in ASCII "
              "decimal digits with at most one '.'")
    return float(text)


def _seed(text: str) -> int:
    """A seed: a _natural after at most one leading '-'."""
    if text.startswith("-"):
        return -_argument(text, text[1:], _DIGITS)
    return _natural(text)


_NATURAL = {"type": _natural}
_BUDGET = {"type": _seconds, "default": None, "metavar": "SECONDS",
           "help": "wall-clock budget in seconds"}

# Each gen family and verify target: its name and help, the function of
# the parsed arguments that builds its result, and the flags it reads,
# each with add_argument's keywords.
_FAMILIES = (
    ("transitive", "TT_n, where i -> j iff i < j",
     lambda a: generators.gen_transitive(a.n), {"--n": _NATURAL}),
    ("rlt", "RLT_n, the rotational tournament on 1..(n-1)/2",
     lambda a: generators.gen_rlt(a.n), {"--n": _NATURAL}),
    ("rotational", "the rotational tournament of a difference set",
     _rotational,
     {"--n": _NATURAL, "--symbol": {"help": "comma-separated differences"}}),
    ("qr", "the quadratic-residue tournament over GF(p^power)",
     lambda a: generators.gen_qr_power(a.p, a.power),
     {"--p": {"type": _natural, "help": "prime, 3 (mod 4)"},
      "--power": {"type": _natural, "default": 1,
                  "help": "odd extension degree"}}),
    ("named", "a named tournament (see gen_named)",
     lambda a: generators.gen_named(a.name), {"--name": {}}),
    ("random", "a seeded uniformly random tournament",
     lambda a: generators.gen_random(a.n, a.seed),
     {"--n": _NATURAL, "--seed": {"type": _seed}}),
)
_TARGETS = (
    ("thm1", "exhaustive 5-cycle maximum at order 5 or 7",
     lambda a: extremal.verify_c5_max(a.n, time_budget=a.time_budget),
     {"--n": _NATURAL, "--time-budget": _BUDGET}),
    ("prop2", "order-9 regular corpus extremes",
     lambda a: extremal.verify_regular9(enumeration.read_corpus(a.corpus)),
     {"--corpus": {}}),
    ("lemma1", "score-sequence minimization",
     lambda a: extremal.verify_binomial_sum_min(a.n, a.p),
     {"--n": _NATURAL, "--p": _NATURAL}),
    ("eq7", "the regular c5 + 2 c4 identity", _eq7, {"--input": {}}),
)


def _add_builders(parser: argparse.ArgumentParser, dest: str,
                  specs: tuple) -> Iterable[argparse.ArgumentParser]:
    """One subparser of parser per spec, under dest, each taking its
    spec's flags, required unless they have a default."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, help_, build, flags in specs:
        builder = sub.add_parser(name, help=help_)
        builder.set_defaults(build=build)
        for flag, kw in flags.items():
            builder.add_argument(flag, required="default" not in kw, **kw)
    return sub.choices.values()


def _shown(token: str) -> str:
    """An unread token as a usage error shows it: a flag longer than
    io._ECHO characters by io._echo, any other token bare and whole."""
    long_flag = token[:1] == "-" and len(token) > io._ECHO
    return io._echo(token) if long_flag else token


class _ExactParser(argparse.ArgumentParser):
    """A parser that takes a long flag only as spelled in full and echoes
    a bad choice or a long unread flag by io._echo; its subparsers are of
    its own class, so both rules hold for all of them."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)

    def parse_args(self, args=None, namespace=None):  # type: ignore[override]
        # argparse's own check, whose message echoes each token whole
        args, unread = self.parse_known_args(args, namespace)
        if unread:
            self.error(f"unrecognized arguments: "
                       f"{' '.join(map(_shown, unread))}")
        return args

    def _check_value(self, action: argparse.Action, value: Any) -> None:
        # argparse's own check and message, which echoes the value whole;
        # each action with choices here is a flag or a subparser's dest
        if action.choices is not None and value not in action.choices:
            name = "/".join(action.option_strings) or action.dest
            choices = ", ".join(map(repr, action.choices))
            self.error(f"argument {name}: invalid choice: {io._echo(value)} "
                       f"(choose from {choices})")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state in it between calls."""
    parser = _ExactParser(
        prog="tourney",
        description="Construct, count, classify and verify small tournaments.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a tournament in .tour form")
    gen.set_defaults(run=_cmd_gen)
    for family in _add_builders(gen, "family", _FAMILIES):
        family.add_argument("--out", help="output path (default stdout)")

    count = sub.add_parser("count", help="counting report as JSON")
    count.set_defaults(run=_cmd_count)
    count.add_argument("--input", required=True)
    count.add_argument("names", nargs="*", metavar="NAME",
                       default=counting._FIXED_QUANTITIES,
                       help="c3 c4 c5 s3 s4 s5 (the default), wM "
                            "(M >= 3) or trM "
                            f"(1 <= M <= {counting.TRACE_MAX_M})")
    count.add_argument("--method",
                       choices=["formula", "oracle", "trace", "all"],
                       default="all")

    cls = sub.add_parser("classify", help="classification report as JSON")
    cls.set_defaults(run=_cmd_classify)
    cls.add_argument("--input", required=True)

    verify = sub.add_parser("verify", help="bound and identity checks")
    verify.set_defaults(run=_cmd_verify)
    _add_builders(verify, "target", _TARGETS)

    enum = sub.add_parser("enumerate", help="regular corpus generation")
    enum.set_defaults(run=_cmd_enumerate)
    source = enum.add_mutually_exclusive_group(required=True)
    source.add_argument("--n", type=_natural)
    source.add_argument("--verify", metavar="FILE",
                        help="verify an existing .corpus instead")
    enum.add_argument("--out", help="write a .corpus file")
    enum.add_argument("--time-budget", **_BUDGET)
    return parser


# The tokens before the command that argparse handles itself: the top
# level's help flags, "-" (read as a command name) and "--" (the end of
# the flags).
_TOP_LEVEL_ARGS = ("-h", "--help", "-", "--")


def main(argv: Sequence[str] | None = None) -> int:
    # numpy reads this when it is first imported, which the library does
    # lazily; its products are small, so more BLAS threads cost more CPU
    # than they save in wall time.  An explicit value is left alone.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0].startswith("-") and argv[0] not in _TOP_LEVEL_ARGS:
            # argparse would take the flag's value for the command
            parser.error(f"unrecognized arguments: {_shown(argv[0])} (a "
                         f"flag goes after the command that reads it)")
        args = parser.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (VerificationFailedError, InternalParityError) as exc:
        print(f"claim violated: {exc}", file=sys.stderr)
        return 1
    except (TourneyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
