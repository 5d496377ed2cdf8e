"""Command-line front end.

Subcommands: ``constants`` prints the closed-form tables, ``simulate`` runs
the Monte Carlo rate estimation, ``verify`` runs one of the identity checks.
Exit codes: 0 success, 1 usage error, 2 numerical or degeneracy error,
3 statistical-check failure. ``--seed`` must be a whole number in
[0, 2^64); anything else is a usage error. JSON reports are byte-stable for
fixed flags (volatile fields such as runtimes are omitted); a ``verify``
report holds every field of its check.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from . import constants, experiments, sampler
from .constants import SCHEMA_VERSION
from .errors import ConvergenceError, DegeneracyError, IterationLimitError, MosaicError

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_STATISTICAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102
        raise _UsageError(message)


def _parse_n_range(text: str) -> list[int]:
    """``--n``: an inclusive range ``lo..hi`` or a comma list; never empty."""
    lo, dots, hi = text.partition("..")
    try:
        ns = list(range(int(lo), int(hi) + 1)) if dots else [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a range or list of integers: {text!r}") from None
    if not ns:
        raise argparse.ArgumentTypeError(f"empty range: {text!r}")
    return ns


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _count(text: str) -> int:
    """``--samples``, ``--reps``: a whole number of at least 1, also written as ``1e6``."""
    value = _number(text)
    if not (value >= 1 and value.is_integer()):
        raise argparse.ArgumentTypeError(f"need a whole number of at least 1, got {text!r}")
    return int(value)


def _seed(text: str) -> int:
    """``--seed``: a whole number in [0, 2^64), the range of the generators' keys."""
    if not (text.isascii() and text.isdigit() and int(text) < 2**64):
        raise argparse.ArgumentTypeError(f"need a whole number in [0, 2^64), got {text!r}")
    return int(text)


def _positive(text: str) -> float:
    """``--window``, ``--rho``: a finite number above 0."""
    value = _number(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"need a finite number above 0, got {text!r}")
    return value


def _non_negative(text: str) -> float:
    """``--buffer``, ``--r0``: a number of at least 0, ``inf`` included."""
    value = _number(text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"need a number of at least 0, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="anchormosaic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("constants", help="closed-form interval and simplex constants")
    p_const.add_argument("--k", type=int, required=True, choices=(1, 2))
    p_const.add_argument("--n", type=_parse_n_range, required=True, help="ambient dimensions, e.g. 2..9 or 3,5,7")
    p_const.add_argument("--r0", type=_non_negative, default=None, help="radius threshold for the expectation column")
    p_const.add_argument("--rho", type=_positive, default=1.0)
    p_const.add_argument("--out", type=str, default=None)
    p_const.add_argument("--format", choices=("csv", "json"), default="json")

    p_sim = sub.add_parser("simulate", help="Monte Carlo interval/simplex rates")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--k", type=int, required=True, choices=(1, 2))
    p_sim.add_argument("--rho", type=_positive, default=1.0)
    p_sim.add_argument("--window", type=_positive, required=True, help="k-volume of the counting window")
    p_sim.add_argument("--buffer", type=_non_negative, default=None, help="sampling margin (default: radius quantile 1-1e-6)")
    p_sim.add_argument("--r0", type=_non_negative, default=math.inf)
    p_sim.add_argument("--reps", type=_count, default=10)
    p_sim.add_argument("--seed", type=_seed, default=0)
    p_sim.add_argument("--out", type=str, default=None)
    p_sim.add_argument("--format", choices=("csv", "json"), default="json")

    p_ver = sub.add_parser("verify", help="identity and distribution checks")
    p_ver.add_argument("kind", choices=("bp", "angle", "gamma-lemma", "beta-law"))
    p_ver.add_argument("--n", type=int, default=2)
    p_ver.add_argument("--k", type=int, default=1)
    p_ver.add_argument("--m", type=int, default=1)
    p_ver.add_argument(
        "--samples", type=_count, default=None,
        help="samples, or draws for gamma-lemma (default: bp 1e6, gamma-lemma 100, beta-law 20000)",
    )
    p_ver.add_argument("--seed", type=_seed, default=0)
    p_ver.add_argument("--test-function", choices=("gaussian", "bump"), default="gaussian")
    p_ver.add_argument("--out", type=str, default=None)
    return parser


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_constants(args: argparse.Namespace) -> int:
    types = constants.valid_interval_types(args.k)
    table: dict[str, dict[str, float]] = {}
    rows: list[tuple] = []
    for n in args.n:
        # the constants first: they refuse an n with none before n divides
        entry = {f"C[{t.ell},{t.m}]": constants.interval_constant(t, args.k, n) for t in types}
        for j in range(args.k + 1):
            entry[f"D[{j}]"] = constants.simplex_constant(j, args.k, n)
        if args.r0 is not None:
            norm = args.rho ** (args.k / n)  # expectations per unit rho^(k/n) |R|
            for t in types:
                entry[f"E[c({t.ell},{t.m})](r0)"] = (
                    constants.expected_interval_count(t, args.k, n, args.rho, 1.0, args.r0) / norm
                )
            for j in range(args.k + 1):
                entry[f"E[d({j})](r0)"] = (
                    constants.expected_simplex_count(j, args.k, n, args.rho, 1.0, args.r0) / norm
                )
        table[str(n)] = entry
        # a simplex row has ell = m = j; expected is empty without --r0
        keys = [("interval", t.ell, t.m, f"C[{t.ell},{t.m}]", f"E[c({t.ell},{t.m})](r0)") for t in types]
        keys += [("simplex", j, j, f"D[{j}]", f"E[d({j})](r0)") for j in range(args.k + 1)]
        rows += [
            (kind, ell, m, n, entry[value], entry.get(expected, ""))
            for kind, ell, m, value, expected in keys
        ]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "constants",
        "k": args.k,
        "rho": args.rho,
        "r0": None if args.r0 == math.inf else args.r0,
        "table": table,
    }
    csv = experiments.csv_text("type,ell,m,n,constant,expected", rows)
    _write(experiments.json_text(payload) if args.format == "json" else csv, args.out)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    side = args.window ** (1.0 / args.k)
    window = tuple((0.0, side) for _ in range(args.k))
    cfg = sampler.SamplingConfig(
        n=args.n, rho=args.rho, window=window, buffer=args.buffer, seed=args.seed
    )
    report = experiments.estimate_interval_rates(cfg, replicates=args.reps, r0=args.r0)
    text = (
        experiments.report_to_json(report)
        if args.format == "json"
        else experiments.report_to_csv(report)
    )
    _write(text, args.out)
    return EXIT_OK


def _given(**counts: int | None) -> dict[str, int]:
    """The counts that were given; a check runs its own default for the rest."""
    return {name: value for name, value in counts.items() if value is not None}


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.kind == "bp":
        check = experiments.verify_bp_identity(
            args.n, args.k, args.m, test_function=args.test_function,
            seed=args.seed, **_given(samples=args.samples),
        )
    elif args.kind == "angle":
        check = experiments.verify_angle_integral(args.n)
    elif args.kind == "gamma-lemma":
        check = experiments.verify_gamma_lemma(seed=args.seed, **_given(draws=args.samples))
    else:  # beta-law
        check = experiments.verify_beta_projection_law(
            args.n, args.k, seed=args.seed, **_given(samples=args.samples)
        )
    payload = {
        "schema_version": SCHEMA_VERSION, "kind": f"verify-{args.kind}", "passed": check.passed,
    }
    payload.update(dataclasses.asdict(check))
    _write(experiments.json_text(payload), args.out)
    return EXIT_OK if check.passed else EXIT_STATISTICAL


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "constants":
            return _cmd_constants(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_verify(args)
    except (DegeneracyError, ConvergenceError, IterationLimitError, MosaicError,
            ValueError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
