"""Command-line front end.

Subcommands: verify-order, weights, steady, diffusion, scan,
reproduce-table, properties. Options may also come from @FILE, written
after the subcommand: each `key = value` line is the long option
--key=value, and a true or false value gives or leaves out a switch.
Explicit flags win over the file. Exit codes: 0 when every check passes,
1 when a check fails, 2 on usage errors and unwritable output paths.

A generator is named once: --order p (the closed-form table at --shift)
or --beta b0,b1,... (its coefficients). Generator scalars (--alpha,
--shift, --beta) are read exactly: integers, fractions ("11/10") and
decimals ("1.1" is 11/10) all become rationals, so the symbol stays
exact. Output files land in --outdir (or $GRUNWALD_OUTDIR, default the
working directory) unless an absolute --output is given; `weights`
prints to stdout unless given --output or --outdir. Every output path,
the JSON mirror's too, is checked before any computing; a directory is
made only to write a file in it, so a refused run leaves none behind.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .generators import (
    GeneratorSpec,
    beta_table,
    grunwald_weights,
    verify_order,
)
from .harness import (
    DEFAULT_SEED,
    M_RULES,
    RunConfig,
    _atomic_write,
    reproduce_table,
    run_convergence,
    run_property_suite,
)
from .operators import SCHEMES, GridSpec
from .reference_tables import REFERENCE_TABLES
from .steady import stability_scan

OUTDIR_ENV = "GRUNWALD_OUTDIR"

USAGE_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """Reads a line of an @FILE as a long option: `m_rule = 77` is
    --m-rule=77, `json = true` is --json and `json = false` nothing."""

    def convert_arg_line_to_args(self, arg_line):
        line = arg_line.split("#", 1)[0].strip()
        if not line:
            return []
        key, equals, value = line.partition("=")
        if not equals:
            self.error(f"option file line {line!r} is not 'key = value'")
        flag = "--" + key.strip().replace("_", "-")
        value = value.strip()
        if value.lower() in ("true", "false"):
            return [flag] if value.lower() == "true" else []
        return [f"{flag}={value}"]


def _exact(text):
    """Argument type for an exact scalar: argparse reports a ValueError as
    a usage error, but not the ZeroDivisionError of Fraction("1/0")."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _finite(text):
    """Argument type for a finite float: float() also reads inf, nan and
    literals that overflow, such as 1e309."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _seed(text):
    """Argument type for a seed: numpy refuses a negative one, in a message
    that names no option."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"not a non-negative integer: {text!r}")
    return int(text)


def _list_of(kind):
    """Argument type for a comma-separated list of `kind` values."""
    def parse(text):
        values = tuple(kind(part) for part in text.split(",") if part.strip())
        if not values:
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        return values

    parse.__name__ = f"{kind.__name__} list"
    return parse


def _resolve_output(args, default_name):
    outdir = args.outdir or os.environ.get(OUTDIR_ENV) or "."
    # an absolute name replaces outdir in the join
    path = os.path.join(outdir, args.output or default_name)
    _check_output_path(path)
    return path


def _check_output_path(path):
    """Refuse, before any computing and making nothing, a path that is a
    directory or whose nearest existing ancestor is not one."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"output path {path} is a directory")
    ancestor = os.path.dirname(os.path.abspath(path))
    while not os.path.lexists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise NotADirectoryError(f"output path {path} lies under {ancestor}, "
                                 "which is not a directory")


def _make_generator(args):
    if args.beta is not None:
        return GeneratorSpec(alpha=args.alpha, shift=args.shift,
                             beta=args.beta)
    return beta_table(args.order, args.shift, args.alpha)


def _cmd_verify_order(args) -> int:
    generator = _make_generator(args)
    expect = args.expect if args.expect is not None else generator.order
    report = verify_order(generator, expect)
    print(
        f"observed order {report.observed_order} "
        f"(expected >= {expect}), leading coefficient "
        f"{float(report.leading_coeff):.6g}"
    )
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_weights(args) -> int:
    path = (_resolve_output(args, "weights.csv")
            if args.output or args.outdir else None)
    weights = grunwald_weights(_make_generator(args), args.count).values
    lines = ["k,weight"] + [f"{k},{w:.16e}" for k, w in enumerate(weights)]
    text = "\n".join(lines) + "\n"
    if path:
        _atomic_write(path, text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    return 0


def _convergence_command(args, problem, default_name, **steps) -> int:
    config = RunConfig(
        problem=problem,
        scheme=args.scheme,
        alphas=args.alphas,
        n_values=args.n,
        output=_resolve_output(args, default_name),
        json_mirror=args.json,
        **steps,
    )
    if config.json_mirror:
        _check_output_path(config.json_path)
    reports = run_convergence(config)
    for report in reports:
        for row in report.failed_rows:
            print(f"FAIL alpha={report.alpha} N={row.n}: {row.failure}",
                  file=sys.stderr)
        tail = report.rows[-1]
        if tail.max_error is None:
            print(f"alpha={report.alpha}: final solve failed")
        else:
            line = (f"alpha={report.alpha} {report.scheme}: N={tail.n} "
                    f"error={tail.max_error:.4e}")
            if tail.observed_order is not None:
                line += f" order={tail.observed_order:.2f}"
            print(line)
    print(f"wrote {config.output}")
    return 1 if any(report.failed_rows for report in reports) else 0


def _cmd_steady(args) -> int:
    return _convergence_command(args, "steady-poly", "steady.csv")


def _cmd_diffusion(args) -> int:
    return _convergence_command(args, "diffusion-poly", "diffusion.csv",
                                m_rule=args.m_rule)


def _cmd_scan(args) -> int:
    order, shift, n = args.order, args.shift, args.n
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    path = _resolve_output(args, f"scan_p{order}_r{shift}.csv")
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.points)
    report = stability_scan(order, shift, alphas, GridSpec(0.0, 1.0, n))
    lines = [
        f"# scan order={order} shift={shift} n={n}",
        "alpha,max_rayleigh,stable,reason",
    ]
    for e in report.entries:
        reason = e.reason.replace(",", ";")
        lines.append(f"{e.alpha!r},{e.max_rayleigh:.4e},"
                     f"{'yes' if e.stable else 'no'},{reason}")
    _atomic_write(path, "\n".join(lines) + "\n")
    onset = report.stable_onset()
    stable = len(report.stable_alphas)
    print(
        f"{stable}/{len(report.entries)} alphas stable; stable onset: "
        + (f"{onset:.4f}" if onset is not None else "none")
    )
    print(f"wrote {path}")
    return 0


def _cmd_reproduce_table(args) -> int:
    path = _resolve_output(args, f"table{args.table}_diff.csv")
    report = reproduce_table(args.table)
    report.to_csv(path)
    for cell in report.failed_cells:
        failed = []
        if cell.error_ok is False:
            failed.append(
                f"error expected {cell.expected_error:.4e}, got "
                + ("none" if cell.actual_error is None else
                   f"{cell.actual_error:.4e}, margin "
                   f"{cell.error_margin:.4f} relative"))
        if cell.order_ok is False:
            failed.append(
                f"order expected {cell.expected_order:.2f}, got "
                + ("none" if cell.actual_order is None else
                   f"{cell.actual_order:.2f}, margin "
                   f"{cell.order_margin} hundredths"))
        print(f"FAIL alpha={cell.alpha} N={cell.n}: " + "; ".join(failed),
              file=sys.stderr)
    print(report.summary())
    print(f"wrote {path}")
    return 0 if report.passed else 1


def _cmd_properties(args) -> int:
    report = run_property_suite(args.seed)
    print(report.summary())
    return 0 if report.passed else 1


def _add_output_options(parser):
    parser.add_argument("--output", help="output file name or path")
    parser.add_argument("--outdir",
                        help=f"output directory (default ${OUTDIR_ENV} or .)")


def _add_convergence_options(parser, n_default):
    _add_output_options(parser)
    parser.add_argument("--json", action="store_true",
                        help="also write a JSON mirror of CSV output")
    parser.add_argument("--scheme", choices=SCHEMES, default="order2")
    parser.add_argument("--alphas", type=_list_of(float),
                        default="1.1,1.5,1.9",
                        help="comma-separated fractional orders")
    parser.add_argument("--n", type=_list_of(int), default=n_default,
                        help="comma-separated grid sizes")


def _add_generator_options(parser):
    # a string default is parsed only when --order is absent, so the group
    # sees a given `--order 2`, which an int default 2 would hide from it
    choice = parser.add_mutually_exclusive_group()
    choice.add_argument("--order", type=int, default="2",
                        help="design order p (1..6, default %(default)s)")
    choice.add_argument("--beta", type=_list_of(_exact),
                        help="custom comma-separated coefficients")
    parser.add_argument("--shift", type=_exact, default=Fraction(0),
                        help="stencil shift r (default %(default)s)")
    parser.add_argument("--alpha", type=_exact, required=True,
                        help="fractional order (e.g. 1.5 or 3/2)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="grunwald",
        description="Grunwald-type fractional derivative approximations, "
                    "solvers and experiment harness. Options may also come "
                    "from @FILE after the subcommand, one 'key = value' "
                    "line each (true/false for a switch); explicit flags win.",
        fromfile_prefix_chars="@",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, handler, help):
        # options by full name only: a prefix (--m) stands for no option
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(handler=handler)
        return p

    p = subcommand("verify-order", _cmd_verify_order,
                   "expand a generator's symbol and report its order")
    _add_generator_options(p)
    p.add_argument("--expect", type=int, help="minimum acceptable order")

    p = subcommand("weights", _cmd_weights, "emit Grunwald weights")
    _add_output_options(p)
    _add_generator_options(p)
    p.add_argument("--count", type=int, default=16,
                   help="highest weight index (default %(default)s)")

    p = subcommand("steady", _cmd_steady,
                   "steady benchmark convergence study")
    _add_convergence_options(p, "16,32,64,128,256,512,1024")

    p = subcommand("diffusion", _cmd_diffusion,
                   "diffusion benchmark convergence study")
    _add_convergence_options(p, "16,32,64,128,256,512")
    # digits are a step count; RunConfig refuses a bad count or rule name
    p.add_argument("--m-rule", default="equal-to-n",
                   type=lambda text: int(text) if text.isdecimal() else text,
                   help=f"{', '.join(M_RULES)} or a step count")

    p = subcommand("scan", _cmd_scan, "stability scan over fractional orders")
    _add_output_options(p)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--shift", type=int, default=1)
    p.add_argument("--alpha-min", dest="alpha_min", type=_finite, default=1.0)
    p.add_argument("--alpha-max", dest="alpha_max", type=_finite, default=2.0)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--n", type=int, default=64,
                   help="scan grid size (default %(default)s)")

    p = subcommand("reproduce-table", _cmd_reproduce_table,
                   "re-run a benchmark table and diff every cell")
    _add_output_options(p)
    p.add_argument("--table", type=int, choices=sorted(REFERENCE_TABLES),
                   required=True)

    p = subcommand("properties", _cmd_properties,
                   "run the randomized property suite")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                   help="seed for randomized checks")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # @FILE options go first after the subcommand, so explicit flags win
    argv = argv[:1] + sorted(argv[1:], key=lambda arg: not arg.startswith("@"))
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
