"""Command-line front end.

Subcommands: verify-order, weights, steady, diffusion, scan,
reproduce-table, properties. Options may come from a key = value config
file (--config): each key is a long option of the subcommand, and the
file's lines are parsed as those flags ahead of the explicit ones, which
win. Exit codes: 0 when every check passes, 1 when a check fails, 2 on
usage errors.

Generator scalars (--alpha, --shift, --beta) are read exactly: integers,
fractions ("11/10") and decimals ("1.1" is 11/10) all become rationals,
so the symbol stays exact. Output files land in
--outdir (or $GRUNWALD_OUTDIR, default the working directory) unless an
absolute --output is given.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .generators import (
    GeneratorSpec,
    beta_table,
    grunwald_weights,
    lubich_generator,
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


class UsageError(Exception):
    pass


def _list_of(kind):
    """Argument type for a comma-separated list of `kind` values."""
    def parse(text):
        values = tuple(kind(part) for part in text.split(",") if part.strip())
        if not values:
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        return values

    parse.__name__ = f"{kind.__name__} list"
    return parse


def _config_flags(path, subparser) -> list:
    """The flags of `subparser` that a key = value config file stands for.

    A key names a long option of the subcommand; a switch (`json`) takes
    true or false. Values are left to the subcommand's own parse.
    """
    # argparse keeps no public map from option string to its action
    options = subparser._option_string_actions
    flags = []
    try:
        with open(path) as handle:
            lines = list(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, equals, value = line.partition("=")
        if not equals:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = key.strip(), value.strip()
        flag = "--" + key.replace("_", "-")
        action = options.get(flag)
        if action is None or action.dest in ("help", "config"):
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if action.nargs != 0:
            flags.append(f"{flag}={value}")
        elif value.lower() == "true":
            flags.append(flag)
        elif value.lower() != "false":
            raise UsageError(
                f"{path}:{lineno}: {key} takes true or false, not {value!r}"
            )
    return flags


def _with_config(parser, argv) -> list:
    """argv with the chosen subcommand's --config file spliced in as flags
    ahead of the explicit ones, so explicit flags win.

    --config is looked up apart from the subcommand's parse, which would
    demand options (--alpha, --table) that the file may supply.
    """
    subparser = parser.subcommands.get(argv[0]) if argv else None
    if subparser is None:
        return argv
    finder = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    finder.add_argument("--config")
    try:
        path = finder.parse_known_args(argv[1:])[0].config
    except argparse.ArgumentError:
        return argv  # the subcommand's parse reports the malformed flag
    if path is None:
        return argv
    return argv[:1] + _config_flags(path, subparser) + argv[1:]


def _resolve_output(args, default_name):
    outdir = args.outdir or os.environ.get(OUTDIR_ENV) or "."
    name = args.output or default_name
    if os.path.isabs(name):
        return name
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


def _make_generator(args):
    if args.beta is not None:
        return GeneratorSpec(alpha=args.alpha, shift=args.shift,
                             beta=args.beta)
    if args.family == "table":
        return beta_table(args.order, args.shift, args.alpha)
    generator = lubich_generator(args.order, args.alpha)
    return generator.with_shift(args.shift) if args.shift != 0 else generator


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
    weights = grunwald_weights(_make_generator(args), args.count)
    lines = ["k,weight"]
    lines += [f"{k},{w:.16e}" for k, w in enumerate(weights.values)]
    text = "\n".join(lines) + "\n"
    if args.output:
        path = _resolve_output(args, args.output)
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
    reports = run_convergence(config)
    failures = 0
    for report in reports:
        for row in report.rows:
            if row.failure is not None:
                failures += 1
                print(
                    f"FAIL alpha={report.alpha} N={row.n}: {row.failure}",
                    file=sys.stderr,
                )
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
    return 1 if failures else 0


def _cmd_steady(args) -> int:
    return _convergence_command(args, "steady-poly", "steady.csv")


def _cmd_diffusion(args) -> int:
    return _convergence_command(args, "diffusion-poly", "diffusion.csv",
                                m_rule=args.m_rule, m_fixed=args.m)


def _cmd_scan(args) -> int:
    order, shift, n = args.order, args.shift, args.n
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.points)
    report = stability_scan(order, shift, alphas, GridSpec(0.0, 1.0, n))
    path = _resolve_output(args, f"scan_p{order}_r{shift}.csv")
    lines = [
        f"# scan order={order} shift={shift} n={n}",
        "alpha,max_rayleigh,solve_error,baseline_error,stable,reason",
    ]
    for e in report.entries:
        err = "" if e.solve_error is None else f"{e.solve_error:.4e}"
        base = "" if e.baseline_error is None else f"{e.baseline_error:.4e}"
        reason = e.reason.replace(",", ";")
        lines.append(
            f"{e.alpha!r},{e.max_rayleigh:.4e},{err},{base},"
            f"{'yes' if e.stable else 'no'},{reason}"
        )
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
    report = reproduce_table(args.table, out_path=path)
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
    parser.add_argument("--order", type=int, default=2,
                        help="design order p (1..6)")
    parser.add_argument("--shift", type=Fraction, default=Fraction(0),
                        help="stencil shift r (default %(default)s)")
    parser.add_argument("--alpha", type=Fraction, required=True,
                        help="fractional order (e.g. 1.5 or 3/2)")
    parser.add_argument("--family", choices=("table", "lubich"),
                        default="table",
                        help="coefficient family (default %(default)s)")
    parser.add_argument("--beta", type=_list_of(Fraction),
                        help="custom comma-separated coefficients")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grunwald",
        description="Grunwald-type fractional derivative approximations, "
                    "solvers and experiment harness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices

    def subcommand(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key=value config file")
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
    p.add_argument("--m-rule", dest="m_rule", choices=M_RULES,
                   default="equal-to-n")
    p.add_argument("--m", type=int, help="step count for the fixed rule")

    p = subcommand("scan", _cmd_scan, "stability scan over fractional orders")
    _add_output_options(p)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--shift", type=int, default=1)
    p.add_argument("--alpha-min", dest="alpha_min", type=float, default=1.0)
    p.add_argument("--alpha-max", dest="alpha_max", type=float, default=2.0)
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
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for randomized checks")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_with_config(parser, argv))
        return args.handler(args)
    except (UsageError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
