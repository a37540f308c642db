"""Command-line front end.

Subcommands: verify-order, weights, steady, diffusion, scan,
reproduce-table, properties. Options may come from a key=value config
file (--config); explicit flags win. Exit codes: 0 when every check
passes, 1 when a check fails, 2 on usage errors.

Generator scalars (--alpha, --shift, --beta) are read exactly: integers,
fractions ("11/10") and decimals ("1.1" is 11/10) all become rationals,
so the series arithmetic stays exact. Output files land in
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


def _parse_scalar(text):
    """Exact rational from an integer, a fraction 'a/b' or a decimal."""
    return Fraction(str(text).strip())


def _parse_list(text, kind):
    values = [kind(part) for part in str(text).split(",") if part.strip()]
    if not values:
        raise UsageError(f"empty list: {text!r}")
    return tuple(values)


def _parse_bool(text):
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"not a boolean: {text!r}")


# config-file value parsers per option destination
_CONFIG_PARSERS = {
    "order": int,
    "shift": _parse_scalar,
    "alpha": str,
    "beta": str,
    "family": str,
    "expect": int,
    "count": int,
    "scheme": str,
    "alphas": str,
    "n": str,
    "m_rule": str,
    "m": int,
    "table": int,
    "seed": int,
    "points": int,
    "alpha_min": float,
    "alpha_max": float,
    "output": str,
    "outdir": str,
    "json": _parse_bool,
}


def _load_config(path):
    values = {}
    try:
        with open(path) as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(
                        f"{path}:{lineno}: expected 'key = value'"
                    )
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in _CONFIG_PARSERS:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = _CONFIG_PARSERS[key](value.strip())
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    return values


def _merge_config(args):
    """Fill argparse 'None' slots from the config file, if any."""
    if not getattr(args, "config", None):
        return
    for key, value in _load_config(args.config).items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def _resolve_output(args, default_name):
    outdir = args.outdir or os.environ.get(OUTDIR_ENV) or "."
    name = args.output or default_name
    if os.path.isabs(name):
        return name
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


def _make_generator(args):
    shift = _parse_scalar(args.shift if args.shift is not None else 0)
    alpha = _parse_scalar(args.alpha)
    if args.beta is not None:
        beta = tuple(_parse_scalar(b) for b in args.beta.split(","))
        return GeneratorSpec(alpha=alpha, shift=shift, beta=beta)
    order = args.order if args.order is not None else 2
    family = args.family or "table"
    if family == "table":
        return beta_table(order, shift, alpha)
    if family == "lubich":
        generator = lubich_generator(order, alpha)
        return generator.with_shift(shift) if shift != 0 else generator
    raise UsageError(f"unknown family {family!r}")


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
    generator = _make_generator(args)
    count = args.count if args.count is not None else 16
    weights = grunwald_weights(generator, count)
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


def _convergence_command(args, problem, default_name) -> int:
    scheme = args.scheme or "order2"
    alphas = _parse_list(args.alphas or "1.1,1.5,1.9", float)
    if problem == "steady-poly":
        n_default = "16,32,64,128,256,512,1024"
    else:
        n_default = "16,32,64,128,256,512"
    n_values = _parse_list(args.n or n_default, int)
    config = RunConfig(
        problem=problem,
        scheme=scheme,
        alphas=alphas,
        n_values=n_values,
        m_rule=getattr(args, "m_rule", None) or "equal-to-n",
        m_fixed=getattr(args, "m", None),
        output=_resolve_output(args, default_name),
        json_mirror=bool(args.json),
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
    return _convergence_command(args, "diffusion-poly", "diffusion.csv")


def _cmd_scan(args) -> int:
    order = args.order if args.order is not None else 2
    shift = int(args.shift) if args.shift is not None else 1
    lo = args.alpha_min if args.alpha_min is not None else 1.0
    hi = args.alpha_max if args.alpha_max is not None else 2.0
    points = args.points if args.points is not None else 50
    n = int(args.n) if args.n is not None else 64
    grid = GridSpec(0.0, 1.0, n)
    report = stability_scan(order, shift, np.linspace(lo, hi, points), grid)
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
    if args.table is None:
        raise UsageError("--table is required")
    path = _resolve_output(args, f"table{args.table}_diff.csv")
    report = reproduce_table(args.table, out_path=path)
    for cell in report.failed_cells:
        print(
            f"FAIL alpha={cell.alpha} N={cell.n}: expected "
            f"{cell.expected_error:.4e}, got "
            f"{cell.actual_error if cell.actual_error is not None else 'none'}",
            file=sys.stderr,
        )
    gated = [c for c in report.cells if c.error_ok is not None or c.order_ok is not None]
    print(
        f"table {args.table}: {'PASS' if report.passed else 'FAIL'} "
        f"({len(gated)} gated cells)"
    )
    print(f"wrote {path}")
    return 0 if report.passed else 1


def _cmd_properties(args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    report = run_property_suite(seed)
    print(report.summary())
    return 0 if report.passed else 1


def _add_common(parser):
    parser.add_argument("--config", help="key=value config file")


def _add_output_options(parser):
    parser.add_argument("--output", help="output file name or path")
    parser.add_argument("--outdir",
                        help=f"output directory (default ${OUTDIR_ENV} or .)")


def _add_convergence_options(parser):
    _add_output_options(parser)
    parser.add_argument("--json", action="store_const", const=True,
                        help="also write a JSON mirror of CSV output")
    parser.add_argument("--scheme", choices=SCHEMES)
    parser.add_argument("--alphas", help="comma-separated fractional orders")
    parser.add_argument("--n", help="comma-separated grid sizes")


def _add_generator_options(parser):
    parser.add_argument("--order", type=int, help="design order p (1..6)")
    parser.add_argument("--shift", help="stencil shift r (default 0)")
    parser.add_argument("--alpha", help="fractional order (e.g. 1.5 or 3/2)")
    parser.add_argument("--family", choices=("table", "lubich"),
                        help="coefficient family (default table)")
    parser.add_argument("--beta", help="custom comma-separated coefficients")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grunwald",
        description="Grunwald-type fractional derivative approximations, "
                    "solvers and experiment harness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-order",
                       help="expand a generator's symbol and report its order")
    _add_common(p)
    _add_generator_options(p)
    p.add_argument("--expect", type=int, help="minimum acceptable order")
    p.set_defaults(handler=_cmd_verify_order)

    p = sub.add_parser("weights", help="emit Grunwald weights")
    _add_common(p)
    _add_output_options(p)
    _add_generator_options(p)
    p.add_argument("--count", type=int, help="highest weight index (default 16)")
    p.set_defaults(handler=_cmd_weights)

    p = sub.add_parser("steady",
                       help="steady benchmark convergence study")
    _add_common(p)
    _add_convergence_options(p)
    p.set_defaults(handler=_cmd_steady)

    p = sub.add_parser("diffusion",
                       help="diffusion benchmark convergence study")
    _add_common(p)
    _add_convergence_options(p)
    p.add_argument("--m-rule", dest="m_rule", choices=M_RULES)
    p.add_argument("--m", type=int, help="step count for the fixed rule")
    p.set_defaults(handler=_cmd_diffusion)

    p = sub.add_parser("scan", help="stability scan over fractional orders")
    _add_common(p)
    _add_output_options(p)
    p.add_argument("--order", type=int)
    p.add_argument("--shift")
    p.add_argument("--alpha-min", dest="alpha_min", type=float)
    p.add_argument("--alpha-max", dest="alpha_max", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--n", help="scan grid size (default 64)")
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("reproduce-table",
                       help="re-run a benchmark table and diff every cell")
    _add_common(p)
    _add_output_options(p)
    p.add_argument("--table", type=int, choices=sorted(REFERENCE_TABLES))
    p.set_defaults(handler=_cmd_reproduce_table)

    p = sub.add_parser("properties", help="run the randomized property suite")
    _add_common(p)
    p.add_argument("--seed", type=int, help="seed for randomized checks")
    p.set_defaults(handler=_cmd_properties)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
