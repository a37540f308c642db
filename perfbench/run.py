"""Benchmark for grunwald: end-to-end and per-layer figures on three
workloads, with the outputs checked.

    python3 perfbench/run.py --workload cn-tables --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports grunwald from `src/` of
that checkout and exits with a nonzero code if there is none. It runs
whole rounds of the workload until --seconds have passed (at least two
rounds), finishing the round in progress, and prints one JSON object as
the last line of its output: with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer ones.
Run records and trace files go to perfbench/out/.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the figures must repeat on a shared 2-core machine, and
# a single thread never exceeds the cores there are. Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# Set-up is measured this many times per run (once here, the rest in fresh
# interpreters) and reported as the median.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
# A run makes at least two rounds, so that wall_s is a median of two or
# more and a traced run has one untraced and one traced round.
MIN_ROUNDS = 2

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ops_per_s": "1/s"}

PER_LAYER = (
    "series.normalized_symbol_s", "series.normalized_symbol_calls",
    "series.pow_real_s",
    "generators.verify_order_s", "generators.verify_order_calls",
    "generators.construct_beta_s", "generators.beta_table_s",
    "generators.grunwald_weights_s", "generators.grunwald_weights_calls",
    "generators.weight_terms",
    "operators.assemble_frac_matrix_s", "operators.assembled_mb",
    "operators.checked_lu_s", "operators.checked_lu_calls",
    "operators.solve_factored_s", "operators.solve_factored_calls",
    "steady.solve_steady_s", "steady.stability_scan_s",
    "diffusion.cn_solve_s", "diffusion.cn_steps", "diffusion.trajectory_mb",
    "diffusion.stability_estimate_check_s",
    "problems.source_s", "problems.source_calls",
    "harness.reproduce_table_s", "harness.run_convergence_s",
    "harness.report_io_s", "harness.run_property_suite_s",
    "trace.wall_s", "trace.unaccounted_s", "trace.overhead_s",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cn-tables", "steady-ladder", "symbol-scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path and import grunwald from
    it, so that no installed copy is measured."""
    package = ROOT / "src" / "grunwald"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no grunwald sources at {package}; run from "
                 "the root of a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import grunwald

    if Path(grunwald.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: grunwald imported from {grunwald.__file__}, "
                 f"not from {package}")


def set_up(args):
    import_program()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, str(OUT_DIR))
    workload.warm_up()
    return workload, time.perf_counter() - SETUP_START


def setup_in_fresh_interpreter(args) -> float:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-only"]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_rounds(workload, seconds, tracer):
    """Whole rounds until `seconds` have passed, and at least MIN_ROUNDS;
    a traced run alternates untraced and traced rounds."""
    plain, traced, found = [], [], []
    started = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(traced) < len(plain)
        begin = time.perf_counter()
        if trace_this:
            with tracer.round():
                found += workload.round()
        else:
            found += workload.round()
        (traced if trace_this else plain).append(time.perf_counter() - begin)
        enough = len(plain) + len(traced) >= MIN_ROUNDS
        if enough and time.perf_counter() - started >= seconds:
            return plain, traced, found


def machine_facts():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def per_layer_metrics(tracer, plain, traced):
    rounds = len(traced)
    seconds, calls = tracer.layer_totals()
    values = {}
    for metric in PER_LAYER:
        layer, _, what = metric.rpartition("_")
        if metric in tracer.counts:
            values[metric] = tracer.counts[metric] / rounds
        elif metric in tracer.peaks:
            values[metric] = tracer.peaks[metric]
        elif what == "s":
            values[metric] = seconds.get(layer, 0.0) / rounds
        elif what == "calls":
            values[metric] = calls.get(layer, 0) / rounds
        else:
            values[metric] = 0.0
    values["trace.wall_s"] = sum(traced) / rounds
    values["trace.unaccounted_s"] = seconds.get("round", 0.0) / rounds
    values["trace.overhead_s"] = (statistics.median(traced)
                                  - statistics.median(plain))
    return values


def main(argv=None):
    args = parse_args(argv)
    workload, setup_s = set_up(args)
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import checks

    setup_samples = [setup_s]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    else:
        setup_samples += [setup_in_fresh_interpreter(args)
                          for _ in range(SETUP_SAMPLES - 1)]
    try:
        plain, traced, found = run_rounds(workload, args.seconds, tracer)
    finally:
        workload.close()

    wall_s = statistics.median(plain)
    failures = [c for c in found if not c.ok]
    correct = all(c.kind in checks.KNOWN_FAULT_KINDS for c in failures)
    if args.trace:
        values = per_layer_metrics(tracer, plain, traced)
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "ops_per_s": workload.ops_per_round / wall_s,
        }
    units = unit_of if args.trace else END_TO_END_UNITS.get
    metrics = {name: {"value": value, "unit": units(name)}
               for name, value in values.items()}
    margins = {}
    for check in found:
        if check.margin is not None and (
                check.kind not in margins
                or check.margin < margins[check.kind][0]):
            margins[check.kind] = (check.margin, check.label)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_facts(),
        "ops_per_round": workload.ops_per_round,
        "ops_unit": workload.ops_unit,
        "round_wall_s": plain, "traced_round_wall_s": traced,
        "setup_samples_s": setup_samples,
        "tightest_margin": margins,
        "failures": [c._asdict() for c in failures],
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"run-{stem}.json", "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    if tracer is not None:
        with open(OUT_DIR / f"trace-{stem}.json", "w") as handle:
            json.dump(tracer.dump(), handle, separators=(",", ":"))
        for name in tracer.skipped:
            print(f"perfbench: {name} not found; not traced", file=sys.stderr)
    for kind in sorted({c.kind for c in failures}):
        failed = [c.label for c in failures if c.kind == kind]
        known = " (known fault)" if kind in checks.KNOWN_FAULT_KINDS else ""
        print(f"perfbench: {len(failed)} failed {kind}{known}, first: "
              f"{failed[0]}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} rounds={len(plain)}"
          f"+{len(traced)} traced, ops/round={workload.ops_per_round} "
          f"{workload.ops_unit}, blas_threads={BLAS_THREADS}, "
          f"record={OUT_DIR.name}/run-{stem}.json")
    print(json.dumps({"correct": correct, "attempted": len(found),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
