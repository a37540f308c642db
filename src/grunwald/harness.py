"""Experiment orchestration: convergence studies, benchmark-table
reproduction, and the randomized property suite.

Reports round their numbers to the precision they are printed with
(5 significant digits for errors, 2 decimals for observed orders), so a
report written to CSV and parsed back is identical to the in-memory one.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import eigvalsh, toeplitz

from . import generators as gen
from . import operators as ops
from .diffusion import (
    DiffusionProblem,
    _cn_system,
    cn_solve,
    stability_estimate_check,
)
from .operators import GridSpec, SolverFailure
from .problems import polynomial_diffusion_problem, polynomial_steady_problem
from .reference_tables import REFERENCE_TABLES
from .steady import solve_steady

__all__ = [
    "RunConfig",
    "ConvergenceRow",
    "ConvergenceReport",
    "CellDiff",
    "TableDiffReport",
    "PropertyResult",
    "PropertySuiteReport",
    "run_convergence",
    "reproduce_table",
    "run_property_suite",
    "write_report_csv",
    "write_report_json",
    "read_report_csv",
]

PROBLEMS = ("steady-poly", "diffusion-poly")
M_RULES = ("equal-to-n", "ceil-n-3-2", "fixed")
CSV_HEADER = "N,M,alpha,scheme,max_error,observed_order"
DEFAULT_SEED = 20240807

# reproduce_table tolerances, the same for every cell of every table:
# errors within 2 % relative; orders within 0.10, counted in whole
# hundredths because both orders are printed with two decimals
ERROR_RTOL = 0.02
ORDER_TOL_HUNDREDTHS = 10


def _round_error(value: Optional[float]) -> Optional[float]:
    """5 significant digits, through the exact decimal representation so
    formatting and re-parsing is the identity."""
    return None if value is None else float(_format_error(value))


def _round_order(value: Optional[float]) -> Optional[float]:
    return None if value is None else float(_format_order(value))


@dataclass(frozen=True)
class RunConfig:
    """What to run: problem, scheme, fractional orders, grids, time rule."""

    problem: str
    scheme: str
    alphas: tuple
    n_values: tuple
    m_rule: str = "equal-to-n"
    m_fixed: Optional[int] = None
    output: Optional[str] = None
    json_mirror: bool = False

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        if self.problem not in PROBLEMS:
            raise ValueError(
                f"unknown problem {self.problem!r}; expected one of {PROBLEMS}"
            )
        ops.check_scheme(self.scheme)
        if not self.alphas:
            raise ValueError("alpha list must not be empty")
        if not self.n_values:
            raise ValueError("N list must not be empty")
        if min(self.n_values) < 16:
            raise ValueError("N values must be at least 16")
        if self.m_rule not in M_RULES:
            raise ValueError(
                f"unknown M rule {self.m_rule!r}; expected one of {M_RULES}"
            )
        if self.m_rule == "fixed" and (self.m_fixed is None or self.m_fixed < 1):
            raise ValueError("fixed M rule needs m_fixed >= 1")
        if self.m_fixed is not None and self.m_rule != "fixed":
            raise ValueError("m_fixed is used only by the fixed M rule")

    def steps_for(self, n: int) -> int:
        if self.m_rule == "equal-to-n":
            return n
        if self.m_rule == "ceil-n-3-2":
            return math.ceil(n**1.5)
        return int(self.m_fixed)


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    m: int
    max_error: Optional[float]
    observed_order: Optional[float]
    failure: Optional[str] = None


@dataclass(frozen=True)
class ConvergenceReport:
    problem: str
    scheme: str
    alpha: float
    rows: tuple

    @property
    def failed_rows(self) -> tuple:
        return tuple(r for r in self.rows if r.failure is not None)


def _solve_once(problem_id: str, scheme: str, alpha: float, n: int,
                m: int) -> float:
    grid = GridSpec(0.0, 1.0, n)
    if problem_id == "steady-poly":
        problem = polynomial_steady_problem(alpha)
        solution = solve_steady(problem, grid, scheme)
        exact = problem.exact(grid.points())
    else:
        problem = polynomial_diffusion_problem(alpha)
        solution = cn_solve(problem, grid, m, scheme)
        exact = problem.exact(grid.points(), problem.t_final)
    return float(np.max(np.abs(solution - exact)))


def _study(problem: str, scheme: str, alpha: float, n_values: Sequence[int],
           m_values: Sequence[int]) -> tuple:
    """Solve at each (N, M) in turn; a row's order is log2 of the previous
    over this unrounded error, empty when either is missing or zero. Solver
    failures are recorded in their row and do not abort the study."""
    rows = []
    previous = None
    for n, m in zip(n_values, m_values):
        error = None
        failure = None
        try:
            error = _solve_once(problem, scheme, alpha, n, m)
        except SolverFailure as exc:
            failure = str(exc)
        order = None
        if previous and error:
            order = _round_order(math.log2(previous / error))
        rows.append(
            ConvergenceRow(
                n=n,
                m=m,
                max_error=_round_error(error),
                observed_order=order,
                failure=failure,
            )
        )
        previous = error
    return tuple(rows)


def run_convergence(config: RunConfig) -> list:
    """Execute the configured solves and assemble one report per alpha.

    Solver failures are recorded in their row and do not abort the run.
    Writes CSV (and optionally a JSON mirror) when the config names an
    output path.
    """
    diffusion = config.problem == "diffusion-poly"
    m_values = [config.steps_for(n) if diffusion else 0
                for n in config.n_values]
    reports = [
        ConvergenceReport(
            problem=config.problem,
            scheme=config.scheme,
            alpha=alpha,
            rows=_study(config.problem, config.scheme, alpha,
                        config.n_values, m_values),
        )
        for alpha in config.alphas
    ]
    if config.output:
        write_report_csv(reports, config.output)
        if config.json_mirror:
            write_report_json(reports, _json_path(config.output))
    return reports


def _json_path(csv_path: str) -> str:
    root, _ = os.path.splitext(csv_path)
    return root + ".json"


def _format_error(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.4e}"


def _format_order(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.2f}"


def _one_problem(reports: Sequence[ConvergenceReport], kind: str) -> str:
    problems = {r.problem for r in reports}
    if len(problems) != 1:
        raise ValueError(f"reports in one {kind} must share a problem")
    return problems.pop()


def write_report_csv(reports: Sequence[ConvergenceReport], path) -> None:
    """Emit reports as CSV: `# key=value` comment lines, the fixed header,
    then one row per resolution. The write is atomic (temp file + rename)."""
    lines = [f"# problem={_one_problem(reports, 'CSV')}"]
    for report in reports:
        for row in report.failed_rows:
            note = row.failure.replace("\n", " ")
            lines.append(
                f"# failure alpha={report.alpha!r} N={row.n}: {note}"
            )
    lines.append(CSV_HEADER)
    for report in reports:
        for row in report.rows:
            lines.append(
                f"{row.n},{row.m},{report.alpha!r},{report.scheme},"
                f"{_format_error(row.max_error)},"
                f"{_format_order(row.observed_order)}"
            )
    _atomic_write(path, "\n".join(lines) + "\n")


def _atomic_write(path, text: str) -> None:
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        handle.write(text)
    os.replace(tmp, path)


def read_report_csv(path) -> list:
    """Parse a CSV written by write_report_csv back into reports."""
    problem = None
    failures = {}
    rows = []
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("problem="):
                    problem = body[len("problem="):]
                elif body.startswith("failure "):
                    head, _, note = body[len("failure "):].partition(": ")
                    fields = dict(
                        part.split("=", 1) for part in head.split()
                    )
                    failures[(float(fields["alpha"]), int(fields["N"]))] = note
                continue
            if line == CSV_HEADER:
                continue
            parts = line.split(",")
            n, m, alpha, scheme, err, order = parts
            rows.append(
                (
                    float(alpha),
                    scheme,
                    ConvergenceRow(
                        n=int(n),
                        m=int(m),
                        max_error=float(err) if err else None,
                        observed_order=float(order) if order else None,
                        failure=failures.get((float(alpha), int(n))),
                    ),
                )
            )
    if problem is None:
        raise ValueError(f"{path} is missing the problem comment line")
    reports = []
    seen = {}
    for alpha, scheme, row in rows:
        key = (alpha, scheme)
        seen.setdefault(key, []).append(row)
    for (alpha, scheme), group in seen.items():
        reports.append(
            ConvergenceReport(
                problem=problem, scheme=scheme, alpha=alpha, rows=tuple(group)
            )
        )
    return reports


def write_report_json(reports: Sequence[ConvergenceReport], path) -> None:
    payload = {
        "problem": _one_problem(reports, "JSON"),
        "reports": [
            {
                "alpha": report.alpha,
                "scheme": report.scheme,
                "rows": [
                    {
                        "n": row.n,
                        "m": row.m,
                        "max_error": row.max_error,
                        "observed_order": row.observed_order,
                        "failure": row.failure,
                    }
                    for row in report.rows
                ],
            }
            for report in reports
        ],
    }
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# benchmark-table reproduction


@dataclass(frozen=True)
class CellDiff:
    alpha: float
    n: int
    m: int
    expected_error: float
    actual_error: Optional[float]
    error_rel_diff: Optional[float]
    error_ok: Optional[bool]
    expected_order: Optional[float]
    actual_order: Optional[float]
    order_ok: Optional[bool]
    # distance to the tolerance of a gated cell, negative when it fails:
    # ERROR_RTOL - error_rel_diff, and the order tolerance minus the order
    # difference in whole hundredths
    error_margin: Optional[float] = None
    order_margin: Optional[int] = None


def _worst(cells, field: str):
    """The cell with the smallest margin in `field`, or None."""
    gated = [c for c in cells if getattr(c, field) is not None]
    return min(gated, key=lambda c: getattr(c, field), default=None)


@dataclass(frozen=True)
class TableDiffReport:
    table_id: int
    cells: tuple
    passed: bool
    note: str = ""

    def to_csv(self, path) -> None:
        lines = [f"# table={self.table_id}"]
        if self.note:
            lines.append(f"# note: {self.note}")
        lines.append(
            "alpha,N,M,expected_error,actual_error,rel_diff,error_ok,"
            "expected_order,actual_order,order_ok"
        )

        def flag(ok):
            return "" if ok is None else ("pass" if ok else "FAIL")

        for c in self.cells:
            lines.append(
                f"{c.alpha!r},{c.n},{c.m},{c.expected_error:.4e},"
                f"{_format_error(c.actual_error)},"
                + (f"{c.error_rel_diff:.3e}" if c.error_rel_diff is not None else "")
                + f",{flag(c.error_ok)},{_format_order(c.expected_order)},"
                f"{_format_order(c.actual_order)},{flag(c.order_ok)}"
            )
        _atomic_write(path, "\n".join(lines) + "\n")

    @property
    def failed_cells(self) -> tuple:
        return tuple(
            c for c in self.cells
            if c.error_ok is False or c.order_ok is False
        )

    def summary(self) -> str:
        gated = [c for c in self.cells
                 if c.error_ok is not None or c.order_ok is not None]
        order = _worst(self.cells, "order_margin")
        error = _worst(self.cells, "error_margin")
        return (
            f"table {self.table_id}: {'PASS' if self.passed else 'FAIL'} "
            f"({len(gated)} gated cells)\nworst margin: order "
            + (f"{order.order_margin} hundredths (alpha={order.alpha}, "
               f"N={order.n})" if order else "none")
            + "; error "
            + (f"{error.error_margin:.4f} relative (alpha={error.alpha}, "
               f"N={error.n})" if error else "none")
        )


def reproduce_table(table_id: int, *, out_path=None) -> TableDiffReport:
    """Re-run the exact configuration behind a benchmark table and diff
    every cell: errors within ERROR_RTOL relative, orders within
    ORDER_TOL_HUNDREDTHS. Every error cell and every cell with a printed
    order is gated, and a missing value fails its gate. A failing cell
    makes the report fail; it never raises.
    """
    if table_id not in REFERENCE_TABLES:
        raise ValueError(
            f"unknown table {table_id}; known: {sorted(REFERENCE_TABLES)}"
        )
    ref = REFERENCE_TABLES[table_id]
    m_values = ref.m_values or tuple(0 for _ in ref.n_values)
    cells = []
    for alpha in ref.alphas:
        rows = _study(ref.problem, ref.scheme, alpha, ref.n_values, m_values)
        for row, expected_error, expected_order in zip(
                rows, ref.errors[alpha], ref.orders[alpha], strict=True):
            rel = error_margin = None
            if row.max_error is not None:
                rel = abs(row.max_error - expected_error) / expected_error
                error_margin = ERROR_RTOL - rel
            error_ok = error_margin is not None and error_margin >= 0
            order_ok = order_margin = None
            if expected_order is not None:
                if row.observed_order is not None:
                    order_margin = ORDER_TOL_HUNDREDTHS - abs(
                        round(row.observed_order * 100)
                        - round(expected_order * 100))
                order_ok = order_margin is not None and order_margin >= 0
            cells.append(
                CellDiff(
                    alpha=alpha,
                    n=row.n,
                    m=row.m,
                    expected_error=expected_error,
                    actual_error=row.max_error,
                    error_rel_diff=rel,
                    error_ok=error_ok,
                    expected_order=expected_order,
                    actual_order=row.observed_order,
                    order_ok=order_ok,
                    error_margin=error_margin,
                    order_margin=order_margin,
                )
            )
    passed = all(c.error_ok and c.order_ok is not False for c in cells)
    report = TableDiffReport(
        table_id=table_id, cells=tuple(cells), passed=passed, note=ref.note
    )
    if out_path is not None:
        report.to_csv(out_path)
    return report


# ---------------------------------------------------------------------------
# property suite


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class PropertySuiteReport:
    seed: int
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def counts(self) -> tuple:
        good = sum(1 for r in self.results if r.passed)
        return good, len(self.results) - good

    def summary(self) -> str:
        good, bad = self.counts
        lines = [
            f"{'PASS' if r.passed else 'FAIL'} {r.name}"
            + (f": {r.detail}" if r.detail and not r.passed else "")
            for r in self.results
        ]
        lines.append(f"{good} passed, {bad} failed (seed {self.seed})")
        return "\n".join(lines)


def _symmetric_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of (M + M^T)/2, whose extremes bound the
    Rayleigh quotients v'Mv / v'v of every nonzero v."""
    return eigvalsh(0.5 * (matrix + matrix.T))


# in definition order, which fixes each property's seed [seed, index]
_PROPERTIES = []


def _prop(name):
    def wrap(fn):
        fn.property_name = name
        _PROPERTIES.append(fn)
        return fn

    return wrap


_EXACT_ALPHAS = (Fraction(11, 10), Fraction(3, 2), Fraction(19, 10), Fraction(2))


@_prop("generator-table-matches-construction")
def _prop_table_vs_construction(rng):
    worst = None
    for order in range(1, 7):
        for shift in (0, 1):
            for alpha in _EXACT_ALPHAS:
                table = gen.beta_table(order, shift, alpha)
                built = gen.construct_beta(order, shift, alpha)
                if table.beta != built.beta:
                    return False, f"mismatch at p={order}, r={shift}, alpha={alpha}"
                report = gen.verify_order(table, order)
                if not report.passed:
                    return False, (
                        f"order {report.observed_order} < {order} at "
                        f"p={order}, r={shift}, alpha={alpha}"
                    )
                worst = (order, shift, alpha)
    return True, f"checked through {worst}"


@_prop("weight-tail-sums-decay")
def _prop_tail_decay(rng):
    worst = 0.0
    for alpha in (1.1, 1.3, 1.5, 1.7, 1.9):
        weights = gen.grunwald_weights(gen.beta_table(2, 1, alpha), 2000)
        total = abs(float(weights.values.sum()))
        worst = max(worst, total)
        if total >= 1e-3:
            return False, f"|sum w| = {total:.2e} at alpha={alpha}"
    return True, f"worst |sum w| = {worst:.2e}"


@_prop("weight-sign-pattern")
def _prop_sign_pattern(rng):
    # 50 alphas at K=2000, and three more at K=2001: the Toeplitz
    # diagonals are t_k = w_{k+1}, so that is the diagonal sign pattern up
    # to bandwidth 2000
    cases = [(float(alpha), 2000) for alpha in np.linspace(1.0, 2.0, 50)]
    cases += [(alpha, 2001) for alpha in (1.1, 1.5, 1.9)]
    for alpha, terms in cases:
        weights = gen.grunwald_weights(gen.beta_table(2, 1, alpha), terms)
        report = gen.weight_sign_report(weights.values)
        if not report.ok:
            return False, f"alpha={alpha}, K={terms}: {report.violations[0]}"
    return True, "50 alphas at K=2000, 3 at K=2001"


@_prop("first-order-weights-match-binomial-recursion")
def _prop_binomial(rng):
    worst = 0.0
    for alpha in (1.1, 1.5, 1.9):
        spec = gen.GeneratorSpec(alpha=alpha, shift=0, beta=(1, -1))
        weights = gen.grunwald_weights(spec, 1000).values
        direct = np.empty(1001)
        direct[0] = 1.0
        for k in range(1, 1001):
            direct[k] = (1.0 - (alpha + 1.0) / k) * direct[k - 1]
        rel = np.max(
            np.abs(weights - direct) / np.maximum(np.abs(direct), 1e-300)
        )
        worst = max(worst, float(rel))
        if rel > 1e-12:
            return False, f"relative deviation {rel:.2e} at alpha={alpha}"
    return True, f"worst relative deviation {worst:.2e}"


@_prop("matrix-matches-convolution-apply")
def _prop_matrix_apply(rng):
    worst = 0.0
    for n in (16, 64, 128):
        grid = GridSpec(0.0, 1.0, n)
        weights = gen.grunwald_weights(gen.beta_table(2, 1, 1.5), n + 1)
        col, row = ops.toeplitz_generators(weights, grid)
        for side, matrix in (("left", toeplitz(col, row)),
                             ("right", toeplitz(row, col))):
            u = rng.standard_normal(n + 1)
            direct = matrix @ u
            conv = ops.apply_grunwald(u, weights, grid, side)
            rel = np.max(np.abs(direct - conv)) / max(
                np.max(np.abs(direct)), 1e-300
            )
            worst = max(worst, float(rel))
            if rel > 1e-13:
                return False, f"relative gap {rel:.2e} at n={n}, {side}"
    return True, f"worst relative gap {worst:.2e}"


@_prop("operator-negative-definite")
def _prop_negative_definite(rng):
    # the symmetric part of K1 A + K2 A^T is (K1 + K2)(A + A^T)/2, so A
    # alone decides definiteness for every pair of coefficients
    worst = -np.inf
    for alpha in (1.1, 1.5, 1.9):
        for n in (16, 64):
            col, row, _ = ops.scheme_operator("order2", alpha,
                                              GridSpec(0.0, 1.0, n))
            top = _symmetric_eigenvalues(toeplitz(col, row))[-1]
            worst = max(worst, top)
            if top > 1e-12:
                return False, (
                    f"positive eigenvalue {top:.2e} at alpha={alpha}, n={n}"
                )
    return True, f"largest eigenvalue of the symmetric part {worst:.2e}"


@_prop("preconditioner-norm-equivalence")
def _prop_norm_equivalence(rng):
    lo, hi = np.inf, -np.inf
    grid = GridSpec(0.0, 1.0, 64)
    for alpha in (1.0, 1.5, 2.0):
        _, _, a2 = ops.scheme_operator("order3", alpha, grid)
        size = grid.n - 1
        eigs = _symmetric_eigenvalues(
            ops.precondition_rows(np.eye(size + 2, size, k=-1), a2))
        lo, hi = min(lo, eigs[0]), max(hi, eigs[-1])
        if eigs[0] <= 0.2 or eigs[-1] > 1.0 + 1e-12:
            return False, (
                f"eigenvalues ({eigs[0]:.4f}, {eigs[-1]:.4f}) "
                f"escape (1/5, 1] at alpha={alpha}"
            )
    return True, f"eigenvalues within ({lo:.4f}, {hi:.4f})"


@_prop("preconditioner-symmetric")
def _prop_precond_symmetric(rng):
    dense = ops.precondition_rows(np.eye(36, 34, k=-1), 1.0 / 12.0)
    if not np.array_equal(dense, dense.T):
        return False, "stencil matrix is not symmetric"
    interior_sums = dense[1:-1].sum(axis=1)
    if not np.allclose(interior_sums, 1.0, rtol=0, atol=1e-15):
        return False, "interior row sums differ from 1"
    return True, ""


@_prop("cn-left-matrix-coercive")
def _prop_cn_coercive(rng):
    worst = {"order2": np.inf, "order3": np.inf}
    for alpha in (1.1, 1.5, 1.9):
        problem = polynomial_diffusion_problem(alpha)
        grid = GridSpec(0.0, 1.0, 32)
        for scheme, floor in (("order2", 1.0), ("order3", 0.2)):
            system = _cn_system(problem, grid, 16, scheme)
            low = _symmetric_eigenvalues(
                system.p_reduced - system.b_reduced)[0]
            worst[scheme] = min(worst[scheme], low)
            if low < floor - 1e-10:
                return False, (
                    f"{scheme} at alpha={alpha}: coercivity "
                    f"{low:.4f} below {floor}"
                )
    return True, ", ".join(f"{scheme} coercivity {low:.4f}"
                           for scheme, low in worst.items())


@_prop("cn-single-step-energy-decay")
def _prop_cn_energy(rng):
    for alpha in (1.1, 1.9):
        problem = polynomial_diffusion_problem(alpha)
        grid = GridSpec(0.0, 1.0, 32)
        system = _cn_system(problem, grid, 16, "order3")
        v0 = rng.standard_normal(grid.n - 1)
        v1 = ops.solve_factored(system.factors,
                                (system.p_reduced + system.b_reduced) @ v0)
        e0 = float(v0 @ (system.p_reduced @ v0))
        e1 = float(v1 @ (system.p_reduced @ v1))
        if e1 > e0 * (1.0 + 1e-12):
            return False, f"energy grew {e0:.6e} -> {e1:.6e} at alpha={alpha}"
    return True, ""


@_prop("cn-energy-bound-order3")
def _prop_bound_order3(rng):
    return _bound_runs(rng, "order3")


@_prop("cn-energy-bound-order2")
def _prop_bound_order2(rng):
    return _bound_runs(rng, "order2")


def _bound_runs(rng, scheme):
    worst = 0.0
    for run in range(10):
        alpha = float(rng.uniform(1.05, 2.0))
        problem = polynomial_diffusion_problem(alpha)
        report = stability_estimate_check(
            problem,
            GridSpec(0.0, 1.0, 32),
            m_steps=32,
            scheme=scheme,
            seed=int(rng.integers(0, 2**31)),
        )
        worst = max(worst, report.max_ratio)
        if not report.ok:
            return False, (
                f"run {run} (alpha={alpha:.3f}) ratio {report.max_ratio:.4f}"
            )
    return True, f"worst norm/bound ratio {worst:.4f} over 10 runs"


@_prop("steady-solver-linear")
def _prop_steady_linear(rng):
    base = polynomial_steady_problem(1.5)
    grid = GridSpec(0.0, 1.0, 32)
    factor = float(rng.uniform(0.5, 3.0))
    scaled = replace(
        base,
        source=lambda x: factor * base.source(x),
        phi0=factor * base.phi0,
        phi1=factor * base.phi1,
        exact=None,
    )
    u = solve_steady(base, grid)
    v = solve_steady(scaled, grid)
    rel = np.max(np.abs(v - factor * u)) / np.max(np.abs(v))
    if rel > 1e-12:
        return False, f"scaling mismatch {rel:.2e}"
    return True, ""


@_prop("cn-zero-data-stays-zero")
def _prop_cn_zero(rng):
    problem = DiffusionProblem(
        a=0.0, b=1.0, t_final=1.0, alpha=1.5, k_left=1.0, k_right=1.0,
        source=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        init=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        bc_left=lambda t: 0.0, bc_right=lambda t: 0.0,
    )
    final = cn_solve(problem, GridSpec(0.0, 1.0, 16), 16, "order2")
    if np.max(np.abs(final)) != 0.0:
        return False, f"max |u| = {np.max(np.abs(final)):.2e}"
    return True, ""


def run_property_suite(seed: int = DEFAULT_SEED) -> PropertySuiteReport:
    """Run every randomized invariant check with a fresh generator per
    property (so verdicts do not depend on property order)."""
    results = []
    for index, prop in enumerate(_PROPERTIES):
        rng = np.random.default_rng([seed, index])
        try:
            passed, detail = prop(rng)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(
            PropertyResult(name=prop.property_name, passed=passed, detail=detail)
        )
    return PropertySuiteReport(seed=seed, results=tuple(results))
