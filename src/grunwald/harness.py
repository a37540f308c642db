"""Experiment orchestration: convergence studies, benchmark-table
reproduction, and the randomized property suite.

Reports round their numbers to the precision they are printed with
(5 significant digits for errors, 2 decimals for observed orders), so a
report written to CSV and parsed back is identical to the in-memory one.
"""

from __future__ import annotations

import json
import math
import operator
import os
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import toeplitz

from . import generators as gen
from . import operators as ops
from .diffusion import BOUND_SLACK, cn_solve, stability_estimate_check
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
M_RULES = ("equal-to-n", "floor-n-3-2")
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
    """What to run: problem, scheme, fractional orders, grids, time rule
    (one of M_RULES or a step count), and where to write the reports."""

    problem: str
    scheme: str
    alphas: tuple
    n_values: tuple
    m_rule: str | int = "equal-to-n"
    output: Optional[str] = None
    json_mirror: bool = False

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "n_values", tuple(
            gen.check_integer(n, "N value") for n in self.n_values))
        if self.problem not in PROBLEMS:
            raise ValueError(
                f"unknown problem {self.problem!r}; expected one of {PROBLEMS}"
            )
        ops.check_scheme(self.scheme)
        if not self.alphas:
            raise ValueError("alpha list must not be empty")
        for alpha in self.alphas:
            ops.check_alpha(alpha, f"problem {self.problem}")
        if not self.n_values:
            raise ValueError("N list must not be empty")
        if min(self.n_values) < 16:
            raise ValueError("N values must be at least 16")
        for name, values in (("alpha", self.alphas), ("N", self.n_values)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} values must be distinct: {values}")
        if not isinstance(self.m_rule, str):
            object.__setattr__(self, "m_rule",
                               gen.check_integer(self.m_rule, "M rule"))
        if self.m_rule not in M_RULES and not (
                isinstance(self.m_rule, int) and self.m_rule >= 1):
            raise ValueError(f"unknown M rule {self.m_rule!r}; expected one "
                             f"of {M_RULES} or a step count of at least 1")
        # refuse the settings a run would ignore
        if self.problem == "steady-poly" and self.m_rule != "equal-to-n":
            raise ValueError(f"M rule {self.m_rule!r} given to a steady run, "
                             "which takes no time steps")
        if self.json_mirror and not self.output:
            raise ValueError("json_mirror needs an output path")
        if self.json_mirror and self.json_path == self.output:
            raise ValueError(f"the JSON mirror {self.json_path} would "
                             "overwrite the output it mirrors")

    @property
    def json_path(self) -> Optional[str]:
        """Where the JSON mirror goes, the output path with its extension
        replaced by .json; None without a mirror."""
        if not self.json_mirror:
            return None
        return os.path.splitext(self.output)[0] + ".json"

    def steps_for(self, n: int) -> int:
        if self.m_rule == "floor-n-3-2":
            return math.isqrt(n**3)
        return n if self.m_rule == "equal-to-n" else self.m_rule


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
    problem = (polynomial_steady_problem if problem_id == "steady-poly"
               else polynomial_diffusion_problem)(alpha)
    grid = GridSpec(problem.a, problem.b, n)
    if problem_id == "steady-poly":
        solution = solve_steady(problem, grid, scheme)
        exact = problem.exact(grid.points())
    else:
        solution = cn_solve(problem, grid, m, scheme)
        exact = problem.exact(grid.points(), problem.t_final)
    return float(np.max(np.abs(solution - exact)))


def _orders(errors: Sequence[Optional[float]],
            n_values: Sequence[int]) -> list:
    """The order of each row, log(e_prev/e) / log(N/N_prev) to two
    decimals; None in the first row and where either error is missing or
    zero."""
    orders = [None]
    for previous, error, previous_n, n in zip(errors, errors[1:], n_values,
                                              n_values[1:]):
        orders.append(_round_order(math.log2(previous / error)
                                   / math.log2(n / previous_n))
                      if previous and error else None)
    return orders


def _study(problem: str, scheme: str, alpha: float, n_values: Sequence[int],
           m_values: Sequence[int]) -> tuple:
    """Solve at each (N, M) in turn; a row's order is taken over unrounded
    errors (_orders). Solver failures are recorded in their row and do not
    abort."""
    errors, failures = [], []
    for n, m in zip(n_values, m_values):
        error = failure = None
        try:
            error = _solve_once(problem, scheme, alpha, n, m)
        except SolverFailure as exc:
            failure = str(exc)
        errors.append(error)
        failures.append(failure)
    return tuple(
        ConvergenceRow(n=n, m=m, max_error=_round_error(error),
                       observed_order=order, failure=failure)
        for n, m, error, order, failure in zip(
            n_values, m_values, errors, _orders(errors, n_values), failures)
    )


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
            write_report_json(reports, config.json_path)
    return reports


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
    """Write through path + ".tmp", making its directory first; a failed
    write leaves no temp file."""
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    handle = open(tmp, "w")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def read_report_csv(path) -> list:
    """Parse a CSV written by write_report_csv back into reports."""
    problem = None
    failures = {}
    groups = {}
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("problem="):
                    problem = body[len("problem="):]
                elif body.startswith("failure "):
                    head, _, note = body[len("failure "):].partition(": ")
                    fields = dict(part.split("=", 1) for part in head.split())
                    failures[(float(fields["alpha"]), int(fields["N"]))] = note
            elif line and line != CSV_HEADER:
                n, m, alpha, scheme, err, order = line.split(",")
                n, alpha = int(n), float(alpha)
                groups.setdefault((alpha, scheme), []).append(ConvergenceRow(
                    n=n, m=int(m), max_error=float(err) if err else None,
                    observed_order=float(order) if order else None,
                    failure=failures.get((alpha, n))))
    if problem is None:
        raise ValueError(f"{path} is missing the problem comment line")
    return [ConvergenceReport(problem=problem, scheme=scheme, alpha=alpha,
                              rows=tuple(rows))
            for (alpha, scheme), rows in groups.items()]


def write_report_json(reports: Sequence[ConvergenceReport], path) -> None:
    payload = {
        "problem": _one_problem(reports, "JSON"),
        "reports": [{"alpha": report.alpha, "scheme": report.scheme,
                     "rows": [asdict(row) for row in report.rows]}
                    for report in reports],
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


def reproduce_table(table_id: int) -> TableDiffReport:
    """Re-run the exact configuration behind a benchmark table and diff
    every cell: errors within ERROR_RTOL relative, orders within
    ORDER_TOL_HUNDREDTHS. The expected order of a cell is the order of the
    table's printed errors (_orders), as its observed order is that of the
    computed ones. Every error cell and every cell after the first N is
    gated, and a missing value fails its gate. A failing cell makes the
    report fail; it never raises.
    """
    if table_id not in REFERENCE_TABLES:
        raise ValueError(
            f"unknown table {table_id}; known: {sorted(REFERENCE_TABLES)}"
        )
    ref = REFERENCE_TABLES[table_id]
    m_values = ref.m_values or tuple(0 for _ in ref.n_values)
    cells = []
    for alpha, expected_errors in ref.errors.items():
        rows = _study(ref.problem, ref.scheme, alpha, ref.n_values, m_values)
        expected_orders = _orders(expected_errors, ref.n_values)
        for row, expected_error, expected_order in zip(
                rows, expected_errors, expected_orders, strict=True):
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
    return TableDiffReport(
        table_id=table_id, cells=tuple(cells), passed=passed, note=ref.note
    )


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
            + (f": {r.detail}" if r.detail else "")
            for r in self.results
        ]
        lines.append(f"{good} passed, {bad} failed (seed {self.seed})")
        return "\n".join(lines)


# in definition order, which fixes each property's seed [seed, index]
_PROPERTIES = []

# the comparisons a bound is made of, at most one lower and one upper; each
# is false for NaN, so a NaN value is outside every bound
_ENDS = {"gt": (">", operator.gt), "ge": (">=", operator.ge),
         "lt": ("<", operator.lt), "le": ("<=", operator.le)}


def _prop(name, measure=None, **bound):
    """Register a property: a generator of (case, value) pairs, each value
    a `measure` that must hold every comparison in `bound` (gt, ge, lt, le),
    or of (case, bool) pairs when it has no measure."""
    def wrap(fn):
        fn.property_name, fn.measure, fn.bound = name, measure, bound
        _PROPERTIES.append(fn)
        return fn

    return wrap


def _measured(prop, case, value) -> str:
    ends = ", ".join(f"{_ENDS[end][0]} {limit!r}"
                     for end, limit in prop.bound.items())
    return f"{prop.measure} {value:.4e} at {case} ({ends})"


def _decide(prop, rng) -> PropertyResult:
    """Evaluate the cases in order: the first value outside the bound (or
    false) fails the property; otherwise report the case nearest the bound
    (or how many cases hold)."""
    nearest = None
    for count, (case, value) in enumerate(prop(rng), 1):
        if prop.measure is None:
            if not value:
                return PropertyResult(prop.property_name, False,
                                      f"false at {case}")
        elif not all(_ENDS[end][1](value, limit)
                     for end, limit in prop.bound.items()):
            return PropertyResult(prop.property_name, False,
                                  _measured(prop, case, value))
        else:
            margin = min(abs(value - limit) for limit in prop.bound.values())
            if nearest is None or margin < nearest[0]:
                nearest = margin, case, value
    return PropertyResult(prop.property_name, True,
                          f"true in all {count} cases" if prop.measure is None
                          else _measured(prop, *nearest[1:]))


_EXACT_ALPHAS = (Fraction(11, 10), Fraction(3, 2), Fraction(19, 10), Fraction(2))


@_prop("generator-table-matches-construction")
def _prop_table_vs_construction(rng):
    """The table's beta is the constructed one and has order p."""
    for order in range(1, 7):
        for shift in (0, 1):
            for alpha in _EXACT_ALPHAS:
                table = gen.beta_table(order, shift, alpha)
                built = gen.construct_beta(order, shift, alpha)
                yield (f"p={order}, r={shift}, alpha={alpha}",
                       table.beta == built.beta
                       and gen.verify_order(table, order).passed)


@_prop("weight-tail-sums-decay", "|sum w|", lt=1e-3)
def _prop_tail_decay(rng):
    for alpha in (1.1, 1.3, 1.5, 1.7, 1.9):
        weights = gen.grunwald_weights(gen.beta_table(2, 1, alpha), 2000)
        yield f"alpha={alpha}", abs(float(weights.values.sum()))


@_prop("weight-sign-pattern")
def _prop_sign_pattern(rng):
    # 50 alphas at K=2000, and three more at K=2001: the Toeplitz
    # diagonals are t_k = w_{k+1}, so that is the diagonal sign pattern up
    # to bandwidth 2000
    cases = [(float(alpha), 2000) for alpha in np.linspace(1.0, 2.0, 50)]
    cases += [(alpha, 2001) for alpha in (1.1, 1.5, 1.9)]
    for alpha, terms in cases:
        weights = gen.grunwald_weights(gen.beta_table(2, 1, alpha), terms)
        yield (f"alpha={alpha}, K={terms}",
               not gen.weight_sign_report(weights.values))


@_prop("first-order-weights-match-binomial-recursion",
       "relative deviation", le=1e-12)
def _prop_binomial(rng):
    for alpha in (1.1, 1.5, 1.9):
        spec = gen.GeneratorSpec(alpha=alpha, shift=0, beta=(1, -1))
        weights = gen.grunwald_weights(spec, 1000).values
        direct = np.empty(1001)
        direct[0] = 1.0
        for k in range(1, 1001):
            direct[k] = (1.0 - (alpha + 1.0) / k) * direct[k - 1]
        yield f"alpha={alpha}", float(np.max(
            np.abs(weights - direct) / np.maximum(np.abs(direct), 1e-300)))


@_prop("matrix-matches-convolution-apply", "relative gap", le=1e-13)
def _prop_matrix_apply(rng):
    for n in (16, 64, 128):
        grid = GridSpec(0.0, 1.0, n)
        generator = gen.beta_table(2, 1, 1.5)
        col, row = ops.toeplitz_generators(generator, grid)
        w = gen.grunwald_weights(generator, n + 1).values
        for side, matrix in (("left", toeplitz(col, row)),
                             ("right", toeplitz(row, col))):
            u = rng.standard_normal(n + 1)
            direct = matrix @ u
            # v_i = sum_k w_k u_(i-k+1) / h^alpha; the right side mirrors it
            step = 1 if side == "left" else -1
            conv = np.convolve(w, u[::step])[1: n + 2][::step] / grid.h ** 1.5
            yield f"n={n}, {side}", float(np.max(np.abs(direct - conv)) / max(
                np.max(np.abs(direct)), 1e-300))


@_prop("operator-negative-definite", "top eigenvalue of sym(A)", le=1e-12)
def _prop_negative_definite(rng):
    """(a): lambda_max(sym A) <= 0; sym(K1 A + K2 A^T) = (K1 + K2) sym A,
    so A alone decides definiteness for every pair of coefficients."""
    for alpha in (1.1, 1.5, 1.9):
        for n in (16, 64):
            col, row, _, _ = ops.scheme_operator("order2", alpha,
                                                 GridSpec(0.0, 1.0, n))
            yield (f"alpha={alpha}, n={n}",
                   ops.toeplitz_top_eigenvalue(0.5 * col + 0.5 * row))


@_prop("preconditioner-norm-equivalence", "eigenvalue of P",
       gt=ops.P_FLOOR, le=1.0 + 1e-12)
def _prop_norm_equivalence(rng):
    """(b): P_FLOOR < lambda(P) <= 1 in closed form, so
    |v|^2 P_FLOOR < ||v||_P^2 <= |v|^2."""
    grid = GridSpec(0.0, 1.0, 64)
    for alpha in (1.0, 1.5, 2.0):
        _, _, a2, _ = ops.scheme_operator("order3", alpha, grid)
        eigs = ops.preconditioner_eigenvalues(a2, grid.n - 1)
        yield f"alpha={alpha}, lowest", eigs.min()
        yield f"alpha={alpha}, highest", eigs.max()


@_prop("preconditioner-symmetric")
def _prop_precond_symmetric(rng):
    dense = ops.precondition_rows(np.eye(36, 34, k=-1), 1.0 / 12.0)
    yield "stencil matrix symmetric", np.array_equal(dense, dense.T)
    yield "interior row sums 1", np.allclose(dense[1:-1].sum(axis=1), 1.0,
                                             rtol=0, atol=1e-15)


def _cn_interior_sym_b(alpha, scheme, grid):
    """a2 and sym(B) on the interior unknowns of the CN step of the
    benchmark problem at M = 16: B = (tau/2)(K1 A + K2 A^T), so sym(B) is
    (tau/2)(K1 + K2) sym(A), Toeplitz on its generators' first n - 1."""
    problem = polynomial_diffusion_problem(alpha)
    col, row, a2, _ = ops.scheme_operator(scheme, alpha, grid)
    scale = 0.5 * problem.t_final / 16 * (problem.k_left + problem.k_right)
    return a2, scale * (0.5 * col[:-2] + 0.5 * row[:-2])


@_prop("cn-left-matrix-coercive", "coercivity bound minus its floor",
       ge=-1e-10)
def _prop_cn_coercive(rng):
    """Weyl: lambda_min(sym(P - B)) >= lambda_min(P) - lambda_max(sym B),
    which is at least lambda_min(P) by (a): at least 1 for order 2 (P = I)
    and P_FLOOR for order 3 by (b)."""
    grid = GridSpec(0.0, 1.0, 32)
    for alpha in (1.1, 1.5, 1.9):
        for scheme in ops.SCHEMES:
            a2, sym_b = _cn_interior_sym_b(alpha, scheme, grid)
            floor = 1.0 if a2 == 0 else ops.P_FLOOR
            low = (ops.preconditioner_eigenvalues(a2, grid.n - 1).min()
                   - ops.toeplitz_top_eigenvalue(sym_b))
            yield f"{scheme} (floor {floor}), alpha={alpha}", low - floor


@_prop("cn-single-step-energy-decay", "top eigenvalue of sym(B)", le=1e-12)
def _prop_cn_energy(rng):
    """(P - B) v1 = (P + B) v0 gives P (v1 - v0) = B s, s = v1 + v0, so
    ||v1||_P^2 - ||v0||_P^2 = s' sym(B) s <= lambda_max(sym B) |s|^2 <= 0."""
    for alpha in (1.1, 1.9):
        _, sym_b = _cn_interior_sym_b(alpha, "order3", GridSpec(0.0, 1.0, 32))
        yield f"alpha={alpha}", ops.toeplitz_top_eigenvalue(sym_b)


@_prop("cn-energy-bound-order3", "norm/bound ratio", le=1.0 + BOUND_SLACK)
def _prop_bound_order3(rng):
    return _bound_runs(rng, "order3")


@_prop("cn-energy-bound-order2", "norm/bound ratio", le=1.0 + BOUND_SLACK)
def _prop_bound_order2(rng):
    return _bound_runs(rng, "order2")


def _bound_runs(rng, scheme):
    for run in range(10):
        alpha = float(rng.uniform(1.05, 2.0))
        report = stability_estimate_check(
            polynomial_diffusion_problem(alpha), GridSpec(0.0, 1.0, 32),
            m_steps=32, scheme=scheme, seed=int(rng.integers(0, 2**31)))
        yield f"run {run} (alpha={alpha:.3f})", report.max_ratio


@_prop("steady-solver-linear", "relative scaling gap", le=1e-12)
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
    yield (f"factor={factor:.3f}",
           np.max(np.abs(v - factor * u)) / np.max(np.abs(v)))


@_prop("cn-zero-data-stays-zero", "max |u|", le=0.0)
def _prop_cn_zero(rng):
    problem = replace(polynomial_diffusion_problem(1.5),
                      source_factor=lambda t: 0.0, init=lambda x: 0.0)
    final = cn_solve(problem, GridSpec(0.0, 1.0, 16), 16, "order2")
    yield "N=16, M=16", np.max(np.abs(final))


def run_property_suite(seed: int = DEFAULT_SEED) -> PropertySuiteReport:
    """Run every randomized invariant check with a fresh generator per
    property (so verdicts do not depend on property order)."""
    results = []
    for index, prop in enumerate(_PROPERTIES):
        try:
            result = _decide(prop, np.random.default_rng([seed, index]))
        except Exception as exc:  # a crash is a failure, not an abort
            result = PropertyResult(prop.property_name, False,
                                    f"raised {type(exc).__name__}: {exc}")
        results.append(result)
    return PropertySuiteReport(seed=seed, results=tuple(results))
