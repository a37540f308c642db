"""Steady-state fractional boundary-value solver and stability scanner.

Solves  D^alpha u = f  on [a, b] with Dirichlet data. The scheme rule
(operators.scheme_operator) gives the shifted order-2 operator's first
column and row and the preconditioner coefficient: order2 solves with the
operator directly, order3 premultiplies the source by the quasi-compact
tridiagonal preconditioner first. The interior system is Toeplitz, so it
is solved from the column and row by Levinson recursion (O(N^2) time,
O(N) memory) with a reciprocal-condition estimate; no dense matrix is
formed. The scanner probes generators of any supported order for the
negative definiteness (by the exact top eigenvalue of the operator's
symmetric part, a dense matrix) and solve quality that make implicit
schemes trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import eigvalsh, toeplitz

from .generators import beta_table, grunwald_weights
from .operators import (
    GridSpec,
    SolverFailure,
    check_domain,
    checked_toeplitz_solve,
    dirichlet_fold,
    precondition_rows,
    scheme_operator,
    toeplitz_generators,
)

__all__ = [
    "SteadyProblem",
    "ScanEntry",
    "StabilityReport",
    "solve_steady",
    "stability_scan",
]

# stability_scan verdicts: a top eigenvalue of the operator's symmetric
# part (the largest Rayleigh quotient) above RAYLEIGH_TOL, or a
# scan-grid error above BLOWUP_FACTOR times the error on the
# BASELINE_N-interval grid, marks an alpha unstable
RAYLEIGH_TOL = 1e-8
BLOWUP_FACTOR = 10.0
BASELINE_N = 16


@dataclass(frozen=True)
class SteadyProblem:
    """Left-derivative steady problem D^alpha u = f with Dirichlet data."""

    a: float
    b: float
    alpha: float
    source: Callable[[np.ndarray], np.ndarray]
    phi0: float
    phi1: float
    exact: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not 1.0 < float(self.alpha) <= 2.0:
            raise ValueError(
                f"steady solver needs alpha in (1, 2], got {self.alpha}"
            )
        if not self.b > self.a:
            raise ValueError("domain endpoints must satisfy a < b")


def _left_weights(generator, grid: GridSpec):
    return grunwald_weights(generator, grid.n + generator.shift)


def _solve_dirichlet(col, row, rhs, problem, context: str) -> np.ndarray:
    """Solve the full-grid system toeplitz(col, row) with its boundary
    rows replaced by the Dirichlet data: fold the boundary values into the
    interior right-hand side, solve the Toeplitz interior with the
    singularity check, and return all n+1 grid values."""
    col, row, adjusted = dirichlet_fold(col, row, rhs, problem.phi0,
                                        problem.phi1)
    solution = np.empty(len(rhs))
    solution[0] = problem.phi0
    solution[-1] = problem.phi1
    solution[1:-1] = checked_toeplitz_solve(col, row, adjusted,
                                            context=context)
    return solution


def solve_steady(problem: SteadyProblem, grid: GridSpec,
                 scheme: str = "order2") -> np.ndarray:
    """Solve the steady problem on the grid; returns all n+1 grid values
    with the boundary entries set to the Dirichlet data.

    order2 solves A U = F directly; order3 premultiplies the source by
    the quasi-compact preconditioner (full rows, so boundary source
    values participate) before the same reduced solve. With order2's
    a2 = 0 the preconditioner returns the source unchanged.
    """
    check_domain(problem, grid)
    alpha = float(problem.alpha)
    col, row, a2 = scheme_operator(scheme, alpha, grid)
    rhs = np.asarray(problem.source(grid.points()), dtype=float)
    return _solve_dirichlet(
        col, row, precondition_rows(np.pad(rhs, 1), a2), problem,
        context=f"steady {scheme} solve at alpha={alpha}, n={grid.n}",
    )


@dataclass(frozen=True)
class ScanEntry:
    """Stability probe outcome for one fractional order. max_rayleigh is
    the top eigenvalue of the operator's symmetric part (NaN if unprobed)."""

    alpha: float
    max_rayleigh: float
    solve_error: Optional[float]
    baseline_error: Optional[float]
    solve_failed: bool
    stable: bool
    reason: str


@dataclass(frozen=True)
class StabilityReport:
    order: int
    shift: int
    grid_n: int
    entries: tuple

    @property
    def stable_alphas(self) -> tuple:
        return tuple(e.alpha for e in self.entries if e.stable)

    @property
    def unstable_alphas(self) -> tuple:
        return tuple(e.alpha for e in self.entries if not e.stable)

    def stable_onset(self) -> Optional[float]:
        """Smallest alpha from which every scanned alpha upward is stable."""
        onset = None
        for entry in reversed(self.entries):
            if entry.stable:
                onset = entry.alpha
            else:
                break
        return onset


def stability_scan(order: int, shift: int, alphas: Sequence[float],
                   grid: GridSpec, *, n_samples: int = 500,
                   seed: int = 1822) -> StabilityReport:
    """Probe a generator family across fractional orders.

    For each alpha the scan (i) computes the largest eigenvalue of the
    symmetric part (A + A')/2 of the operator matrix A, which is the
    supremum of the Rayleigh quotients v'Av / v'v (a positive value means
    A is not negative definite), and (ii) for alpha > 1 solves the
    monomial benchmark problem on the scan grid and on a coarse baseline
    grid. An alpha is flagged unstable without being probed when its
    generator has beta_0 <= 0 (no weights exist) or its operator entries
    overflow, and after probing when the top eigenvalue exceeds
    RAYLEIGH_TOL or is not finite, a solve fails, or the error exceeds
    BLOWUP_FACTOR times the baseline error. Failures are data, not
    exceptions.

    n_samples and seed are ignored: the scan draws no random numbers. They
    stay only because the benchmark workloads still pass them, and go with
    the next change to the benchmark.
    """
    # local import: problems depends on this module
    from .problems import polynomial_steady_problem

    def benchmark_error(problem, grid, col, row):
        x = grid.points()
        solution = _solve_dirichlet(
            col, row, np.asarray(problem.source(x), dtype=float),
            problem, context=f"scan solve order={order} "
                             f"alpha={problem.alpha} n={grid.n}",
        )
        return float(np.max(np.abs(solution - problem.exact(x))))

    entries = []
    for alpha in alphas:
        alpha = float(alpha)
        generator = beta_table(order, shift, alpha)
        beta0 = float(generator.beta[0])
        if not beta0 > 0:
            skip = (f"beta_0 = {beta0:.3e} is not positive: the weight "
                    "recurrence is undefined")
        else:
            # weights that outgrow the float range give non-finite entries
            with np.errstate(over="ignore", invalid="ignore"):
                col, row = toeplitz_generators(
                    _left_weights(generator, grid), grid)
            skip = None if np.isfinite(np.r_[col, row]).all() else (
                "operator entries are not finite: the weights overflow")
        if skip:
            entries.append(ScanEntry(
                alpha=alpha, max_rayleigh=float("nan"), solve_error=None,
                baseline_error=None, solve_failed=False, stable=False,
                reason=skip))
            continue
        # A is Toeplitz, so its symmetric part is the symmetric Toeplitz
        # matrix of (col + row) / 2; halving first keeps the sum finite
        max_rayleigh = float(eigvalsh(toeplitz(0.5 * col + 0.5 * row),
                                      subset_by_index=[grid.n, grid.n])[0])
        solve_error = None
        baseline_error = None
        solve_failed = False
        reasons = []
        if not np.isfinite(max_rayleigh):
            reasons.append(f"top eigenvalue is not finite ({max_rayleigh})")
        elif max_rayleigh > RAYLEIGH_TOL:
            reasons.append(
                f"symmetric part has a positive eigenvalue {max_rayleigh:.3e}"
            )
        if alpha > 1.0:
            problem = polynomial_steady_problem(alpha)
            base_grid = GridSpec(grid.a, grid.b, BASELINE_N)
            try:
                baseline_error = benchmark_error(
                    problem, base_grid, *toeplitz_generators(
                        _left_weights(generator, base_grid), base_grid))
                solve_error = benchmark_error(problem, grid, col, row)
            except SolverFailure as exc:
                solve_failed = True
                reasons.append(f"solve failed: {exc}")
            else:
                if solve_error > BLOWUP_FACTOR * baseline_error:
                    reasons.append(
                        f"error {solve_error:.3e} exceeds "
                        f"{BLOWUP_FACTOR:g}x baseline {baseline_error:.3e}"
                    )
        entries.append(
            ScanEntry(
                alpha=alpha,
                max_rayleigh=max_rayleigh,
                solve_error=solve_error,
                baseline_error=baseline_error,
                solve_failed=solve_failed,
                stable=not reasons,
                reason="; ".join(reasons),
            )
        )
    return StabilityReport(
        order=order, shift=shift, grid_n=grid.n, entries=tuple(entries)
    )
