"""Steady-state fractional boundary-value solver and stability scanner.

Solves  D^alpha u = f  on [a, b] with Dirichlet data using the shifted
order-2 generator, either directly (order2) or premultiplied by the
quasi-compact tridiagonal preconditioner (order3). The scanner probes
generators of any supported order for the sign-definiteness and solve
quality that make implicit schemes trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .generators import a2_coefficient, beta_table, grunwald_weights
from .operators import (
    GridSpec,
    SolverFailure,
    assemble_frac_matrix,
    check_domain,
    check_scheme,
    checked_lu,
    precondition_rows,
    reduce_system,
    solve_factored,
)

__all__ = [
    "SteadyProblem",
    "ScanEntry",
    "StabilityReport",
    "solve_steady",
    "stability_scan",
]

# stability_scan verdicts: a Rayleigh quotient above RAYLEIGH_TOL, or a
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


def _left_operator(order, shift, alpha: float, grid: GridSpec):
    weights = grunwald_weights(beta_table(order, shift, alpha),
                               grid.n + shift)
    return assemble_frac_matrix(weights, grid, "left")


def _solve_dirichlet(matrix, rhs, problem, context: str) -> np.ndarray:
    """Solve the full-grid system with its boundary rows replaced by the
    Dirichlet data: reduce to the interior, factor with the singularity
    check, and return all n+1 grid values."""
    reduced, adjusted = reduce_system(matrix, rhs, problem.phi0,
                                      problem.phi1)
    factors = checked_lu(reduced, context=context)
    solution = np.empty(len(rhs))
    solution[0] = problem.phi0
    solution[-1] = problem.phi1
    solution[1:-1] = solve_factored(factors, adjusted)
    return solution


def solve_steady(problem: SteadyProblem, grid: GridSpec,
                 scheme: str = "order2") -> np.ndarray:
    """Solve the steady problem on the grid; returns all n+1 grid values
    with the boundary entries set to the Dirichlet data.

    order2 solves A U = F directly; order3 premultiplies the source by
    the quasi-compact preconditioner (full rows, so boundary source
    values participate) before the same reduced solve.
    """
    check_domain(problem, grid)
    check_scheme(scheme)
    alpha = float(problem.alpha)
    operator = _left_operator(2, 1, alpha, grid)
    rhs = np.asarray(problem.source(grid.points()), dtype=float)
    if scheme == "order3":
        rhs = precondition_rows(np.pad(rhs, 1),
                                float(a2_coefficient(1, alpha)))
    return _solve_dirichlet(
        operator.dense, rhs, problem,
        context=f"steady {scheme} solve at alpha={alpha}, n={grid.n}",
    )


@dataclass(frozen=True)
class ScanEntry:
    """Stability probe outcome for one fractional order."""

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

    For each alpha the scan (i) samples Rayleigh quotients v'Av / v'v of
    the operator matrix with random vectors (positive values betray a
    loss of negative definiteness) and (ii) for alpha > 1 solves the
    monomial benchmark problem on the scan grid and on a coarse baseline
    grid. An alpha is flagged unstable when any quotient exceeds
    RAYLEIGH_TOL, a solve fails, or the error exceeds BLOWUP_FACTOR times
    the baseline error. Failures are data, not exceptions.
    """
    # local import: problems depends on this module
    from .problems import polynomial_steady_problem

    def benchmark_error(problem, operator):
        x = operator.grid.points()
        solution = _solve_dirichlet(
            operator.dense, np.asarray(problem.source(x), dtype=float),
            problem, context=f"scan solve order={order} "
                             f"alpha={problem.alpha} n={operator.grid.n}",
        )
        return float(np.max(np.abs(solution - problem.exact(x))))

    rng = np.random.default_rng(seed)
    entries = []
    for alpha in alphas:
        alpha = float(alpha)
        operator = _left_operator(order, shift, alpha, grid)
        samples = rng.standard_normal((n_samples, grid.n + 1))
        quads = np.einsum("ij,ij->i", samples @ operator.dense, samples)
        norms = np.einsum("ij,ij->i", samples, samples)
        max_rayleigh = float(np.max(quads / norms))
        solve_error = None
        baseline_error = None
        solve_failed = False
        reasons = []
        if max_rayleigh > RAYLEIGH_TOL:
            reasons.append(
                f"positive Rayleigh quotient {max_rayleigh:.3e}"
            )
        if alpha > 1.0:
            problem = polynomial_steady_problem(alpha)
            base_grid = GridSpec(grid.a, grid.b, BASELINE_N)
            try:
                baseline_error = benchmark_error(
                    problem, _left_operator(order, shift, alpha, base_grid)
                )
                solve_error = benchmark_error(problem, operator)
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
