"""Crank-Nicolson stepping for the two-sided space-fractional diffusion
equation u_t = K1 * D_left^alpha u + K2 * D_right^alpha u + f.

The spatial operator uses the shifted order-2 generator on both sides;
the order-3 variant premultiplies the equation by the quasi-compact
tridiagonal preconditioner. The CN matrices are constant in time, so the
march is the linear recurrence u_next = S u + c_m: the step matrix
S = (P - B)^-1 (P + B) is built once per run, and the forcing c_m, which
depends only on the source and the boundary values, is solved for a
block of STEP_BLOCK steps at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import gamma

from .generators import a2_coefficient, beta_table, grunwald_weights
from .operators import (
    GridSpec,
    assemble_frac_matrix,
    check_domain,
    check_scheme,
    checked_lu,
    precondition_rows,
    solve_factored,
)

__all__ = [
    "DiffusionProblem",
    "CNSystem",
    "StabilityBoundReport",
    "cn_solve",
    "fractional_poly_source",
    "stability_estimate_check",
]

# Time steps whose forcing is assembled and solved together: large enough
# that one multi-RHS triangular solve replaces many per-step solver calls,
# small enough that a block is a few MB at the paper's N <= 512.
STEP_BLOCK = 256

# Norm-equivalence constant of the preconditioned energy norm: the
# discrete L2 norm is controlled by sqrt(5) times the P-norm.
NORM_EQUIV = np.sqrt(5.0)

# Round-off allowance of the energy bound in stability_estimate_check.
BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class DiffusionProblem:
    """Two-sided fractional diffusion problem on [a, b] x [0, t_final].

    k_left and k_right are the nonnegative diffusion coefficients of the
    left and right derivatives (not both zero). Whenever a coefficient is
    nonzero the matching boundary value must be identically zero, because
    the one-sided derivative reaches across that boundary.
    """

    a: float
    b: float
    t_final: float
    alpha: float
    k_left: float
    k_right: float
    source: Callable[[np.ndarray, float], np.ndarray]
    init: Callable[[np.ndarray], np.ndarray]
    bc_left: Callable[[float], float]
    bc_right: Callable[[float], float]
    exact: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    def __post_init__(self):
        if not 1.0 < float(self.alpha) <= 2.0:
            raise ValueError(
                f"diffusion solver needs alpha in (1, 2], got {self.alpha}"
            )
        if not self.b > self.a:
            raise ValueError("domain endpoints must satisfy a < b")
        if self.t_final <= 0:
            raise ValueError("final time must be positive")
        if self.k_left < 0 or self.k_right < 0:
            raise ValueError("diffusion coefficients must be nonnegative")
        if self.k_left == 0 and self.k_right == 0:
            raise ValueError("diffusion coefficients must not both vanish")
        sample_times = np.linspace(0.0, self.t_final, 5)
        if self.k_left != 0 and any(
            self.bc_left(t) != 0 for t in sample_times
        ):
            raise ValueError(
                "left boundary values must vanish when k_left is nonzero"
            )
        if self.k_right != 0 and any(
            self.bc_right(t) != 0 for t in sample_times
        ):
            raise ValueError(
                "right boundary values must vanish when k_right is nonzero"
            )

    @property
    def homogeneous_boundary(self) -> bool:
        times = np.linspace(0.0, self.t_final, 5)
        return all(self.bc_left(t) == 0 for t in times) and all(
            self.bc_right(t) == 0 for t in times
        )


@dataclass(frozen=True)
class CNSystem:
    """Assembled Crank-Nicolson step on the interior unknowns.

    p_reduced is the preconditioner (identity for order 2), b_reduced is
    (tau/2)(K1 A + K2 A^T); the step solves the factored p - b against
    (p + b) u + sources, with the boundary columns kept for folding in
    known boundary values.
    """

    tau: float
    a2: float
    p_reduced: np.ndarray
    b_reduced: np.ndarray
    factors: tuple
    rhs_matrix: np.ndarray
    b_col_left: np.ndarray
    b_col_right: np.ndarray


def _cn_system(problem: DiffusionProblem, grid: GridSpec,
               m_steps: int, scheme: str) -> CNSystem:
    check_scheme(scheme)
    if m_steps < 1:
        raise ValueError("need at least one time step")
    alpha = float(problem.alpha)
    tau = problem.t_final / m_steps
    generator = beta_table(2, 1, alpha)
    weights = grunwald_weights(generator, grid.n + 1)
    left = assemble_frac_matrix(weights, grid, "left").dense
    b_full = 0.5 * tau * (problem.k_left * left + problem.k_right * left.T)
    a2 = float(a2_coefficient(1, alpha)) if scheme == "order3" else 0.0
    p_hat = precondition_rows(np.eye(grid.n + 1, grid.n - 1, k=-1), a2)
    b_hat = b_full[1:-1, 1:-1].copy()
    factors = checked_lu(
        p_hat - b_hat,
        context=f"CN step matrix ({scheme}, alpha={alpha}, n={grid.n})",
    )
    return CNSystem(
        tau=tau,
        a2=a2,
        p_reduced=p_hat,
        b_reduced=b_hat,
        factors=factors,
        rhs_matrix=p_hat + b_hat,
        b_col_left=b_full[1:-1, 0].copy(),
        b_col_right=b_full[1:-1, -1].copy(),
    )


def cn_solve(problem: DiffusionProblem, grid: GridSpec, m_steps: int,
             scheme: str = "order2") -> np.ndarray:
    """March the Crank-Nicolson scheme; returns the n + 1 grid values at
    the final time.

    Each step solves (P - B) u_next = (P + B) u + tau * (P f)(midpoint)
    on the interior, with the known boundary values folded in through the
    boundary columns of B and P. The march applies the step matrix
    S = (P - B)^-1 (P + B) and adds the forcing (P - B)^-1 r_m, whose
    right-hand sides r_m are stacked and solved STEP_BLOCK at a time.
    Raises ValueError when the data or the state become non-finite.
    """
    check_domain(problem, grid)
    system = _cn_system(problem, grid, m_steps, scheme)
    tau, a2 = system.tau, system.a2
    x = grid.points()
    initial = np.asarray(problem.init(x), dtype=float)
    # boundary values at t_0 .. t_M; t_0 takes the sampled initial data
    left = np.array([problem.bc_left(m * tau) for m in range(m_steps + 1)],
                    dtype=float)
    right = np.array([problem.bc_right(m * tau)
                      for m in range(m_steps + 1)], dtype=float)
    left[0], right[0] = initial[0], initial[-1]
    step = solve_factored(system.factors, system.rhs_matrix)
    u = initial[1:-1].copy()
    for start in range(0, m_steps, STEP_BLOCK):
        stop = min(start + STEP_BLOCK, m_steps)
        f_mid = np.empty((stop - start, grid.n + 1))
        for j, m in enumerate(range(start, stop)):
            f_mid[j] = problem.source(x, (m + 0.5) * tau)
        rhs = tau * precondition_rows(f_mid.T, a2)
        left_now, left_next = left[start:stop], left[start + 1:stop + 1]
        right_now, right_next = right[start:stop], right[start + 1:stop + 1]
        rhs += np.multiply.outer(system.b_col_left, left_next + left_now)
        rhs += np.multiply.outer(system.b_col_right, right_next + right_now)
        if a2 != 0.0:
            rhs[0] -= a2 * (left_next - left_now)
            rhs[-1] -= a2 * (right_next - right_now)
        forcing = solve_factored(system.factors, rhs)
        for j in range(stop - start):
            u = step @ u
            u += forcing[:, j]
        if not np.all(np.isfinite(u)):
            raise ValueError(f"state is not finite after step {stop}")
    return np.concatenate(([left[-1]], u, [right[-1]]))


def fractional_poly_source(x, exponent: int, alpha: float) -> np.ndarray:
    """Symmetric pair of fractional monomial derivatives on [0, 1]:

        Gamma(m+1)/Gamma(m+1-alpha) * (x^(m-alpha) + (1-x)^(m-alpha))

    which is the sum of the left derivative of x^m and the right
    derivative of (1-x)^m.
    """
    if not isinstance(exponent, (int, np.integer)) or exponent < 2:
        raise ValueError(
            f"exponent must be an integer >= 2, got {exponent!r}"
        )
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("arguments must lie in [0, 1]")
    coeff = gamma(exponent + 1) / gamma(exponent + 1 - alpha)
    power = exponent - alpha
    return coeff * (x**power + (1.0 - x) ** power)


@dataclass(frozen=True)
class StabilityBoundReport:
    """Outcome of one perturbed homogeneous run against the energy bound.

    norms[m] is the discrete L2 norm of the step-m state; bounds[m] the
    a-priori estimate it must stay under. max_ratio is the worst
    norm/bound ratio (0 when all bounds are zero and so are the norms).
    """

    scheme: str
    norms: np.ndarray
    bounds: np.ndarray
    max_ratio: float
    ok: bool


def stability_estimate_check(problem: DiffusionProblem, grid: GridSpec,
                             m_steps: int, scheme: str = "order3", *,
                             seed: int = 0,
                             source_amplitude: float = 1.0,
                             init_amplitude: float = 1.0
                             ) -> StabilityBoundReport:
    """Run the CN iteration (P - B) v^{m+1} = (P + B) v^m + tau S^m of the
    model problem P dv/dt = K1 D_left^alpha v + K2 D_right^alpha v + S,
    with B the fractional operator of the CN system, random interior
    initial data and random per-step sources, and verify the a-priori
    discrete-L2 estimate:

        order3:  ||v^m|| <= sqrt(5) (||v^0|| + sqrt(5) tau sum ||S^l||)
        order2:  ||v^m|| <=          ||v^0|| +         tau sum ||S^l||

    Requires homogeneous boundary values. Amplitudes of 0 reproduce the
    unforced / zero-start special cases.
    """
    if not problem.homogeneous_boundary:
        raise ValueError("stability check requires homogeneous boundaries")
    system = _cn_system(problem, grid, m_steps, scheme)
    tau = system.tau
    h = grid.h
    rng = np.random.default_rng(seed)
    interior = grid.n - 1
    v = init_amplitude * rng.standard_normal(interior)
    if init_amplitude == 0.0:
        v = np.zeros(interior)

    def norm(vec):
        return float(np.sqrt(h * np.dot(vec, vec)))

    amp = NORM_EQUIV if scheme == "order3" else 1.0
    norms = [norm(v)]
    bounds = [amp * norms[0]]
    source_total = 0.0
    for _ in range(m_steps):
        s = source_amplitude * rng.standard_normal(interior)
        if source_amplitude == 0.0:
            s = np.zeros(interior)
        rhs = system.rhs_matrix @ v + tau * s
        v = solve_factored(system.factors, rhs)
        source_total += norm(s)
        norms.append(norm(v))
        bounds.append(amp * (norms[0] + amp * tau * source_total))
    norms = np.array(norms)
    bounds = np.array(bounds)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bounds > 0, norms / bounds, np.where(
            norms <= BOUND_SLACK, 0.0, np.inf))
    max_ratio = float(np.max(ratios))
    return StabilityBoundReport(
        scheme=scheme,
        norms=norms,
        bounds=bounds,
        max_ratio=max_ratio,
        ok=bool(max_ratio <= 1.0 + BOUND_SLACK),
    )
