"""Crank-Nicolson stepping for the two-sided space-fractional diffusion
equation u_t = K1 * D_left^alpha u + K2 * D_right^alpha u + f.

The scheme rule (operators.scheme_operator) gives the shifted order-2
operator A on both sides and, for order3, the quasi-compact tridiagonal
preconditioner P that premultiplies the equation (P = I for order2). The
two-sided operator B = (tau/2)(K1 A + K2 A^T) is Toeplitz, so its
interior matrix and boundary columns are taken from the first column and
row of A, with no full-grid matrix. The CN matrices are constant in
time, so a step (P - B) u_next = (P + B) u + r_m is linear with constant
coefficients. It is marched in one form only: in the coordinates
y = (P - B) u, as y_next = y + E y + r_m with the increment matrix
E = 2 B (P - B)^-1, so the forcing r_m needs no solve and one solve maps
the states back to u. cn_solve groups SUBSTEPS steps into one matvec; the
energy check marches single steps and keeps every state. Problem data
is evaluated on arrays of times, once per run or block, never per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import toeplitz
from scipy.special import gamma

from .operators import (
    GridSpec,
    check_domain,
    checked_lu,
    precondition_rows,
    scheme_operator,
    solve_factored,
    split_boundary,
)

__all__ = [
    "DiffusionProblem",
    "CNSystem",
    "StabilityBoundReport",
    "cn_solve",
    "fractional_poly_source",
    "stability_estimate_check",
]

# Time steps whose forcing is assembled together: large enough that the
# grouped forcing is a few matrix products, small enough that a block is a
# few MB at the paper's N <= 512. A multiple of SUBSTEPS.
STEP_BLOCK = 256

# cn_solve marches SUBSTEPS = 2^SUBSTEP_DOUBLINGS steps per matvec, so the
# step operator is streamed once per group instead of once per step.
SUBSTEP_DOUBLINGS = 4
SUBSTEPS = 2 ** SUBSTEP_DOUBLINGS

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

    The data take arrays of times: source(x, t) gets a column t of shape
    (k, 1) and returns values that broadcast to (k, len(x)), and
    bc_left(t), bc_right(t) get a 1-D t and return values that broadcast
    to t.shape, so lambda t: 0.0 is a valid boundary.
    """

    a: float
    b: float
    t_final: float
    alpha: float
    k_left: float
    k_right: float
    source: Callable[[np.ndarray, np.ndarray], np.ndarray]
    init: Callable[[np.ndarray], np.ndarray]
    bc_left: Callable[[np.ndarray], np.ndarray]
    bc_right: Callable[[np.ndarray], np.ndarray]
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
        samples = np.linspace(0.0, self.t_final, 5)
        self._check_boundary_values(self.bc_left(samples),
                                    self.bc_right(samples))

    def _check_boundary_values(self, left, right) -> None:
        """Reject a nonzero value on a side with a nonzero coefficient."""
        for side, k, values in (("left", self.k_left, left),
                                ("right", self.k_right, right)):
            if k != 0 and np.any(np.asarray(values) != 0):
                raise ValueError(f"{side} boundary values must vanish when "
                                 f"k_{side} is nonzero")


@dataclass(frozen=True)
class CNSystem:
    """Assembled Crank-Nicolson step on the interior unknowns.

    p_reduced is the preconditioner P (identity for order 2), b_reduced
    is B = (tau/2)(K1 A + K2 A^T) and factors is the LU factorisation of
    P - B, so one step is (P - B) u_next = (P + B) u + r with r the step's
    sources and boundary terms. increment is E = 2 B (P - B)^-1, the step
    y_next = y + E y + r in the coordinates y = (P - B) u. The boundary
    columns of B are kept for folding in known boundary values.
    """

    tau: float
    a2: float
    p_reduced: np.ndarray
    b_reduced: np.ndarray
    factors: tuple
    b_col_left: np.ndarray
    b_col_right: np.ndarray
    increment: np.ndarray


def _cn_system(problem: DiffusionProblem, grid: GridSpec,
               m_steps: int, scheme: str) -> CNSystem:
    alpha = float(problem.alpha)
    col, row, a2 = scheme_operator(scheme, alpha, grid)
    if m_steps < 1:
        raise ValueError("need at least one time step")
    tau = problem.t_final / m_steps
    # B = (tau/2)(K1 A + K2 A^T) is Toeplitz with these column and row
    half, k1, k2 = 0.5 * tau, problem.k_left, problem.k_right
    b_col, b_row, b_left, b_right = split_boundary(
        half * (k1 * col + k2 * row), half * (k1 * row + k2 * col))
    p_hat = precondition_rows(np.eye(grid.n + 1, grid.n - 1, k=-1), a2)
    b_hat = toeplitz(b_col, b_row)
    factors = checked_lu(
        p_hat - b_hat,
        context=f"CN step matrix ({scheme}, alpha={alpha}, n={grid.n})",
    )
    # E^T solves (P - B)^T E^T = 2 B^T on the factors of P - B
    increment = solve_factored(factors, 2.0 * b_hat.T, trans=1).T
    return CNSystem(
        tau=tau,
        a2=a2,
        p_reduced=p_hat,
        b_reduced=b_hat,
        factors=factors,
        b_col_left=b_left,
        b_col_right=b_right,
        increment=increment,
    )


def cn_solve(problem: DiffusionProblem, grid: GridSpec, m_steps: int,
             scheme: str = "order2") -> np.ndarray:
    """March the Crank-Nicolson scheme; returns the n + 1 grid values at
    the final time.

    Each step solves (P - B) u_next = (P + B) u + r_m on the interior,
    with r_m = tau * (P f)(midpoint) and the known boundary values folded
    in through the boundary columns of B and P. The march runs on
    y = (P - B) u in increment form, y_next = y + E y + r_m with
    E = 2 B (P - B)^-1, and maps back with one solve at the end. Each
    full group of SUBSTEPS steps is one matvec with E_k, where
    I + E_k = (I + E)^SUBSTEPS; the forcing of every group in a block of
    STEP_BLOCK steps comes from one Horner pass of matrix products.
    Each boundary is evaluated once on t_0 .. t_M, the source once per
    block on its midpoint times. Raises ValueError when a side with a
    nonzero coefficient has a nonzero boundary value at a step time after
    t_0 or nonzero initial data at that end, and when the data or the
    state become non-finite.
    """
    check_domain(problem, grid)
    system = _cn_system(problem, grid, m_steps, scheme)
    tau, a2, factors = system.tau, system.a2, system.factors
    b_col_left, b_col_right = system.b_col_left, system.b_col_right
    x = grid.points()
    initial = np.asarray(problem.init(x), dtype=float)
    if not np.all(np.isfinite(initial)):
        raise ValueError("initial state is not finite")
    # boundary values at t_0 .. t_M; t_0 takes the sampled initial data
    times = tau * np.arange(m_steps + 1)
    left = np.broadcast_to(problem.bc_left(times), times.shape).astype(float)
    right = np.broadcast_to(problem.bc_right(times), times.shape).astype(float)
    left[0], right[0] = initial[0], initial[-1]
    problem._check_boundary_values(left, right)
    u = initial[1:-1]
    y = system.p_reduced @ u - system.b_reduced @ u
    e_one = system.increment
    del system  # P and B are not needed past this point
    e_group = e_one
    for _ in range(SUBSTEP_DOUBLINGS):
        # (I + E_j)^2 = I + E_2j with E_2j = 2 E_j + E_j E_j
        squared = e_group @ e_group
        squared += 2.0 * e_group
        e_group = squared
    for start in range(0, m_steps, STEP_BLOCK):
        stop = min(start + STEP_BLOCK, m_steps)
        mid = tau * (np.arange(start, stop)[:, None] + 0.5)
        f_mid = np.asarray(np.broadcast_to(problem.source(x, mid),
                                           (len(mid), len(x))), dtype=float)
        rhs = tau * precondition_rows(f_mid.T, a2)
        left_now, left_next = left[start:stop], left[start + 1:stop + 1]
        right_now, right_next = right[start:stop], right[start + 1:stop + 1]
        rhs += np.multiply.outer(b_col_left, left_next + left_now)
        rhs += np.multiply.outer(b_col_right, right_next + right_now)
        if a2 != 0.0:
            rhs[0] -= a2 * (left_next - left_now)
            rhs[-1] -= a2 * (right_next - right_now)
        groups = (stop - start) // SUBSTEPS
        grouped = rhs[:, :groups * SUBSTEPS].reshape(len(rhs), groups,
                                                     SUBSTEPS)
        # Horner: z = sum_i (I + E)^(SUBSTEPS-1-i) r_i for every group
        z = grouped[:, :, 0].copy()
        for i in range(1, SUBSTEPS):
            z += e_one @ z
            z += grouped[:, :, i]
        for g in range(groups):
            y += e_group @ y
            y += z[:, g]
        for j in range(groups * SUBSTEPS, stop - start):
            y += e_one @ y
            y += rhs[:, j]
        if not np.all(np.isfinite(y)):
            raise ValueError(f"state is not finite after step {stop}")
    u = solve_factored(factors, y)
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

    The march is cn_solve's, y^{m+1} = y^m + E y^m + tau S^m with
    y = (P - B) v and E = CNSystem.increment; every state is kept and all
    are mapped back to v in one solve. Requires both boundaries to be zero
    at every step time t_0 .. t_M. Amplitudes of 0 reproduce the unforced /
    zero-start special cases.
    """
    check_domain(problem, grid)
    system = _cn_system(problem, grid, m_steps, scheme)
    tau = system.tau
    times = tau * np.arange(m_steps + 1)
    if np.any(problem.bc_left(times) != 0) or np.any(
            problem.bc_right(times) != 0):
        raise ValueError("stability check requires homogeneous boundaries")
    rng = np.random.default_rng(seed)
    interior = grid.n - 1
    v = init_amplitude * rng.standard_normal(interior)
    sources = source_amplitude * rng.standard_normal((m_steps, interior))
    states = np.empty((interior, m_steps + 1))
    states[:, 0] = system.p_reduced @ v - system.b_reduced @ v
    for m, s in enumerate(sources):
        y = states[:, m]
        states[:, m + 1] = y + system.increment @ y + tau * s
    v = solve_factored(system.factors, states)
    norms = np.sqrt(grid.h * np.einsum("ij,ij->j", v, v))
    source_norms = np.sqrt(grid.h * np.einsum("ij,ij->i", sources, sources))
    amp = NORM_EQUIV if scheme == "order3" else 1.0
    source_totals = np.concatenate(([0.0], np.cumsum(source_norms)))
    bounds = amp * (norms[0] + amp * tau * source_totals)
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
