"""Crank-Nicolson stepping for the two-sided space-fractional diffusion
equation u_t = K1 * D_left^alpha u + K2 * D_right^alpha u + f.

The scheme rule (operators.scheme_operator) gives the shifted order-2
operator A on both sides and, for order3, the quasi-compact tridiagonal
preconditioner P that premultiplies the equation (P = I for order2). The
two-sided operator is B = (tau/2)(K1 A + K2 A^T). The step acts on all
n + 1 grid values, with B's rows 0 and n zeroed and P's those of the
identity, so the Dirichlet rows of P - B are e_0 and e_n and the forcing
carries the boundary values. A step is (P - B) u_next = (P - B + D) u
+ r_m, D = 2B but for -1 at (0, 0) and (n, n). It is marched in the
coordinates y = (P - B) u, as y_next = y + E y + r_m with the increment
matrix E = D (P - B)^-1, so the forcing r_m needs no solve and one solve
maps the states back to u. Dense P - B and D exist only in the set-up,
which factors P - B, maps the initial data to the march's start y_0 and
builds E. cn_solve's forcing, a source profile times a time factor plus
two boundary values, has rank 3 or less, so with T = I + E and T_s = T^s,
s ~ sqrt(M), it sums y_M = sum_i T^i sum_g c_{g,i} T_s^g v over at most
four vectors v, as Paterson and Stockmeyer evaluate a polynomial of a
matrix (SIAM J. Comput. 2, 1973), in about 8 N^2 M / s + 2 N^2 s + 8 M N
flops where single steps take 2 M N^2. The energy check's random sources
have full rank: it marches single steps and keeps every state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import toeplitz

from .generators import check_integer
from .operators import (
    GridSpec,
    check_domain,
    check_finite,
    checked_lu,
    precondition_rows,
    scheme_operator,
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

    The source is source_factor(t) * source_profile(x). init(x) and
    source_profile(x) return len(x) values; source_factor(t), bc_left(t)
    and bc_right(t) get a 1-D t and return values that broadcast to
    t.shape, so lambda t: 0.0 is a valid boundary.
    """

    a: float
    b: float
    t_final: float
    alpha: float
    k_left: float
    k_right: float
    source_profile: Callable[[np.ndarray], np.ndarray]
    source_factor: Callable[[np.ndarray], np.ndarray]
    init: Callable[[np.ndarray], np.ndarray]
    bc_left: Callable[[np.ndarray], np.ndarray]
    bc_right: Callable[[np.ndarray], np.ndarray]
    exact: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    def __post_init__(self):
        if not 1.0 < float(self.alpha) <= 2.0:
            raise ValueError(
                f"diffusion solver needs alpha in (1, 2], got {self.alpha}"
            )
        check_finite(self, "a", "b", "t_final", "k_left", "k_right")
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
    """Assembled Crank-Nicolson step on all n + 1 grid values.

    P is the preconditioner of coefficient a2 (identity for order 2) on
    rows 1 .. n-1, and B = (tau/2)(K1 A + K2 A^T) with rows 0 and n zeroed.
    factors is the LU factorisation of P - B, whose rows 0 and n are e_0
    and e_n, and increment is E = D (P - B)^-1, D = 2B but for -1 at (0, 0)
    and (n, n): the step y_next = y + E y + r in the coordinates
    y = (P - B) u.
    """

    tau: float
    a2: float
    factors: tuple
    increment: np.ndarray


def _step_times(problem: DiffusionProblem, grid: GridSpec, m_steps: int):
    """t_0 .. t_M of M = m_steps steps, on a grid that spans the domain."""
    check_domain(problem, grid)
    if check_integer(m_steps, "step count") < 1:
        raise ValueError("need at least one time step")
    return problem.t_final / m_steps * np.arange(m_steps + 1)


def _cn_system(problem: DiffusionProblem, grid: GridSpec, m_steps: int,
               scheme: str, u: np.ndarray) -> tuple[CNSystem, np.ndarray]:
    """The CN system of M = m_steps steps and the march's start
    y = (P - B) u for the n + 1 grid values u."""
    alpha = float(problem.alpha)
    col, row, a2, _ = scheme_operator(scheme, alpha, grid)
    tau = problem.t_final / m_steps
    # B = (tau/2)(K1 A + K2 A^T) is Toeplitz with these column and row
    half, k1, k2 = 0.5 * tau, problem.k_left, problem.k_right
    b_hat = toeplitz(half * (k1 * col + k2 * row),
                     half * (k1 * row + k2 * col))
    b_hat[[0, -1]] = 0.0
    p_minus_b = np.eye(grid.n + 1)
    p_minus_b[1:-1] = precondition_rows(p_minus_b, a2)
    p_minus_b -= b_hat
    y = p_minus_b @ u
    context = f"CN step matrix ({scheme}, alpha={alpha}, n={grid.n})"
    factors = checked_lu(p_minus_b, context=context)
    del p_minus_b
    d_hat = np.multiply(b_hat, 2.0, out=b_hat)  # D = 2B, in B's place
    d_hat[0, 0] = d_hat[-1, -1] = -1.0
    # E^T solves (P - B)^T E^T = D^T on the factors of P - B
    increment = solve_factored(factors, d_hat.T, trans=1).T
    return CNSystem(tau=tau, a2=a2, factors=factors, increment=increment), y


def cn_solve(problem: DiffusionProblem, grid: GridSpec, m_steps: int,
             scheme: str = "order2") -> np.ndarray:
    """March the Crank-Nicolson scheme; returns the n + 1 grid values at
    the final time.

    Each step solves (P - B) u_next = (P - B + D) u + r_m on all grid
    values (see CNSystem), with r_m = phi_m f_hat + l_m e_0 + rho_m e_n: the
    factor phi_m at t_{m+1/2}, f_hat = tau P source_profile with zero ends
    and the boundary values l_m, rho_m at t_{m+1}. In y = (P - B) u,
    y_next = T y + r_m with T = I + E, so y_M = sum_j T^(M-j) v_j over
    v = [y_0, r_0, .., r_{M-1}], zero padded at the front to G groups of
    s = 2^floor(log2 sqrt(M)) rows: y_M = sum_i T^(s-1-i) W_i with
    W_i = sum_g T_s^(G-1-g) v_{gs+i}, T_s = T^s. Each v_j has coefficients
    over the basis y_0, f_hat, e_0, e_n (less those that vanish or have
    zero coefficients), so W sums each group's coefficients times the
    Krylov block T_s^(G-1-g) basis, one product of width <= 4 per group.
    One solve maps y_M back to u, whose end values are set to the
    boundary data. Each data function is called once, before the set-up,
    on the grid, on t_0 .. t_M or on the midpoint times. Raises ValueError
    then on a step count that is not a positive integer, on data that is
    not finite (the factor names its first such step) or on a nonzero
    value at a step time or end of the initial data on a side with a
    nonzero coefficient; after the march, on a state that overflows.
    """
    times = _step_times(problem, grid, m_steps)
    mid = problem.t_final / m_steps * (np.arange(m_steps) + 0.5)
    x = grid.points()
    initial = np.asarray(problem.init(x), dtype=float)
    profile = np.asarray(problem.source_profile(x), dtype=float)
    # boundary values at t_0 .. t_M; t_0 takes the sampled initial data
    left = np.broadcast_to(problem.bc_left(times), times.shape).astype(float)
    right = np.broadcast_to(problem.bc_right(times), times.shape).astype(float)
    factor = np.broadcast_to(problem.source_factor(mid), m_steps)
    named = {"initial state": initial, "source profile": profile,
             "left boundary": left, "right boundary": right}
    for name, values in named.items():
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} is not finite")
    bad = np.flatnonzero(~np.isfinite(factor))
    if bad.size:
        raise ValueError(f"source factor is not finite at step {bad[0] + 1}")
    left[0], right[0] = initial[0], initial[-1]
    problem._check_boundary_values(left, right)
    system, y = _cn_system(problem, grid, m_steps, scheme, initial)
    doublings = math.isqrt(m_steps).bit_length() - 1
    s = 2 ** doublings
    e_group = system.increment.T
    for _ in range(doublings):
        # (I + E_j)^2 = I + E_2j with E_2j = 2 E_j + E_j E_j, transposed
        e_group = e_group @ e_group + 2.0 * e_group
    # v's rows over the basis y_0, f_hat, e_0 and e_n, after the zero pad
    coeffs = np.zeros((s * math.ceil((m_steps + 1) / s), 4))
    coeffs[-m_steps - 1, 0] = 1.0
    coeffs[-m_steps:, 1:] = np.column_stack((factor, left[1:], right[1:]))
    basis = np.zeros((4, len(y)))
    basis[0], basis[2, 0], basis[3, -1] = y, 1.0, 1.0
    basis[1, 1:-1] = system.tau * precondition_rows(profile, system.a2)
    keep = coeffs.any(axis=0) & basis.any(axis=1)
    coeffs, krylov = coeffs[:, keep], basis[keep]
    # the groups from the last: group G-1-k meets T_s^k basis
    w = coeffs[-s:] @ krylov
    for start in range(len(coeffs) - 2 * s, -1, -s):
        krylov += krylov @ e_group
        w += coeffs[start:start + s] @ krylov
    y = w[0]
    for row in w[1:]:
        y += system.increment @ y
        y += row
    if not np.isfinite(y).all():
        raise ValueError("state is not finite")
    u = solve_factored(system.factors, y)
    u[0], u[-1] = left[-1], right[-1]
    return u


def fractional_poly_source(x, exponent: int, alpha: float) -> np.ndarray:
    """Symmetric pair of fractional monomial derivatives on [0, 1]:

        Gamma(m+1)/Gamma(m+1-alpha) * (x^(m-alpha) + (1-x)^(m-alpha))

    which is the sum of the left derivative of x^m and the right
    derivative of (1-x)^m.
    """
    if check_integer(exponent, "exponent") < 2:
        raise ValueError(f"exponent must be at least 2, got {exponent!r}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("arguments must lie in [0, 1]")
    coeff = math.gamma(exponent + 1) / math.gamma(exponent + 1 - alpha)
    power = exponent - alpha
    return coeff * (x**power + (1.0 - x) ** power)


@dataclass(frozen=True)
class StabilityBoundReport:
    """Outcome of one perturbed homogeneous run against the energy bound.

    norms[m] is the discrete L2 norm of the step-m state and bounds[m] > 0
    the a-priori estimate it must stay under. max_ratio is the worst
    norm/bound ratio over steps 1..M: bounds[0] is 1 or sqrt(5) times
    norms[0] by construction and says nothing of the march.
    """

    norms: np.ndarray
    bounds: np.ndarray
    max_ratio: float
    ok: bool


def stability_estimate_check(problem: DiffusionProblem, grid: GridSpec,
                             m_steps: int, scheme: str = "order3", *,
                             seed: int = 0,
                             source_amplitude: float = 1.0
                             ) -> StabilityBoundReport:
    """Run the CN iteration (P - B) v^{m+1} = (P + B) v^m + tau S^m of the
    model problem P dv/dt = K1 D_left^alpha v + K2 D_right^alpha v + S,
    with B the fractional operator of the CN system, random interior
    initial data and random per-step sources, and verify the a-priori
    discrete-L2 estimate:

        order3:  ||v^m|| <= sqrt(5) (||v^0|| + sqrt(5) tau sum ||S^l||)
        order2:  ||v^m|| <=          ||v^0|| +         tau sum ||S^l||

    The march is cn_solve's, y^{m+1} = y^m + E y^m + tau S^m with
    y = (P - B) v and E = CNSystem.increment, on the n + 1 grid values
    with zero boundary rows; every state is kept and all are mapped back
    to v in one solve. Requires both boundaries to be zero at every step
    time t_0 .. t_M, checked before the set-up. A source_amplitude of 0
    gives the unforced run.
    """
    times = _step_times(problem, grid, m_steps)
    if np.any(problem.bc_left(times) != 0) or np.any(
            problem.bc_right(times) != 0):
        raise ValueError("stability check requires homogeneous boundaries")
    rng = np.random.default_rng(seed)
    interior = grid.n - 1
    v = np.pad(rng.standard_normal(interior), 1)
    draws = source_amplitude * rng.standard_normal((m_steps, interior))
    sources = np.pad(draws, ((0, 0), (1, 1)))
    system, y = _cn_system(problem, grid, m_steps, scheme, v)
    tau = system.tau
    states = np.empty((grid.n + 1, m_steps + 1))
    states[:, 0] = y
    for m, s in enumerate(sources):
        y = states[:, m]
        states[:, m + 1] = y + system.increment @ y + tau * s
    v = solve_factored(system.factors, states)
    norms = np.sqrt(grid.h * np.einsum("ij,ij->j", v, v))
    source_norms = np.sqrt(grid.h * np.einsum("ij,ij->i", sources, sources))
    amp = NORM_EQUIV if scheme == "order3" else 1.0
    source_totals = np.concatenate(([0.0], np.cumsum(source_norms)))
    bounds = amp * (norms[0] + amp * tau * source_totals)
    max_ratio = float(np.max(norms[1:] / bounds[1:]))
    return StabilityBoundReport(
        norms=norms,
        bounds=bounds,
        max_ratio=max_ratio,
        ok=bool(max_ratio <= 1.0 + BOUND_SLACK),
    )
