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
matrix (SIAM J. Comput. 2, 1973). After a set-up of about 3 N^3 flops
(the LU factors and E), that takes 2 N^3 log2 s flops for the doublings
that form T_s and 8 N^2 M / s + 2 N^2 s + 8 M N for the sums, where
single steps take 2 M N^2. When K1 = K2, E
is centrosymmetric and the march runs on its even and odd halves, each
about N / 2 wide: (N^3 / 2) log2 s + 4 N^2 M / s + N^2 s + 8 M N flops.
The energy check's random sources have full rank: it marches single
steps and keeps every state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import toeplitz

from .generators import check_finite, check_integer
from .operators import (
    P_FLOOR,
    GridSpec,
    check_alpha,
    check_domain,
    checked_lu,
    precondition_rows,
    sample,
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

# Round-off allowance of the energy bound in stability_estimate_check.
BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class DiffusionProblem:
    """Two-sided fractional diffusion problem on [a, b] x [0, t_final].

    k_left and k_right are the nonnegative diffusion coefficients of the
    left and right derivatives (not both zero). Whenever a coefficient is
    nonzero the matching boundary value must be identically zero, because
    the one-sided derivative reaches across that boundary.

    The source is source_factor(t) * source_profile(x). Each data function
    maps a 1-D array of x or t to one finite value per point, or a scalar
    (lambda t: 0.0 is a valid boundary); the solvers check it when they
    sample it (operators.sample), and building a problem calls none.
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
        check_alpha(self.alpha, "diffusion solver")
        check_finite(self, "a", "b", "t_final", "k_left", "k_right")
        if not self.b > self.a:
            raise ValueError("domain endpoints must satisfy a < b")
        if self.t_final <= 0:
            raise ValueError("final time must be positive")
        if self.k_left < 0 or self.k_right < 0:
            raise ValueError("diffusion coefficients must be nonnegative")
        if self.k_left == 0 and self.k_right == 0:
            raise ValueError("diffusion coefficients must not both vanish")


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


def _stride(m_steps: int) -> tuple[int, int]:
    """The group length s = 2^floor(log2 sqrt(M)) of M = m_steps steps
    and the rows of v = [y_0, r_0, .., r_{M-1}] zero padded at the front
    to whole groups: the least multiple of s that is at least M + 1."""
    s = 2 ** (math.isqrt(m_steps).bit_length() - 1)
    return s, s * math.ceil((m_steps + 1) / s)


def _march(increment: np.ndarray, coeffs: np.ndarray, basis: np.ndarray,
           s: int) -> np.ndarray:
    """y_M = sum_j T^(R-1-j) v_j over the R rows v = coeffs @ basis, with
    T = I + E, E = increment, and R a multiple of the power of two s:
    y_M = sum_i T^(s-1-i) W_i, W_i = sum_g T_s^(G-1-g) v_{gs+i}, T_s = T^s
    by log2 s doublings. W sums each group's coefficients times the
    Krylov block T_s^(G-1-g) basis, one product per group, over the basis
    rows that do not vanish and have a nonzero coefficient."""
    e_group = increment.T
    for _ in range(s.bit_length() - 1):
        # (I + E_j)^2 = I + E_2j with E_2j = 2 E_j + E_j E_j, transposed
        e_group = e_group @ e_group + 2.0 * e_group
    keep = coeffs.any(axis=0) & basis.any(axis=1)
    coeffs, krylov = coeffs[:, keep], basis[keep]
    # the groups from the last: group G-1-k meets T_s^k basis
    w = coeffs[-s:] @ krylov
    for start in range(len(coeffs) - 2 * s, -1, -s):
        krylov += krylov @ e_group
        w += coeffs[start:start + s] @ krylov
    y = w[0]
    for row in w[1:]:
        y += increment @ y
        y += row
    return y


def _halves(increment: np.ndarray, basis: np.ndarray):
    """The even and odd halves of E = increment and of the basis rows,
    for E centrosymmetric: J E J = E, where J reverses the n + 1 grid
    values (Cantoni and Butler, Linear Algebra Appl. 13, 1976). With
    h = (n + 1) // 2 and ns = n + 1 - h, E_bar = (E + J E J) / 2 maps the
    even vectors v = J v, kept as v[:ns], by E_s = E_bar[:ns, :ns] plus
    E_bar[:ns, ::-1][:, :h] on the first h columns, and the odd vectors
    v = -J v, kept as v[:h], by E_a = E_bar[:h, :h] - E_bar[:h, ::-1][:, :h].
    A basis row v splits into (v + J v) / 2 and (v - J v) / 2. Returns
    (E_s, even rows) and (E_a, odd rows)."""
    h = len(increment) // 2
    ns = len(increment) - h
    top = 0.5 * (increment[:ns] + increment[h:, ::-1][::-1])
    mirror = top[:, ::-1][:, :h]
    even = top[:, :ns].copy()
    even[:, :h] += mirror
    odd = top[:h, :h] - mirror[:h]
    flipped = basis[:, ::-1]
    return ((even, 0.5 * (basis + flipped)[:, :ns]),
            (odd, 0.5 * (basis - flipped)[:, :h]))


def _unfold(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The grid vector of even half v[:ns] and odd half v[:h] (_halves)."""
    h = len(odd)
    return np.concatenate((even[:h] + odd, even[h:], (even[:h] - odd)[::-1]))


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
    Krylov block T_s^(G-1-g) basis, one product of width <= 4 per group
    (_march). When K1 = K2 this runs once on each of the even and odd
    halves of E and of the basis (_halves), and their sums unfold to y_M.
    One solve maps y_M back to u, whose end values are set to the
    boundary data. Each data function is sampled once (operators.sample),
    before the set-up: init and the profile on the grid, the boundaries on
    t_0 .. t_M and the factor on the midpoint times. Raises ValueError then
    on a step count that is not a positive integer, on bad data (see
    sample) or on a nonzero boundary value at a step time, or end of the
    initial data, on a side with a nonzero coefficient; after the march,
    on a state that overflows.
    """
    times = _step_times(problem, grid, m_steps)
    mid = problem.t_final / m_steps * (np.arange(m_steps) + 0.5)
    x = grid.points()
    initial = sample(problem.init, x, "initial state")
    profile = sample(problem.source_profile, x, "source profile")
    left = sample(problem.bc_left, times, "left boundary")
    right = sample(problem.bc_right, times, "right boundary")
    factor = sample(problem.source_factor, mid, "source factor")
    for side, k, end, values in (("left", problem.k_left, initial[0], left),
                                 ("right", problem.k_right, initial[-1],
                                  right)):
        if k != 0 and (end or values.any()):
            raise ValueError(f"{side} boundary values must vanish when "
                             f"k_{side} is nonzero")
    system, y = _cn_system(problem, grid, m_steps, scheme, initial)
    s, rows = _stride(m_steps)
    # v's rows over the basis y_0, f_hat, e_0 and e_n, after the zero pad
    coeffs = np.zeros((rows, 4))
    coeffs[-m_steps - 1, 0] = 1.0
    coeffs[-m_steps:, 1:] = np.column_stack((factor, left[1:], right[1:]))
    basis = np.zeros((4, len(y)))
    basis[0], basis[2, 0], basis[3, -1] = y, 1.0, 1.0
    basis[1, 1:-1] = system.tau * precondition_rows(profile, system.a2)
    if problem.k_left == problem.k_right:
        y = _unfold(*(_march(half, coeffs, vectors, s)
                      for half, vectors in _halves(system.increment, basis)))
    else:
        y = _march(system.increment, coeffs, basis, s)
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
    discrete-L2 estimate

        ||v^m|| <= c (||v^0|| + c tau sum ||S^l||),

    with c = 1 where P = I (order2, a2 = 0) and otherwise (order3)
    c = sqrt(1 / P_FLOOR) = sqrt(5), by condition (b) on P's eigenvalues.

    The march is cn_solve's, y^{m+1} = y^m + E y^m + tau S^m with
    y = (P - B) v and E = CNSystem.increment, on the n + 1 grid values
    with zero boundary rows; every state is kept and all are mapped back
    to v in one solve. Requires both boundaries to be zero at every step
    time t_0 .. t_M, sampled (operators.sample) and checked before the
    set-up. A source_amplitude of 0 gives the unforced run.
    """
    times = _step_times(problem, grid, m_steps)
    if (sample(problem.bc_left, times, "left boundary").any()
            or sample(problem.bc_right, times, "right boundary").any()):
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
    amp = 1.0 if system.a2 == 0 else np.sqrt(1.0 / P_FLOOR)
    source_totals = np.concatenate(([0.0], np.cumsum(source_norms)))
    bounds = amp * (norms[0] + amp * tau * source_totals)
    max_ratio = float(np.max(norms[1:] / bounds[1:]))
    return StabilityBoundReport(
        norms=norms,
        bounds=bounds,
        max_ratio=max_ratio,
        ok=bool(max_ratio <= 1.0 + BOUND_SLACK),
    )
