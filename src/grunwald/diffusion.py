"""Crank-Nicolson stepping for the two-sided space-fractional diffusion
equation u_t = K1 * D_left^alpha u + K2 * D_right^alpha u + f.

The scheme rule (operators.scheme_operator) gives the shifted order-2
operator A on both sides and, for order3, the quasi-compact tridiagonal
preconditioner P that premultiplies the equation (P = I for order2). The
two-sided operator is B = (tau/2)(K1 A + K2 A^T). The step acts on all
n + 1 grid values, with B's rows 0 and n zeroed and P's those of the
identity, so the Dirichlet rows of P - B are e_0 and e_n and the forcing
carries the boundary values. The CN matrices are constant in time, so a
step (P - B) u_next = (P - B + D) u + r_m, D = 2B but for -1 at (0, 0)
and (n, n), is linear with constant coefficients. It is marched in one
form only: in the coordinates y = (P - B) u, as y_next = y + E y + r_m
with the increment matrix E = D (P - B)^-1, so the forcing r_m needs no
solve and one solve maps the states back to u. Dense P - B and D exist
only in the set-up, which factors P - B, maps the initial data to the
march's start y_0 and builds E.
cn_solve marches s ~ sqrt(M) interleaved step sequences at once, one
matrix product of width s per group of s steps; the energy check marches
single steps and keeps every state. cn_solve calls each data function
once, before the set-up, and its march calls none.
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
    values (see CNSystem), with the forcing r_m = (bc_left(t_{m+1}),
    source_factor(t_{m+1/2}) f_hat, bc_right(t_{m+1})); f_hat, formed once,
    is tau * P source_profile with zero ends. In y = (P - B) u the step
    is y_next = y + E y + r_m, so
    y_M = sum_j (I + E)^(M-j) v_j over v = [y_0, r_0, .., r_{M-1}]. With v
    zero padded at the front (exact: the sum starts from 0) to groups of
    s = 2^floor(log2 sqrt(M)) rows, an accumulator W of s rows takes each
    group V_g as W <- W (I + E_s)^T + V_g, one product of width s, with
    I + E_s = (I + E)^s; then y_M = sum_i (I + E)^(s-1-i) W_i, and one
    solve maps it back to u, whose end values are set to the boundary
    data. Each data function is called once, before the set-up, on the
    grid, on t_0 .. t_M or on the midpoint times. Raises ValueError then on
    a step count that is not a positive integer, on data that is not
    finite (the factor names its first such step) or on a nonzero value at
    a step time or end of the initial data on a side with a nonzero
    coefficient; in the march, on a state that overflows.
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
    factors, e_one = system.factors, system.increment
    f_hat = np.zeros(len(x))
    f_hat[1:-1] = system.tau * precondition_rows(profile, system.a2)
    doublings = math.isqrt(m_steps).bit_length() - 1
    s = 2 ** doublings
    pad = -(m_steps + 1) % s
    e_group = e_one.T
    for _ in range(doublings):
        # (I + E_j)^2 = I + E_2j with E_2j = 2 E_j + E_j E_j, transposed
        squared = e_group @ e_group
        squared += 2.0 * e_group
        e_group = squared
    w = np.zeros((s, len(y)))
    for start in range(0, pad + 1 + m_steps, s):
        # rows start .. start + s - 1 of v: the forcing of steps lo .. hi - 1
        lo, hi = max(start - pad - 1, 0), start + s - pad - 1
        rows = factor[lo:hi, None] * f_hat
        rows[:, 0], rows[:, -1] = left[lo + 1:hi + 1], right[lo + 1:hi + 1]
        if start == 0:
            rows = np.concatenate((np.zeros((pad, len(y))), [y], rows))
        w += w @ e_group
        w += rows
        if not np.isfinite(w).all():
            raise ValueError(f"state is not finite after step {hi}")
    y = w[0]
    for row in w[1:]:
        y += e_one @ y
        y += row
    u = solve_factored(factors, y)
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
