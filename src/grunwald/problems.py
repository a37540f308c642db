"""Benchmark problems with closed-form solutions.

Both problems live on [0, 1] and are the standard accuracy probes for
the solvers in this package: a steady problem whose solution is a scaled
monomial, and a diffusion problem whose solution is a decaying symmetric
polynomial pulse.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gamma

from .diffusion import DiffusionProblem, fractional_poly_source
from .steady import SteadyProblem

__all__ = [
    "polynomial_steady_problem",
    "polynomial_diffusion_problem",
]


STEADY_EXPONENT = 8
STEADY_AMPLITUDE = 10.0


def polynomial_steady_problem(alpha: float) -> SteadyProblem:
    """Steady problem on [0, 1] with exact solution A x^e, where
    A = STEADY_AMPLITUDE and e = STEADY_EXPONENT.

    The source is the closed-form left fractional derivative of the
    solution, A * Gamma(e+1)/Gamma(e+1-alpha) * x^(e-alpha); boundary
    values are 0 and A.
    """
    coeff = (STEADY_AMPLITUDE * gamma(STEADY_EXPONENT + 1)
             / gamma(STEADY_EXPONENT + 1 - alpha))

    def source(x):
        return coeff * np.asarray(x, dtype=float) ** (STEADY_EXPONENT - alpha)

    def exact(x):
        return STEADY_AMPLITUDE * np.asarray(x, dtype=float) ** STEADY_EXPONENT

    return SteadyProblem(
        a=0.0,
        b=1.0,
        alpha=alpha,
        source=source,
        phi0=0.0,
        phi1=STEADY_AMPLITUDE,
        exact=exact,
    )


_PULSE_BINOMIALS = (1.0, -5.0, 10.0, -10.0, 5.0, -1.0)


def polynomial_diffusion_problem(alpha: float) -> DiffusionProblem:
    """Two-sided diffusion problem with exact solution
    x^5 (1-x)^5 exp(-t) on [0, 1] x [0, 1], unit diffusion coefficients
    and homogeneous boundary values.

    The source is assembled from the closed-form fractional derivatives
    of the monomials in the pulse: expanding x^5 (1-x)^5 =
    sum_j C(5,j) (-1)^j x^(5+j) and using the symmetry of the pulse, each
    term contributes a fractional_poly_source(x, 5+j, alpha) pair.
    The source is that spatial profile times -exp(-t); the profile of the
    most recent grid is cached, so a time march evaluates it once.
    """

    def pulse(x):
        x = np.asarray(x, dtype=float)
        return x**5 * (1.0 - x) ** 5

    def profile(x):
        acc = pulse(x)
        for j, c in enumerate(_PULSE_BINOMIALS):
            acc = acc + c * fractional_poly_source(x, 5 + j, alpha)
        return acc

    # (grid points, profile), read and replaced as one tuple so a call
    # never pairs one grid's points with another grid's profile
    cached = (None, None)

    def source(x, t):
        nonlocal cached
        x = np.asarray(x, dtype=float)
        points, values = cached
        if points is None or not np.array_equal(points, x):
            values = profile(x)
            cached = (x.copy(), values)
        return -np.exp(-t) * values

    def exact(x, t):
        return pulse(x) * np.exp(-t)

    return DiffusionProblem(
        a=0.0,
        b=1.0,
        t_final=1.0,
        alpha=alpha,
        k_left=1.0,
        k_right=1.0,
        source=source,
        init=pulse,
        bc_left=lambda t: 0.0,
        bc_right=lambda t: 0.0,
        exact=exact,
    )
