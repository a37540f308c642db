"""The scaled symbol W(exp(-z)) exp(shift*z) / z^alpha of a generator as
its Taylor coefficients c0 + c1*z + ... + cL*z^L, and the two consistency
conditions of a generator (Lubich, SIAM J. Math. Anal. 17, 1986):
sum_k beta_k = 0 (check_sum_zero, when a GeneratorSpec is built) and
q_0 = -sum_k k beta_k = 1 (normalized_symbol, before it expands).

When every input scalar is rational (int or fractions.Fraction) they are
exact Fractions: the power and the product with exp(shift*z) are one
recurrence in Python integers over one known denominator. Any float
input makes it the float power recurrence (one BLAS band solve) times
exp(shift*z), and every coefficient is a float.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

import numpy as np
from scipy.linalg.blas import dtbsv

# Slack for the zero-sum consistency check on float generator coefficients.
CONSISTENCY_TOL = 1e-12

# Float zero threshold: q_0 counts as 1, and a symbol coefficient past c_0
# as zero, within FLOAT_ZERO_TOL times the size of the cancelling terms.
FLOAT_ZERO_TOL = 1e-10


class InconsistentGeneratorError(ValueError):
    """Generator coefficients that are not finite, do not sum to zero or
    have q_0 != 1: the generator approximates no D^alpha."""


def scalar_kind(*values):
    """Fraction when every value is rational (int or Fraction), else float.

    The one rule for the scalar kind of a computation: call the result on
    each input to bring them all to that kind.
    """
    return Fraction if all(isinstance(v, Rational) for v in values) else float


def check_sum_zero(betas) -> None:
    """Raise InconsistentGeneratorError unless the generator coefficients
    are finite (naming those that are not) and sum to zero: exactly for
    rationals, within CONSISTENCY_TOL (relative to the largest) for floats."""
    total = sum(betas)
    if isinstance(total, Fraction):
        if total == 0:
            return
    else:
        bad = [f"beta_{k} = {b}" for k, b in enumerate(betas)
               if not math.isfinite(b)]
        if bad:
            raise InconsistentGeneratorError(
                "non-finite generator coefficients " + ", ".join(bad))
        scale_b = max(1.0, max(abs(b) for b in betas))
        if abs(total) <= CONSISTENCY_TOL * scale_b:
            return
        total = f"{total:.3e}"
    raise InconsistentGeneratorError(
        "generator coefficients must sum to zero for a consistent "
        f"approximation; got sum {total}"
    )


def term_size(betas, l: int) -> float:
    """sum_k |beta_k| k^(l+1) / (l+1)!: the size of the terms that cancel
    in coefficient l of P(exp(-z))/z."""
    fact = math.factorial(l + 1)
    return sum(abs(float(b)) * k ** (l + 1) / fact
               for k, b in enumerate(betas))


def power_recurrence(poly, alpha, count):
    """Float coefficients b_0..b_count of (a_0 + a_1 z + ... + a_d z^d)^alpha,
    from b_0 = a_0^alpha and the power recurrence derived from
    b' a = alpha b a' (b = a^alpha):

        m a_0 b_m - sum_{k=1}^{min(m, d)} (k (alpha + 1) - m) a_k b_{m-k} = 0,

    where d is the index of the last nonzero a_k up to a_count. With the
    row b_0 = a_0^alpha on top this is a lower triangular band system,
    solved by forward substitution in one BLAS dtbsv call in O(count d);
    band row k holds the entries (j - k alpha) a_k of diagonal -k, at
    column j. A longer call returns a longer copy of the same values. The
    exact counterpart is _rational_power.
    """
    poly = [float(a) for a in poly[: count + 1]]
    degree = max(k for k, a in enumerate(poly) if k == 0 or a != 0)
    # the transpose of a C-ordered array is in BLAS's (Fortran) layout;
    # scaling in place keeps one (count + 1) x (d + 1) array alive
    band = np.arange(count + 1.0)[:, None] - alpha * np.arange(degree + 1.0)
    band *= poly[: degree + 1]
    band = band.T
    band[0, 0] = 1.0
    b = np.zeros(count + 1)
    # a numpy scalar power rounds as Python's does (np.power's SIMD loop
    # need not) but overflows to inf under np.errstate, not OverflowError
    b[0] = np.float64(poly[0]) ** alpha
    return dtbsv(degree, band, b, lower=1, overwrite_x=1)


def _over_lcm(values):
    """Integers N_k and one denominator D > 0 with values[k] = N_k / D."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _rational_power(A, alpha, shift):
    """Coefficients of a(z)^alpha * exp(shift*z) through z^L, as one
    Fraction each, for integers A_k = A_0 a_k, where a_0 = 1.

    With alpha = n/d and shift = u/v the power recurrence becomes one in
    integers: b_m = B_m / (m! (A_0 d)^m), where B_0 = 1 and

        B_m = sum_{k=1}^{m} (k(n+d) - m d) A_k B_{m-k} (A_0 d)^(k-1)
              (m-1)! / (m-k)!,

    and the product with exp(shift*z) is

        c_l = sum_j C(l,j) B_j v^j (A_0 d u)^(l-j) / (l! (A_0 d v)^l).
    """
    n, d = alpha.numerator, alpha.denominator
    a0d = A[0] * d
    terms = [0] + [A[k] * a0d ** (k - 1) for k in range(1, len(A))]
    B = [1]
    for m in range(1, len(A)):
        acc, falling = 0, 1  # falling = (m-1)! / (m-k)!
        for k in range(1, m + 1):
            if terms[k]:
                acc += (k * (n + d) - m * d) * terms[k] * B[m - k] * falling
            falling *= m - k
        B.append(acc)
    g, v = a0d * shift.numerator, shift.denominator
    return tuple(
        Fraction(sum(math.comb(l, j) * B[j] * v**j * g ** (l - j)
                     for j in range(l + 1)),
                 math.factorial(l) * (a0d * v) ** l)
        for l in range(len(A))
    )


def normalized_symbol(generator, window: int) -> tuple:
    """Coefficients c_0..c_L, L = window, of G(z) = W(exp(-z)) *
    exp(shift*z) / z^alpha for a GeneratorSpec, W(y) = (sum_k beta_k
    y^k)^alpha, as a tuple: Fractions when beta, shift and alpha are all
    rational, floats otherwise.

    The z^0 term of sum_k beta_k exp(-k z) is sum_k beta_k, which vanishes
    (the GeneratorSpec checked it); it is cancelled symbolically, so the
    quotient by z^alpha is realized as [P(exp(-z))/z]^alpha. Its constant
    term q_0 = -sum_k k beta_k must be 1, so that G starts at 1: exactly
    for Fractions, within FLOAT_ZERO_TOL * max(1, term_size(beta, 0)) for
    floats. Otherwise InconsistentGeneratorError, before any expansion.

    Coefficient l of the result is the error-expansion coefficient a_l(shift).
    """
    if window < 1:
        raise ValueError("expansion window must be at least 1")
    alpha, shift = generator.alpha, generator.shift
    kind = scalar_kind(*generator.beta, shift, alpha)
    betas = tuple(map(kind, generator.beta))
    # Coefficient l of P(exp(-z))/z, with the vanishing z^0 term dropped:
    # q_l = sum_k beta_k * (-k)^(l+1) / (l+1)!, or Q_l / (D (L+1)!) for
    # rational beta_k = N_k / D
    if kind is Fraction:
        nums, den = _over_lcm(betas)
        top = math.factorial(window + 1)
        Q = [sum(n * (-k) ** (l + 1) for k, n in enumerate(nums))
             * (top // math.factorial(l + 1))
             for l in range(window + 1)]
        q0, tol = Fraction(Q[0], den * top), 0
    else:
        q = []
        for l in range(window + 1):
            fact = math.factorial(l + 1)
            acc = 0.0
            for k, b in enumerate(betas):
                acc += b * (float((-k) ** (l + 1)) / fact)
            q.append(acc)
        q0, tol = q[0], FLOAT_ZERO_TOL * max(1.0, term_size(betas, 0))
    if not abs(q0 - 1) <= tol:
        raise InconsistentGeneratorError(
            f"q_0 = -sum_k k beta_k = {q0}, not 1: the generator is not a "
            "consistent approximation")
    if kind is Fraction:
        return _rational_power(Q, Fraction(alpha), Fraction(shift))
    b = power_recurrence(q, float(alpha), window).tolist()
    # times exp(shift*z), whose coefficients shift^l / l! are rounded once
    e = [float(kind(shift) ** l / math.factorial(l)) for l in range(len(q))]
    c = [0.0] * len(q)
    for i, bi in enumerate(b):
        if bi != 0:
            for j in range(len(q) - i):
                c[i + j] += bi * e[j]
    return tuple(c)
