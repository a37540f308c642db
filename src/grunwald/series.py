"""Truncated power-series arithmetic over exact rationals or floats.

A series here is a finite Taylor expansion c0 + c1*z + ... + cL*z^L.
When every input scalar is rational (int or fractions.Fraction) the
arithmetic stays exact, which makes "is this coefficient zero?" a
decidable question; any float input demotes the computation to ordinary
floating point, where a relative threshold decides zeroness instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

# Float zero threshold of the order check: a symbol coefficient past the
# constant term counts as zero below FLOAT_ZERO_TOL * max(1, max_k
# |beta_k|), the size of the generator terms that cancel in it, and the
# constant term must be 1 within FLOAT_ZERO_TOL.
FLOAT_ZERO_TOL = 1e-10

# Slack for the zero-sum consistency check on float generator coefficients.
CONSISTENCY_TOL = 1e-12


class InconsistentGeneratorError(ValueError):
    """Generator coefficients do not sum to zero, so the scaled symbol
    W(exp(-z)) exp(r z) / z^alpha has no power-series expansion."""


def scalar_kind(*values):
    """Fraction when every value is rational (int or Fraction), else float.

    The one rule for the scalar kind of a computation: call the result on
    each input to bring them all to that kind.
    """
    return Fraction if all(isinstance(v, Rational) for v in values) else float


def check_sum_zero(betas) -> None:
    """Raise InconsistentGeneratorError unless the generator coefficients
    sum to zero: exactly for rationals, within CONSISTENCY_TOL (relative
    to the largest coefficient) for floats."""
    total = sum(betas)
    if isinstance(total, Fraction):
        if total == 0:
            return
    else:
        scale_b = max(1.0, max(abs(b) for b in betas))
        if abs(total) <= CONSISTENCY_TOL * scale_b:
            return
        total = f"{total:.3e}"
    raise InconsistentGeneratorError(
        "generator coefficients must sum to zero for a consistent "
        f"approximation; got sum {total}"
    )


def _normalize(coeffs):
    """Return (tuple, rational_flag) with a homogeneous scalar kind."""
    values = tuple(coeffs)
    if not values:
        raise ValueError("a series needs at least the constant coefficient")
    kind = scalar_kind(*values)
    return tuple(map(kind, values)), kind is Fraction


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0..c_L of a power series truncated at order L."""

    coeffs: tuple
    rational: bool

    @classmethod
    def from_coefficients(cls, coeffs) -> "TruncatedSeries":
        values, rational = _normalize(coeffs)
        return cls(values, rational)

    @property
    def truncation_order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, index: int):
        return self.coeffs[index]

    def __len__(self) -> int:
        return len(self.coeffs)

    def to_float(self) -> "TruncatedSeries":
        if not self.rational:
            return self
        return TruncatedSeries(tuple(float(c) for c in self.coeffs), False)

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __repr__(self) -> str:
        kind = "rational" if self.rational else "float"
        return f"TruncatedSeries({list(self.coeffs)!r}, kind={kind})"


def _check_orders(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.truncation_order != b.truncation_order:
        raise ValueError(
            "truncation orders differ: "
            f"{a.truncation_order} vs {b.truncation_order}"
        )


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Coefficient-wise sum. Requires identical truncation order and kind."""
    _check_orders(a, b)
    if a.rational != b.rational:
        raise ValueError("cannot add series of different scalar kinds")
    return TruncatedSeries(
        tuple(x + y for x, y in zip(a.coeffs, b.coeffs)), a.rational
    )


def scale(a: TruncatedSeries, factor) -> TruncatedSeries:
    """Multiply every coefficient by a scalar."""
    kind = scalar_kind(*a.coeffs, factor)
    factor = kind(factor)
    return TruncatedSeries(
        tuple(factor * kind(c) for c in a.coeffs), kind is Fraction
    )


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order.

    Mixed scalar kinds are allowed and demote the result to floats.
    """
    _check_orders(a, b)
    if a.rational != b.rational:
        a, b = a.to_float(), b.to_float()
    length = len(a.coeffs)
    zero = Fraction(0) if a.rational else 0.0
    out = [zero] * length
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        for j in range(length - i):
            out[i + j] += ai * b.coeffs[j]
    return TruncatedSeries(tuple(out), a.rational)


def exp_scaled(factor, truncation_order: int) -> TruncatedSeries:
    """Expansion of exp(factor * z): coefficients factor^l / l!."""
    if truncation_order < 0:
        raise ValueError("truncation order must be nonnegative")
    kind = scalar_kind(factor)
    c = kind(factor)
    coeffs = tuple(
        c**l / math.factorial(l) for l in range(truncation_order + 1)
    )
    return TruncatedSeries(coeffs, kind is Fraction)


def power_recurrence(coeffs, alpha, out):
    """Extend out = [b_0], with b_0 = a_0^alpha, to the coefficients
    b_0..b_L of (a_0 + a_1 z + ... + a_L z^L)^alpha by the power
    recurrence derived from b' a = alpha b a' (b = a^alpha):

        m * b_m * a_0 = sum_{k=1}^{min(m, d)} (k*(alpha+1) - m) * a_k * b_{m-k}

    where d is the index of the last nonzero a_k, so a polynomial of
    degree d padded to L + 1 terms costs O(L d). The coefficients, alpha
    and b_0 share one scalar kind; out is any appendable sequence (a
    list, or an array('d') that stores floats unboxed). Returns out.
    """
    a0 = coeffs[0]
    degree = max(k for k, c in enumerate(coeffs) if k == 0 or c != 0)
    zero, alpha1 = type(out[0])(0), alpha + 1
    for m in range(1, len(coeffs)):
        acc = zero
        for k in range(1, min(m, degree) + 1):
            acc += (k * alpha1 - m) * coeffs[k] * out[m - k]
        out.append(acc / (m * a0))
    return out


def pow_real(a: TruncatedSeries, alpha) -> TruncatedSeries:
    """Raise a series with positive constant term to a real power by
    power_recurrence.

    The result stays rational when the inputs are rational and
    a_0^alpha is itself rational (integer alpha, or a_0 == 1); otherwise
    it falls back to floats.
    """
    a0 = a.coeffs[0]
    if not a0 > 0:
        raise ValueError(
            f"pow_real needs a positive constant term, got {a0}"
        )
    kind = scalar_kind(a0, alpha)  # a series has the kind of its coefficients
    if kind is Fraction:
        alpha = Fraction(alpha)
        if alpha.denominator == 1:
            b0 = a0 ** alpha.numerator
        elif a0 == 1:
            b0 = Fraction(1)
        else:
            kind = float
    coeffs = a.coeffs if kind is Fraction else a.to_float().coeffs
    alpha = kind(alpha)
    if kind is float:
        b0 = coeffs[0] ** alpha
    out = power_recurrence(coeffs, alpha, [b0])
    return TruncatedSeries(tuple(out), kind is Fraction)


def normalized_symbol(beta, shift, alpha, truncation_order: int) -> TruncatedSeries:
    """Expansion of G(z) = W(exp(-z)) * exp(shift*z) / z^alpha through z^L,
    where W(y) = (sum_k beta_k y^k)^alpha.

    The z^0 term of sum_k beta_k exp(-k z) equals sum_k beta_k, which must
    vanish; it is cancelled symbolically (never subtracted numerically),
    so no fractional power of z ever appears: the quotient by z^alpha is
    realized as [P(exp(-z))/z]^alpha.

    Coefficient l of the result is the error-expansion coefficient a_l(shift).
    """
    if truncation_order < 1:
        raise ValueError("truncation order must be at least 1")
    beta = tuple(beta)
    kind = scalar_kind(*beta, shift, alpha)
    betas = tuple(map(kind, beta))
    check_sum_zero(betas)
    # Coefficient l of P(exp(-z))/z, with the vanishing z^0 term dropped:
    # q_l = sum_k beta_k * (-k)^(l+1) / (l+1)!
    q = []
    for l in range(truncation_order + 1):
        fact = math.factorial(l + 1)
        acc = kind(0)
        for k, b in enumerate(betas):
            acc += b * (kind((-k) ** (l + 1)) / fact)
        q.append(acc)
    inner = TruncatedSeries(tuple(q), kind is Fraction)
    powered = pow_real(inner, kind(alpha))
    return mul(powered, exp_scaled(kind(shift), truncation_order))
