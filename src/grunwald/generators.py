"""Generating functions for Grunwald-type fractional-derivative weights.

A generator is a polynomial power W(z) = (beta_0 + beta_1 z + ... +
beta_p z^p)^alpha whose Taylor coefficients are the convolution weights
of a shifted difference approximation to the fractional derivative of
order alpha. The design order and the shift are encoded in the beta
coefficients; this module builds them three independent ways (closed-form
table, finite-difference weights, unshifted backward-difference family),
generates weight sequences, and verifies the achieved order from the
scaled symbol W(exp(-z)) exp(r z) / z^alpha = 1 + O(z^p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import series
from .series import InconsistentGeneratorError

__all__ = [
    "GeneratorSpec",
    "WeightSequence",
    "OrderReport",
    "InconsistentGeneratorError",
    "beta_table",
    "construct_beta",
    "lubich_generator",
    "grunwald_weights",
    "verify_order",
    "a2_coefficient",
    "convex_combination_check",
    "combination_leading_coefficient",
    "weight_sign_report",
]

MAX_ORDER = 6

# Extra terms kept past the design order when expanding the symbol, so
# the leading error coefficient and one successor are visible.
ORDER_MARGIN = 3

# Round-off allowance of each inequality in weight_sign_report.
SIGN_TOL = 1e-14

# Closed-form beta_k as polynomials in rho = shift/alpha; row k holds the
# coefficients of rho^0, rho^1, ... for beta_k. At rho = 0 each table row
# reduces to the unshifted backward-difference generator of the same order.
_BETA_POLYNOMIALS = {
    1: (("1",), ("-1",)),
    2: (("3/2", "-1"), ("-2", "2"), ("1/2", "-1")),
    3: (
        ("11/6", "-2", "1/2"),
        ("-3", "5", "-3/2"),
        ("3/2", "-4", "3/2"),
        ("-1/3", "1", "-1/2"),
    ),
    4: (
        ("25/12", "-35/12", "5/4", "-1/6"),
        ("-4", "26/3", "-9/2", "2/3"),
        ("3", "-19/2", "6", "-1"),
        ("-4/3", "14/3", "-7/2", "2/3"),
        ("1/4", "-11/12", "3/4", "-1/6"),
    ),
    5: (
        ("137/60", "-15/4", "17/8", "-1/2", "1/24"),
        ("-5", "77/6", "-71/8", "7/3", "-5/24"),
        ("5", "-107/6", "59/4", "-13/3", "5/12"),
        ("-10/3", "13", "-49/4", "4", "-5/12"),
        ("5/4", "-61/12", "41/8", "-11/6", "5/24"),
        ("-1/5", "5/6", "-7/8", "1/3", "-1/24"),
    ),
    6: (
        ("49/20", "-203/45", "49/16", "-35/36", "7/48", "-1/120"),
        ("-6", "87/5", "-29/2", "31/6", "-5/6", "1/20"),
        ("15/2", "-117/4", "461/16", "-137/12", "95/48", "-1/8"),
        ("-20/3", "254/9", "-31", "121/9", "-5/2", "1/6"),
        ("15/4", "-33/2", "307/16", "-107/12", "85/48", "-1/8"),
        ("-6/5", "27/5", "-13/2", "19/6", "-2/3", "1/20"),
        ("1/6", "-137/180", "15/16", "-17/36", "5/48", "-1/120"),
    ),
}

# Each row as integer numerators over the lcm of its denominators, the
# form beta_table evaluates for rational and float rho alike.
_BETA_INTEGER_ROWS = {
    order: tuple(series._over_lcm([Fraction(c) for c in row]) for row in rows)
    for order, rows in _BETA_POLYNOMIALS.items()}


@dataclass(frozen=True)
class GeneratorSpec:
    """Polynomial-power generating function (sum_k beta_k z^k)^alpha.

    alpha: fractional derivative order, finite (weight math takes any
        finite value; the solvers restrict it to (1, 2]).
    shift: index offset of the difference stencil, finite. Integer shifts
        land on grid points; real shifts are accepted for analysis only.
        dataclasses.replace(spec, shift=s) moves the same polynomial.
    beta: the p+1 polynomial coefficients; they must be finite and sum to
        zero (series.check_sum_zero), the first consistency condition of
        the resulting approximation. The second, q_0 = -sum_k k beta_k = 1,
        is decided by series.normalized_symbol before it expands, so the
        weights of a generator with q_0 != 1 stay available.
    """

    alpha: object
    shift: object
    beta: tuple

    def __post_init__(self):
        check_finite(self, "alpha", "shift")
        beta = tuple(self.beta)
        betas = tuple(map(series.scalar_kind(*beta), beta))
        object.__setattr__(self, "beta", betas)
        if len(betas) < 2:
            raise ValueError("a generator needs at least two coefficients")
        series.check_sum_zero(betas)

    @property
    def order(self) -> int:
        """Design order p (= polynomial degree)."""
        return len(self.beta) - 1


@dataclass(frozen=True)
class WeightSequence:
    """Convolution weights w_0..w_K of a generator, as float64.

    The values array is read-only; a sequence is safe to share.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    # perfbench's tracer counts the weight terms of a traced run by len()
    def __len__(self) -> int:
        return len(self.values)


def check_integer(value, what: str) -> int:
    """value as an int; ValueError naming `what` unless it is a Python or
    numpy integer (a bool is not one)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def check_finite(owner, *fields: str) -> None:
    """Refuse, by its name, a field of owner that is not a finite number."""
    for field in fields:
        value = getattr(owner, field)
        if not (isinstance(value, (int, Fraction)) or math.isfinite(value)):
            raise ValueError(f"{type(owner).__name__}.{field} must be "
                             f"finite, got {value!r}")


def _validate_order(order: int) -> None:
    check_integer(order, "design order")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(
            f"unsupported design order {order}; supported range is "
            f"1..{MAX_ORDER}"
        )


def beta_table(order: int, shift, alpha) -> GeneratorSpec:
    """Closed-form beta coefficients for the given order and shift.

    Evaluates the tabulated polynomials in rho = shift/alpha = u/v by one
    homogeneous Horner loop over their integer numerators: exact when
    shift and alpha are rational (u/v in lowest terms, in integers, with
    one Fraction per beta_k), in floats otherwise (u = rho, v = 1). At
    shift 0 the result coincides with lubich_generator(order, alpha).
    """
    _validate_order(order)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    kind = series.scalar_kind(shift, alpha)
    rho = kind(shift) / kind(alpha)
    u, v = (rho.numerator, rho.denominator) if kind is Fraction else (rho, 1)
    betas = []
    for nums, den in _BETA_INTEGER_ROWS[order]:
        acc, scale = nums[-1], 1
        for num in reversed(nums[:-1]):
            scale *= v
            acc = acc * u + num * scale
        betas.append(Fraction(acc, den * scale) if kind is Fraction
                     else acc / den)
    return GeneratorSpec(alpha=alpha, shift=shift, beta=tuple(betas))


def lubich_generator(order: int, alpha) -> GeneratorSpec:
    """Unshifted generator (sum_{j=1}^{p} (1/j) (1-z)^j)^alpha.

    The polynomial under the power is expanded exactly; the shift is 0.
    """
    _validate_order(order)
    # coefficient i of (1-z)^j is (-1)^i C(j, i)
    poly = [(-1) ** i * sum(Fraction(math.comb(j, i), j)
                            for j in range(1, order + 1))
            for i in range(order + 1)]
    return GeneratorSpec(alpha=alpha, shift=0, beta=tuple(poly))


def construct_beta(order: int, shift, alpha) -> GeneratorSpec:
    """Beta coefficients from the order conditions alone, as
    finite-difference weights (Fornberg, Math. Comp. 51, 1988).

    With rho = shift/alpha, order p asks sum_k beta_k (rho - k)^l / l! =
    delta_{l1} for l = 0..p, that is sum_k beta_k f(rho - k) = f'(0) for
    every polynomial f of degree <= p. So beta_k = L_k'(0) for the
    Lagrange basis on the nodes rho - k, and with rho = u/v

        beta_k = (-1)^k / (k! (p-k)! v^(p-1))
                 * sum_{i != k} prod_{j not in {i, k}} (j v - u).

    The nodes differ by integers, so the weights always exist. Exact (in
    integers) when shift and alpha are rational; floats use u = rho,
    v = 1. Independent of the closed-form table, so it is its oracle.
    """
    _validate_order(order)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    kind = series.scalar_kind(shift, alpha)
    rho = kind(shift) / kind(alpha)
    u, v = (rho.numerator, rho.denominator) if kind is Fraction else (rho, 1)
    factors = [j * v - u for j in range(order + 1)]
    betas = []
    for k in range(order + 1):
        total = sum(math.prod(f for j, f in enumerate(factors)
                              if j not in (i, k))
                    for i in range(order + 1) if i != k)
        den = ((-1) ** k * math.factorial(k) * math.factorial(order - k)
               * v ** (order - 1))
        betas.append(Fraction(total, den) if kind is Fraction
                     else total / den)
    return GeneratorSpec(alpha=alpha, shift=shift, beta=tuple(betas))


def grunwald_weights(generator: GeneratorSpec, count: int) -> WeightSequence:
    """First count+1 Taylor coefficients of the generator, as floats;
    ValueError, with no floating-point warning, when beta_0 <= 0 or a
    weight is not finite (naming the first). The float power recurrence
    (series.power_recurrence) with w_0 = beta_0^alpha:

        w_m = (1 / (m beta_0)) sum_{k=1}^{min(m,p)}
              (k (alpha + 1) - m) beta_k w_{m-k}

    For the two-term generator (1, -1) this reduces to the classical
    binomial recursion w_k = (1 - (alpha+1)/k) w_{k-1}.
    """
    if count < 0:
        raise ValueError("weight count must be nonnegative")
    betas = [float(b) for b in generator.beta]
    if not betas[0] > 0:
        raise ValueError("weight recurrence requires beta_0 > 0, got "
                         f"{betas[0]}")
    with np.errstate(all="ignore"):
        w = series.power_recurrence(betas, float(generator.alpha), count)
    if not np.isfinite(w).all():
        k = np.flatnonzero(~np.isfinite(w))[0]
        raise ValueError(f"weight {k} is {w[k]}: the weights overflow the "
                         "float range")
    return WeightSequence(values=w)


@dataclass(frozen=True)
class OrderReport:
    """Outcome of expanding a generator's scaled symbol.

    observed_order is the index of the first nonvanishing coefficient past
    the constant term; if nothing shows up inside the expansion window it
    is len(coefficients) (the true order exceeds the window).
    """

    observed_order: int
    leading_coeff: object
    passed: bool
    coefficients: tuple


def _order_report(coeffs: tuple, betas, expected_order: int) -> OrderReport:
    """Order report of the scaled symbol with coefficients coeffs of a
    generator with coefficients betas; the symbol starts at 1, which
    normalized_symbol has checked.

    Fraction coefficients are decided exactly. A float coefficient counts
    as zero within series.FLOAT_ZERO_TOL times the size of the generator
    terms that cancel in it: coefficient l of the symbol is built from
    those of P(exp(-z))/z of index <= l, so its size is the largest of 1
    and series.term_size(betas, j) for j <= l.
    """
    rational = isinstance(coeffs[0], Fraction)
    observed, leading = len(coeffs), Fraction(0) if rational else 0.0
    tol, size = 0, 1.0
    for l, c in enumerate(coeffs):
        if not rational:
            size = max(size, series.term_size(betas, l))
            tol = series.FLOAT_ZERO_TOL * size
        if l and not abs(c) <= tol:  # NaN counts as nonzero
            observed, leading = l, c
            break
    return OrderReport(
        observed_order=observed,
        leading_coeff=leading,
        passed=observed >= expected_order,
        coefficients=coeffs,
    )


def verify_order(generator: GeneratorSpec, expected_order: int) -> OrderReport:
    """Expand the scaled symbol and locate the first error coefficient.

    The expansion window is expected_order + 3 so the leading error term
    and a successor are both visible. A generator with q_0 != 1 is refused
    by normalized_symbol (InconsistentGeneratorError).
    """
    if expected_order < 1:
        raise ValueError("expected order must be at least 1")
    window = expected_order + ORDER_MARGIN
    symbol = series.normalized_symbol(generator, window)
    return _order_report(symbol, generator.beta, expected_order)


def a2_coefficient(shift, alpha):
    """Closed-form second error coefficient of the order-2 generator:
    -alpha/3 + shift - shift^2 / (2 alpha). Exact for rational inputs."""
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    kind = series.scalar_kind(shift, alpha)
    r, a = kind(shift), kind(alpha)
    return -a / 3 + r - r * r / (2 * a)


def combination_leading_coefficient(shift_a, shift_b, alpha):
    """Leading z^2 coefficient of the two-shift convex combination."""
    kind = series.scalar_kind(shift_a, shift_b, alpha)
    p, q, a = kind(shift_a), kind(shift_b), kind(alpha)
    return -a * a / 8 + a * p / 4 + a * q / 4 + a / 24 - p * q / 2


def convex_combination_check(shift_a, shift_b, alpha) -> OrderReport:
    """Order report for the classical two-shift combination of the
    first-order generator (1, -1):

        lambda_a = (alpha - 2 q) / (2 (p - q)),
        lambda_b = (2 p - alpha) / (2 (p - q)),

    which is designed to be second order for distinct shifts p, q.
    """
    if shift_a == shift_b:
        raise ValueError("combination shifts must differ")
    expected = 2
    window = expected + ORDER_MARGIN
    kind = series.scalar_kind(shift_a, shift_b, alpha)
    p, q, a = kind(shift_a), kind(shift_b), kind(alpha)
    lam_a = (a - 2 * q) / (2 * (p - q))
    lam_b = (2 * p - a) / (2 * (p - q))
    base = (kind(1), kind(-1))
    sym_a = series.normalized_symbol(
        GeneratorSpec(alpha=a, shift=p, beta=base), window)
    sym_b = series.normalized_symbol(
        GeneratorSpec(alpha=a, shift=q, beta=base), window)
    combined = tuple(lam_a * x + lam_b * y for x, y in zip(sym_a, sym_b))
    return _order_report(combined, base, expected)


def weight_sign_report(weights) -> tuple:
    """Violations of the sign pattern of the shifted order-2 weights on
    1 <= alpha <= 2, as messages; empty when the pattern holds. The pattern
    is w_0 >= 0, w_1 <= 0, w_0 + w_2 >= 0, w_m >= 0 for m >= 3, and all
    partial sums from index 2 onward nonpositive: exactly the conditions
    that make the operator matrix negative definite. Each message names
    the first entry that fails its inequality; a NaN fails every one."""
    w = np.asarray(weights, dtype=float)
    if len(w) < 3:
        raise ValueError("need at least w_0..w_2 to check the pattern")
    violations = []
    if not w[0] >= -SIGN_TOL:
        violations.append(f"w_0 = {w[0]:.3e} < 0")
    if not w[1] <= SIGN_TOL:
        violations.append(f"w_1 = {w[1]:.3e} > 0")
    if not w[0] + w[2] >= -SIGN_TOL:
        violations.append(f"w_0 + w_2 = {w[0] + w[2]:.3e} < 0")
    bad = np.flatnonzero(~(w[3:] >= -SIGN_TOL))
    if len(bad):
        first = bad[0] + 3
        violations.append(f"w_{first} = {w[first]:.3e} < 0")
    sums = np.cumsum(w)
    bad = np.flatnonzero(~(sums[2:] <= SIGN_TOL))
    if len(bad):
        first = bad[0] + 2
        violations.append(
            f"partial sum through {first} = {sums[first]:.3e} > 0"
        )
    return tuple(violations)
