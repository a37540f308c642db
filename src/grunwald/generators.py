"""Generating functions for Grunwald-type fractional-derivative weights.

A generator is a polynomial power W(z) = (beta_0 + beta_1 z + ... +
beta_p z^p)^alpha whose Taylor coefficients are the convolution weights
of a shifted difference approximation to the fractional derivative of
order alpha. The design order and the shift are encoded in the beta
coefficients; this module builds them three independent ways (closed-form
table, linear-system construction, unshifted backward-difference family),
generates weight sequences, and verifies the achieved order from the
scaled symbol W(exp(-z)) exp(r z) / z^alpha = 1 + O(z^p).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import series
from .series import InconsistentGeneratorError, TruncatedSeries

__all__ = [
    "GeneratorSpec",
    "WeightSequence",
    "OrderReport",
    "SignReport",
    "ConstructionError",
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


class ConstructionError(RuntimeError):
    """The linear system defining the beta coefficients is singular."""


def _frac(num, den=1) -> Fraction:
    return Fraction(num, den)


# Closed-form beta_k as polynomials in rho = shift/alpha; row k holds the
# coefficients of rho^0, rho^1, ... for beta_k. At rho = 0 each table row
# reduces to the unshifted backward-difference generator of the same order.
_BETA_POLYNOMIALS = {
    1: (
        (_frac(1),),
        (_frac(-1),),
    ),
    2: (
        (_frac(3, 2), _frac(-1)),
        (_frac(-2), _frac(2)),
        (_frac(1, 2), _frac(-1)),
    ),
    3: (
        (_frac(11, 6), _frac(-2), _frac(1, 2)),
        (_frac(-3), _frac(5), _frac(-3, 2)),
        (_frac(3, 2), _frac(-4), _frac(3, 2)),
        (_frac(-1, 3), _frac(1), _frac(-1, 2)),
    ),
    4: (
        (_frac(25, 12), _frac(-35, 12), _frac(5, 4), _frac(-1, 6)),
        (_frac(-4), _frac(26, 3), _frac(-9, 2), _frac(2, 3)),
        (_frac(3), _frac(-19, 2), _frac(6), _frac(-1)),
        (_frac(-4, 3), _frac(14, 3), _frac(-7, 2), _frac(2, 3)),
        (_frac(1, 4), _frac(-11, 12), _frac(3, 4), _frac(-1, 6)),
    ),
    5: (
        (_frac(137, 60), _frac(-15, 4), _frac(17, 8), _frac(-1, 2), _frac(1, 24)),
        (_frac(-5), _frac(77, 6), _frac(-71, 8), _frac(7, 3), _frac(-5, 24)),
        (_frac(5), _frac(-107, 6), _frac(59, 4), _frac(-13, 3), _frac(5, 12)),
        (_frac(-10, 3), _frac(13), _frac(-49, 4), _frac(4), _frac(-5, 12)),
        (_frac(5, 4), _frac(-61, 12), _frac(41, 8), _frac(-11, 6), _frac(5, 24)),
        (_frac(-1, 5), _frac(5, 6), _frac(-7, 8), _frac(1, 3), _frac(-1, 24)),
    ),
    6: (
        (_frac(49, 20), _frac(-203, 45), _frac(49, 16), _frac(-35, 36),
         _frac(7, 48), _frac(-1, 120)),
        (_frac(-6), _frac(87, 5), _frac(-29, 2), _frac(31, 6),
         _frac(-5, 6), _frac(1, 20)),
        (_frac(15, 2), _frac(-117, 4), _frac(461, 16), _frac(-137, 12),
         _frac(95, 48), _frac(-1, 8)),
        (_frac(-20, 3), _frac(254, 9), _frac(-31), _frac(121, 9),
         _frac(-5, 2), _frac(1, 6)),
        (_frac(15, 4), _frac(-33, 2), _frac(307, 16), _frac(-107, 12),
         _frac(85, 48), _frac(-1, 8)),
        (_frac(-6, 5), _frac(27, 5), _frac(-13, 2), _frac(19, 6),
         _frac(-2, 3), _frac(1, 20)),
        (_frac(1, 6), _frac(-137, 180), _frac(15, 16), _frac(-17, 36),
         _frac(5, 48), _frac(-1, 120)),
    ),
}


@dataclass(frozen=True)
class GeneratorSpec:
    """Polynomial-power generating function (sum_k beta_k z^k)^alpha.

    alpha: fractional derivative order (any positive real for weight math;
        solvers additionally restrict it).
    shift: index offset of the difference stencil. Integer shifts land on
        grid points; real shifts are accepted for analysis only.
    beta: the p+1 polynomial coefficients; they must sum to zero, which is
        the consistency requirement for the resulting approximation.
    """

    alpha: object
    shift: object
    beta: tuple

    def __post_init__(self):
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

    def with_shift(self, shift) -> "GeneratorSpec":
        """Same polynomial, different stencil offset (analysis helper)."""
        return GeneratorSpec(alpha=self.alpha, shift=shift, beta=self.beta)


@dataclass(frozen=True)
class WeightSequence:
    """Convolution weights w_0..w_K of a generator, as float64.

    The values array is read-only; a sequence is safe to share.
    """

    values: np.ndarray
    alpha: float
    shift: object
    source: Optional[GeneratorSpec] = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index):
        return self.values[index]

    def partial_sums(self) -> np.ndarray:
        return np.cumsum(self.values)


def _validate_order(order: int) -> None:
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ValueError(f"design order must be an integer, got {order!r}")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(
            f"unsupported design order {order}; supported range is "
            f"1..{MAX_ORDER}"
        )


def beta_table(order: int, shift, alpha) -> GeneratorSpec:
    """Closed-form beta coefficients for the given order and shift.

    Evaluates the tabulated polynomials in rho = shift/alpha. Exact when
    shift and alpha are rational. At shift 0 the result coincides with
    lubich_generator(order, alpha).
    """
    _validate_order(order)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    kind = series.scalar_kind(shift, alpha)
    rho = kind(shift) / kind(alpha)
    betas = []
    for row in _BETA_POLYNOMIALS[order]:
        acc = row[-1]
        for coeff in reversed(row[:-1]):
            acc = acc * rho + coeff
        betas.append(acc)
    return GeneratorSpec(alpha=alpha, shift=shift, beta=tuple(betas))


def lubich_generator(order: int, alpha) -> GeneratorSpec:
    """Unshifted generator (sum_{j=1}^{p} (1/j) (1-z)^j)^alpha.

    The polynomial under the power is expanded exactly; the shift is 0.
    """
    _validate_order(order)
    poly = [Fraction(0)] * (order + 1)
    binom_row = [Fraction(1)]  # coefficients of (1-z)^j, built incrementally
    for j in range(1, order + 1):
        nxt = [Fraction(0)] * (j + 1)
        for i, c in enumerate(binom_row):
            nxt[i] += c
            nxt[i + 1] -= c
        binom_row = nxt
        inv_j = Fraction(1, j)
        for i, c in enumerate(binom_row):
            poly[i] += inv_j * c
    return GeneratorSpec(alpha=alpha, shift=0, beta=tuple(poly))


def construct_beta(order: int, shift, alpha) -> GeneratorSpec:
    """Solve for the beta coefficients from the order conditions.

    Raising the target expansion to power 1/alpha turns the order
    conditions into a linear system: with rho = shift/alpha, the series
    sum_k beta_k exp((rho - k) z) / z must start at 1 with the next
    order-1 coefficients vanishing, and the betas must sum to zero.
    The columns of the system are read off exp((rho - k) z) expansions,
    so this construction is independent of the closed-form table and
    serves as its oracle.
    """
    _validate_order(order)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    kind = series.scalar_kind(shift, alpha)
    rho = kind(shift) / kind(alpha)
    columns = [
        series.exp_scaled(rho - k, order).coeffs for k in range(order + 1)
    ]
    matrix = [
        [columns[k][l] for k in range(order + 1)] for l in range(order + 1)
    ]
    rhs = [kind(0)] * (order + 1)
    rhs[1] = kind(1)
    try:
        solution = _solve_linear(matrix, rhs, kind is Fraction)
    except ConstructionError:
        raise ConstructionError(
            f"beta construction failed for order={order}, shift={shift}, "
            f"alpha={alpha}: singular order-condition system"
        ) from None
    return GeneratorSpec(alpha=alpha, shift=shift, beta=tuple(solution))


def _solve_linear(matrix, rhs, exact: bool):
    """Dense solve, exact Gaussian elimination for rationals."""
    if not exact:
        a = np.array(matrix, dtype=float)
        b = np.array(rhs, dtype=float)
        if not np.all(np.isfinite(a)):
            raise ConstructionError("non-finite system")
        if np.linalg.cond(a) > 1e14:
            raise ConstructionError("ill-conditioned system")
        return list(np.linalg.solve(a, b))
    n = len(rhs)
    a = [list(row) for row in matrix]
    b = list(rhs)
    for col in range(n):
        pivot = next(
            (r for r in range(col, n) if a[r][col] != 0), None
        )
        if pivot is None:
            raise ConstructionError("singular system")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        inv = Fraction(1) / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor == 0:
                continue
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
            b[r] -= factor * b[col]
    out = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, n):
            acc -= a[r][c] * out[c]
        out[r] = acc / a[r][r]
    return out


def grunwald_weights(generator: GeneratorSpec, count: int) -> WeightSequence:
    """First count+1 Taylor coefficients of the generator, as floats.

    The float power recurrence (series.power_recurrence) with
    w_0 = beta_0^alpha:

        w_m = (1 / (m beta_0)) sum_{k=1}^{min(m,p)}
              (k (alpha + 1) - m) beta_k w_{m-k}

    For the two-term generator (1, -1) this reduces to the classical
    binomial recursion w_k = (1 - (alpha+1)/k) w_{k-1}.
    """
    if count < 0:
        raise ValueError("weight count must be nonnegative")
    betas = tuple(float(b) for b in generator.beta[: count + 1])
    if not betas[0] > 0:
        raise ValueError(
            f"weight recurrence requires beta_0 > 0, got {betas[0]}"
        )
    padded = betas + (0.0,) * (count + 1 - len(betas))
    alpha = float(generator.alpha)
    # unboxed doubles: count may be large, and boxed floats keep their
    # memory after they are freed
    w = series.power_recurrence(padded, alpha, array("d", [betas[0] ** alpha]))
    return WeightSequence(
        values=np.frombuffer(w), alpha=alpha, shift=generator.shift,
        source=generator,
    )


@dataclass(frozen=True)
class OrderReport:
    """Outcome of expanding a generator's scaled symbol.

    observed_order is the index of the first nonvanishing coefficient past
    the constant term; if nothing shows up inside the expansion window it
    is truncation_order + 1 (the true order exceeds the window).
    """

    observed_order: int
    leading_coeff: object
    expected_order: int
    passed: bool
    coefficients: tuple
    truncation_order: int


def _first_nonzero(symbol: TruncatedSeries, betas) -> tuple[int, object]:
    """Index and value of the first nonzero coefficient past the constant
    term: exactly for rationals; for floats, above FLOAT_ZERO_TOL times
    the size of the generator terms that cancel in each coefficient."""
    tol = 0
    if not symbol.rational:
        tol = series.FLOAT_ZERO_TOL * max(1.0, *(abs(float(b)) for b in betas))
    for l in range(1, symbol.truncation_order + 1):
        if not abs(symbol.coeffs[l]) <= tol:  # NaN counts as nonzero
            return l, symbol.coeffs[l]
    zero = Fraction(0) if symbol.rational else 0.0
    return symbol.truncation_order + 1, zero


def _report_from_symbol(symbol: TruncatedSeries, betas,
                        expected_order: int) -> OrderReport:
    a0 = symbol.coeffs[0]
    if symbol.rational:
        consistent = a0 == 1
    else:
        consistent = abs(float(a0) - 1.0) <= series.FLOAT_ZERO_TOL
    if not consistent:
        raise InconsistentGeneratorError(
            f"scaled symbol starts at {a0}, not 1; the generator is not a "
            "consistent approximation"
        )
    observed, leading = _first_nonzero(symbol, betas)
    return OrderReport(
        observed_order=observed,
        leading_coeff=leading,
        expected_order=expected_order,
        passed=observed >= expected_order,
        coefficients=symbol.coeffs,
        truncation_order=symbol.truncation_order,
    )


def verify_order(generator: GeneratorSpec, expected_order: int) -> OrderReport:
    """Expand the scaled symbol and locate the first error coefficient.

    The expansion window is expected_order + 3 so the leading error term
    and a successor are both visible.
    """
    if expected_order < 1:
        raise ValueError("expected order must be at least 1")
    window = expected_order + ORDER_MARGIN
    symbol = series.normalized_symbol(
        generator.beta, generator.shift, generator.alpha, window
    )
    return _report_from_symbol(symbol, generator.beta, expected_order)


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
    sym_a = series.normalized_symbol(base, p, a, window)
    sym_b = series.normalized_symbol(base, q, a, window)
    combined = series.add(series.scale(sym_a, lam_a), series.scale(sym_b, lam_b))
    return _report_from_symbol(combined, base, expected)


@dataclass(frozen=True)
class SignReport:
    """Sign-pattern check for the weights of the shifted order-2 generator
    on 1 <= alpha <= 2: w_0 >= 0, w_1 <= 0, w_0 + w_2 >= 0, w_m >= 0 for
    m >= 3, and all partial sums from index 2 onward nonpositive. These
    are exactly the conditions that make the operator matrix negative
    definite."""

    w0_nonnegative: bool
    w1_nonpositive: bool
    w0_plus_w2_nonnegative: bool
    tail_nonnegative: bool
    partial_sums_nonpositive: bool
    violations: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


def weight_sign_report(weights) -> SignReport:
    """Evaluate the order-2 shifted sign pattern on a weight array."""
    w = np.asarray(weights, dtype=float)
    if len(w) < 3:
        raise ValueError("need at least w_0..w_2 to check the pattern")
    violations = []
    w0_ok = w[0] >= -SIGN_TOL
    if not w0_ok:
        violations.append(f"w_0 = {w[0]:.3e} < 0")
    w1_ok = w[1] <= SIGN_TOL
    if not w1_ok:
        violations.append(f"w_1 = {w[1]:.3e} > 0")
    w02_ok = w[0] + w[2] >= -SIGN_TOL
    if not w02_ok:
        violations.append(f"w_0 + w_2 = {w[0] + w[2]:.3e} < 0")
    tail = w[3:]
    tail_ok = bool(np.all(tail >= -SIGN_TOL)) if len(tail) else True
    if not tail_ok:
        first_bad = int(np.argmax(tail < -SIGN_TOL)) + 3
        violations.append(f"w_{first_bad} = {w[first_bad]:.3e} < 0")
    sums = np.cumsum(w)
    sums_ok = bool(np.all(sums[2:] <= SIGN_TOL)) if len(sums) > 2 else True
    if not sums_ok:
        first_bad = int(np.argmax(sums[2:] > SIGN_TOL)) + 2
        violations.append(
            f"partial sum through {first_bad} = {sums[first_bad]:.3e} > 0"
        )
    return SignReport(
        w0_nonnegative=w0_ok,
        w1_nonpositive=w1_ok,
        w0_plus_w2_nonnegative=w02_ok,
        tail_nonnegative=tail_ok,
        partial_sums_nonpositive=sums_ok,
        violations=tuple(violations),
    )
