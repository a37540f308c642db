"""Randomised exact identities of the generators and the scaled symbol.

Rational fractional orders alpha in (0, 2], shifts 0..3 and design orders
1..6 are drawn at random; every identity below must hold exactly, with no
tolerance, because rational inputs keep the arithmetic in Fractions. The
float order check must reach the same verdict as the exact one.

The exact symbol is computed in integers over one denominator; a plain
Fraction version of the same expansion, one operation at a time, is
written out below as its reference, and the float symbol must match the
same expansion done in floats, with the power as its band system solved
by BLAS dtbsv, bit for bit. The log form of the symbol
certifies each table order for every shift and alpha at once.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg.blas import dtbsv

from grunwald import (
    GeneratorSpec,
    a2_coefficient,
    beta_table,
    combination_leading_coefficient,
    construct_beta,
    convex_combination_check,
    verify_order,
)
from grunwald.series import normalized_symbol

SETTINGS = settings(max_examples=100, deadline=None, database=None)

alphas = st.builds(
    Fraction, st.integers(1, 40), st.integers(1, 20)
).filter(lambda a: a <= 2)
shifts = st.integers(0, 3)
orders = st.integers(1, 6)


@SETTINGS
@given(order=orders, shift=shifts, alpha=alphas)
def test_table_equals_construction(order, shift, alpha):
    assert (beta_table(order, shift, alpha).beta
            == construct_beta(order, shift, alpha).beta)


@SETTINGS
@given(order=orders, shift=shifts, alpha=alphas)
def test_exact_order_meets_design_order(order, shift, alpha):
    report = verify_order(beta_table(order, shift, alpha), order)
    assert report.observed_order >= order
    assert report.passed


@SETTINGS
@given(order=orders, shift=shifts, alpha=alphas)
def test_float_order_verdict_matches_exact(order, shift, alpha):
    exact = verify_order(beta_table(order, shift, alpha), order)
    floating = verify_order(beta_table(order, shift, float(alpha)), order)
    assert floating.observed_order == exact.observed_order
    assert floating.passed == exact.passed


@SETTINGS
@given(shift=shifts, alpha=alphas)
def test_a2_is_the_order2_symbol_coefficient(shift, alpha):
    report = verify_order(beta_table(2, shift, alpha), 2)
    assert report.coefficients[2] == a2_coefficient(shift, alpha)


@SETTINGS
@given(shift_a=shifts, shift_b=shifts, alpha=alphas)
def test_combination_leading_coefficient_is_its_symbol(shift_a, shift_b,
                                                       alpha):
    if shift_a == shift_b:
        shift_b = shift_a + 1
    report = convex_combination_check(shift_a, shift_b, alpha)
    assert (report.coefficients[2]
            == combination_leading_coefficient(shift_a, shift_b, alpha))


# every reduced alpha = n/d in (0, 2] with d <= 20: 256 values
SMALL_DENOMINATOR_ALPHAS = sorted({Fraction(n, d) for d in range(1, 21)
                                   for n in range(1, 2 * d + 1)})


@pytest.mark.parametrize("order", range(1, 7))
def test_every_small_denominator_alpha(order):
    assert len(SMALL_DENOMINATOR_ALPHAS) == 256
    for shift in range(4):
        for alpha in SMALL_DENOMINATOR_ALPHAS:
            table = beta_table(order, shift, alpha)
            case = (order, shift, alpha)
            exact = verify_order(table, order)
            assert exact.passed, case
            assert all(isinstance(c, Fraction)
                       for c in exact.coefficients), case
            floating = verify_order(beta_table(order, shift, float(alpha)),
                                    order)
            assert floating.observed_order == exact.observed_order, case
            assert construct_beta(order, shift, alpha).beta == table.beta, case


def reference_power(coeffs, alpha, b0):
    """Fractions of (sum_k a_k z^k)^alpha by the power recurrence
    m b_m a_0 = sum_k (k (alpha + 1) - m) a_k b_{m-k}, one scalar
    operation at a time, up to the last nonzero a_k."""
    degree = max(k for k, c in enumerate(coeffs) if k == 0 or c != 0)
    out = [b0]
    for m in range(1, len(coeffs)):
        acc = Fraction(0)
        for k in range(1, min(m, degree) + 1):
            acc += (k * (alpha + 1) - m) * coeffs[k] * out[m - k]
        out.append(acc / (m * coeffs[0]))
    return out


def reference_float_power(coeffs, alpha, b0):
    """Floats of the same recurrence as the lower triangular band system
    b_0 = b0, m a_0 b_m + sum_k (m - k - k alpha) a_k b_{m-k} = 0, built
    entry by entry (entry (j + k, j) at [k, j]) and solved by dtbsv."""
    degree = max(k for k, c in enumerate(coeffs) if k == 0 or c != 0)
    band = np.zeros((degree + 1, len(coeffs)), order="F")
    for j in range(len(coeffs)):
        band[0, j] = j * coeffs[0] if j else 1.0
        for k in range(1, degree + 1):
            band[k, j] = (j - k * alpha) * coeffs[k]
    rhs = np.zeros(len(coeffs))
    rhs[0] = b0
    return dtbsv(degree, band, rhs, lower=1).tolist()


def reference_q(beta, window):
    """q_0..q_window of P(exp(-z))/z, exactly:
    q_l = sum_k beta_k (-k)^(l+1) / (l+1)!."""
    return [sum(b * Fraction((-k) ** (l + 1), math.factorial(l + 1))
                for k, b in enumerate(beta)) for l in range(window + 1)]


def reference_symbol(beta, shift, alpha, window):
    """W(exp(-z)) exp(shift z) / z^alpha through z^window for a generator
    with q_0 = 1: the power of q(z) times the exp(shift z) series, in
    Fractions. Float inputs sum q_l term by term in floats."""
    if isinstance(alpha, float):
        q = []
        for l in range(window + 1):
            acc = 0.0
            for k, b in enumerate(beta):
                acc += b * (float((-k) ** (l + 1)) / math.factorial(l + 1))
            q.append(acc)
        powered = reference_float_power(q, alpha, q[0] ** alpha)
    else:
        powered = reference_power(reference_q(beta, window), alpha,
                                  Fraction(1))
    kind = type(powered[0])
    exp = [kind(shift ** l / math.factorial(l)) for l in range(window + 1)]
    out = [kind(0)] * (window + 1)
    for i, b in enumerate(powered):
        if b == 0:
            continue
        for j in range(window + 1 - i):
            out[i + j] += b * exp[j]
    return out


def assert_same(got, want):
    """Equal Fractions, or bit-identical floats."""
    if isinstance(want[0], Fraction):
        assert all(type(c) is Fraction for c in got) and got == tuple(want)
    else:
        assert all(type(c) is float for c in got)
        assert [c.hex() for c in got] == [c.hex() for c in want]


rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
any_alphas = st.one_of(
    st.builds(Fraction, st.integers(-3, 4)),
    st.builds(Fraction, st.integers(-40, 40), st.integers(2, 20)),
)


@SETTINGS
@given(tail=st.lists(rationals, min_size=1, max_size=6), shift=rationals,
       alpha=any_alphas, window=st.integers(1, 9), floats=st.booleans())
def test_symbol_matches_fraction_reference(tail, shift, alpha, window,
                                           floats):
    # beta sums to zero, and is scaled so that q_0 = 1
    beta = [-sum(tail)] + tail
    q0 = -sum(k * b for k, b in enumerate(beta))
    assume(q0 != 0)
    beta = [b / q0 for b in beta]
    if floats:
        beta = [float(b) for b in beta]
        shift, alpha = float(shift), float(alpha)
    generator = GeneratorSpec(alpha=alpha, shift=shift, beta=tuple(beta))
    assert_same(normalized_symbol(generator, window),
                reference_symbol(beta, shift, alpha, window))


def log_symbol(beta, rho, window):
    """l_0..l_window of log q(z) + rho z for a generator with q_0 = 1, by
    the log recurrence m q_m = sum_{k=1}^{m} k l_k q_{m-k} of q' = q l'."""
    q = reference_q(beta, window)
    assert q[0] == 1
    ell = [Fraction(0)]
    for m in range(1, window + 1):
        ell.append(q[m] - Fraction(sum(k * ell[k] * q[m - k]
                                       for k in range(1, m)), m))
    ell[1] += rho
    return ell


def lagrange(xs, ys, x):
    """The polynomial through the points (xs, ys), evaluated at x."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        for j, xj in enumerate(xs):
            if j != i:
                yi = yi * (x - xj) / (xi - xj)
        total += yi
    return total


@pytest.mark.parametrize("order", range(1, 7))
def test_order_holds_for_every_shift_and_alpha(order):
    # The table symbol is exp(alpha (log q(z) + rho z)) with rho =
    # shift/alpha, and beta_k is a polynomial of degree <= p-1 in rho, so
    # coefficient l of log q(z) + rho z is one of degree <= max(1, l(p-1)).
    # Coefficients 1..p-1 vanishing at (p-1)^2 + 1 distinct rho proves
    # order >= p for every alpha and shift; coefficient p, interpolated and
    # times alpha, is the leading error coefficient.
    p = order
    n_low, n_lead = (p - 1) ** 2 + 1, max(1, p * (p - 1)) + 1
    rhos = [Fraction(j, 3) for j in range(max(n_low, n_lead) + 1)]
    ells = [log_symbol(beta_table(p, rho, 1).beta, rho, p) for rho in rhos]
    for ell in ells[:n_low]:
        assert ell[1:p] == [0] * (p - 1)
    xs, ys = rhos[:n_lead], [ell[p] for ell in ells[:n_lead]]
    assert lagrange(xs, ys, rhos[n_lead]) == ells[n_lead][p]
    for shift, alpha in ((0, Fraction(1, 2)), (1, Fraction(3, 2)),
                         (3, Fraction(7, 5))):
        report = verify_order(beta_table(p, shift, alpha), p)
        assert report.coefficients[p] == alpha * lagrange(xs, ys,
                                                          shift / alpha)
