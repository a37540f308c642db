"""Randomised exact identities of the generator and series arithmetic.

Rational fractional orders alpha in (0, 2], shifts 0..3 and design orders
1..6 are drawn at random; every identity below must hold exactly, with no
tolerance, because rational inputs keep the arithmetic in Fractions. The
float order check must reach the same verdict as the exact one.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from grunwald import (
    a2_coefficient,
    beta_table,
    combination_leading_coefficient,
    construct_beta,
    convex_combination_check,
    verify_order,
)
from grunwald.series import TruncatedSeries, pow_real

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


@SETTINGS
@given(tail=st.lists(
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    min_size=1, max_size=7,
))
def test_pow_real_cube_and_cube_root_round_trip(tail):
    series = TruncatedSeries.from_coefficients([1] + tail)
    cubed = pow_real(series, 3)
    assert cubed.rational
    back = pow_real(cubed, Fraction(1, 3))
    assert back.rational
    assert back.coeffs == series.coeffs
