"""The float power recurrence and the scaled-symbol expansion."""

import math
from fractions import Fraction

import numpy as np
import pytest

from grunwald import InconsistentGeneratorError
from grunwald.series import normalized_symbol, power_recurrence


def generalized_binomial(alpha, k):
    """(alpha choose k) by the falling-factorial formula; the independent
    oracle for real powers of (1 - z)."""
    num = 1.0
    for i in range(k):
        num *= alpha - i
    return num / math.factorial(k)


class TestPowerRecurrence:
    def test_square_root_matches_binomial_oracle(self):
        # frozen from the oracle: (0.5 choose k)(-1)^k = 1, -0.5, -0.125
        got = power_recurrence((1.0, -1.0, 0.0), 0.5, [1.0])
        assert got == pytest.approx((1.0, -0.5, -0.125), abs=1e-15)
        longer = power_recurrence((1.0, -1.0) + (0.0,) * 6, 0.5, [1.0])
        expected = [generalized_binomial(0.5, k) * (-1) ** k for k in range(8)]
        assert longer == pytest.approx(expected, rel=1e-14)

    def test_power_then_inverse_power(self):
        a = (1.7, 0.3, -0.2, 0.05)
        powered = power_recurrence(a, 1.5, [a[0] ** 1.5])
        back = power_recurrence(powered, 1 / 1.5, [powered[0] ** (1 / 1.5)])
        assert back == pytest.approx(a, rel=1e-12)


class TestNormalizedSymbol:
    def test_half_alpha_shift_is_second_order(self):
        # the alpha/2 shift pushes the first error term to z^2 with
        # coefficient alpha/24 (here 1/16); z^3 vanishes by symmetry
        sym = normalized_symbol((1, -1), Fraction(3, 4), Fraction(3, 2), 3)
        assert sym.coeffs == (1, 0, Fraction(1, 16), 0)

    def test_half_alpha_shift_against_numerical_limit(self):
        # independent oracle: evaluate the symbol at a small argument
        alpha, z = 1.5, 1e-3
        value = np.exp(alpha / 2 * z) * (1 - np.exp(-z)) ** alpha / z**alpha
        coeff = normalized_symbol((1, -1), 0.75, alpha, 3)[2]
        assert (value - 1) / z**2 == pytest.approx(coeff, rel=1e-5)

    @pytest.mark.parametrize(
        "alpha", [Fraction(11, 10), Fraction(3, 2), Fraction(19, 10)]
    )
    def test_unshifted_leading_coefficient(self, alpha):
        sym = normalized_symbol((1, -1), 0, alpha, 3)
        assert sym.coeffs[0] == 1
        assert sym.coeffs[1] == -alpha / 2

    def test_shifted_order2_coefficients(self):
        beta = (Fraction(5, 6), Fraction(-2, 3), Fraction(-1, 6))
        sym = normalized_symbol(beta, 1, Fraction(3, 2), 5)
        assert sym.coeffs[0] == 1
        assert sym.coeffs[1] == 0
        assert sym.coeffs[2] == Fraction(1, 6)

    def test_nonzero_sum_rejected(self):
        with pytest.raises(InconsistentGeneratorError, match="sum to zero"):
            normalized_symbol((1, -2), 0, Fraction(3, 2), 3)

    def test_float_mode_close_to_exact(self):
        exact = normalized_symbol(
            (Fraction(5, 6), Fraction(-2, 3), Fraction(-1, 6)),
            1, Fraction(3, 2), 5,
        )
        approx = normalized_symbol((5 / 6, -2 / 3, -1 / 6), 1.0, 1.5, 5)
        assert not approx.rational
        for e, f in zip(exact.coeffs, approx.coeffs):
            assert float(e) == pytest.approx(f, abs=1e-13)

    def test_nonpositive_constant_term_rejected(self):
        # q_0 = -sum_k k beta_k is 0 for (1, -2, 1) and -1 for (-1, 1)
        for beta, alpha in (((1, -2, 1), Fraction(1, 2)), ((-1, 1), 2),
                            ((-1.0, 1.0), 1.5)):
            with pytest.raises(ValueError, match="positive constant term"):
                normalized_symbol(beta, 0, alpha, 3)

    def test_window_must_reach_past_constant_term(self):
        with pytest.raises(ValueError, match="at least 1"):
            normalized_symbol((1, -1), 0, Fraction(3, 2), 0)
