"""The float power recurrence and the scaled-symbol expansion."""

import math
from fractions import Fraction

import numpy as np
import pytest

from grunwald import GeneratorSpec, InconsistentGeneratorError, beta_table
from grunwald.series import normalized_symbol, power_recurrence


def generalized_binomial(alpha, k):
    """(alpha choose k) by the falling-factorial formula; the independent
    oracle for real powers of (1 - z)."""
    num = 1.0
    for i in range(k):
        num *= alpha - i
    return num / math.factorial(k)


def longdouble_power(poly, alpha, count):
    """b_0..b_count of (sum_k a_k z^k)^alpha by the power recurrence, one
    np.longdouble operation at a time."""
    a = [np.longdouble(c) for c in poly]
    alpha = np.longdouble(alpha)
    b = [a[0] ** alpha]
    for m in range(1, count + 1):
        acc = np.longdouble(0)
        for k in range(1, min(m, len(a) - 1) + 1):
            acc += (k * (alpha + 1) - m) * a[k] * b[m - k]
        b.append(acc / (m * a[0]))
    return np.array(b)


class TestPowerRecurrence:
    def test_square_root_matches_binomial_oracle(self):
        # frozen from the oracle: (0.5 choose k)(-1)^k = 1, -0.5, -0.125
        got = power_recurrence((1.0, -1.0, 0.0), 0.5, 2).tolist()
        assert got == pytest.approx((1.0, -0.5, -0.125), abs=1e-15)
        longer = power_recurrence((1.0, -1.0), 0.5, 7).tolist()
        expected = [generalized_binomial(0.5, k) * (-1) ** k for k in range(8)]
        assert longer == pytest.approx(expected, rel=1e-14)

    def test_power_then_inverse_power(self):
        a = (1.7, 0.3, -0.2, 0.05)
        powered = power_recurrence(a, 1.5, 3)
        back = power_recurrence(powered, 1 / 1.5, 3)
        assert back.tolist() == pytest.approx(a, rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_long_order2_run_matches_longdouble(self, alpha):
        beta = [float(b) for b in beta_table(2, 1, alpha).beta]
        got = power_recurrence(beta, alpha, 50_000)
        want = longdouble_power(beta, alpha, 50_000)
        gap = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert gap <= 1e-15, f"relative gap {float(gap):.2e}"

    def test_shorter_call_is_a_prefix(self):
        # the weights of a coarser grid are a prefix of a finer grid's
        beta = [float(b) for b in beta_table(3, 1, 1.5).beta]
        longest = power_recurrence(beta, 1.5, 5000)
        for count in (0, 1, 2, 3, 16, 4999):
            shorter = power_recurrence(beta, 1.5, count)
            assert np.array_equal(shorter, longest[: count + 1]), count


def spec(beta, shift, alpha):
    return GeneratorSpec(alpha=alpha, shift=shift, beta=beta)


class TestNormalizedSymbol:
    def test_half_alpha_shift_is_second_order(self):
        # the alpha/2 shift pushes the first error term to z^2 with
        # coefficient alpha/24 (here 1/16); z^3 vanishes by symmetry
        sym = normalized_symbol(spec((1, -1), Fraction(3, 4), Fraction(3, 2)),
                                3)
        assert sym == (1, 0, Fraction(1, 16), 0)
        assert all(type(c) is Fraction for c in sym)

    def test_half_alpha_shift_against_numerical_limit(self):
        # independent oracle: evaluate the symbol at a small argument
        alpha, z = 1.5, 1e-3
        value = np.exp(alpha / 2 * z) * (1 - np.exp(-z)) ** alpha / z**alpha
        coeff = normalized_symbol(spec((1, -1), 0.75, alpha), 3)[2]
        assert (value - 1) / z**2 == pytest.approx(coeff, rel=1e-5)

    @pytest.mark.parametrize(
        "alpha", [Fraction(11, 10), Fraction(3, 2), Fraction(19, 10)]
    )
    def test_unshifted_leading_coefficient(self, alpha):
        sym = normalized_symbol(spec((1, -1), 0, alpha), 3)
        assert sym[0] == 1
        assert sym[1] == -alpha / 2

    def test_shifted_order2_coefficients(self):
        beta = (Fraction(5, 6), Fraction(-2, 3), Fraction(-1, 6))
        sym = normalized_symbol(spec(beta, 1, Fraction(3, 2)), 5)
        assert sym[0] == 1
        assert sym[1] == 0
        assert sym[2] == Fraction(1, 6)

    def test_nonzero_sum_rejected(self):
        # refused when the generator is built, before any expansion
        with pytest.raises(InconsistentGeneratorError, match="sum to zero"):
            normalized_symbol(spec((1, -2), 0, Fraction(3, 2)), 3)

    def test_float_mode_close_to_exact(self):
        exact = normalized_symbol(
            spec((Fraction(5, 6), Fraction(-2, 3), Fraction(-1, 6)),
                 1, Fraction(3, 2)), 5,
        )
        approx = normalized_symbol(spec((5 / 6, -2 / 3, -1 / 6), 1.0, 1.5),
                                   5)
        assert all(type(c) is float for c in approx)
        for e, f in zip(exact, approx):
            assert float(e) == pytest.approx(f, abs=1e-13)

    def test_nonpositive_constant_term_rejected(self):
        # q_0 = -sum_k k beta_k is 0 for (1, -2, 1) and -1 for (-1, 1)
        for beta, alpha in (((1, -2, 1), Fraction(1, 2)), ((-1, 1), 2),
                            ((-1.0, 1.0), 1.5)):
            with pytest.raises(InconsistentGeneratorError, match="q_0"):
                normalized_symbol(spec(beta, 0, alpha), 3)

    def test_rational_constant_term_other_than_one_rejected(self):
        # q_0 = 3 and a_0^alpha = 9 is rational, so the expansion could go
        # on in Fractions; the symbol would start at 9, not 1
        with pytest.raises(InconsistentGeneratorError, match="q_0 = .*3"):
            normalized_symbol(spec((2, -1, -1), 0, 2), 3)

    @pytest.mark.parametrize("excess, refused", [(5e-11, False),
                                                 (2e-10, True)])
    def test_float_constant_term_tolerance(self, excess, refused):
        # q_0 = 1 + excess against FLOAT_ZERO_TOL times
        # max(1, sum_k k |beta_k|) = 1 + excess
        generator = spec((1.0 + excess, -1.0 - excess), 0, 1.5)
        if refused:
            with pytest.raises(InconsistentGeneratorError, match="q_0"):
                normalized_symbol(generator, 3)
        else:
            assert normalized_symbol(generator, 3)[0] == pytest.approx(1.0)

    def test_window_must_reach_past_constant_term(self):
        with pytest.raises(ValueError, match="at least 1"):
            normalized_symbol(spec((1, -1), 0, Fraction(3, 2)), 0)
