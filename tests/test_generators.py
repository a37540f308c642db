"""Generator families, weight sequences and order verification."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from grunwald import (
    GeneratorSpec,
    InconsistentGeneratorError,
    a2_coefficient,
    beta_table,
    combination_leading_coefficient,
    construct_beta,
    convex_combination_check,
    grunwald_weights,
    lubich_generator,
    verify_order,
    weight_sign_report,
)

EXACT_ALPHAS = (Fraction(11, 10), Fraction(3, 2), Fraction(19, 10), Fraction(2))


def order2_weights(replaced):
    """Shifted order-2 weights w_0..w_50 at alpha = 1.5, with the entries
    in replaced (index: value) overwritten."""
    w = grunwald_weights(beta_table(2, 1, 1.5), 50).values.copy()
    for k, value in replaced.items():
        w[k] = value
    return w


def binomial_expansion_weights(beta, alpha, count):
    """Oracle for weight generation: write the polynomial as
    beta_0 (1 + u) with u = (beta_1 z + ... )/beta_0, expand (1+u)^alpha
    termwise by generalized binomial coefficients, and collect powers."""
    beta = [float(b) for b in beta]
    u = np.zeros(count + 1)
    take = min(len(beta) - 1, count)
    u[1:1 + take] = np.array(beta[1:1 + take]) / beta[0]
    out = np.zeros(count + 1)
    term = np.zeros(count + 1)
    term[0] = 1.0
    coeff = 1.0
    for j in range(count + 1):
        if j > 0:
            coeff *= (alpha - (j - 1)) / j
            full = np.convolve(term, u)[: count + 1]
            term = full
        out += coeff * term
    return beta[0] ** alpha * out


class TestBetaTable:
    def test_order2_shift1(self):
        spec = beta_table(2, 1, Fraction(3, 2))
        assert spec.beta == (Fraction(5, 6), Fraction(-2, 3), Fraction(-1, 6))

    def test_order2_no_shift(self):
        for alpha in EXACT_ALPHAS:
            assert beta_table(2, 0, alpha).beta == (
                Fraction(3, 2), Fraction(-2), Fraction(1, 2)
            )

    def test_order1_shift_free(self):
        for shift in (0, 1, 2):
            assert beta_table(1, shift, Fraction(3, 2)).beta == (1, -1)

    def test_order2_alpha_two(self):
        assert beta_table(2, 1, 2).beta == (1, -1, 0)

    def test_reduces_to_unshifted_family_at_zero_shift(self):
        for order in range(1, 7):
            for alpha in EXACT_ALPHAS:
                assert (
                    beta_table(order, 0, alpha).beta
                    == lubich_generator(order, alpha).beta
                )

    def test_unsupported_order(self):
        with pytest.raises(ValueError, match="unsupported"):
            beta_table(7, 1, 1.5)
        with pytest.raises(ValueError, match="unsupported"):
            beta_table(0, 1, 1.5)

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            beta_table(2, 1, 0)


class TestLubichGenerator:
    def test_first_orders(self):
        assert lubich_generator(1, 1.5).beta == (1, -1)
        assert lubich_generator(2, 1.5).beta == (
            Fraction(3, 2), Fraction(-2), Fraction(1, 2)
        )

    def test_order_six(self):
        assert lubich_generator(6, 1.5).beta == (
            Fraction(49, 20), Fraction(-6), Fraction(15, 2),
            Fraction(-20, 3), Fraction(15, 4), Fraction(-6, 5),
            Fraction(1, 6),
        )

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="unsupported"):
            lubich_generator(7, 1.5)


class TestConstructBeta:
    def test_hand_solved_three_by_three(self):
        # conditions with rho = 2/3: sum beta = 0,
        # (2/3) b0 - (1/3) b1 - (4/3) b2 = 1, (2/3)^2 b0 + ... = 0
        spec = construct_beta(2, 1, Fraction(3, 2))
        assert spec.beta == (Fraction(5, 6), Fraction(-2, 3), Fraction(-1, 6))

    def test_unique_first_order_generator(self):
        assert construct_beta(1, 0, 1.3).beta == pytest.approx((1.0, -1.0))

    def test_order3_alpha_two(self):
        # hand evaluation of the closed forms at rho = 1/2
        spec = construct_beta(3, 1, 2)
        assert spec.beta == (
            Fraction(23, 24), Fraction(-7, 8), Fraction(-1, 8), Fraction(1, 24)
        )

    @pytest.mark.parametrize("order", range(1, 7))
    @pytest.mark.parametrize("shift", (0, 1, 2))
    def test_matches_table_exactly(self, order, shift):
        for alpha in EXACT_ALPHAS:
            built = construct_beta(order, shift, alpha)
            table = beta_table(order, shift, alpha)
            assert built.beta == table.beta

    def test_float_inputs_match_table(self):
        built = construct_beta(4, 1, 1.7)
        table = beta_table(4, 1, 1.7)
        assert built.beta == pytest.approx(table.beta, rel=1e-10)

    def test_float_construction_accuracy(self):
        # p = 1..6, r = 0..3, alpha = k/100 for k = 20..200, against the
        # exact table rounded once
        worst = 0.0
        for order in range(1, 7):
            for shift in range(4):
                for k in range(20, 201):
                    alpha = Fraction(k, 100)
                    exact = [float(b) for b in
                             beta_table(order, shift, alpha).beta]
                    built = construct_beta(order, shift, float(alpha)).beta
                    error = max(abs(b - e) for b, e in zip(built, exact))
                    worst = max(worst, error / max(map(abs, exact)))
        assert worst <= 1e-13

    def test_non_finite_float_result_rejected(self):
        # shift/alpha overflows in both constructions, and the generator
        # they build refuses it by naming the coefficients
        messages = []
        for build in (construct_beta, beta_table):
            with pytest.raises(InconsistentGeneratorError, match=(
                    "non-finite generator coefficients beta_0 = ")) as caught:
                build(3, 1, 1e-320)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("alpha", [0, 0.0])
    def test_zero_alpha_rejected(self, alpha):
        # rho = shift / alpha has no value
        with pytest.raises(ValueError, match="^alpha must be nonzero$"):
            construct_beta(2, 1, alpha)


class TestGrunwaldWeights:
    def test_first_order_alpha_one(self):
        spec = GeneratorSpec(alpha=1, shift=0, beta=(1, -1))
        assert grunwald_weights(spec, 3).values == pytest.approx(
            (1.0, -1.0, 0.0, 0.0)
        )

    def test_first_order_alpha_two(self):
        spec = GeneratorSpec(alpha=2, shift=0, beta=(1, -1))
        assert grunwald_weights(spec, 3).values == pytest.approx(
            (1.0, -2.0, 1.0, 0.0)
        )

    def test_order2_first_weights_match_binomial_oracle(self):
        # frozen from the oracle: w0 = (5/6)^1.5, w1 = 1.5 (5/6)^0.5 (-2/3)
        weights = grunwald_weights(beta_table(2, 1, 1.5), 1)
        assert weights.values[0] == pytest.approx(0.7607257743127308)
        assert weights.values[1] == pytest.approx(-0.9128709291752769)
        oracle = binomial_expansion_weights((5 / 6, -2 / 3, -1 / 6), 1.5, 1)
        assert weights.values == pytest.approx(oracle, rel=1e-14)

    @pytest.mark.parametrize("order", (1, 2, 3))
    def test_recurrence_matches_binomial_oracle(self, order):
        for alpha in (1.1, 1.5, 1.9):
            spec = beta_table(order, 1, alpha)
            got = grunwald_weights(spec, 12).values
            want = binomial_expansion_weights(spec.beta, alpha, 12)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_first_order_matches_direct_recursion(self):
        for alpha in (1.1, 1.5, 1.9):
            spec = GeneratorSpec(alpha=alpha, shift=0, beta=(1, -1))
            weights = grunwald_weights(spec, 1000).values
            direct = np.empty(1001)
            direct[0] = 1.0
            for k in range(1, 1001):
                direct[k] = (1.0 - (alpha + 1.0) / k) * direct[k - 1]
            assert weights == pytest.approx(direct, rel=1e-12)

    def test_nonpositive_leading_coefficient_rejected(self):
        spec = beta_table(6, 2, Fraction(11, 10))  # beta_0 < 0 here
        assert spec.beta[0] < 0
        with pytest.raises(ValueError, match="beta_0 > 0"):
            grunwald_weights(spec, 4)
        # (0, 1, -1) sums to zero, so the spec builds; 0^alpha leaves the
        # recurrence nothing to divide by
        spec = GeneratorSpec(alpha=1.5, shift=0, beta=(0, 1, -1))
        with pytest.raises(ValueError, match=r"beta_0 > 0, got 0\.0$"):
            grunwald_weights(spec, 4)

    def test_zero_count_gives_w0(self):
        generator = beta_table(2, 1, 1.5)
        weights = grunwald_weights(generator, 0).values
        assert weights.tolist() == [grunwald_weights(generator, 4).values[0]]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            grunwald_weights(beta_table(2, 1, 1.5), -1)

    @pytest.mark.parametrize("order, alpha, message", [
        # beta_0^2000 overflows at once, the order-6 weights at alpha = 1
        # from k = 339
        (2, 2000.0, "^weight 0 is inf: the weights overflow the float "
                    "range$"),
        (6, 1.0, "^weight 339 is -inf: the weights overflow the float "
                 "range$"),
    ], ids=["order2_alpha2000", "order6_alpha1"])
    def test_overflowing_weights_rejected(self, order, alpha, message):
        # a ValueError naming the first non-finite weight, and no
        # RuntimeWarning (warnings are errors in this suite)
        with pytest.raises(ValueError, match=message):
            grunwald_weights(beta_table(order, 1, alpha), 400)

    def test_values_are_read_only(self):
        weights = grunwald_weights(beta_table(2, 1, 1.5), 8)
        with pytest.raises(ValueError):
            weights.values[0] = 0.0


class TestVerifyOrder:
    def test_shifted_order2_leading_coefficient(self):
        report = verify_order(beta_table(2, 1, Fraction(3, 2)), 2)
        assert report.observed_order == 2
        assert report.leading_coeff == Fraction(1, 6)
        assert report.passed

    def test_unshifted_order4(self):
        report = verify_order(lubich_generator(4, Fraction(3, 2)), 4)
        assert report.observed_order == 4

    def test_shifting_unshifted_family_drops_to_first_order(self):
        shifted = replace(lubich_generator(4, Fraction(3, 2)), shift=1)
        report = verify_order(shifted, 4)
        assert report.observed_order == 1
        assert not report.passed
        # leading coefficient is the shift itself
        assert report.leading_coeff == 1

    def test_half_alpha_shift_superconvergence(self):
        alpha = Fraction(3, 2)
        spec = GeneratorSpec(alpha=alpha, shift=alpha / 2, beta=(1, -1))
        report = verify_order(spec, 2)
        assert report.observed_order == 2
        assert report.leading_coeff == alpha / 24

    @pytest.mark.parametrize("order", range(1, 7))
    def test_shifted_table_meets_design_order(self, order):
        for alpha in EXACT_ALPHAS:
            report = verify_order(beta_table(order, 1, alpha), order)
            assert report.passed, (order, alpha)

    def test_closed_form_a2_matches_symbol(self):
        for alpha in EXACT_ALPHAS:
            for shift in (0, 1, 2):
                spec = beta_table(2, shift, alpha)
                report = verify_order(spec, 2)
                assert report.coefficients[2] == a2_coefficient(shift, alpha)

    @pytest.mark.parametrize("alpha, zero", [(Fraction(3, 2), Fraction(0)),
                                             (1.5, 0.0)])
    def test_order_beyond_the_window(self, alpha, zero):
        # order 6 shows no nonzero coefficient in the window of an
        # expected order 1 (orders 1 .. 1 + ORDER_MARGIN)
        report = verify_order(beta_table(6, 0, alpha), 1)
        assert report.observed_order == len(report.coefficients) == 5
        assert report.leading_coeff == zero
        assert type(report.leading_coeff) is type(zero)
        assert report.passed

    def test_inconsistent_generator_detected(self):
        bad = GeneratorSpec(alpha=1.5, shift=0, beta=(2, -1, -1))
        with pytest.raises(InconsistentGeneratorError, match="consistent"):
            verify_order(bad, 1)

    def test_expected_order_below_one_rejected(self):
        with pytest.raises(ValueError, match="^expected order must be at "
                                             "least 1$"):
            verify_order(beta_table(2, 1, Fraction(3, 2)), 0)

    @pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(3, 2)])
    def test_rational_constant_term_decided_exactly(self, alpha):
        # q_0 = 1 + eps with q_0^alpha irrational: the float expansion
        # reads its constant term, 1.0000000000005 at alpha = 1/2, as 1
        eps = Fraction(1, 10**12)
        bad = GeneratorSpec(alpha=alpha, shift=0, beta=(1 + eps, -(1 + eps)))
        with pytest.raises(InconsistentGeneratorError, match="q_0 = "):
            verify_order(bad, 1)


class TestA2Coefficient:
    def test_alpha_two(self):
        assert a2_coefficient(1, 2) == Fraction(1, 12)

    def test_alpha_one(self):
        assert a2_coefficient(1, 1) == Fraction(1, 6)

    def test_irrational_alpha(self):
        value = a2_coefficient(1, math.sqrt(1.5))
        assert value == pytest.approx(1 - math.sqrt(6) / 3, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0, 0.0])
    def test_zero_alpha_rejected(self, alpha):
        # shift^2 / (2 alpha) has no value
        with pytest.raises(ValueError, match="^alpha must be nonzero$"):
            a2_coefficient(1, alpha)


class TestConvexCombination:
    @pytest.mark.parametrize("shifts", [(1, 0), (1, -1)])
    def test_is_second_order(self, shifts):
        report = convex_combination_check(*shifts, Fraction(3, 2))
        assert report.observed_order == 2

    def test_leading_coefficient_closed_form(self):
        for shifts in ((1, 0), (1, -1), (2, 0)):
            for alpha in EXACT_ALPHAS:
                report = convex_combination_check(*shifts, alpha)
                assert report.coefficients[2] == combination_leading_coefficient(
                    *shifts, alpha
                )

    def test_alpha_two_value(self):
        report = convex_combination_check(1, 0, 2)
        assert report.leading_coeff == Fraction(1, 12)

    def test_equal_shifts_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            convex_combination_check(1, 1, 1.5)


class TestWeightProperties:
    def test_sign_pattern_densely_sampled(self):
        for alpha in np.linspace(1.0, 2.0, 21):
            weights = grunwald_weights(beta_table(2, 1, float(alpha)), 2000)
            violations = weight_sign_report(weights.values)
            assert not violations, (alpha, violations)

    def test_tail_sums_decay(self):
        for alpha in (1.1, 1.5, 1.9):
            weights = grunwald_weights(beta_table(2, 1, alpha), 2000)
            assert abs(weights.values.sum()) < 1e-3

    def test_partial_sums_nonpositive_from_two(self):
        weights = grunwald_weights(beta_table(2, 1, 1.5), 500)
        assert np.all(np.cumsum(weights.values)[2:] <= 1e-14)

    def test_corrupted_weight_is_detected(self):
        weights = grunwald_weights(beta_table(2, 1, 1.5), 50).values.copy()
        weights[1] = -weights[1]
        names = [message.split(" = ")[0]
                 for message in weight_sign_report(weights)]
        assert names == ["w_1", "partial sum through 2"]

    @pytest.mark.parametrize("weights, violations", [
        ([-0.1, -1, 0.5, 0.1], ("w_0 = -1.000e-01 < 0",)),
        ([0.5, -1, -0.6, 0.1], ("w_0 + w_2 = -1.000e-01 < 0",)),
        ([1, -1, 0.1, -0.2, 0.05], ("w_3 = -2.000e-01 < 0",
                                    "partial sum through 2 = 1.000e-01 > 0")),
        # a NaN fails every inequality, so the first entry named is the
        # NaN, even ahead of a later negative weight
        (order2_weights({10: math.nan}), ("w_10 = nan < 0",
                                          "partial sum through 10 = nan > 0")),
        (order2_weights({4: math.nan, 7: -1.0}),
         ("w_4 = nan < 0", "partial sum through 4 = nan > 0")),
    ], ids=["w0_nonnegative", "w0_plus_w2_nonnegative", "tail_nonnegative",
            "nan_weight", "nan_before_negative_weight"])
    def test_violation_messages(self, weights, violations):
        assert weight_sign_report(weights) == violations

    def test_three_weights_suffice(self):
        weights = grunwald_weights(beta_table(2, 1, 1.5), 2).values
        assert len(weights) == 3
        assert weight_sign_report(weights) == ()
        assert weight_sign_report(-weights) == (
            f"w_0 = {-weights[0]:.3e} < 0", f"w_1 = {-weights[1]:.3e} > 0",
            f"w_0 + w_2 = {-weights[0] - weights[2]:.3e} < 0",
            f"partial sum through 2 = {-weights.sum():.3e} > 0")

    def test_two_weights_rejected(self):
        # the pattern needs w_0 + w_2
        with pytest.raises(ValueError, match="need at least w_0..w_2"):
            weight_sign_report([0.5, -1.0])


class TestGeneratorSpec:
    def test_inconsistent_sum_rejected(self):
        with pytest.raises(InconsistentGeneratorError):
            GeneratorSpec(alpha=1.5, shift=1, beta=(1.0, -0.5))

    def test_order_is_degree(self):
        assert beta_table(4, 1, 1.5).order == 4

    def test_negative_beta0_allowed_until_weights(self):
        spec = beta_table(6, 2, Fraction(11, 10))
        assert spec.beta[0] < 0  # construction fine, weights refuse

    @pytest.mark.parametrize("field, value", [
        ("alpha", math.nan), ("alpha", math.inf), ("alpha", -math.inf),
        ("shift", math.nan), ("shift", math.inf)])
    def test_non_finite_scalar_rejected(self, field, value):
        # a NaN alpha once expanded to order 1 with a NaN leading
        # coefficient, and passed
        fields = {"alpha": 1.5, "shift": 0, "beta": (1.0, -1.0),
                  field: value}
        with pytest.raises(ValueError, match=f"^GeneratorSpec.{field} must "
                                             f"be finite, got {value}$"):
            GeneratorSpec(**fields)

    def test_non_finite_alpha_rejected_by_every_constructor(self):
        for build in (lambda: beta_table(2, 1, math.nan),
                      lambda: construct_beta(2, 1, math.inf),
                      lambda: lubich_generator(2, math.nan),
                      lambda: replace(beta_table(2, 1, 1.5), shift=math.nan)):
            with pytest.raises(ValueError, match="must be finite"):
                build()

    def test_replace_is_the_one_way_to_move_a_generator(self):
        # dataclasses.replace runs the same checks as the constructor
        assert not hasattr(GeneratorSpec, "with_shift")

    def test_huge_rational_scalars_are_finite(self):
        # float(10**400) overflows; the finite check is exact for them
        spec = GeneratorSpec(alpha=Fraction(10**400), shift=10**400,
                             beta=(1, -1))
        assert spec.shift == 10**400

    def test_single_coefficient_rejected(self):
        with pytest.raises(ValueError, match="at least two coefficients"):
            GeneratorSpec(alpha=1.5, shift=0, beta=(0.0,))
