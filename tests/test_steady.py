"""Steady solver accuracy and the stability scanner."""

import dataclasses
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigvalsh, lu_factor, lu_solve, toeplitz

from grunwald import (
    GridSpec,
    SteadyProblem,
    a2_coefficient,
    beta_table,
    polynomial_steady_problem,
    solve_steady,
    stability_scan,
)
from grunwald.operators import (
    checked_lu,
    hessenberg_rcond,
    precondition_rows,
    scheme_operator,
    solve_factored,
    toeplitz_generators,
)
from grunwald.series import power_recurrence
from grunwald.steady import RAYLEIGH_TOL

LADDER = tuple(2**k for k in range(4, 12))  # N = 16 ... 2048


def max_error(problem, n, scheme):
    grid = GridSpec(problem.a, problem.b, n)
    solution = solve_steady(problem, grid, scheme)
    return float(np.max(np.abs(solution - problem.exact(grid.points()))))


def dense_dirichlet_solve(problem, grid, scheme):
    """The dense oracle: build the (N+1)^2 operator from its column and
    row, move the boundary columns to the right-hand side, factor the
    interior with a dense LU and solve."""
    alpha = float(problem.alpha)
    dense = toeplitz(*toeplitz_generators(beta_table(2, 1, alpha), grid))
    rhs = np.asarray(problem.source(grid.points()), dtype=float)
    if scheme == "order3":
        rhs = precondition_rows(np.pad(rhs, 1),
                                float(a2_coefficient(1, alpha)))
    adjusted = (rhs[1:-1] - dense[1:-1, 0] * problem.phi0
                - dense[1:-1, -1] * problem.phi1)
    solution = np.empty(grid.n + 1)
    solution[0], solution[-1] = problem.phi0, problem.phi1
    solution[1:-1] = solve_factored(checked_lu(dense[1:-1, 1:-1]), adjusted)
    return solution


class TestSolveSteady:
    def test_homogeneous_problem_is_zero(self):
        problem = SteadyProblem(
            a=0.0, b=1.0, alpha=1.5,
            source=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            phi0=0.0, phi1=0.0,
        )
        solution = solve_steady(problem, GridSpec(0.0, 1.0, 32))
        assert np.max(np.abs(solution)) < 1e-12

    def test_shifted_domain_gives_the_same_errors(self):
        # the problem moved to [1, 2]: h = (b - a) / n, and the grid points
        # less 1 are those of [0, 1] exactly
        base = polynomial_steady_problem(1.5)
        shifted = dataclasses.replace(
            base, a=1.0, b=2.0, source=lambda x: base.source(x - 1.0),
            exact=lambda x: base.exact(x - 1.0))
        error = max_error(shifted, 64, "order3")
        assert error == max_error(base, 64, "order3")
        assert error == pytest.approx(2.0610546521790396e-04, rel=1e-12)

    def test_boundary_values_imposed(self):
        problem = polynomial_steady_problem(1.5)
        solution = solve_steady(problem, GridSpec(0.0, 1.0, 32))
        assert solution[0] == 0.0
        assert solution[-1] == 10.0

    def test_order2_benchmark_cell(self):
        problem = polynomial_steady_problem(1.5)
        assert max_error(problem, 256, "order2") == pytest.approx(
            1.0383e-03, rel=0.02
        )

    def test_order2_benchmark_cell_fine(self):
        problem = polynomial_steady_problem(1.5)
        assert max_error(problem, 1024, "order2") == pytest.approx(
            6.5044e-05, rel=0.02
        )

    def test_order3_benchmark_cell(self):
        problem = polynomial_steady_problem(1.9)
        assert max_error(problem, 128, "order3") == pytest.approx(
            7.0003e-06, rel=0.02
        )

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_order2_convergence_band(self, alpha):
        problem = polynomial_steady_problem(alpha)
        errors = [max_error(problem, n, "order2") for n in (64, 128, 256)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.85 <= np.log2(coarse / fine) <= 2.15

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_order3_convergence_band(self, alpha):
        problem = polynomial_steady_problem(alpha)
        errors = [max_error(problem, n, "order3") for n in (32, 64, 128)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 2.9 <= np.log2(coarse / fine) <= 3.2

    def test_solver_is_linear(self):
        from dataclasses import replace

        base = polynomial_steady_problem(1.7)
        scaled = replace(
            base,
            source=lambda x: 2.5 * base.source(x),
            phi0=2.5 * base.phi0,
            phi1=2.5 * base.phi1,
            exact=None,
        )
        grid = GridSpec(0.0, 1.0, 48)
        u = solve_steady(base, grid)
        v = solve_steady(scaled, grid)
        assert v == pytest.approx(2.5 * u, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_source_rejected(self, bad):
        # named by its first grid point past 0.5, x_9 = 0.5625 on N = 16;
        # it used to solve to NaN at every interior point without a word
        problem = SteadyProblem(a=0.0, b=1.0, alpha=1.5,
                                source=lambda x: np.where(x > 0.5, bad, x),
                                phi0=0.0, phi1=0.0)
        with pytest.raises(ValueError,
                           match=r"^source is not finite at 0\.5625$"):
            solve_steady(problem, GridSpec(0.0, 1.0, 16))

    @pytest.mark.parametrize("scheme", ["order2", "order3"])
    def test_scalar_source_broadcasts(self, scheme):
        # lambda x: 1.0 solves as the constant array does (it used to
        # raise IndexError)
        array = SteadyProblem(a=0.0, b=1.0, alpha=1.5,
                              source=lambda x: np.ones_like(x),
                              phi0=0.0, phi1=1.0)
        scalar = dataclasses.replace(array, source=lambda x: 1.0)
        grid = GridSpec(0.0, 1.0, 32)
        np.testing.assert_array_equal(solve_steady(scalar, grid, scheme),
                                      solve_steady(array, grid, scheme))

    def test_source_of_another_shape_rejected(self):
        problem = SteadyProblem(a=0.0, b=1.0, alpha=1.5,
                                source=lambda x: x[1:], phi0=0.0, phi1=0.0)
        with pytest.raises(ValueError, match=r"^source has shape \(16,\), "
                                             r"not \(17,\)$"):
            solve_steady(problem, GridSpec(0.0, 1.0, 16))

    @pytest.mark.parametrize("b", [0.0, -1.0])
    def test_empty_domain_rejected(self, b):
        with pytest.raises(ValueError, match="^domain endpoints must "
                                             "satisfy a < b$"):
            SteadyProblem(a=0.0, b=b, alpha=1.5, source=lambda x: x,
                          phi0=0.0, phi1=0.0)

    def test_unknown_scheme_rejected(self):
        problem = polynomial_steady_problem(1.5)
        with pytest.raises(ValueError, match="scheme"):
            solve_steady(problem, GridSpec(0.0, 1.0, 16), "order9")

    def test_alpha_domain_enforced(self):
        with pytest.raises(ValueError, match="alpha"):
            SteadyProblem(a=0.0, b=1.0, alpha=1.0,
                          source=lambda x: x, phi0=0.0, phi1=0.0)
        with pytest.raises(ValueError, match="alpha"):
            SteadyProblem(a=0.0, b=1.0, alpha=2.3,
                          source=lambda x: x, phi0=0.0, phi1=0.0)

    def test_grid_domain_mismatch_rejected(self):
        problem = polynomial_steady_problem(1.5)
        with pytest.raises(ValueError, match="domain"):
            solve_steady(problem, GridSpec(0.0, 2.0, 16))

    @pytest.mark.parametrize("field, value", [
        ("phi0", np.nan), ("phi1", np.nan), ("phi1", -np.inf),
        ("a", np.nan), ("b", np.inf)])
    def test_non_finite_scalar_rejected(self, field, value):
        # phi1 = nan used to solve to a vector of NaNs without a word
        with pytest.raises(ValueError,
                           match=f"^SteadyProblem.{field} must be finite"):
            dataclasses.replace(polynomial_steady_problem(1.5),
                                **{field: value})


class TestEmbeddingSolve:
    """The steady solve, through the triangular Toeplitz embedding,
    against the dense LU oracle and a longdouble-refined solution; the
    lower bound of its guard against the exact reciprocal condition
    number."""

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("scheme", ["order2", "order3"])
    def test_matches_dense_oracle(self, scheme, alpha):
        problem = polynomial_steady_problem(alpha)
        # phi0 = 0 in every other steady problem
        shifted = dataclasses.replace(problem, phi0=-3.0, exact=None)
        # n = 2 leaves one unknown, whose matrix has no superdiagonal
        for n, case in itertools.product((2, 3, 4) + LADDER,
                                         (problem, shifted)):
            grid = GridSpec(0.0, 1.0, n)
            fast = solve_steady(case, grid, scheme)
            dense = dense_dirichlet_solve(case, grid, scheme)
            gap = np.max(np.abs(fast - dense)) / np.max(np.abs(dense))
            assert gap <= 5e-12, (f"N={n}, phi0={case.phi0}: relative gap "
                                  f"{gap:.2e}")

    @pytest.mark.parametrize("alpha", [1.1, 1.9])
    def test_order3_within_round_off_of_refined_solution(self, alpha):
        # x_ref solves the same float system: a dense LU solution refined
        # with residuals in 80-bit long double
        assert np.finfo(np.longdouble).nmant >= 63, "needs 80-bit long double"
        problem = polynomial_steady_problem(alpha)
        grid = GridSpec(0.0, 1.0, 1024)
        col, row, a2, _ = scheme_operator("order3", alpha, grid)
        dense = toeplitz(col, row)
        matrix = dense[1:-1, 1:-1]
        adjusted = (precondition_rows(problem.source(grid.points()), a2)
                    - dense[1:-1, 0] * problem.phi0
                    - dense[1:-1, -1] * problem.phi1)
        factors = lu_factor(matrix)
        reference = lu_solve(factors, adjusted).astype(np.longdouble)
        for _ in range(4):
            residual = adjusted - matrix.astype(np.longdouble) @ reference
            reference += lu_solve(factors, residual.astype(float))
        solution = solve_steady(problem, grid, "order3")[1:-1]
        gap = float(np.max(np.abs(solution - reference)))
        assert gap <= 5e-13 * np.max(np.abs(solution)), f"gap {gap:.2e}"

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_order3_error_matches_exact_generator_reference(self, alpha):
        # the reference inverts the operator of the exact (Fraction)
        # generator: the -alpha power recurrence of its embedding's inverse
        # column, the boundary value moved to the right-hand side and the
        # convolution in 80-bit long double. Inverting the rounded weights
        # instead put the N=4096 error at alpha=1.9 52 % off.
        assert np.finfo(np.longdouble).nmant >= 63, "needs 80-bit long double"
        problem = polynomial_steady_problem(alpha)
        exact = Fraction(str(alpha))

        def longdouble(x):
            return np.longdouble(x.numerator) / np.longdouble(x.denominator)

        a = longdouble(exact)
        beta = [longdouble(b) for b in beta_table(2, 1, exact).beta]
        for n in (2048, 4096):
            grid = GridSpec(0.0, 1.0, n)
            h = np.longdouble(1) / n
            g = [beta[0] ** -a]  # coefficients of beta(z)^-alpha
            for m in range(1, n):
                g.append(sum((k * (1 - a) - m) * beta[k] * g[m - k]
                             for k in (1, 2) if k <= m) / (m * beta[0]))
            g = h**a * np.array(g)
            source = problem.source(grid.points()).astype(np.longdouble)
            rhs = precondition_rows(np.pad(source, 1),
                                    longdouble(a2_coefficient(1, exact)))
            rhs = rhs[1:-1]
            rhs[-1] -= beta[0] ** a / h**a * problem.phi1  # phi0 = 0
            c = np.convolve(g, rhs)
            interior = np.r_[0, c[: n - 2]] - (c[n - 2] / g[-1]) * g[:-1]
            want = float(np.max(np.abs(
                interior - problem.exact(grid.points()[1:-1]))))
            got = max_error(problem, n, "order3")
            assert abs(got - want) <= 1e-3 * want, (n, got, want)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9, 2.0])
    def test_rcond_bound_within_tenth_of_exact(self, alpha):
        # the guard's l and g, as solve_steady forms them; the interior
        # matrix L[2:, 1:-1] is the dense operator's interior
        for n in LADDER[:7]:  # N = 16 ... 1024
            grid = GridSpec(0.0, 1.0, n)
            col, row, _, generator = scheme_operator("order2", alpha, grid)
            matrix = toeplitz(col, row)[1:-1, 1:-1]
            exact = 1.0 / (np.linalg.norm(matrix, 1)
                           * np.linalg.norm(np.linalg.inv(matrix), 1))
            l = np.r_[row[1], col[:-2]]
            g = grid.h ** alpha * power_recurrence(generator.beta, -alpha,
                                                   n - 1)
            ratio = hessenberg_rcond(l, g) / exact
            assert 0.1 <= ratio <= 1 + 1e-12, f"N={n}: ratio {ratio:.4f}"

    def test_large_grid_in_linear_memory(self):
        # the dense N=8192 operator alone would take 537 MB
        problem = polynomial_steady_problem(1.5)
        coarse = max_error(problem, 4096, "order2")
        grid = GridSpec(0.0, 1.0, 8192)
        tracemalloc.start()
        try:
            solution = solve_steady(problem, grid, "order2")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        fine = float(np.max(np.abs(solution - problem.exact(grid.points()))))
        assert np.log2(coarse / fine) >= 1.9


class TestStabilityScan:
    def test_order2_stable_on_short_grid(self):
        report = stability_scan(
            2, 1, np.linspace(1.0, 2.0, 11), GridSpec(0.0, 1.0, 32)
        )
        assert not report.unstable_alphas
        assert report.stable_onset() == 1.0

    def test_first_order_shifted_family_stable(self):
        report = stability_scan(
            1, 1, np.linspace(1.0, 2.0, 11), GridSpec(0.0, 1.0, 32)
        )
        assert not report.unstable_alphas

    def test_order2_alpha_one_uses_rayleigh_only(self):
        report = stability_scan(2, 1, [1.0], GridSpec(0.0, 1.0, 32))
        entry = report.entries[0]
        assert entry.stable
        assert entry.max_rayleigh == 0.0

    def test_order3_unstable_near_one_then_stable(self):
        grid = GridSpec(0.0, 1.0, 32)
        report = stability_scan(3, 1, np.linspace(1.0, 2.0, 11), grid)
        unstable = report.unstable_alphas
        assert unstable and min(unstable) <= 1.1
        onset = report.stable_onset()
        assert onset is not None and 1.0 < onset < 2.0
        # flagged rows carry their evidence
        flagged = [e for e in report.entries if not e.stable]
        assert all(e.reason for e in flagged)
        # the onset does not depend on the order of the alphas
        descending = stability_scan(3, 1, np.linspace(2.0, 1.0, 11), grid)
        assert descending.stable_onset() == onset

    @pytest.mark.parametrize("order, alpha", [
        (3, 1.3434343434343434), (3, 1.4141414141414141),
        (4, 1.6767676767676767), (5, 2.0)])
    def test_positive_eigenvalue_is_unstable(self, order, alpha):
        # random Rayleigh quotients miss these eigenvalues (2.1 to 1e5)
        entry = stability_scan(order, 1, [alpha],
                               GridSpec(0.0, 1.0, 256)).entries[0]
        assert entry.max_rayleigh > 1.0
        assert not entry.stable
        assert "eigenvalue" in entry.reason

    @settings(max_examples=40, deadline=None, database=None)
    @given(order=st.integers(2, 6), shift=st.integers(0, 2),
           alpha=st.floats(1.0, 2.0), n=st.integers(16, 64),
           seed=st.integers(0, 2**32 - 1))
    def test_max_rayleigh_is_top_eigenvalue(self, order, shift, alpha, n,
                                            seed):
        # the verdict is the top eigenvalue, and nothing else
        grid = GridSpec(0.0, 1.0, n)
        entry = stability_scan(order, shift, [alpha], grid).entries[0]
        assert entry.stable == (np.isfinite(entry.max_rayleigh)
                                and entry.max_rayleigh <= RAYLEIGH_TOL)
        generator = beta_table(order, shift, alpha)
        if not float(generator.beta[0]) > 0:
            return  # no weights, so no operator to compare with
        matrix = toeplitz(*toeplitz_generators(generator, grid))
        top = eigvalsh(0.5 * (matrix + matrix.T))[-1]
        # round-off is relative to the operator's norm: at order 2 and
        # alpha = 1 the symmetric part is exactly zero
        scale = np.linalg.norm(matrix, 2)
        assert abs(entry.max_rayleigh - top) <= 1e-12 * scale
        v = np.random.default_rng(seed).standard_normal((50, n + 1))
        quotients = np.einsum("ij,ij->i", v @ matrix, v) / np.einsum(
            "ij,ij->i", v, v)
        assert np.all(quotients <= entry.max_rayleigh + 1e-12 * scale)

    def test_seed_and_sample_count_are_ignored(self):
        alphas, grid = np.linspace(1.0, 2.0, 7), GridSpec(0.0, 1.0, 32)
        reports = [stability_scan(3, 1, alphas, grid, n_samples=k, seed=s)
                   for k, s in ((500, 1822), (10, 7))]
        assert reports[0] == reports[1]

    def test_positive_top_eigenvalue_recorded_as_data(self):
        # the order-6 operator at this alpha has finite entries but a
        # symmetric part with a positive eigenvalue: the scan records it
        # by that top eigenvalue, without solving
        report = stability_scan(6, 1, [1.5], GridSpec(0.0, 1.0, 64))
        entry = report.entries[0]
        assert not entry.stable
        assert entry.max_rayleigh > RAYLEIGH_TOL
        assert entry.reason == ("symmetric part has a positive eigenvalue "
                                f"{entry.max_rayleigh:.3e}")

    def test_verdicts_on_short_grid(self):
        # stable counts and onsets of orders 2 to 6 at shift 1, N=48, over
        # 100 alphas in [1, 2]
        alphas = np.linspace(1.0, 2.0, 100)
        grid = GridSpec(0.0, 1.0, 48)
        reports = [stability_scan(order, 1, alphas, grid)
                   for order in range(2, 7)]
        assert [len(r.stable_alphas) for r in reports] == [100, 59, 20, 0, 0]
        assert [r.stable_onset() for r in reports] == [
            1.0, 1.4141414141414141, 1.8080808080808082, None, None]

    @pytest.mark.parametrize("shift, stable, onsets", [
        # the unshifted generators have positive top eigenvalues
        (0, [0, 0, 0, 0, 0], [None] * 5),
        (2, [4, 0, 0, 0, 0], [1.9696969696969697, None, None, None, None]),
    ])
    def test_verdicts_at_shifts_0_and_2(self, shift, stable, onsets):
        # the counts of test_verdicts_on_short_grid at shifts 0 and 2
        alphas = np.linspace(1.0, 2.0, 100)
        grid = GridSpec(0.0, 1.0, 48)
        reports = [stability_scan(order, shift, alphas, grid)
                   for order in range(2, 7)]
        assert [len(r.stable_alphas) for r in reports] == stable
        assert [r.stable_onset() for r in reports] == onsets

    def test_nonfinite_rayleigh_quotient_is_unstable(self):
        # the order-6 weights at alpha = 1 overflow from k = 339:
        # grunwald_weights refuses them, so no eigenvalue is taken, and its
        # message is the reason
        report = stability_scan(6, 1, [1.0], GridSpec(0.0, 1.0, 512))
        entry = report.entries[0]
        assert np.isnan(entry.max_rayleigh)
        assert not entry.stable
        assert entry.reason == ("weight 339 is -inf: the weights overflow "
                                "the float range")

    def test_overflowing_operator_recorded_as_data(self):
        # the order-4 weights at this alpha overflow from k = 492: the
        # entry is recorded, and no eigenvalue is taken of the infinities
        report = stability_scan(4, 1, (1.0204081632653061,),
                                GridSpec(0.0, 1.0, 512))
        entry = report.entries[0]
        assert not entry.stable
        assert "overflow" in entry.reason
        assert np.isnan(entry.max_rayleigh)

    def test_overflowing_h_alpha_recorded_as_data(self):
        # on [0, 100] with n = 2, h^alpha = 50^300 overflows: the scan
        # records the refusal of toeplitz_generators, not OverflowError
        report = stability_scan(2, 1, [300.0, 1.5], GridSpec(0.0, 100.0, 2))
        refused, stable = report.entries
        assert not refused.stable
        assert refused.reason == "h^alpha = 50.0^300.0 is inf"
        assert np.isnan(refused.max_rayleigh)
        assert stable.stable and stable.max_rayleigh < 0

    @pytest.mark.parametrize("alpha", [300.0, 2000.0, 1e6])
    def test_extreme_alpha_recorded_as_data(self, alpha):
        # on n = 16, h^alpha underflows to 0 at alpha = 300, which
        # toeplitz_generators refuses, and beta_0^alpha overflows at 2000
        # and 1e6, which grunwald_weights refuses: the scan records each
        # refusal, with no warning (an error under pytest) and no
        # OverflowError
        weights = "weight 0 is inf: the weights overflow the float range"
        reason = {300.0: "operator entry w_0 / h^alpha is inf (h^alpha = "
                         "0.000e+00): the entries overflow",
                  2000.0: weights, 1e6: weights}[alpha]
        report = stability_scan(2, 1, [alpha], GridSpec(0.0, 1.0, 16))
        entry = report.entries[0]
        assert not entry.stable
        assert entry.reason == reason
        assert np.isnan(entry.max_rayleigh)

    @pytest.mark.parametrize("shift", [-1, 0.5])
    def test_shift_off_the_grid_refused_before_any_alpha(self, shift):
        # an alpha with beta_0 <= 0 would be recorded as data; the shift is
        # refused even with no alpha to scan
        for alphas in ((1.0, 1.5), ()):
            with pytest.raises(ValueError, match="nonnegative integer "
                                                 "shift"):
                stability_scan(2, shift, alphas, GridSpec(0.0, 1.0, 16))

    @pytest.mark.parametrize("order", range(2, 7))
    def test_nonpositive_beta0_recorded_as_data(self, order):
        # shift 2 near alpha = 1 has beta_0 < 0: no weights exist
        alphas = np.linspace(1.0, 2.0, 23)
        report = stability_scan(order, 2, alphas, GridSpec(0.0, 1.0, 48))
        assert [e.alpha for e in report.entries] == list(alphas)
        entry = report.entries[0]
        assert float(beta_table(order, 2, 1.0).beta[0]) < 0
        assert not entry.stable
        assert "beta_0" in entry.reason
