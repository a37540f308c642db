"""Steady solver accuracy and the stability scanner."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigvalsh, lu_factor, solve_toeplitz, toeplitz
from scipy.linalg.lapack import dgecon

from grunwald import (
    GridSpec,
    SteadyProblem,
    a2_coefficient,
    beta_table,
    grunwald_weights,
    polynomial_steady_problem,
    solve_steady,
    stability_scan,
)
from grunwald.operators import (
    RCOND_FLOOR,
    _inverse_norm1_estimate,
    checked_lu,
    dirichlet_fold,
    precondition_rows,
    solve_factored,
    toeplitz_generators,
    toeplitz_rcond,
)
from grunwald.steady import BASELINE_N

LADDER = tuple(2**k for k in range(4, 12))  # N = 16 ... 2048


def max_error(problem, n, scheme):
    grid = GridSpec(problem.a, problem.b, n)
    solution = solve_steady(problem, grid, scheme)
    return float(np.max(np.abs(solution - problem.exact(grid.points()))))


def _order2_weights(alpha, grid):
    return grunwald_weights(beta_table(2, 1, alpha), grid.n + 1)


def levinson_rcond(col, row):
    """The oracle of toeplitz_rcond: the same dlacn2 estimate of
    ||T^-1||_1, with every apply of T^-1 and T^-T a Levinson solve."""
    column_sums = (np.cumsum(np.abs(row)) - abs(row[0])
                   + np.cumsum(np.abs(col))[::-1])
    with np.errstate(over="ignore"):
        product = column_sums.max() * _inverse_norm1_estimate(
            lambda b: solve_toeplitz((col, row), b),
            lambda b: solve_toeplitz((row, col), b), len(col))
    return 1.0 / product if product > 0 else 0.0


def dense_dirichlet_solve(problem, grid, scheme):
    """The dense oracle: build the (N+1)^2 operator from its column and
    row, move the boundary columns to the right-hand side, factor the
    interior with a dense LU and solve."""
    alpha = float(problem.alpha)
    dense = toeplitz(*toeplitz_generators(_order2_weights(alpha, grid),
                                          grid))
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


class TestLevinsonSolve:
    """The Levinson solve against the dense LU oracle."""

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("scheme", ["order2", "order3"])
    def test_matches_dense_oracle(self, scheme, alpha):
        problem = polynomial_steady_problem(alpha)
        for n in LADDER:
            grid = GridSpec(0.0, 1.0, n)
            fast = solve_steady(problem, grid, scheme)
            dense = dense_dirichlet_solve(problem, grid, scheme)
            gap = np.max(np.abs(fast - dense)) / np.max(np.abs(dense))
            assert gap <= 5e-12, f"N={n}: relative gap {gap:.2e}"

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_rcond_estimate_tracks_dgecon(self, alpha):
        for n in LADDER:
            grid = GridSpec(0.0, 1.0, n)
            weights = _order2_weights(alpha, grid)
            full = toeplitz_generators(weights, grid)
            col, row, _ = dirichlet_fold(*full, np.zeros(n + 1), 0.0, 0.0)
            matrix = toeplitz(*full)[1:-1, 1:-1]
            rcond, info = dgecon(lu_factor(matrix)[0],
                                 np.linalg.norm(matrix, 1))
            assert info == 0
            ratio = toeplitz_rcond(col, row) / rcond
            assert 1 / 3 <= ratio <= 3, f"N={n}: ratio {ratio:.3f}"

    @pytest.mark.parametrize("order", range(2, 7))
    def test_rcond_floor_verdicts_match_levinson_estimate(self, order):
        # the scan's interior operators at N=48; orders 3 to 6 fall below
        # the floor from alpha near 1 up to an order-dependent onset. The
        # estimate through the Gohberg-Semencul inverse must give the
        # Levinson estimate's verdict on both sides of it
        grid = GridSpec(0.0, 1.0, 48)
        sides = set()
        for alpha in np.linspace(1.04, 2.0, 25):
            weights = grunwald_weights(beta_table(order, 1, alpha), 49)
            full = toeplitz_generators(weights, grid)
            col, row, _ = dirichlet_fold(*full, np.zeros(49), 0.0, 0.0)
            fast, oracle = toeplitz_rcond(col, row), levinson_rcond(col, row)
            assert (fast < RCOND_FLOOR) == (oracle < RCOND_FLOOR), alpha
            if oracle >= RCOND_FLOOR:
                assert abs(fast - oracle) <= 1e-8 * oracle, alpha
            sides.add(oracle < RCOND_FLOOR)
        if order > 2:
            assert sides == {False, True}

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
        assert entry.solve_error is None
        assert entry.baseline_error is None

    def test_order3_unstable_near_one_then_stable(self):
        report = stability_scan(
            3, 1, np.linspace(1.0, 2.0, 11), GridSpec(0.0, 1.0, 32)
        )
        unstable = report.unstable_alphas
        assert unstable and min(unstable) <= 1.1
        onset = report.stable_onset()
        assert onset is not None and 1.0 < onset < 2.0
        # flagged rows carry their evidence
        flagged = [e for e in report.entries if not e.stable]
        assert all(e.reason for e in flagged)

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
    @given(order=st.integers(2, 6), alpha=st.floats(1.0, 2.0),
           n=st.integers(16, 64), seed=st.integers(0, 2**32 - 1))
    def test_max_rayleigh_is_top_eigenvalue(self, order, alpha, n, seed):
        grid = GridSpec(0.0, 1.0, n)
        entry = stability_scan(order, 1, [alpha], grid).entries[0]
        matrix = toeplitz(*toeplitz_generators(grunwald_weights(
            beta_table(order, 1, alpha), n + 1), grid))
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

    def test_solver_failure_recorded_as_data(self):
        report = stability_scan(6, 1, [1.5], GridSpec(0.0, 1.0, 64))
        entry = report.entries[0]
        assert not entry.stable
        assert entry.max_rayleigh > 1e-8

    def test_nonfinite_rayleigh_quotient_is_unstable(self):
        # the order-6 weights at alpha = 1 overflow from k = 340, so the
        # operator has non-finite entries and is not sampled
        report = stability_scan(6, 1, [1.0], GridSpec(0.0, 1.0, 512))
        entry = report.entries[0]
        assert np.isnan(entry.max_rayleigh)
        assert not entry.stable
        assert "not finite" in entry.reason

    def test_overflowing_operator_recorded_as_data(self):
        # the order-4 weights at this alpha overflow from k = 492: the
        # entry is recorded, and neither solve sees the infinities
        report = stability_scan(4, 1, (1.0204081632653061,),
                                GridSpec(0.0, 1.0, 512))
        entry = report.entries[0]
        assert not entry.stable
        assert "overflow" in entry.reason
        assert np.isnan(entry.max_rayleigh)
        assert entry.solve_error is None and entry.baseline_error is None
        assert not entry.solve_failed

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
        assert entry.solve_error is None

    def test_order2_scan_errors_are_the_steady_solver_errors(self):
        # the scan's order-2, shift-1 family is the order2 steady scheme,
        # so its scan-grid and baseline errors are solve_steady's, exactly
        alphas = (1.2, 1.7)
        report = stability_scan(2, 1, alphas, GridSpec(0.0, 1.0, 48))
        for alpha, entry in zip(alphas, report.entries):
            problem = polynomial_steady_problem(alpha)
            assert entry.solve_error == max_error(problem, 48, "order2")
            assert entry.baseline_error == max_error(problem, BASELINE_N,
                                                     "order2")
