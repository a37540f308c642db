"""Steady solver accuracy and the stability scanner."""

import numpy as np
import pytest

from grunwald import (
    GridSpec,
    SteadyProblem,
    polynomial_steady_problem,
    solve_steady,
    stability_scan,
)


def max_error(problem, n, scheme):
    grid = GridSpec(problem.a, problem.b, n)
    solution = solve_steady(problem, grid, scheme)
    return float(np.max(np.abs(solution - problem.exact(grid.points()))))


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

    def test_solver_failure_recorded_as_data(self):
        report = stability_scan(6, 1, [1.5], GridSpec(0.0, 1.0, 64))
        entry = report.entries[0]
        assert not entry.stable
        assert entry.max_rayleigh > 1e-8

    def test_order2_scan_errors_are_the_steady_solver_errors(self):
        # the scan's order-2, shift-1 family is the order2 steady scheme,
        # so its scan-grid and baseline errors are solve_steady's, exactly
        alphas = (1.2, 1.7)
        report = stability_scan(2, 1, alphas, GridSpec(0.0, 1.0, 48),
                                baseline_n=16)
        for alpha, entry in zip(alphas, report.entries):
            problem = polynomial_steady_problem(alpha)
            assert entry.solve_error == max_error(problem, 48, "order2")
            assert entry.baseline_error == max_error(problem, 16, "order2")
