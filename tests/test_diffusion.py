"""Crank-Nicolson diffusion stepping, the benchmark source, and the
energy-stability estimate."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve
from scipy.special import gamma

from grunwald import (
    DiffusionProblem,
    GridSpec,
    a2_coefficient,
    apply_grunwald,
    beta_table,
    cn_solve,
    fractional_poly_source,
    grunwald_weights,
    polynomial_diffusion_problem,
    stability_estimate_check,
)
from grunwald.diffusion import STEP_BLOCK, SUBSTEPS, _cn_system
from grunwald.operators import precondition_rows, solve_factored


def zero_x(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def final_error(problem, n, m, scheme):
    grid = GridSpec(problem.a, problem.b, n)
    final = cn_solve(problem, grid, m, scheme)
    exact = problem.exact(grid.points(), problem.t_final)
    return float(np.max(np.abs(final - exact)))


def step_forcing(problem, system, x, m, left_now, right_now):
    """r_m of step m: tau (P f)(midpoint) and the boundary terms, given the
    boundary values at t_m. Returns r_m and the boundary values at
    t_{m+1}."""
    tau, a2 = system.tau, system.a2
    left_next = float(problem.bc_left((m + 1) * tau))
    right_next = float(problem.bc_right((m + 1) * tau))
    f = np.asarray(problem.source(x, (m + 0.5) * tau), dtype=float)
    rhs = tau * (a2 * (f[:-2] + f[2:]) + (1.0 - 2.0 * a2) * f[1:-1])
    rhs += system.b_col_left * (left_next + left_now)
    rhs += system.b_col_right * (right_next + right_now)
    rhs[0] -= a2 * (left_next - left_now)
    rhs[-1] -= a2 * (right_next - right_now)
    return rhs, left_next, right_next


def per_step_march(problem, grid, m_steps, scheme):
    """Reference CN march: one right-hand side and one LU solve per step."""
    system = _cn_system(problem, grid, m_steps, scheme)
    rhs_matrix = system.p_reduced + system.b_reduced
    x = grid.points()
    current = np.asarray(problem.init(x), dtype=float)
    for m in range(m_steps):
        r, left_next, right_next = step_forcing(
            problem, system, x, m, current[0], current[-1])
        interior = solve_factored(system.factors,
                                  rhs_matrix @ current[1:-1] + r)
        current = np.concatenate(([left_next], interior, [right_next]))
    return current


def longdouble_march(problem, grid, m_steps, scheme):
    """The recurrence y <- y + E y + r_m of cn_solve, with y = (P - B) u
    and E = 2 B (P - B)^-1, marched one step at a time in extended
    precision and mapped back with the LU factors. Returns the interior
    of the final state."""
    system = _cn_system(problem, grid, m_steps, scheme)
    x = grid.points()
    current = np.asarray(problem.init(x), dtype=float)
    ld = np.longdouble
    e = system.increment.astype(ld)
    p_minus_b = system.p_reduced.astype(ld) - system.b_reduced.astype(ld)
    y = p_minus_b @ current[1:-1].astype(ld)
    left, right = current[0], current[-1]
    for m in range(m_steps):
        r, left, right = step_forcing(problem, system, x, m, left, right)
        y = y + e @ y + r.astype(ld)
    return lu_solve(system.factors, y.astype(float))


def moving_right_boundary_problem(alpha=1.5):
    """Left-only equation with exact solution 10 x^8 exp(-t), so the
    right boundary value moves in time."""
    c8 = 10.0 * gamma(9) / gamma(9 - alpha)
    return DiffusionProblem(
        a=0.0, b=1.0, t_final=1.0, alpha=alpha, k_left=1.0, k_right=0.0,
        source=lambda x, t: -np.exp(-t) * (
            10.0 * np.asarray(x) ** 8 + c8 * np.asarray(x) ** (8 - alpha)
        ),
        init=lambda x: 10.0 * np.asarray(x) ** 8,
        bc_left=lambda t: 0.0,
        bc_right=lambda t: 10.0 * np.exp(-t),
        exact=lambda x, t: 10.0 * np.asarray(x) ** 8 * np.exp(-t),
    )


class CountedCalls:
    """Wraps a data function and records the argument shapes of each
    call."""

    def __init__(self, fn):
        self.fn, self.shapes = fn, []

    def __call__(self, *args):
        self.shapes.append(tuple(np.shape(a) for a in args))
        return self.fn(*args)


class TestProblemValidation:
    def kwargs(self, **overrides):
        base = dict(
            a=0.0, b=1.0, t_final=1.0, alpha=1.5, k_left=1.0, k_right=1.0,
            source=lambda x, t: zero_x(x), init=zero_x,
            bc_left=lambda t: 0.0, bc_right=lambda t: 0.0,
        )
        base.update(overrides)
        return base

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DiffusionProblem(**self.kwargs(k_left=-1.0))

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError, match="both"):
            DiffusionProblem(**self.kwargs(k_left=0.0, k_right=0.0))

    def test_boundary_convention_enforced(self):
        with pytest.raises(ValueError, match="left boundary"):
            DiffusionProblem(**self.kwargs(bc_left=lambda t: 1.0))
        with pytest.raises(ValueError, match="right boundary"):
            DiffusionProblem(**self.kwargs(bc_right=lambda t: t))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_boundary_convention_enforced_at_every_step(self, side):
        # nonzero only on (0.1, 0.2): the five sample times read zero, so
        # the problem is built, but the value at step time 0.15 is not
        pulse = {f"bc_{side}": lambda t: np.where((t > 0.1) & (t < 0.2),
                                                  1.0, 0.0)}
        problem = DiffusionProblem(**self.kwargs(**pulse))
        with pytest.raises(ValueError, match=f"{side} boundary values"):
            cn_solve(problem, GridSpec(0.0, 1.0, 16), 20)
        with pytest.raises(ValueError, match="homogeneous boundaries"):
            stability_estimate_check(problem, GridSpec(0.0, 1.0, 16), 20)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_boundary_convention_enforced_on_initial_data(self, side):
        # init is 1 at one end only; the boundary functions are zero, so
        # the problem is built, but the first step would fold that value in
        end = 0.0 if side == "left" else 1.0
        problem = DiffusionProblem(**self.kwargs(
            init=lambda x: np.where(np.asarray(x) == end, 1.0, 0.0)))
        with pytest.raises(ValueError, match=f"{side} boundary values"):
            cn_solve(problem, GridSpec(0.0, 1.0, 16), 20)

    def test_nonzero_boundary_allowed_when_coefficient_vanishes(self):
        problem = DiffusionProblem(
            **self.kwargs(k_right=0.0, bc_right=lambda t: np.exp(-t))
        )
        assert problem.k_right == 0.0

    def test_alpha_domain(self):
        with pytest.raises(ValueError, match="alpha"):
            DiffusionProblem(**self.kwargs(alpha=0.9))


class TestCNSolve:
    def test_zero_data_stays_zero(self):
        problem = DiffusionProblem(
            a=0.0, b=1.0, t_final=1.0, alpha=1.5, k_left=1.0, k_right=1.0,
            source=lambda x, t: zero_x(x), init=zero_x,
            bc_left=lambda t: 0.0, bc_right=lambda t: 0.0,
        )
        final = cn_solve(problem, GridSpec(0.0, 1.0, 16), 8)
        assert final.shape == (17,)
        assert np.max(np.abs(final)) == 0.0

    def test_order2_benchmark_cell(self):
        problem = polynomial_diffusion_problem(1.5)
        assert final_error(problem, 64, 64, "order2") == pytest.approx(
            5.8863e-07, rel=0.02
        )

    def test_order3_benchmark_cell(self):
        problem = polynomial_diffusion_problem(1.5)
        assert final_error(problem, 64, 513, "order3") == pytest.approx(
            1.1401e-08, rel=0.02
        )

    def test_order2_band(self):
        problem = polynomial_diffusion_problem(1.9)
        errors = [final_error(problem, n, n, "order2") for n in (32, 64, 128)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.9 <= np.log2(coarse / fine) <= 2.1

    def test_nonzero_time_varying_boundary(self):
        # left-only equation so the right boundary may move; exercises
        # the boundary columns of both B and the preconditioner
        problem = moving_right_boundary_problem()
        errors2 = [final_error(problem, n, n, "order2") for n in (32, 64, 128)]
        for coarse, fine in zip(errors2, errors2[1:]):
            assert np.log2(coarse / fine) == pytest.approx(2.0, abs=0.15)
        errors3 = [
            final_error(problem, n, int(np.ceil(n**1.5)), "order3")
            for n in (32, 64, 128)
        ]
        for coarse, fine in zip(errors3, errors3[1:]):
            assert np.log2(coarse / fine) == pytest.approx(3.0, abs=0.15)

    def test_classical_limit_alpha_two(self):
        problem = polynomial_diffusion_problem(2.0)
        assert final_error(problem, 32, 32, "order2") < 2e-6

    def test_bad_step_count(self):
        problem = polynomial_diffusion_problem(1.5)
        with pytest.raises(ValueError, match="time step"):
            cn_solve(problem, GridSpec(0.0, 1.0, 16), 0)

    @pytest.mark.parametrize("bad_after", [0.0, 0.9, 0.97])
    def test_non_finite_source_rejected(self, bad_after):
        # the NaN first shows in the first block, or only in a later one,
        # or only in that block's steps after its last full group
        problem = DiffusionProblem(
            a=0.0, b=1.0, t_final=1.0, alpha=1.5, k_left=1.0, k_right=1.0,
            source=lambda x, t: (np.where(t > bad_after, np.nan, 0.0)
                                 + zero_x(x)),
            init=zero_x, bc_left=lambda t: 0.0, bc_right=lambda t: 0.0,
        )
        # 300 steps: a full block, then full groups and single steps
        single_steps_from = 300 - (300 - STEP_BLOCK) % SUBSTEPS
        assert STEP_BLOCK < 0.9 * 300 and single_steps_from < 0.97 * 300
        with pytest.raises(ValueError, match="state is not finite"):
            cn_solve(problem, GridSpec(0.0, 1.0, 16), 300)

    def test_data_evaluated_once_per_block(self):
        # one source call per block of midpoint times (as a column), one
        # call per boundary function on all step times, none per step
        m_steps = 2 * STEP_BLOCK + 1
        base = moving_right_boundary_problem()
        counted = {name: CountedCalls(getattr(base, name))
                   for name in ("source", "bc_left", "bc_right")}
        problem = replace(base, **counted)
        for counter in counted.values():
            counter.shapes.clear()
        cn_solve(problem, GridSpec(0.0, 1.0, 16), m_steps)
        source_times = [shapes[-1] for shapes in counted["source"].shapes]
        assert source_times == [(STEP_BLOCK, 1), (STEP_BLOCK, 1), (1, 1)]
        for name in ("bc_left", "bc_right"):
            assert counted[name].shapes == [((m_steps + 1,),)]

    def test_non_finite_initial_data_rejected(self):
        problem = DiffusionProblem(
            a=0.0, b=1.0, t_final=1.0, alpha=1.5, k_left=1.0, k_right=1.0,
            source=lambda x, t: zero_x(x),
            init=lambda x: zero_x(x) + np.nan,
            bc_left=lambda t: 0.0, bc_right=lambda t: 0.0,
        )
        with pytest.raises(ValueError, match="state is not finite"):
            cn_solve(problem, GridSpec(0.0, 1.0, 16), 3)


# step counts below, at and around SUBSTEPS, and across STEP_BLOCK
ORACLE_STEPS = (1, SUBSTEPS - 1, SUBSTEPS, SUBSTEPS + 1, 300,
                2 * STEP_BLOCK + 1)


class TestStepMatrixOracle:
    """cn_solve's grouped march against the per-step LU march."""

    @staticmethod
    def assert_agrees(problem, n, m_steps, scheme):
        grid = GridSpec(problem.a, problem.b, n)
        final = cn_solve(problem, grid, m_steps, scheme)
        reference = per_step_march(problem, grid, m_steps, scheme)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(final - reference)) <= 1e-12 * scale

    @pytest.mark.parametrize("m_steps", ORACLE_STEPS)
    @pytest.mark.parametrize("alpha", [1.1, 1.9])
    @pytest.mark.parametrize("scheme", ["order2", "order3"])
    def test_benchmark_problem(self, scheme, alpha, m_steps):
        self.assert_agrees(polynomial_diffusion_problem(alpha), 64,
                           m_steps, scheme)

    @pytest.mark.parametrize("m_steps", ORACLE_STEPS)
    @pytest.mark.parametrize("alpha", [1.1, 1.9])
    @pytest.mark.parametrize("scheme", ["order2", "order3"])
    def test_unequal_coefficients(self, scheme, alpha, m_steps):
        # K1 != K2 makes B, and so E, nonsymmetric
        problem = replace(polynomial_diffusion_problem(alpha),
                          k_left=0.7, k_right=1.3)
        self.assert_agrees(problem, 64, m_steps, scheme)

    @pytest.mark.parametrize("scheme", ["order2", "order3"])
    def test_moving_boundary_folded_into_forcing(self, scheme):
        for m_steps in (SUBSTEPS + 1, 300):
            self.assert_agrees(moving_right_boundary_problem(), 48, m_steps,
                               scheme)


class TestExtendedPrecisionMarch:
    """The grouped march adds no more than a few ulps of round-off to the
    recurrence it marches: at N=128, M=1449 (a table 6 cell) it stays
    within 2e-14 of the same recurrence marched step by step in
    np.longdouble. Streaming the step matrix S once per step drifted by
    up to 2.2e-13 here."""

    @pytest.mark.parametrize("alpha", [1.1, 1.9])
    @pytest.mark.parametrize("scheme", ["order2", "order3"])
    def test_close_to_longdouble_recurrence(self, scheme, alpha):
        problem = polynomial_diffusion_problem(alpha)
        grid = GridSpec(0.0, 1.0, 128)
        final = cn_solve(problem, grid, 1449, scheme)[1:-1]
        reference = longdouble_march(problem, grid, 1449, scheme)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(final - reference)) <= 2e-14 * scale


def dense_cn_system(problem, grid, m_steps, scheme):
    """The full-grid oracle of _cn_system: write out the (N+1)^2 operator
    A[i, j] = w_{i-j+1} / h^alpha entry by entry, form
    B = (tau/2)(K1 A + K2 A^T), and slice its interior and boundary
    columns."""
    alpha = float(problem.alpha)
    tau = problem.t_final / m_steps
    w = grunwald_weights(beta_table(2, 1, alpha), grid.n + 1).values
    i, j = np.indices((grid.n + 1, grid.n + 1))
    k = i - j + 1
    left = np.where(k >= 0, w[np.maximum(k, 0)], 0.0) / grid.h ** alpha
    b_full = 0.5 * tau * (problem.k_left * left + problem.k_right * left.T)
    a2 = float(a2_coefficient(1, alpha)) if scheme == "order3" else 0.0
    p_hat = precondition_rows(np.eye(grid.n + 1, grid.n - 1, k=-1), a2)
    b_hat = b_full[1:-1, 1:-1]
    factors = lu_factor(p_hat - b_hat)
    return dict(b_reduced=b_hat, b_col_left=b_full[1:-1, 0],
                b_col_right=b_full[1:-1, -1],
                increment=lu_solve(factors, 2.0 * b_hat.T, trans=1).T,
                factors=factors)


class TestCNSystemOracle:
    """_cn_system builds B from the operator's column and row; every
    matrix and factor it hands the march is bit-equal to the full-grid
    construction."""

    @pytest.mark.parametrize("n", [16, 64, 512])
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("scheme", ["order2", "order3"])
    @pytest.mark.parametrize("k_left, k_right", [(1.0, 1.0), (0.7, 1.3)])
    def test_bit_equal_to_dense(self, k_left, k_right, scheme, alpha, n):
        problem = replace(polynomial_diffusion_problem(alpha),
                          k_left=k_left, k_right=k_right)
        grid = GridSpec(0.0, 1.0, n)
        system = _cn_system(problem, grid, 64, scheme)
        dense = dense_cn_system(problem, grid, 64, scheme)
        for name in ("b_reduced", "b_col_left", "b_col_right", "increment"):
            assert np.array_equal(getattr(system, name), dense[name]), name
        assert np.array_equal(system.factors[0], dense["factors"][0])
        assert np.array_equal(system.factors[1], dense["factors"][1])


class TestPolynomialDiffusionSource:
    @staticmethod
    def formula(x, t, alpha):
        """The source written out term by term."""
        acc = x**5 * (1.0 - x) ** 5
        for j, c in enumerate((1.0, -5.0, 10.0, -10.0, 5.0, -1.0)):
            acc = acc + c * fractional_poly_source(x, 5 + j, alpha)
        return -np.exp(-t) * acc

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_time_column_rows_match_scalar_calls(self, alpha):
        source = polynomial_diffusion_problem(alpha).source
        times = np.array([0.0, 0.25, 1.0])
        grid_a = np.linspace(0.0, 1.0, 33)
        for x in (grid_a, grid_a**2):
            rows = source(x, times[:, None])
            assert rows.shape == (len(times), len(x))
            for row, t in zip(rows, times):
                assert np.array_equal(row, source(x, t))
                assert np.array_equal(row, self.formula(x, t, alpha))


class TestFractionalPolySource:
    def test_midpoint_symmetry(self):
        alpha, m = 1.5, 5
        value = fractional_poly_source(0.5, m, alpha)
        expected = 2.0 * gamma(m + 1) / gamma(m + 1 - alpha) * 0.5 ** (m - alpha)
        assert value == pytest.approx(expected, rel=1e-14)

    def test_classical_limit_matches_second_derivative(self):
        # as alpha -> 2 the pair tends to the second derivative of
        # x^5 + (1-x)^5, which is 20 x^3 + 20 (1-x)^3
        x = 0.3
        value = fractional_poly_source(x, 5, 2.0 - 1e-9)
        assert value == pytest.approx(20 * x**3 + 20 * (1 - x) ** 3, rel=1e-6)

    def test_domain_checked(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            fractional_poly_source(1.5, 5, 1.5)
        with pytest.raises(ValueError, match="exponent"):
            fractional_poly_source(0.5, 1, 1.5)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_discrete_residual_oracle(self, alpha):
        # u_t - D_l u - D_r u - f should vanish to O(h^2) when evaluated
        # with the discrete operators on the exact solution at t = 0
        problem = polynomial_diffusion_problem(alpha)
        maxima = []
        for n in (256, 512):
            grid = GridSpec(0.0, 1.0, n)
            x = grid.points()
            u = problem.init(x)
            weights = grunwald_weights(beta_table(2, 1, alpha), n + 1)
            left = apply_grunwald(u, weights, grid, "left")
            right = apply_grunwald(u, weights, grid, "right")
            residual = (-u) - left - right - problem.source(x, 0.0)
            maxima.append(np.max(np.abs(residual[1:-1])))
        ratio = maxima[0] / maxima[1]
        assert ratio == pytest.approx(4.0, abs=0.7)


def per_step_stability_check(problem, grid, m_steps, scheme, seed):
    """Reference of stability_estimate_check: one source draw and one LU
    solve of (P - B) v^{m+1} = (P + B) v^m + tau S^m per step. Returns the
    norms, the bounds and the verdict."""
    system = _cn_system(problem, grid, m_steps, scheme)
    rhs_matrix = system.p_reduced + system.b_reduced
    rng = np.random.default_rng(seed)
    amp = np.sqrt(5.0) if scheme == "order3" else 1.0

    def norm(vec):
        return float(np.sqrt(grid.h * np.dot(vec, vec)))

    v = rng.standard_normal(grid.n - 1)
    norms, bounds, total = [norm(v)], [amp * norm(v)], 0.0
    for _ in range(m_steps):
        s = rng.standard_normal(grid.n - 1)
        v = solve_factored(system.factors, rhs_matrix @ v + system.tau * s)
        total += norm(s)
        norms.append(norm(v))
        bounds.append(amp * (norms[0] + amp * system.tau * total))
    norms, bounds = np.array(norms), np.array(bounds)
    return norms, bounds, bool(np.max(norms / bounds) <= 1.0 + 1e-12)


class TestStabilityEstimate:
    @pytest.mark.parametrize("m_steps", [30, 300])
    @pytest.mark.parametrize("alpha", [1.1, 1.9])
    @pytest.mark.parametrize("scheme", ["order2", "order3"])
    def test_block_draw_matches_per_step_iteration(self, scheme, alpha,
                                                   m_steps):
        # K1 != K2 makes B, and so E, nonsymmetric
        problem = replace(polynomial_diffusion_problem(alpha),
                          k_left=0.7, k_right=1.3)
        grid = GridSpec(0.0, 1.0, 32)
        for seed in range(5):
            report = stability_estimate_check(problem, grid, m_steps, scheme,
                                              seed=seed)
            norms, bounds, ok = per_step_stability_check(
                problem, grid, m_steps, scheme, seed)
            assert report.norms == pytest.approx(norms, rel=1e-12, abs=0)
            assert report.bounds == pytest.approx(bounds, rel=1e-12, abs=0)
            assert report.ok == ok

    def test_order2_unforced_monotone(self):
        problem = polynomial_diffusion_problem(1.5)
        report = stability_estimate_check(
            problem, GridSpec(0.0, 1.0, 32), 40, "order2",
            seed=3, source_amplitude=0.0,
        )
        assert report.ok
        assert np.all(np.diff(report.norms) <= 1e-12)

    def test_order3_unforced_bounded(self):
        problem = polynomial_diffusion_problem(1.5)
        report = stability_estimate_check(
            problem, GridSpec(0.0, 1.0, 32), 40, "order3",
            seed=3, source_amplitude=0.0,
        )
        assert report.ok
        assert np.all(report.norms <= np.sqrt(5) * report.norms[0] + 1e-12)

    @pytest.mark.parametrize("scheme", ["order2", "order3"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_forced_bound_holds(self, scheme, seed):
        problem = polynomial_diffusion_problem(1.3)
        report = stability_estimate_check(
            problem, GridSpec(0.0, 1.0, 24), 30, scheme, seed=seed
        )
        assert report.ok, report.max_ratio

    def test_zero_start_zero_source_stays_zero(self):
        problem = polynomial_diffusion_problem(1.5)
        report = stability_estimate_check(
            problem, GridSpec(0.0, 1.0, 16), 10, "order3",
            seed=1, source_amplitude=0.0, init_amplitude=0.0,
        )
        assert report.ok
        assert np.max(report.norms) == 0.0

    def test_requires_homogeneous_boundary(self):
        alpha = 1.5
        problem = DiffusionProblem(
            a=0.0, b=1.0, t_final=1.0, alpha=alpha, k_left=1.0, k_right=0.0,
            source=lambda x, t: zero_x(x), init=zero_x,
            bc_left=lambda t: 0.0, bc_right=lambda t: 1.0,
        )
        with pytest.raises(ValueError, match="homogeneous"):
            stability_estimate_check(problem, GridSpec(0.0, 1.0, 16), 4)

    def test_grid_must_span_domain(self):
        problem = polynomial_diffusion_problem(1.5)
        with pytest.raises(ValueError, match="does not match problem domain"):
            stability_estimate_check(problem, GridSpec(0.0, 2.0, 32), 16)
