"""Crank-Nicolson diffusion stepping, the benchmark source, and the
energy-stability estimate."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import (cholesky, eigvalsh, expm, lu_factor, lu_solve,
                          solve, toeplitz)
from scipy.special import gamma

from grunwald import (
    DiffusionProblem,
    GridSpec,
    a2_coefficient,
    beta_table,
    cn_solve,
    fractional_poly_source,
    grunwald_weights,
    polynomial_diffusion_problem,
    stability_estimate_check,
)
from grunwald.diffusion import _cn_system
from grunwald.operators import (precondition_rows, scheme_operator,
                                toeplitz_generators)


def zero_x(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def final_error(problem, n, m, scheme):
    grid = GridSpec(problem.a, problem.b, n)
    final = cn_solve(problem, grid, m, scheme)
    exact = problem.exact(grid.points(), problem.t_final)
    return float(np.max(np.abs(final - exact)))


def step_forcing(problem, tau, a2, x, m):
    """r_m of step m on all grid values: the boundary values at t_{m+1} in
    rows 0 and n, and tau (P f)(midpoint) between them."""
    f = (problem.source_factor(np.array([(m + 0.5) * tau]))
         * problem.source_profile(x))
    r = np.empty(len(x))
    r[0] = problem.bc_left((m + 1) * tau)
    r[1:-1] = tau * (a2 * (f[:-2] + f[2:]) + (1.0 - 2.0 * a2) * f[1:-1])
    r[-1] = problem.bc_right((m + 1) * tau)
    return r


def per_step_march(problem, grid, m_steps, scheme):
    """Reference CN march on all grid values: one right-hand side
    (P + B) u + r_m, with its Dirichlet rows 0 and n holding only the new
    boundary values, and one LU solve with P - B per step."""
    dense = dense_cn_system(problem, grid, m_steps, scheme)
    rhs_matrix = dense["p_full"] + dense["b_full"]
    rhs_matrix[[0, -1]] = 0.0
    x = grid.points()
    current = np.asarray(problem.init(x), dtype=float)
    for m in range(m_steps):
        r = step_forcing(problem, dense["tau"], dense["a2"], x, m)
        current = lu_solve(dense["factors"], rhs_matrix @ current + r)
    return current


def longdouble_march(problem, grid, m_steps, scheme):
    """The recurrence y <- y + E y + r_m of cn_solve, with y = (P - B) u
    and E the increment of the dense oracle, marched one step at a time in
    extended precision and mapped back with the LU factors. Returns all
    grid values of the final state."""
    dense = dense_cn_system(problem, grid, m_steps, scheme)
    x = grid.points()
    current = np.asarray(problem.init(x), dtype=float)
    ld = np.longdouble
    e = dense["increment"].astype(ld)
    p_minus_b = dense["p_full"].astype(ld) - dense["b_full"].astype(ld)
    y = p_minus_b @ current.astype(ld)
    for m in range(m_steps):
        r = step_forcing(problem, dense["tau"], dense["a2"], x, m)
        y = y + e @ y + r.astype(ld)
    return lu_solve(dense["factors"], y.astype(float))


def moving_right_boundary_problem(alpha=1.5):
    """Left-only equation with exact solution 10 x^8 exp(-t), so the
    right boundary value moves in time."""
    c8 = 10.0 * gamma(9) / gamma(9 - alpha)
    return DiffusionProblem(
        a=0.0, b=1.0, t_final=1.0, alpha=alpha, k_left=1.0, k_right=0.0,
        source_profile=lambda x: (
            10.0 * np.asarray(x) ** 8 + c8 * np.asarray(x) ** (8 - alpha)
        ),
        source_factor=lambda t: -np.exp(-t),
        init=lambda x: 10.0 * np.asarray(x) ** 8,
        bc_left=lambda t: 0.0,
        bc_right=lambda t: 10.0 * np.exp(-t),
        exact=lambda x, t: 10.0 * np.asarray(x) ** 8 * np.exp(-t),
    )


def moving_left_boundary_problem(alpha=1.5):
    """The mirror of moving_right_boundary_problem: a right-only equation
    with exact solution 10 (1-x)^8 exp(-t), so the left boundary value
    moves in time."""
    c8 = 10.0 * gamma(9) / gamma(9 - alpha)
    return DiffusionProblem(
        a=0.0, b=1.0, t_final=1.0, alpha=alpha, k_left=0.0, k_right=1.0,
        source_profile=lambda x: (
            10.0 * (1.0 - np.asarray(x)) ** 8
            + c8 * (1.0 - np.asarray(x)) ** (8 - alpha)
        ),
        source_factor=lambda t: -np.exp(-t),
        init=lambda x: 10.0 * (1.0 - np.asarray(x)) ** 8,
        bc_left=lambda t: 10.0 * np.exp(-t),
        bc_right=lambda t: 0.0,
        exact=lambda x, t: 10.0 * (1.0 - np.asarray(x)) ** 8 * np.exp(-t),
    )


class CountedCalls:
    """Wraps a data function and records the arguments of each call."""

    def __init__(self, fn):
        self.fn, self.calls = fn, []

    def __call__(self, *args):
        self.calls.append(args)
        return self.fn(*args)


class TestProblemValidation:
    def kwargs(self, **overrides):
        base = dict(
            a=0.0, b=1.0, t_final=1.0, alpha=1.5, k_left=1.0, k_right=1.0,
            source_profile=zero_x, source_factor=lambda t: 0.0, init=zero_x,
            bc_left=lambda t: 0.0, bc_right=lambda t: 0.0,
        )
        base.update(overrides)
        return base

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DiffusionProblem(**self.kwargs(k_left=-1.0))

    @pytest.mark.parametrize("field, value", [
        ("t_final", np.nan), ("t_final", np.inf), ("k_left", np.nan),
        ("k_right", np.inf), ("a", -np.inf), ("b", np.nan)])
    def test_non_finite_scalar_rejected(self, field, value):
        with pytest.raises(ValueError,
                           match=f"^DiffusionProblem.{field} must be finite"):
            DiffusionProblem(**self.kwargs(**{field: value}))

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
        # the problem is built, but the first step would carry that value in
        end = 0.0 if side == "left" else 1.0
        problem = DiffusionProblem(**self.kwargs(
            init=lambda x: np.where(np.asarray(x) == end, 1.0, 0.0)))
        with pytest.raises(ValueError, match=f"{side} boundary values"):
            cn_solve(problem, GridSpec(0.0, 1.0, 16), 20)

    def test_refused_before_set_up(self, monkeypatch):
        # every data check runs before _cn_system factors P - B
        def factor(*args, **kwargs):
            pytest.fail("P - B was factored for input that is refused")

        monkeypatch.setattr("grunwald.diffusion.checked_lu", factor)
        grid = GridSpec(0.0, 1.0, 16)
        problem = DiffusionProblem(**self.kwargs(
            init=lambda x: zero_x(x) + np.nan))
        with pytest.raises(ValueError, match="^initial state is not finite$"):
            cn_solve(problem, grid, 20)
        problem = DiffusionProblem(**self.kwargs(
            bc_right=lambda t: np.where((t > 0.1) & (t < 0.2), 1.0, 0.0)))
        with pytest.raises(ValueError, match="right boundary values"):
            cn_solve(problem, grid, 20)
        with pytest.raises(ValueError, match="homogeneous boundaries"):
            stability_estimate_check(problem, grid, 20)
        problem = DiffusionProblem(**self.kwargs(
            source_profile=lambda x: zero_x(x) + np.nan))
        with pytest.raises(ValueError, match="^source profile is not finite$"):
            cn_solve(problem, grid, 20)
        problem = DiffusionProblem(**self.kwargs(
            source_factor=lambda t: np.where(t > 0.9, np.nan, 0.0)))
        with pytest.raises(ValueError, match="not finite at step 19$"):
            cn_solve(problem, grid, 20)
        problem = DiffusionProblem(**self.kwargs())
        for run in (cn_solve, stability_estimate_check):
            with pytest.raises(ValueError, match="step count must be an "
                                                 "integer, got 16.0$"):
                run(problem, grid, 16.0)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_non_finite_boundary_rejected(self, side):
        # on a side with a zero coefficient, which may take nonzero values
        problem = DiffusionProblem(**self.kwargs(**{
            f"k_{side}": 0.0,
            f"bc_{side}": lambda t: np.where(t > 0.5, np.nan, 0.0)}))
        with pytest.raises(ValueError,
                           match=f"^{side} boundary is not finite$"):
            cn_solve(problem, GridSpec(0.0, 1.0, 16), 20)

    @pytest.mark.parametrize("run", [cn_solve, stability_estimate_check])
    def test_domain_reported_before_step_count(self, run):
        problem = DiffusionProblem(**self.kwargs())
        with pytest.raises(ValueError, match="does not match problem domain"):
            run(problem, GridSpec(0.0, 2.0, 16), 0)

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
            source_profile=zero_x, source_factor=lambda t: 0.0, init=zero_x,
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
        self.assert_moving_boundary_orders(moving_right_boundary_problem())

    def test_nonzero_time_varying_left_boundary(self):
        # the mirror: a right-only equation whose left boundary moves
        self.assert_moving_boundary_orders(moving_left_boundary_problem())

    @staticmethod
    def assert_moving_boundary_orders(problem):
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

    @pytest.mark.parametrize("m_steps", [True, "16", None])
    def test_non_integer_step_count(self, m_steps):
        problem = polynomial_diffusion_problem(1.5)
        grid = GridSpec(0.0, 1.0, 16)
        for run in (cn_solve, stability_estimate_check):
            with pytest.raises(ValueError,
                               match="step count must be an integer"):
                run(problem, grid, m_steps)

    def test_numpy_integer_step_count(self):
        problem = polynomial_diffusion_problem(1.5)
        grid = GridSpec(0.0, 1.0, 16)
        assert np.array_equal(cn_solve(problem, grid, np.int64(16), "order3"),
                              cn_solve(problem, grid, 16, "order3"))
        report = stability_estimate_check(problem, grid, np.int64(16))
        assert np.array_equal(
            report.norms, stability_estimate_check(problem, grid, 16).norms)

    @pytest.mark.parametrize("bad_after", [0.0, 0.9, 0.97])
    def test_non_finite_source_rejected(self, bad_after, monkeypatch):
        # refused before the set-up, naming the first step whose midpoint
        # t_{m+1/2} = (m + 1/2) / 513 lies past bad_after
        def factor(*args, **kwargs):
            pytest.fail("P - B was factored for input that is refused")

        monkeypatch.setattr("grunwald.diffusion.checked_lu", factor)
        problem = DiffusionProblem(
            a=0.0, b=1.0, t_final=1.0, alpha=1.5, k_left=1.0, k_right=1.0,
            source_profile=zero_x,
            source_factor=lambda t: np.where(t > bad_after, np.nan, 0.0),
            init=zero_x, bc_left=lambda t: 0.0, bc_right=lambda t: 0.0,
        )
        step = {0.0: 1, 0.9: 463, 0.97: 499}[bad_after]
        with pytest.raises(ValueError,
                           match=f"^source factor is not finite at step "
                                 f"{step}$"):
            cn_solve(problem, GridSpec(0.0, 1.0, 16), 513)

    @staticmethod
    def assert_overflow_rejected(profile):
        # finite data with a factor of 1e300 from step 258, the first
        # midpoint past 0.5 of 513 steps. The march sums its groups from
        # the last, so it names no step; it refuses the state before the
        # solve and never returns it
        problem = DiffusionProblem(
            a=0.0, b=1.0, t_final=1.0, alpha=1.5, k_left=1.0, k_right=1.0,
            source_profile=lambda x: zero_x(x) + profile,
            source_factor=lambda t: np.where(t > 0.5, 1e300, 0.0),
            init=zero_x, bc_left=lambda t: 0.0, bc_right=lambda t: 0.0,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^state is not finite$"):
                cn_solve(problem, GridSpec(0.0, 1.0, 16), 513)

    def test_overflow_in_the_march_rejected(self):
        # a profile of 1e300: the forcing rows overflow
        self.assert_overflow_rejected(1e300)

    def test_overflow_of_finite_forcing_rows_rejected(self):
        # a profile of 5e10: each forcing row is finite (about 1e308),
        # but their sum overflows
        self.assert_overflow_rejected(5e10)

    def test_data_evaluated_once_per_run(self):
        # each data function is called once, before the set-up: init and
        # the profile on the grid, each boundary on all step times and the
        # factor on all midpoint times; the march calls none of them
        m_steps = 513
        base = moving_right_boundary_problem()
        names = ("init", "source_profile", "source_factor", "bc_left",
                 "bc_right")
        counted = {name: CountedCalls(getattr(base, name)) for name in names}
        problem = replace(base, **counted)
        for counter in counted.values():
            counter.calls.clear()
        grid = GridSpec(0.0, 1.0, 16)
        cn_solve(problem, grid, m_steps)
        tau = problem.t_final / m_steps
        expected = {
            "init": grid.points(), "source_profile": grid.points(),
            "source_factor": tau * (np.arange(m_steps) + 0.5),
            "bc_left": tau * np.arange(m_steps + 1),
            "bc_right": tau * np.arange(m_steps + 1),
        }
        for name in names:
            (points,), = counted[name].calls
            np.testing.assert_array_equal(points, expected[name])

    def test_first_group_without_a_step(self):
        # 16 steps at stride 4: the first group of rows of v holds 3
        # padding rows and y_0 but no step, and only its y_0 coefficient
        # meets the top power (I + E_4)^4 of the Krylov block
        base = polynomial_diffusion_problem(1.5)
        grid = GridSpec(0.0, 1.0, 16)
        final = cn_solve(base, grid, 16, "order3")
        reference = per_step_march(base, grid, 16, "order3")
        assert np.max(np.abs(final - reference)) <= (
            1e-12 * np.max(np.abs(reference)))

    def test_non_finite_initial_data_rejected(self):
        problem = DiffusionProblem(
            a=0.0, b=1.0, t_final=1.0, alpha=1.5, k_left=1.0, k_right=1.0,
            source_profile=zero_x, source_factor=lambda t: 0.0,
            init=lambda x: zero_x(x) + np.nan,
            bc_left=lambda t: 0.0, bc_right=lambda t: 0.0,
        )
        with pytest.raises(ValueError, match="state is not finite"):
            cn_solve(problem, GridSpec(0.0, 1.0, 16), 3)


# step counts: one step, whose block of stride 1 takes only the basis and
# one product; s^2 - 1, s^2 and s^2 + 1, where the stride doubles to s = 4,
# 8 and 16 and the block loses about half its products; 79, where M + 1 is
# a multiple of the stride 8 and no padding row is added; 300; and 513,
# whose first group of 16 coefficient rows holds y_0 and a single step
ORACLE_STEPS = (1, *(s * s + d for s in (4, 8, 16) for d in (-1, 0, 1)),
                79, 300, 513)


class TestStepMatrixOracle:
    """cn_solve's low-rank march against the per-step LU march."""

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
    def test_moving_boundary_inside_forcing_rows(self, scheme):
        # the second right boundary is 10 at t_0 (from the initial data),
        # then 0 up to t_496 of 513 steps: the group of steps 481 to 496
        # sees a nonzero value only as the new value of its last step
        moving = moving_right_boundary_problem()
        late = replace(moving, bc_right=lambda t: np.where(
            t < 0.968, 0.0, 10.0 * np.exp(-t)))
        for problem in (moving, late):
            for m_steps in (17, 300, 513):
                self.assert_agrees(problem, 48, m_steps, scheme)

    @pytest.mark.parametrize("scheme", ["order2", "order3"])
    def test_moving_left_boundary(self, scheme):
        # the e_0 column of the Krylov block; with a zero profile only the
        # y_0 column and one boundary column stay in the block
        moving_left = moving_left_boundary_problem()
        problems = (moving_left, replace(moving_left, source_profile=zero_x),
                    replace(moving_right_boundary_problem(),
                            source_profile=zero_x))
        for problem in problems:
            for m_steps in (17, 300, 513):
                self.assert_agrees(problem, 48, m_steps, scheme)


class TestExtendedPrecisionMarch:
    """The low-rank march (a Krylov block in (I + E)^s, its coefficient
    sums and the outer Horner sum) adds no more than a few ulps of
    round-off to the recurrence it evaluates: at N=128, M=1449 (a table 6
    cell) it stays within 2e-14 of the same recurrence marched step by
    step in np.longdouble. Streaming the step matrix S once per step
    drifted by up to 2.2e-13 here."""

    @pytest.mark.parametrize("alpha", [1.1, 1.9])
    @pytest.mark.parametrize("scheme", ["order2", "order3"])
    def test_close_to_longdouble_recurrence(self, scheme, alpha):
        problem = polynomial_diffusion_problem(alpha)
        grid = GridSpec(0.0, 1.0, 128)
        final = cn_solve(problem, grid, 1449, scheme)
        reference = longdouble_march(problem, grid, 1449, scheme)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(final - reference)) <= 2e-14 * scale


def semi_discrete(problem, grid, scheme):
    """The CN scheme's space discretisation on the interior, with
    homogeneous boundaries: P u' = L u + phi(t) P q with L = K1 A + K2 A^T.
    Returns P, L and P q."""
    col, row, a2, _ = scheme_operator(scheme, float(problem.alpha), grid)
    a = toeplitz(col, row)[1:-1, 1:-1]
    size = grid.n - 1
    p = precondition_rows(np.eye(size + 2, size, k=-1), a2)
    pq = precondition_rows(problem.source_profile(grid.points()), a2)
    return p, problem.k_left * a + problem.k_right * a.T, pq


def time_exact_final(problem, grid, scheme):
    """Interior values at t = T of the semi-discrete system, exact in time
    for the factor phi = -exp(-t): with G = P^-1 L and c = P^-1 P q,
    u(T) = e^(GT) u_0 - (G + I)^-1 (e^(GT) - e^-T I) c."""
    p, l, pq = semi_discrete(problem, grid, scheme)
    g, c = solve(p, l), solve(p, pq)
    t = problem.t_final
    e_gt = expm(t * g)
    identity = np.eye(len(c))
    u_0 = problem.init(grid.points())[1:-1]
    return e_gt @ u_0 - solve(g + identity, (e_gt - np.exp(-t) * identity) @ c)


def backward_euler_march(problem, grid, m_steps, scheme):
    """A first-order step on the same operator:
    (P - tau L) u_next = P u + tau phi(t_next) P q. Returns all grid
    values, with zero ends."""
    p, l, pq = semi_discrete(problem, grid, scheme)
    tau = problem.t_final / m_steps
    factors = lu_factor(p - tau * l)
    u = problem.init(grid.points())[1:-1]
    for phi in problem.source_factor(tau * np.arange(1, m_steps + 1)):
        u = lu_solve(factors, p @ u + tau * phi * pq)
    return np.pad(u, 1)


# from 16 to 32 steps the order reads up to 2.35 (alpha=1.9, K1 != K2)
TIME_STEPS = (32, 64, 128, 256)


def time_orders(march, problem, grid, scheme):
    """Observed orders in M of a march's distance from time_exact_final."""
    reference = time_exact_final(problem, grid, scheme)
    errors = [np.max(np.abs(march(problem, grid, m, scheme)[1:-1]
                            - reference)) for m in TIME_STEPS]
    return np.log2(np.divide(errors[:-1], errors[1:]))


def second_order_in_time(orders):
    return bool(np.all(np.abs(orders - 2.0) <= 0.01))


class TestTimeOrder:
    """CN's error in time alone: against the solution of its own space
    discretisation, exact in time, the order in M is 2 (measured 1.9993 to
    2.0037 at N=64). The tables move N and M together and cannot see it."""

    @pytest.mark.parametrize("k_left, k_right", [(1.0, 1.0), (0.7, 1.3)])
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("scheme", ["order2", "order3"])
    def test_cn_is_second_order_in_time(self, scheme, alpha, k_left,
                                        k_right):
        # K1 != K2 makes G nonsymmetric
        problem = replace(polynomial_diffusion_problem(alpha),
                          k_left=k_left, k_right=k_right)
        orders = time_orders(cn_solve, problem, GridSpec(0.0, 1.0, 64),
                             scheme)
        assert second_order_in_time(orders), orders

    @pytest.mark.parametrize("scheme", ["order2", "order3"])
    def test_gate_rejects_backward_euler(self, scheme):
        orders = time_orders(backward_euler_march,
                             polynomial_diffusion_problem(1.5),
                             GridSpec(0.0, 1.0, 64), scheme)
        assert not second_order_in_time(orders)
        assert np.all(np.abs(orders - 1.0) <= 0.01), orders


def dense_cn_system(problem, grid, m_steps, scheme):
    """The full-grid oracle of _cn_system, written out entry by entry: the
    (N+1)^2 operator A[i, j] = w_{i-j+1} / h^alpha,
    B = (tau/2)(K1 A + K2 A^T) with rows 0 and N zeroed, P with the
    stencil (a2, 1 - 2 a2, a2) on rows 1 .. N-1 and the identity's rows 0
    and N, the factors of P - B and the increment E = D (P - B)^-1, D = 2B
    but for -1 at (0, 0) and (N, N). p_hat and b_hat are the dense
    interior P and B."""
    alpha = float(problem.alpha)
    tau = problem.t_final / m_steps
    w = grunwald_weights(beta_table(2, 1, alpha), grid.n + 1).values
    i, j = np.indices((grid.n + 1, grid.n + 1))
    k = i - j + 1
    left = np.where(k >= 0, w[np.maximum(k, 0)], 0.0) / grid.h ** alpha
    b_toeplitz = 0.5 * tau * (problem.k_left * left
                              + problem.k_right * left.T)
    a2 = float(a2_coefficient(1, alpha)) if scheme == "order3" else 0.0
    inner = (0 < i) & (i < grid.n)
    b_full = np.where(inner, b_toeplitz, 0.0)
    p_full = np.where(i == j, np.where(inner, 1.0 - 2.0 * a2, 1.0),
                      np.where(inner & (abs(i - j) == 1), a2, 0.0))
    d_full = 2.0 * b_full
    d_full[0, 0] = d_full[-1, -1] = -1.0
    factors = lu_factor(p_full - b_full)
    return dict(tau=tau, a2=a2, p_full=p_full, b_full=b_full,
                p_hat=p_full[1:-1, 1:-1], b_hat=b_full[1:-1, 1:-1],
                increment=lu_solve(factors, d_full.T, trans=1).T,
                factors=factors)


class TestCNSystemOracle:
    """_cn_system builds B from the operator's column and row; every
    matrix, factor and start it hands the march is bit-equal to the
    full-grid construction."""

    @pytest.mark.parametrize("n", [16, 64, 512])
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("scheme", ["order2", "order3"])
    @pytest.mark.parametrize("k_left, k_right", [(1.0, 1.0), (0.7, 1.3)])
    def test_bit_equal_to_dense(self, k_left, k_right, scheme, alpha, n):
        problem = replace(polynomial_diffusion_problem(alpha),
                          k_left=k_left, k_right=k_right)
        grid = GridSpec(0.0, 1.0, n)
        system, _ = _cn_system(problem, grid, 64, scheme, grid.points())
        dense = dense_cn_system(problem, grid, 64, scheme)
        assert np.array_equal(system.increment, dense["increment"])
        assert np.array_equal(system.factors[0], dense["factors"][0])
        assert np.array_equal(system.factors[1], dense["factors"][1])

    @pytest.mark.parametrize("n", [2, 3, 16, 512])
    @pytest.mark.parametrize("scheme", ["order2", "order3"])
    def test_march_coordinates_match_dense(self, scheme, n):
        # the march's start y = (P - B) u, one product with P - B
        problem = replace(polynomial_diffusion_problem(1.5),
                          k_left=0.7, k_right=1.3)
        grid = GridSpec(0.0, 1.0, n)
        dense = dense_cn_system(problem, grid, 64, scheme)
        u = np.random.default_rng(n).standard_normal(n + 1)
        _, y = _cn_system(problem, grid, 64, scheme, u)
        assert np.array_equal(y, (dense["p_full"] - dense["b_full"]) @ u)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("scheme", ["order2", "order3"])
    def test_dirichlet_rows_of_increment(self, scheme, alpha):
        # rows 0 and N of I + E vanish, so each step's boundary values are
        # the ones its forcing carries
        problem = replace(polynomial_diffusion_problem(alpha),
                          k_left=0.7, k_right=1.3)
        grid = GridSpec(0.0, 1.0, 64)
        system, _ = _cn_system(problem, grid, 64, scheme, grid.points())
        increment = system.increment
        identity = np.eye(grid.n + 1)
        for row in (0, -1):
            assert np.max(np.abs(increment[row] + identity[row])) <= 1e-13

    @pytest.mark.parametrize("scheme", ["order2", "order3"])
    def test_end_values_are_boundary_data(self, scheme):
        problem = moving_right_boundary_problem()
        for m_steps in (1, 17, 300):
            final = cn_solve(problem, GridSpec(0.0, 1.0, 48), m_steps, scheme)
            t_last = np.array([problem.t_final / m_steps * m_steps])
            assert final[0] == problem.bc_left(t_last)
            assert final[-1] == problem.bc_right(t_last)[0]


class TestEnergyConditions:
    """The two conditions of the energy method: (a) sym(B) <= 0 and (b) P
    symmetric positive definite make every CN step a contraction in the
    P-norm. With P = L L^T, ||S||_P is the spectral norm of L^T S L^-T."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(alpha=st.floats(1.05, 2.0), n=st.integers(8, 64),
           m_steps=st.integers(1, 64), k_left=st.floats(0.0, 2.0),
           k_right=st.floats(0.0, 2.0),
           scheme=st.sampled_from(["order2", "order3"]))
    def test_step_contracts_in_p_norm(self, alpha, n, m_steps, k_left,
                                      k_right, scheme):
        assume(k_left > 0 or k_right > 0)
        problem = replace(polynomial_diffusion_problem(alpha),
                          k_left=k_left, k_right=k_right)
        dense = dense_cn_system(problem, GridSpec(0.0, 1.0, n), m_steps,
                                scheme)
        p_hat, b_hat = dense["p_hat"], dense["b_hat"]
        assume(eigvalsh(0.5 * (b_hat + b_hat.T))[-1] <= 0.0)
        step = solve(p_hat - b_hat, p_hat + b_hat)
        lower = cholesky(p_hat, lower=True)
        conjugated = solve(lower, (lower.T @ step).T).T  # L^T S L^-T
        assert np.linalg.norm(conjugated, 2) <= 1.0 + 1e-12


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
        # the rows factor(t) * profile(x) of a column of times, as cn_solve
        # forms them, equal the factor at each single time times the
        # profile, and the source written out term by term
        problem = polynomial_diffusion_problem(alpha)
        times = np.array([0.0, 0.25, 1.0])
        grid_a = np.linspace(0.0, 1.0, 33)
        for x in (grid_a, grid_a**2):
            profile = problem.source_profile(x)
            rows = problem.source_factor(times)[:, None] * profile
            assert rows.shape == (len(times), len(x))
            for row, t in zip(rows, times):
                assert np.array_equal(
                    row, problem.source_factor(np.array([t])) * profile)
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
            col, row = toeplitz_generators(beta_table(2, 1, alpha), grid)
            left = toeplitz(col, row) @ u
            right = toeplitz(row, col) @ u
            f = problem.source_factor(np.zeros(1)) * problem.source_profile(x)
            residual = (-u) - left - right - f
            maxima.append(np.max(np.abs(residual[1:-1])))
        ratio = maxima[0] / maxima[1]
        assert ratio == pytest.approx(4.0, abs=0.7)


def per_step_stability_check(problem, grid, m_steps, scheme, seed):
    """Reference of stability_estimate_check: one source draw and one LU
    solve of (P - B) v^{m+1} = (P + B) v^m + tau S^m per step, on the
    interior unknowns (zero boundary values drop out). Returns the norms,
    the bounds and the verdict."""
    dense = dense_cn_system(problem, grid, m_steps, scheme)
    p_hat, b_hat, tau = dense["p_hat"], dense["b_hat"], dense["tau"]
    factors = lu_factor(p_hat - b_hat)
    rng = np.random.default_rng(seed)
    amp = np.sqrt(5.0) if scheme == "order3" else 1.0

    def norm(vec):
        return float(np.sqrt(grid.h * np.dot(vec, vec)))

    v = rng.standard_normal(grid.n - 1)
    norms, bounds, total = [norm(v)], [amp * norm(v)], 0.0
    for _ in range(m_steps):
        s = rng.standard_normal(grid.n - 1)
        v = lu_solve(factors, (p_hat + b_hat) @ v + tau * s)
        total += norm(s)
        norms.append(norm(v))
        bounds.append(amp * (norms[0] + amp * tau * total))
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
        if scheme == "order2":
            # step 0 alone reads exactly 1; the march stays clear of it
            assert report.max_ratio < 1.0, report.max_ratio

    def test_requires_homogeneous_boundary(self):
        alpha = 1.5
        problem = DiffusionProblem(
            a=0.0, b=1.0, t_final=1.0, alpha=alpha, k_left=1.0, k_right=0.0,
            source_profile=zero_x, source_factor=lambda t: 0.0, init=zero_x,
            bc_left=lambda t: 0.0, bc_right=lambda t: 1.0,
        )
        with pytest.raises(ValueError, match="homogeneous"):
            stability_estimate_check(problem, GridSpec(0.0, 1.0, 16), 4)

    def test_bad_step_count(self):
        problem = polynomial_diffusion_problem(1.5)
        with pytest.raises(ValueError, match="need at least one time step"):
            stability_estimate_check(problem, GridSpec(0.0, 1.0, 16), -1)

    def test_grid_must_span_domain(self):
        problem = polynomial_diffusion_problem(1.5)
        with pytest.raises(ValueError, match="does not match problem domain"):
            stability_estimate_check(problem, GridSpec(0.0, 2.0, 32), 16)
