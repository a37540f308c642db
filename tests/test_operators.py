"""Grid operators: the Toeplitz column and row and the matrix they
determine, applied to grid values; the tridiagonal preconditioner, the top
eigenvalue of a symmetric Toeplitz matrix, and the two checked solves: the
dense LU (the CN step) and the lower Hessenberg solve through the
triangular Toeplitz embedding (steady solves), with the lower bound on its
reciprocal condition number."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from grunwald import (
    GeneratorSpec,
    GridSpec,
    SolverFailure,
    a2_coefficient,
    beta_table,
    grunwald_weights,
    polynomial_steady_problem,
)
from grunwald import operators
from grunwald.operators import (
    RCOND_FLOOR,
    checked_hessenberg_solve,
    checked_lu,
    hessenberg_rcond,
    precondition_rows,
    preconditioner_eigenvalues,
    scheme_operator,
    solve_factored,
    toeplitz_generators,
    toeplitz_top_eigenvalue,
)
from scipy.linalg import eigvalsh, solve_triangular, toeplitz


class TestGridSpec:
    def test_spacing_and_points(self):
        grid = GridSpec(0.0, 2.0, 4)
        assert grid.h == 0.5
        assert grid.points() == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])

    def test_too_few_subintervals(self):
        with pytest.raises(ValueError, match="at least 2"):
            GridSpec(0.0, 1.0, 1)

    def test_inverted_endpoints(self):
        for b in (0.0, 1.0):  # b < a, and the empty interval b = a
            with pytest.raises(ValueError, match="a < b"):
                GridSpec(1.0, b, 4)

    @pytest.mark.parametrize("a, b, field", [
        (0.0, np.inf, "b"), (np.nan, 1.0, "a"), (-np.inf, 0.0, "a")])
    def test_non_finite_ends(self, a, b, field):
        with pytest.raises(ValueError,
                           match=f"^GridSpec.{field} must be finite"):
            GridSpec(a, b, 16)

    @pytest.mark.parametrize("n", [16.0, np.float64(16), "16", True, None])
    def test_non_integer_size(self, n):
        with pytest.raises(ValueError, match="grid size must be an integer"):
            GridSpec(0.0, 1.0, n)

    def test_numpy_integer_size(self):
        grid = GridSpec(0.0, 1.0, np.int64(16))
        assert grid.h == 1 / 16
        assert grid.points().shape == (17,)


def dense_operator(generator, grid, side="left"):
    """The operator matrix built from its first column and row; the
    right-side operator is the transpose, toeplitz(row, col)."""
    col, row = toeplitz_generators(generator, grid)
    return toeplitz(col, row) if side == "left" else toeplitz(row, col)


def convolve_operator(u, weights, grid, side="left"):
    """The shift-1 operator at order 1.5 as a convolution of the grid
    values with the weights: v_i = sum_k w_k u_(i-k+1) / h^1.5, and the
    right side mirrors the stencil."""
    step = 1 if side == "left" else -1
    n = grid.n
    return np.convolve(weights, u[::step])[1: n + 2][::step] / grid.h**1.5


class TestAssemble:
    """The dense matrix that toeplitz_generators determines."""

    def test_first_order_unshifted_is_backward_difference(self):
        grid = GridSpec(0.0, 2.0, 2)  # h = 1
        spec = GeneratorSpec(alpha=1, shift=0, beta=(1, -1))
        dense = dense_operator(spec, grid)
        expected = np.array(
            [[1.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]]
        )
        assert np.allclose(dense, expected, atol=1e-15)

    def test_shifted_first_row_by_hand(self):
        grid = GridSpec(0.0, 1.0, 3)
        generator = beta_table(2, 1, 1.5)
        dense = dense_operator(generator, grid)
        w = grunwald_weights(generator, 4).values
        scale = grid.h**1.5
        assert dense[0] == pytest.approx(
            np.array([w[1], w[0], 0.0, 0.0]) / scale
        )
        # entry (i, j) = w_{i-j+1}: second row reads w2 w1 w0 0
        assert dense[1] == pytest.approx(
            np.array([w[2], w[1], w[0], 0.0]) / scale
        )

    @pytest.mark.parametrize("order, shift, alpha, n", [
        (2, 0, 1.5, 9), (2, 1, 1.5, 9), (3, 2, 1.9, 9), (3, 3, 1.1, 9),
        (3, 2, 1.9, 2), (3, 3, 1.1, 2),
    ], ids=["r0", "r1", "r2", "r3", "r2-n2", "r3-n2"])
    def test_weight_count_follows_shift(self, order, shift, alpha, n):
        # the column holds n + 1 weights from w_shift on: entry (i, j) is
        # w_{i-j+shift} / h^alpha, and zero where i - j + shift < 0 (each
        # case has beta_0 > 0, so its weights exist); from shift = n the
        # row holds only the first n + 1 of w_shift ... w_0
        grid = GridSpec(0.0, 1.0, n)
        generator = beta_table(order, shift, alpha)
        col, row = toeplitz_generators(generator, grid)
        assert len(col) == len(row) == grid.n + 1
        w = grunwald_weights(generator, grid.n + shift).values
        i, j = np.indices((grid.n + 1, grid.n + 1))
        k = i - j + shift
        expected = np.where(k >= 0, w[np.maximum(k, 0)], 0.0) / grid.h**alpha
        assert np.array_equal(toeplitz(col, row), expected)

    def test_right_side_is_transpose(self):
        grid = GridSpec(0.0, 1.0, 6)
        generator = beta_table(2, 1, 1.5)
        left = dense_operator(generator, grid, "left")
        right = dense_operator(generator, grid, "right")
        assert np.array_equal(right, left.T)
        u = np.arange(7.0)
        weights = grunwald_weights(generator, 7).values
        assert right @ u == pytest.approx(
            convolve_operator(u, weights, grid, "right"), rel=1e-13)

    def test_overflowing_scale_rejected(self):
        # h = 50: h^300 is inf, which would make every entry 0, an operator
        # that reads as semi-definite
        with pytest.raises(ValueError, match=r"^h\^alpha = 50\.0\^300\.0 "
                                             r"is inf$"):
            toeplitz_generators(beta_table(2, 1, 300.0),
                                GridSpec(0.0, 100.0, 2))

    def test_real_shift_rejected(self):
        grid = GridSpec(0.0, 1.0, 4)
        spec = GeneratorSpec(alpha=1.5, shift=0.75, beta=(1, -1))
        with pytest.raises(ValueError, match="integer shift"):
            toeplitz_generators(spec, grid)

    def test_matrix_apply_method(self):
        # the generators carry the generator's shift (1: the diagonal
        # holds w_1) and order (1.5: the scale h^1.5), and the matrix they
        # determine applies the operator
        grid = GridSpec(0.0, 1.0, 8)
        generator = beta_table(2, 1, 1.5)
        col, row = toeplitz_generators(generator, grid)
        w = grunwald_weights(generator, 9).values
        assert col[0] == row[0] == w[1] / grid.h**1.5
        assert row[1] == w[0] / grid.h**1.5
        assert not np.any(row[2:])
        u = np.arange(9.0)
        assert toeplitz(col, row) @ u == pytest.approx(
            convolve_operator(u, w, grid, "left"), rel=1e-13)


class TestApply:
    """The operator applied to grid values as the product of its Toeplitz
    matrix."""

    def test_zero_input(self):
        grid = GridSpec(0.0, 1.0, 8)
        out = dense_operator(beta_table(2, 1, 1.5), grid) @ np.zeros(9)
        assert np.all(out == 0.0)

    def test_backward_difference_case(self):
        grid = GridSpec(0.0, 1.0, 4)
        spec = GeneratorSpec(alpha=1, shift=0, beta=(1, -1))
        u = np.array([0.0, 1.0, 4.0, 9.0, 16.0])
        got = dense_operator(spec, grid) @ u
        h = grid.h
        expected = np.concatenate(([u[0] / h], (u[1:] - u[:-1]) / h))
        assert got == pytest.approx(expected)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_matches_matrix_action(self, side, n):
        rng = np.random.default_rng(42 + n)
        grid = GridSpec(0.0, 1.0, n)
        generator = beta_table(2, 1, 1.5)
        u = rng.standard_normal(n + 1)
        direct = dense_operator(generator, grid, side) @ u
        conv = convolve_operator(
            u, grunwald_weights(generator, n + 1).values, grid, side)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(direct - conv)) <= 1e-13 * scale

    def test_constant_input_equals_partial_sums(self):
        # for u = 1 the product telescopes into the cumulative weight
        # sums, which tend to zero; this is the discrete version of the
        # derivative of a constant vanishing (the last row is excluded:
        # its stencil sticks out past the boundary)
        n = 2000
        grid = GridSpec(0.0, 1.0, n)
        generator = beta_table(2, 1, 1.5)
        out = dense_operator(generator, grid) @ np.ones(n + 1)
        sums = np.cumsum(grunwald_weights(generator, n + 1).values)
        assert out[:-1] * grid.h**1.5 == pytest.approx(sums[1:-1], abs=1e-12)
        assert abs(out[-2] * grid.h**1.5) < 1e-3

    def test_monomial_residual_second_order(self):
        # rows 0..n-1 carry the h^2 truncation residual (the last row
        # reads the ghost point past the boundary and is never solved on)
        problem = polynomial_steady_problem(1.5)
        maxima = []
        for n in (512, 1024):
            grid = GridSpec(0.0, 1.0, n)
            approx = (dense_operator(beta_table(2, 1, 1.5), grid)
                      @ problem.exact(grid.points()))
            residual = np.abs(approx - problem.source(grid.points()))
            maxima.append(residual[:-1].max())
        assert maxima[0] / maxima[1] == pytest.approx(4.0, abs=0.5)
        assert maxima[1] == pytest.approx(1.22e-3, rel=0.05)


def preconditioner_matrix(a2, n):
    """Zero-extended (n+1) x (n+1) matrix of the stencil on an n-interval
    grid: the stencil applied to the zero-padded identity."""
    return precondition_rows(np.eye(n + 3, n + 1, k=-1), a2)


class TestPreconditioner:
    def test_zero_coefficient_is_identity(self):
        dense = preconditioner_matrix(0.0, 5)
        assert np.array_equal(dense, np.eye(6))

    # each entry at most 2^1022 in size, so no sum of two neighbours
    # overflows (0 * inf would be NaN)
    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64,
                  st.lists(st.integers(2, 9), min_size=1, max_size=2).map(
                      tuple),
                  elements=st.floats(-2.0**1022, 2.0**1022)))
    def test_zero_coefficient_keeps_interior_values(self, values):
        assert np.array_equal(precondition_rows(values, 0.0), values[1:-1])

    def test_interior_row_sums_are_one(self):
        dense = preconditioner_matrix(1.0 / 12.0, 9)
        assert dense[1:-1].sum(axis=1) == pytest.approx(np.ones(8))

    def test_classical_compact_stencil(self):
        # a2(1, 2) = 1/12 gives the familiar (1/12, 5/6, 1/12) stencil
        dense = preconditioner_matrix(1.0 / 12.0, 4)
        assert dense[2] == pytest.approx([0, 1 / 12, 5 / 6, 1 / 12, 0])

    def test_symmetric(self):
        dense = preconditioner_matrix(0.17, 7)
        assert np.array_equal(dense, dense.T)

    @pytest.mark.parametrize("size", [3, 17, 32, 63, 64])
    @pytest.mark.parametrize("alpha", [1.0, 1.1, 1.5, np.sqrt(1.5), 1.9, 2.0])
    def test_closed_form_spectrum(self, alpha, size):
        a2 = float(a2_coefficient(1, alpha))
        dense = precondition_rows(np.eye(size + 2, size, k=-1), a2)
        closed = np.sort(preconditioner_eigenvalues(a2, size))
        assert np.max(np.abs(closed - eigvalsh(dense))) <= 1e-14

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_energy_ratio_within_band(self, alpha):
        rng = np.random.default_rng(5)
        grid = GridSpec(0.0, 1.0, 64)
        a2 = float(a2_coefficient(1, alpha))
        reduced = preconditioner_matrix(a2, grid.n)[1:-1, 1:-1]
        samples = rng.standard_normal((200, 63))
        ratios = np.einsum("ij,ij->i", samples @ reduced, samples)
        ratios /= np.einsum("ij,ij->i", samples, samples)
        assert ratios.min() > 0.2
        assert ratios.max() <= 1.0 + 1e-12

    @settings(max_examples=200, deadline=None, database=None)
    @given(alpha=st.fractions(1, 2))
    @example(alpha=Fraction(2))
    def test_condition_b_holds_exactly_at_every_size(self, alpha):
        # a2 = 1 - (alpha/3 + 1/(2 alpha)) >= 1/12, and by the AM-GM
        # inequality (alpha/3 + 1/(2 alpha))^2 >= 2/3, so a2 <= 1 - sqrt(2/3)
        # and every eigenvalue 1 - 4 a2 sin^2(...) of P, at every size, lies
        # in (4 sqrt(2/3) - 3, 1) = (0.26599..., 1), inside (1/5, 1]
        a2 = a2_coefficient(1, alpha)
        assert a2 >= Fraction(1, 12)
        assert (1 - a2) ** 2 >= Fraction(2, 3)

    def test_condition_b_bounds_are_reached(self):
        assert a2_coefficient(1, Fraction(2)) == Fraction(1, 12)
        top = max(a2_coefficient(1, Fraction(k, 1000))
                  for k in range(1000, 2001))
        assert top == Fraction(1079, 5880)  # at alpha = 49/40
        assert 0 < (1 - math.sqrt(2 / 3)) - top < 2e-8
        lowest = preconditioner_eigenvalues(float(top), 4095).min()
        assert 4 * math.sqrt(2 / 3) - 3 < lowest < 0.2661


class TestSchemeOperator:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            scheme_operator("order4", 1.5, GridSpec(0.0, 1.0, 16))

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9, 2.0])
    @pytest.mark.parametrize("scheme", ["order2", "order3"])
    def test_shifted_order2_operator_and_a2(self, scheme, alpha, n):
        grid = GridSpec(0.0, 1.0, n)
        col, row, a2, generator = scheme_operator(scheme, alpha, grid)
        assert generator == beta_table(2, 1, alpha)
        expected_col, expected_row = toeplitz_generators(generator, grid)
        assert np.array_equal(col, expected_col)
        assert np.array_equal(row, expected_row)
        if scheme == "order2":
            assert a2 == 0.0
        else:
            assert a2 == float(a2_coefficient(1, alpha))


class TestCheckedLU:
    def test_singular_matrix_raises(self):
        with pytest.raises(SolverFailure, match="singular"):
            checked_lu(np.zeros((3, 3)), context="test")

    def test_regular_matrix_solves(self):
        matrix = np.array([[2.0, 1.0], [1.0, 3.0]])
        factors = checked_lu(matrix)
        x = solve_factored(factors, np.array([3.0, 4.0]))
        assert matrix @ x == pytest.approx([3.0, 4.0])

    @pytest.mark.parametrize("col, regular", [
        # determinant a(a^2 - 2) with a = sqrt(2) is zero up to rounding:
        # dgecon gives rcond 1.90e-17
        (np.array([np.sqrt(2.0), 1.0, 0.0]), False),
        # a regular permutation matrix whose first leading minor is zero:
        # partial pivoting solves it
        (np.array([0.0, 1.0]), True),
    ], ids=["singular-tridiagonal", "zero-leading-minor"])
    def test_symmetric_toeplitz(self, col, regular):
        matrix = toeplitz(col)
        rhs = np.arange(1.0, len(col) + 1)
        if regular:
            x = solve_factored(checked_lu(matrix), rhs)
            assert matrix @ x == pytest.approx(rhs, rel=1e-14)
        else:
            with pytest.raises(SolverFailure, match=r"singular \(rcond="):
                checked_lu(matrix, context="test")


def lower_toeplitz(l):
    """The lower triangular Toeplitz matrix of first column l."""
    return toeplitz(l, np.zeros(len(l)))


def inverse_column(l):
    """g = L^-1 e_0 for the lower triangular Toeplitz L of first column l,
    by a dense triangular solve."""
    return solve_triangular(lower_toeplitz(l), np.eye(len(l))[0], lower=True)


class TestCheckedHessenbergSolve:
    def test_regular_system_solves(self):
        # the interior matrix L[2:, 1:-1] is toeplitz((4, 1, 0.5),
        # (4, -1, 0))
        l = np.array([-1.0, 4.0, 1.0, 0.5, 0.25])
        rhs = np.array([1.0, 2.0, 3.0])
        u = checked_hessenberg_solve(l, inverse_column(l), rhs, 2.0, -3.0)
        assert (u[0], u[-1]) == (2.0, -3.0)
        assert lower_toeplitz(l)[2:] @ u == pytest.approx(rhs, rel=1e-14)

    def test_singular_system_raises(self):
        # the singular tridiagonal of TestCheckedLU is lower Hessenberg;
        # det = a(a^2 - 2) is zero up to rounding
        a = np.sqrt(2.0)
        l = np.array([1.0, a, 1.0, 0.0, 0.0])
        g = inverse_column(l)
        assert np.array_equal(lower_toeplitz(l)[2:, 1:-1],
                              toeplitz([a, 1.0, 0.0]))
        assert hessenberg_rcond(l[:-1], g[:-1]) < 1e-14
        with pytest.raises(SolverFailure, match=r"singular \(rcond="):
            checked_hessenberg_solve(l, g, np.ones(3), 0.0, 0.0,
                                     context="test")

    def test_non_finite_inverse_column_is_singular(self):
        # 1 / 1e-310 overflows, so L's inverse column is not finite
        l = np.array([1e-310, 1.0, 0.0, 0.0])
        g = inverse_column(l)
        assert not np.isfinite(g).all()
        assert hessenberg_rcond(l, g) == 0.0
        with pytest.raises(SolverFailure, match=r"singular \(rcond=0"):
            checked_hessenberg_solve(l, g, np.ones(2), 0.0, 0.0,
                                     context="test")

    def test_vanishing_last_entry_is_singular(self):
        # g = (1, -1, 0) has g_n = 0: L[1:, :-1] = [[1, 1], [1, 1]]
        l = np.ones(3)
        g = inverse_column(l)
        assert g[-1] == 0.0
        assert hessenberg_rcond(l, g) == 0.0

    def test_overflowing_bound_is_singular(self):
        # g = 2^k is finite up to k = 1023, but the bound on ||T^-1||_1
        # for the guard's n = 1022 overflows: 3 (2^1022 - 1) 1.5 > 1.8e308.
        # T = -2 I + superdiagonal has condition number below 3; the bound
        # is loose when g grows, and the guard refuses such a system.
        l = np.zeros(1024)
        l[:2] = 1.0, -2.0
        g = 2.0 ** np.arange(1024)
        assert np.isfinite(g).all()
        assert np.array_equal(lower_toeplitz(l) @ g, np.eye(1024)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hessenberg_rcond(l[:-1], g[:-1]) == 0.0
            with pytest.raises(SolverFailure, match=r"singular \(rcond=0"):
                checked_hessenberg_solve(l, g, np.ones(1022), 0.0, 0.0,
                                         context="test")

    def test_zero_norm_bound_is_zero_without_division(self):
        # L = 0 gives ||T||_1 = 0: the bound is 0, not 1 / 0 = inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hessenberg_rcond(np.zeros(5), np.ones(5)) == 0.0

    @pytest.mark.parametrize("rcond, solves", [
        (RCOND_FLOOR, True), (np.nextafter(RCOND_FLOOR, 0), False)])
    def test_floor_itself_is_accepted(self, monkeypatch, rcond, solves):
        monkeypatch.setattr(operators, "hessenberg_rcond",
                            lambda l, g: rcond)
        l = np.array([-1.0, 4.0, 1.0, 0.5, 0.25])
        args = (l, inverse_column(l), np.array([1.0, 2.0, 3.0]), 2.0, -3.0)
        if solves:
            assert checked_hessenberg_solve(*args)[0] == 2.0
        else:
            with pytest.raises(SolverFailure, match=r"singular \(rcond="):
                checked_hessenberg_solve(*args)

    @settings(max_examples=200, deadline=None, database=None)
    @given(l=st.integers(2, 41).flatmap(lambda size: arrays(
        float, size, elements=st.floats(-10.0, 10.0))),
        l0=st.floats(0.5, 10.0), sign=st.sampled_from((-1.0, 1.0)))
    def test_rcond_bound_never_exceeds_exact(self, l, l0, sign):
        l[0] = sign * l0
        cond = np.linalg.cond(lower_toeplitz(l)[1:, :-1], 1)
        assume(cond <= 1e8)
        # the dense inverse behind cond is good to about n cond eps
        assert hessenberg_rcond(l, inverse_column(l)) <= (1 + 1e-6) / cond


def lag_pair_kernel():
    """t of length 33 with 20 at lag 31 and 3.85e-160 at lag 16: two
    [[0, 20], [20, 0]] blocks and a tiny perturbation, top eigenvalue 20.
    A dense eigvalsh returns 20.00033 for it."""
    t = np.zeros(33)
    t[31], t[16] = 20.0, 3.85e-160
    return t


def tiny_kernel():
    """A matrix of norm 1e-300, whose off-diagonal 1e-310 moves the top
    eigenvalue by 1e-10 relative: LAPACK drops it unless t is scaled."""
    return np.array([1e-300, 1e-310, 3e-320])


def bisection_failure_kernel():
    """-1 at lag 17 and 2^-1023 elsewhere, length 34: dsyevr's bisection
    for the top eigenvalue alone fails on it (info 2)."""
    t = np.full(34, 2.0 ** -1023)
    t[17] = -1.0
    return t


def is_positive_definite(matrix):
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


class TestToeplitzTopEigenvalue:
    @settings(max_examples=80, deadline=None, database=None)
    @given(t=st.integers(3, 130).flatmap(lambda n: arrays(
        float, n, elements=st.floats(-1e3, 1e3))))
    @example(t=np.zeros(3))
    @example(t=np.zeros(4))
    @example(t=lag_pair_kernel())
    @example(t=tiny_kernel())
    @example(t=np.array([0.0, 1e-313, 0.0]))
    @example(t=bisection_failure_kernel())
    def test_top_eigenvalue_has_inertia_certificate(self, t):
        # lambda is the top eigenvalue of T to within d when (lambda + d) I - T
        # is positive definite and (lambda - d) I - T is not, both decided by
        # Cholesky on T scaled to unit norm. d is 1e-12 ||T||_2 plus the
        # smallest subnormal, the spacing a subnormal lambda is rounded to
        top = toeplitz_top_eigenvalue(t)
        matrix = toeplitz(t)
        scale = np.linalg.norm(matrix, 2)
        if scale == 0.0:
            assert top == 0.0
            return
        identity = np.eye(len(t))
        shifted = (top / scale) * identity - matrix / scale
        rel = 1e-12 + np.finfo(float).smallest_subnormal / scale
        assert is_positive_definite(shifted + rel * identity)
        assert not is_positive_definite(shifted - rel * identity)
