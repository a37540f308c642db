"""Discrete fractional operators on uniform grids.

The first column and row of the Toeplitz matrix of a generator's shifted
weights, which are the one construction of the operator (callers that
need the dense matrix build it with scipy.linalg.toeplitz, and the
right-side operator is toeplitz(row, col));
the tridiagonal quasi-compact preconditioner stencil and its eigenvalues;
the scheme rule, which maps a scheme name to the shifted order-2 column and
row, the preconditioner coefficient and the generator; the top eigenvalue
of a symmetric Toeplitz matrix from the even and odd halves of its
centrosymmetric split (definiteness); and two checked solves: a Dirichlet
problem on a lower triangular Toeplitz L, its boundary values inside the
system, given g = L^-1 e_0, the discrete fractional-integral weights
(steady solves, under a closed-form bound on the condition number), and
a dense LU (the CN step, whose Dirichlet rows are inside its system too).
Also the scheme list and the checks of the solvers' set-up and data.
Functions outside the grid are zero-extended, so indices that fall off the
grid simply contribute nothing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgecon, dsyevr

from .generators import (GeneratorSpec, a2_coefficient, beta_table,
                         check_finite, check_integer, grunwald_weights)

__all__ = [
    "GridSpec",
    "SCHEMES",
    "SolverFailure",
    "check_alpha",
    "check_domain",
    "check_scheme",
    "sample",
    "scheme_operator",
    "toeplitz_top_eigenvalue",
    "precondition_rows",
    "preconditioner_eigenvalues",
    "toeplitz_generators",
    "hessenberg_rcond",
    "checked_hessenberg_solve",
    "checked_lu",
    "solve_factored",
]

RCOND_FLOOR = 1e-14

# Spatial schemes of the solvers: the shifted order-2 operator alone, or
# premultiplied by the quasi-compact preconditioner.
SCHEMES = ("order2", "order3")


class SolverFailure(RuntimeError):
    """A linear solve was abandoned because the matrix is (numerically)
    singular. Its message names the system and the refused reciprocal
    condition number; convergence studies record it in the failed row."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [a, b] with n subintervals (n+1 points)."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if check_integer(self.n, "grid size") < 2:
            raise ValueError("grid needs at least 2 subintervals")
        check_finite(self, "a", "b")
        if not self.b > self.a:
            raise ValueError("grid endpoints must satisfy a < b")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    def points(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n + 1)


def _integer_shift(shift) -> int:
    if shift != int(shift) or shift < 0:
        raise ValueError(
            "grid operators require a nonnegative integer shift, got "
            f"{shift!r}; real shifts are for symbol analysis only"
        )
    return int(shift)


def toeplitz_generators(generator: GeneratorSpec, grid: GridSpec):
    """First column and first row of the generator's left operator matrix
    on the grid: with the generator's integer shift r and the weights w of
    grunwald_weights, entry (i, j) is w_{i-j+r} / h^alpha, so the column
    holds w_r ... w_{r+n} and the row the first n + 1 of w_r ... w_0
    followed by zeros. ValueError for a real or negative shift, where
    grunwald_weights refuses, or for an h^alpha or entry that is not finite."""
    shift = _integer_shift(generator.shift)
    with np.errstate(all="ignore"):
        # rounds as Python's float power, but gives inf where that raises
        scale = np.float64(grid.h) ** float(generator.alpha)
        if np.isinf(scale):
            raise ValueError(f"h^alpha = {grid.h!r}^{generator.alpha} is inf")
        w = grunwald_weights(generator, grid.n + shift).values / scale
    if not np.isfinite(w).all():
        k = np.flatnonzero(~np.isfinite(w))[0]
        raise ValueError(f"operator entry w_{k} / h^alpha is {w[k]} "
                         f"(h^alpha = {scale:.3e}): the entries overflow")
    row = np.concatenate((w[shift::-1], np.zeros(grid.n)))
    return w[shift:], row[: grid.n + 1]


def precondition_rows(values: np.ndarray, a2: float) -> np.ndarray:
    """Interior rows of the quasi-compact preconditioner I + a2 h^2
    (second difference), the stencil (a2, 1 - 2 a2, a2), applied along the
    first axis of a grid vector (or of grid vectors stacked as columns).

    Zero-pad the input by one entry at each end to get all rows of the
    zero-extended matrix; applied to the zero-padded identity
    np.eye(k + 2, k, k=-1) it gives the symmetric k x k matrix. With a2 = 0
    (order2) it returns the interior values, up to the sign of a zero,
    wherever the sums of their neighbours do not overflow.
    """
    return a2 * (values[:-2] + values[2:]) + (1.0 - 2.0 * a2) * values[1:-1]


# Condition (b) of the CN stability argument: every eigenvalue of the
# preconditioner lies in (P_FLOOR, 1], so |v|^2 P_FLOOR < ||v||_P^2 <= |v|^2.
P_FLOOR = 0.2


def preconditioner_eigenvalues(a2: float, size: int) -> np.ndarray:
    """Eigenvalues of the size x size matrix of precondition_rows, the
    tridiagonal Toeplitz (a2, 1 - 2 a2, a2), in closed form:
    1 - 4 a2 sin^2(k pi / (2 (size + 1))) for k = 1 .. size."""
    k = np.arange(1, size + 1)
    return 1.0 - 4.0 * a2 * np.sin(k * np.pi / (2.0 * (size + 1))) ** 2


def check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValueError(
            f"unknown scheme {scheme!r}; expected one of {SCHEMES}"
        )


def scheme_operator(scheme: str, alpha: float, grid: GridSpec):
    """The scheme rule: both schemes discretise with the shifted order-2
    generator, and order3 also premultiplies by the quasi-compact
    preconditioner. Returns the first column and row of the left operator
    matrix (see toeplitz_generators), the preconditioner coefficient a2,
    which is 0 for order2 (precondition_rows is then the identity), and
    the generator itself.
    """
    check_scheme(scheme)
    generator = beta_table(2, 1, alpha)
    col, row = toeplitz_generators(generator, grid)
    a2 = float(a2_coefficient(1, alpha)) if scheme == "order3" else 0.0
    return col, row, a2, generator


def toeplitz_top_eigenvalue(t: np.ndarray) -> float:
    """Largest eigenvalue of the symmetric Toeplitz matrix of first column
    t, of size n >= 2, from the two halves of its centrosymmetric split
    (Cantoni and Butler, Linear Algebra Appl. 13, 1976). With m = n // 2,
    a_ij = t[|i-j|] and c_ij = t[n-1-i-j] for i, j < m, the odd half is
    a - c and the even half a + c, bordered for odd n by the middle column
    sqrt(2) t[m-i] and the corner t[0]. dsyevr gives each half's top
    eigenvalue, on t scaled exactly to max |t| < 1 by a power of two (it
    drops off-diagonals of a tiny matrix), or all of them if that fails."""
    t = np.asarray(t, dtype=float)
    exponent = np.frexp(np.max(np.abs(t)))[1]
    t = np.ldexp(t, -exponent)
    size, m = len(t), len(t) // 2
    k = np.arange(m)
    a = t[np.abs(k[:, None] - k)]
    c = t[size - 1 - k[:, None] - k]
    even = np.empty((size - m, size - m))
    even[:m, :m] = a + c
    if size % 2:
        even[m, :m] = even[:m, m] = np.sqrt(2.0) * t[m - k]
        even[m, m] = t[0]
    tops = []
    for half in (even, a - c):
        w, _, found, _, info = dsyevr(half, compute_v=0, range="I",
                                      il=len(half), iu=len(half))
        if info != 0:
            w, _, found, _, info = dsyevr(half, compute_v=0)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"dsyevr failed to converge (info={info})")
        tops.append(w[found - 1])
    return float(np.ldexp(max(tops), exponent))


def check_domain(problem, grid: GridSpec) -> None:
    """The grid must span the problem's domain [problem.a, problem.b]."""
    if grid.a != problem.a or grid.b != problem.b:
        raise ValueError(
            f"grid [{grid.a}, {grid.b}] does not match problem domain "
            f"[{problem.a}, {problem.b}]"
        )


def check_alpha(alpha, what: str) -> None:
    """The solvers' range of alpha, (1, 2]; NaN and infinity lie outside."""
    if not 1.0 < float(alpha) <= 2.0:
        raise ValueError(f"{what} needs alpha in (1, 2], got {alpha}")


def sample(fn, at: np.ndarray, what: str) -> np.ndarray:
    """Problem data fn(at) as floats of at's shape, a scalar broadcast to
    it; ValueError naming `what` for another shape, or for a value that is
    not finite, with the first point of `at` where it is not."""
    values = np.asarray(fn(at), dtype=float)
    if values.ndim == 0:
        values = np.full(at.shape, values)
    if values.shape != at.shape:
        raise ValueError(f"{what} has shape {values.shape}, not {at.shape}")
    if not np.isfinite(values).all():
        k = np.flatnonzero(~np.isfinite(values))[0]
        raise ValueError(f"{what} is not finite at {float(at.flat[k])!r}")
    return values


def hessenberg_rcond(l: np.ndarray, g: np.ndarray) -> float:
    """Guaranteed lower bound on the reciprocal 1-norm condition number of
    T = L[1:, :-1] (lower Hessenberg Toeplitz, size n), where L is lower
    triangular Toeplitz of first column l and g = L^-1 e_0, both of length
    n + 1: ||T||_1 is exact, and T^-1 b = c[:n] - (c_n / g_n) g[:n] with
    c = L^-1 (0; b), ||c[:n]||_1 <= ||g[:n]||_1 ||b||_1 and |c_n| <=
    max|g[:n]| ||b||_1, so ||T^-1||_1 <= ||g[:n]||_1 (1 + max|g[:n]| /
    |g_n|). 0 when g is not finite, g_n is zero or the product overflows.
    It serves the steady operators, whose g grows polynomially: there it
    reads 0.125 to 0.997 of the exact rcond. It is loose where g grows
    geometrically: for l = (1, -2, 0, ...) cond(T) < 3, yet the bound is
    below RCOND_FLOOR from n = 45."""
    l, g = np.asarray(l, dtype=float), np.asarray(g, dtype=float)
    size = len(l) - 1
    if not (np.isfinite(g).all() and g[size] != 0):
        return 0.0
    # column j < n of T is column j of L, l_0 ... l_(n-j), less row 0
    norms = np.cumsum(np.abs(l))[:0:-1]
    norms[0] -= abs(l[0])
    head = np.abs(g[:size])
    with np.errstate(over="ignore", invalid="ignore"):
        product = norms.max() * head.sum() * (1.0 + head.max() / abs(g[size]))
    return 1.0 / product if product > 0 else 0.0


def checked_hessenberg_solve(l: np.ndarray, g: np.ndarray, rhs: np.ndarray,
                             phi0: float, phi1: float,
                             context: str = "linear system") -> np.ndarray:
    """Return u_0 ... u_n with u_0 = phi0, u_n = phi1 and
    (L u)_m = rhs_(m-2) for m = 2 .. n, where L is the lower triangular
    Toeplitz matrix of first column l and g = L^-1 e_0, both of length
    n + 1, in O(n^2) time and O(n) memory: u = L^-1 r, r = (l_0 phi0, t,
    rhs), with t fixed by u_n = phi1, so u = c + ((phi1 - c_n) / g_(n-1))
    (0, g_0, ..., g_(n-1)) for c = L^-1 r at t = 0. Raises SolverFailure
    when the rcond bound of the interior matrix L[2:, 1:-1] falls below
    RCOND_FLOOR. The convolution is direct: an FFT one loses digits."""
    rcond = hessenberg_rcond(l[:-1], g[:-1])
    if rcond < RCOND_FLOOR:
        raise SolverFailure(f"{context}: matrix is numerically singular "
                            f"(rcond={rcond:.2e})")
    r = np.concatenate(([l[0] * phi0, 0.0], rhs))
    c = np.convolve(g, r)[:len(r)]
    u = c + ((phi1 - c[-1]) / g[-2]) * np.concatenate(([0.0], g[:-1]))
    u[0], u[-1] = phi0, phi1
    return u


def checked_lu(matrix: np.ndarray, context: str = "linear system"):
    """LU factorization that rejects numerically singular matrices.

    Raises SolverFailure when the reciprocal condition estimate falls
    below RCOND_FLOOR.
    """
    matrix = np.asarray(matrix, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu, piv = lu_factor(matrix)
    anorm = np.linalg.norm(matrix, 1)
    rcond, info = dgecon(lu, anorm)
    if info != 0 or not np.isfinite(rcond) or rcond < RCOND_FLOOR:
        raise SolverFailure(
            f"{context}: matrix is numerically singular "
            f"(rcond={rcond:.2e})"
        )
    return lu, piv


def solve_factored(factors, rhs: np.ndarray, trans: int = 0) -> np.ndarray:
    """Solve with the factors of checked_lu: A x = rhs, or A^T x = rhs
    when trans is 1."""
    return lu_solve(factors, np.asarray(rhs, dtype=float), trans=trans)
