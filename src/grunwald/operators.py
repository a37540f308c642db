"""Discrete fractional operators on uniform grids.

Grid application of one-sided weighted differences; the first column and
row of their Toeplitz matrix, which are the one construction of the
operator (callers that need the dense matrix build it with
scipy.linalg.toeplitz, and the right-side operator is toeplitz(row, col));
the split of that matrix into its Toeplitz interior and boundary columns,
and the fold that moves known boundary values to the right-hand side; the
tridiagonal quasi-compact preconditioner stencil; the scheme rule, which
maps a scheme name to the shifted order-2 column and row and the
preconditioner coefficient; and the two checked solves: a Levinson
Toeplitz solve with a condition estimate (steady solves) and a dense LU
(the Crank-Nicolson step). Also the scheme list and the set-up checks
shared by the solvers. Functions outside the grid are zero-extended, so
indices that fall off the grid simply contribute nothing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
import numpy as np
from scipy.linalg import LinAlgError, lu_factor, lu_solve, solve_toeplitz
from scipy.linalg.lapack import dgecon

from .generators import (WeightSequence, a2_coefficient, beta_table,
                         grunwald_weights)

__all__ = [
    "GridSpec",
    "SCHEMES",
    "SolverFailure",
    "apply_grunwald",
    "check_domain",
    "check_scheme",
    "scheme_operator",
    "precondition_rows",
    "toeplitz_generators",
    "split_boundary",
    "dirichlet_fold",
    "toeplitz_rcond",
    "checked_toeplitz_solve",
    "checked_lu",
    "solve_factored",
]

RCOND_FLOOR = 1e-14

# Spatial schemes of the solvers: the shifted order-2 operator alone, or
# premultiplied by the quasi-compact preconditioner.
SCHEMES = ("order2", "order3")


class SolverFailure(RuntimeError):
    """A linear solve was abandoned because the matrix is (numerically)
    singular. Carries enough context to feed stability scans."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [a, b] with n subintervals (n+1 points)."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid needs at least 2 subintervals")
        if not self.b > self.a:
            raise ValueError("grid endpoints must satisfy a < b")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    def points(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n + 1)


def _integer_shift(weights: WeightSequence) -> int:
    shift = weights.shift
    shift_int = int(round(float(shift)))
    if abs(float(shift) - shift_int) > 0 or shift_int < 0:
        raise ValueError(
            "grid operators require a nonnegative integer shift, got "
            f"{shift!r}; real shifts are for symbol analysis only"
        )
    return shift_int


def _check_weight_count(weights: WeightSequence, grid: GridSpec,
                        shift: int) -> None:
    needed = grid.n + shift + 1
    if len(weights) < needed:
        raise ValueError(
            f"need at least {needed} weights for n={grid.n}, shift={shift}; "
            f"got {len(weights)}"
        )


def apply_grunwald(u, weights: WeightSequence, grid: GridSpec,
                   side: str = "left") -> np.ndarray:
    """Apply the shifted difference operator to grid values.

    Left side: v_i = h^(-alpha) * sum_k w_k u_{i-k+r}; the right side
    mirrors the stencil. Off-grid values are zero.
    """
    u = np.asarray(u, dtype=float)
    shift = _integer_shift(weights)
    if len(u) != grid.n + 1:
        raise ValueError(
            f"expected {grid.n + 1} grid values, got {len(u)}"
        )
    _check_weight_count(weights, grid, shift)
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    w = weights.values[: grid.n + shift + 1]
    if side == "right":
        u = u[::-1]
    conv = np.convolve(w, u)
    v = conv[shift: shift + grid.n + 1]
    if side == "right":
        v = v[::-1]
    return v / grid.h ** weights.alpha


def toeplitz_generators(weights: WeightSequence, grid: GridSpec):
    """First column and first row of the left operator matrix: entry
    (i, j) is w_{i-j+shift} / h^alpha, so the column holds
    w_shift ... w_{shift+n} and the row w_shift ... w_0 followed by zeros."""
    shift = _integer_shift(weights)
    _check_weight_count(weights, grid, shift)
    w = weights.values
    scale = grid.h ** weights.alpha
    col = w[shift: shift + grid.n + 1] / scale
    row = np.zeros(grid.n + 1)
    row[: shift + 1] = w[shift::-1] / scale
    return col, row


def precondition_rows(values: np.ndarray, a2: float) -> np.ndarray:
    """Interior rows of the quasi-compact preconditioner I + a2 h^2
    (second difference), the stencil (a2, 1 - 2 a2, a2), applied along the
    first axis of a grid vector (or of grid vectors stacked as columns).

    Zero-pad the input by one entry at each end to get all rows of the
    zero-extended matrix; applied to the zero-padded identity
    np.eye(k + 2, k, k=-1) it gives the symmetric k x k matrix.
    """
    if a2 == 0.0:
        return values[1:-1]
    return a2 * (values[:-2] + values[2:]) + (1.0 - 2.0 * a2) * values[1:-1]


def check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValueError(
            f"unknown scheme {scheme!r}; expected one of {SCHEMES}"
        )


def scheme_operator(scheme: str, alpha: float, grid: GridSpec):
    """The scheme rule: both schemes discretise with the shifted order-2
    generator, and order3 also premultiplies by the quasi-compact
    preconditioner. Returns the first column and row of the left operator
    matrix (see toeplitz_generators) and the preconditioner coefficient
    a2, which is 0 for order2 (precondition_rows is then the identity).
    """
    check_scheme(scheme)
    weights = grunwald_weights(beta_table(2, 1, alpha), grid.n + 1)
    col, row = toeplitz_generators(weights, grid)
    a2 = float(a2_coefficient(1, alpha)) if scheme == "order3" else 0.0
    return col, row, a2


def check_domain(problem, grid: GridSpec) -> None:
    """The grid must span the problem's domain [problem.a, problem.b]."""
    if grid.a != problem.a or grid.b != problem.b:
        raise ValueError(
            f"grid [{grid.a}, {grid.b}] does not match problem domain "
            f"[{problem.a}, {problem.b}]"
        )


def split_boundary(col: np.ndarray, row: np.ndarray):
    """Split toeplitz(col, row), of size n+1, at its boundary rows and
    columns.

    Returns the first column and first row of the (n-1) x (n-1) interior
    matrix, itself Toeplitz, and the interior rows of the first and last
    columns: A[i,0] = col[i] and A[i,n] = row[n-i] for i = 1 .. n-1.
    """
    return col[:-2], row[:-2], col[1:-1], row[-2:0:-1]


def dirichlet_fold(col: np.ndarray, row: np.ndarray, rhs: np.ndarray,
                   phi0: float, phi1: float):
    """Drop the boundary rows and columns of toeplitz(col, row) and fold
    the known boundary values into the right-hand side.

    Returns the first column and first row of the interior matrix (see
    split_boundary) and the adjusted interior right-hand side
    rhs_i - A[i,0]*phi0 - A[i,n]*phi1.
    """
    col = np.asarray(col, dtype=float)
    row = np.asarray(row, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    size = len(col)
    if len(row) != size or len(rhs) != size:
        raise ValueError("column, row and right-hand side lengths differ")
    if size < 3:
        raise ValueError("no interior points to solve for")
    inner_col, inner_row, first, last = split_boundary(col, row)
    return inner_col, inner_row, rhs[1:-1] - first * phi0 - last * phi1


def _inverse_norm1_estimate(solve, solve_transposed, size: int) -> float:
    """Estimate ||A^-1||_1 from solves with A and A^T: the Hager/Higham
    iteration in the form of LAPACK's dlacn2 (deterministic, at most five
    steps, then the alternating-sign check vector)."""
    y = solve(np.full(size, 1.0 / size))
    estimate = np.abs(y).sum()
    signs = np.where(y >= 0, 1.0, -1.0)
    j = int(np.argmax(np.abs(solve_transposed(signs))))
    for _ in range(4):
        y = solve(np.eye(1, size, j)[0])
        previous, estimate = estimate, np.abs(y).sum()
        new_signs = np.where(y >= 0, 1.0, -1.0)
        if np.array_equal(new_signs, signs) or estimate <= previous:
            break
        signs = new_signs
        z = solve_transposed(signs)
        j_last, j = j, int(np.argmax(np.abs(z)))
        if z[j_last] == abs(z[j]):
            break
    i = np.arange(size)
    alternating = np.where(i % 2 == 0, 1.0, -1.0) * (1 + i / max(size - 1, 1))
    return max(estimate,
               2.0 * np.abs(solve(alternating)).sum() / (3.0 * size))


def toeplitz_rcond(col: np.ndarray, row: np.ndarray) -> float:
    """Reciprocal 1-norm condition estimate of toeplitz(col, row):
    1 / (||A||_1 est||A^-1||_1). ||A||_1 is exact, in O(n) from cumulative
    sums of |col| and |row|; the inverse norm is estimated by Levinson
    solves, with A^T given by swapping column and row. Raises
    numpy.linalg.LinAlgError when Levinson recursion meets a singular
    leading minor."""
    # column j holds row[j..1] above the diagonal and col[0..n-1-j] from it
    column_sums = (np.cumsum(np.abs(row)) - abs(row[0])
                   + np.cumsum(np.abs(col))[::-1])
    anorm = float(column_sums.max())
    ainv = _inverse_norm1_estimate(
        lambda b: solve_toeplitz((col, row), b),
        lambda b: solve_toeplitz((row, col), b), len(col))
    with np.errstate(over="ignore"):
        product = anorm * ainv
    return 1.0 / product if product > 0 else 0.0


def checked_toeplitz_solve(col: np.ndarray, row: np.ndarray,
                           rhs: np.ndarray,
                           context: str = "linear system") -> np.ndarray:
    """Solve toeplitz(col, row) x = rhs by Levinson recursion, in O(n^2)
    time and O(n) memory, with the singularity check of checked_lu.

    Raises SolverFailure when the reciprocal condition estimate falls
    below RCOND_FLOOR or the recursion meets a singular leading minor.
    """
    try:
        rcond = toeplitz_rcond(col, row)
        solution = solve_toeplitz((col, row), rhs)
    except LinAlgError as exc:
        raise SolverFailure(
            f"{context}: Levinson recursion met a singular leading minor "
            f"({exc})"
        ) from exc
    if rcond < RCOND_FLOOR:
        raise SolverFailure(
            f"{context}: matrix is numerically singular "
            f"(rcond={rcond:.2e})"
        )
    return solution


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
