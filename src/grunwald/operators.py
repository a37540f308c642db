"""Discrete fractional operators on uniform grids.

Grid application of one-sided weighted differences, their Toeplitz matrix
form, the tridiagonal quasi-compact preconditioner stencil, and the
interior reduction that moves known boundary values to the right-hand
side; also the scheme list and the set-up checks shared by the solvers.
Functions outside the grid are zero-extended, so indices that fall off
the grid simply contribute nothing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
import numpy as np
from scipy.linalg import lu_factor, lu_solve, toeplitz
from scipy.linalg.lapack import dgecon

from .generators import WeightSequence

__all__ = [
    "GridSpec",
    "FracOperatorMatrix",
    "SCHEMES",
    "SolverFailure",
    "apply_grunwald",
    "assemble_frac_matrix",
    "check_domain",
    "check_scheme",
    "precondition_rows",
    "reduce_system",
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


def _check_lengths(u: np.ndarray, weights: WeightSequence, grid: GridSpec,
                   shift: int) -> None:
    if len(u) != grid.n + 1:
        raise ValueError(
            f"expected {grid.n + 1} grid values, got {len(u)}"
        )
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
    _check_lengths(u, weights, grid, shift)
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


@dataclass(frozen=True)
class FracOperatorMatrix:
    """Dense realization of the shifted difference operator.

    Toeplitz: entry (i, j) holds w_{i-j+shift} / h^alpha when the weight
    index is in range, zero otherwise; the right-side operator is the
    transpose. The defining weight sequence is kept so structured solvers
    can be substituted without changing the interface.
    """

    weights: WeightSequence
    grid: GridSpec
    side: str
    dense: np.ndarray

    @property
    def shift(self) -> int:
        return int(round(float(self.weights.shift)))

    @property
    def alpha(self) -> float:
        return self.weights.alpha


def assemble_frac_matrix(weights: WeightSequence, grid: GridSpec,
                         side: str = "left") -> FracOperatorMatrix:
    """Build the (n+1) x (n+1) operator matrix for one side."""
    shift = _integer_shift(weights)
    _check_lengths(np.empty(grid.n + 1), weights, grid, shift)
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    w = weights.values
    col = w[shift: shift + grid.n + 1].copy()
    row = np.zeros(grid.n + 1)
    row[: shift + 1] = w[shift::-1]
    dense = toeplitz(col, row) / grid.h ** weights.alpha
    if side == "right":
        dense = dense.T.copy()
    dense.setflags(write=False)
    return FracOperatorMatrix(weights=weights, grid=grid, side=side,
                              dense=dense)


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


def check_domain(problem, grid: GridSpec) -> None:
    """The grid must span the problem's domain [problem.a, problem.b]."""
    if grid.a != problem.a or grid.b != problem.b:
        raise ValueError(
            f"grid [{grid.a}, {grid.b}] does not match problem domain "
            f"[{problem.a}, {problem.b}]"
        )


def reduce_system(matrix: np.ndarray, rhs: np.ndarray, phi0: float,
                  phi1: float):
    """Drop the boundary rows/columns and fold the known boundary values
    into the right-hand side.

    Returns the (n-1) x (n-1) interior matrix and the adjusted interior
    right-hand side rhs_i - M[i,0]*phi0 - M[i,n]*phi1.
    """
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    size = matrix.shape[0]
    if matrix.shape != (size, size):
        raise ValueError("matrix must be square")
    if len(rhs) != size:
        raise ValueError("right-hand side length must match the matrix")
    if size < 3:
        raise ValueError("no interior points to solve for")
    reduced = matrix[1:-1, 1:-1]
    adjusted = rhs[1:-1] - matrix[1:-1, 0] * phi0 - matrix[1:-1, -1] * phi1
    return reduced, adjusted


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


def solve_factored(factors, rhs: np.ndarray) -> np.ndarray:
    return lu_solve(factors, np.asarray(rhs, dtype=float))
