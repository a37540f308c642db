#!/usr/bin/env python3
# Crank-Nicolson time stepping for the two-sided fractional diffusion
# equation u_t = D_left^alpha u + D_right^alpha u + f.
#
# The benchmark solution is the decaying pulse x^5 (1-x)^5 exp(-t).
# With time steps tied to the mesh (tau = h) the order-2 scheme shows
# its design rate; the order-3 scheme needs tau ~ h^(3/2) so the
# temporal error does not mask the spatial one.

import math

import numpy as np

from grunwald import GridSpec, cn_solve, polynomial_diffusion_problem

alpha = 1.5
problem = polynomial_diffusion_problem(alpha)

print(f"--- order2, tau = h, alpha = {alpha} ---")
previous = None
print(f"{'N=M':>6} {'max error at T':>15} {'order':>6}")
for n in (16, 32, 64, 128):
    grid = GridSpec(0.0, 1.0, n)
    final = cn_solve(problem, grid, n, "order2")
    error = np.max(np.abs(final - problem.exact(grid.points(), 1.0)))
    order = f"{np.log2(previous / error):6.2f}" if previous else "     -"
    print(f"{n:>6} {error:15.4e} {order}")
    previous = error

print(f"\n--- order3, tau = h^(3/2), alpha = {alpha} ---")
previous = None
print(f"{'N':>6} {'M':>6} {'max error at T':>15} {'order':>6}")
for n in (16, 32, 64, 128):
    m = math.isqrt(n**3)  # floor(N^1.5), the steps of the paper's run
    grid = GridSpec(0.0, 1.0, n)
    final = cn_solve(problem, grid, m, "order3")
    error = np.max(np.abs(final - problem.exact(grid.points(), 1.0)))
    order = f"{np.log2(previous / error):6.2f}" if previous else "     -"
    print(f"{n:>6} {m:>6} {error:15.4e} {order}")
    previous = error

print("\nunconditional stability in action: a random initial state decays")
print("under the a-priori energy bound,")
from grunwald import stability_estimate_check

report = stability_estimate_check(
    problem, GridSpec(0.0, 1.0, 32), 64, "order3", seed=1,
    source_amplitude=0.0,
)
print(f"  ||v^0|| = {report.norms[0]:.4f}, ||v^M|| = {report.norms[-1]:.4f}, "
      f"bound sqrt(5)||v^0|| = {report.bounds[-1]:.4f}, "
      f"respected: {report.ok}")
