#!/usr/bin/env python3
# Map where each generator family can be trusted in an implicit solver.
#
# For every fractional order alpha the scan computes the top eigenvalue of
# the operator matrix's symmetric part, the largest Rayleigh quotient (a
# positive value means the negative definiteness behind unconditional
# stability is gone), and tries the steady benchmark against a coarse-grid
# baseline. The shifted order-2 family is clean on all of [1, 2]; the
# higher-order shifted families lose a chunk of the interval near
# alpha = 1.

import numpy as np

from grunwald import GridSpec, stability_scan

grid = GridSpec(0.0, 1.0, 64)
alphas = np.linspace(1.0, 2.0, 21)

for order in (2, 3, 4, 5, 6):
    report = stability_scan(order, 1, alphas, grid)
    flags = "".join("S" if e.stable else "u" for e in report.entries)
    onset = report.stable_onset()
    print(f"p={order}: [{flags}]  stable onset: "
          + (f"alpha >= {onset:.2f}" if onset is not None else "none found"))

print("\n(each column is one alpha from 1.0 to 2.0; S stable, u unstable)")

report = stability_scan(3, 1, alphas, grid)
print("\np=3 detail near the transition:")
for entry in report.entries:
    if 1.25 <= entry.alpha <= 1.55:
        print(f"  alpha={entry.alpha:.2f} max Rayleigh={entry.max_rayleigh:+.2e} "
              f"{'stable' if entry.stable else 'unstable: ' + entry.reason[:40]}")
