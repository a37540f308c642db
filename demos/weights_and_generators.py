#!/usr/bin/env python3
# Build generating functions three ways and look at their weights.
#
# A generator (beta_0 + beta_1 z + ... + beta_p z^p)^alpha encodes a
# difference approximation of the fractional derivative of order alpha:
# its Taylor coefficients w_k are the convolution weights. This script
# shows the closed-form table, the finite-difference construction that
# cross-checks it, and the unshifted family it contains at shift 0.

from fractions import Fraction

import numpy as np

from grunwald import (
    beta_table,
    construct_beta,
    grunwald_weights,
    lubich_generator,
)

alpha = Fraction(3, 2)  # fractions keep everything exact

print("closed-form table vs finite-difference construction (p=2, r=1):")
table = beta_table(2, 1, alpha)
built = construct_beta(2, 1, alpha)
print("  table:      ", table.beta)
print("  constructed:", built.beta)
print("  identical:  ", table.beta == built.beta)

print("\nat shift 0 the table reduces to the unshifted family:")
for p in (1, 2, 6):
    print(f"  p={p}: {beta_table(p, 0, alpha).beta}")
    assert beta_table(p, 0, alpha).beta == lubich_generator(p, alpha).beta

print("\nweights of the workhorse generator (p=2, r=1, alpha=1.5):")
weights = grunwald_weights(beta_table(2, 1, 1.5), 12)
for k, w in enumerate(weights.values):
    print(f"  w_{k:<2d} = {w: .6f}")

print("\nsign pattern: w_0 >= 0, w_1 <= 0, the tail nonnegative, and")
print("partial sums nonpositive from index 2 (this is what makes the")
print("operator matrix negative definite):")
long_weights = grunwald_weights(beta_table(2, 1, 1.5), 2000)
sums = np.cumsum(long_weights.values)
print(f"  min tail weight (k>=3): {long_weights.values[3:].min():.3e}")
print(f"  max partial sum (k>=2): {sums[2:].max():.3e}")
print(f"  total sum (tends to 0): {sums[-1]:.3e}")
