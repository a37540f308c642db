#!/usr/bin/env python3
# Read the order of accuracy straight off a generator's symbol.
#
# A generator has order p exactly when W(exp(-z)) exp(rz) / z^alpha =
# 1 + O(z^p). The series engine expands that symbol with exact rational
# arithmetic, so "the coefficient vanishes" is a hard yes/no.

from dataclasses import replace
from fractions import Fraction

from grunwald import (
    a2_coefficient,
    beta_table,
    convex_combination_check,
    lubich_generator,
    verify_order,
)

alpha = Fraction(3, 2)

print("shifted family at r=1: designed order is achieved")
for p in range(1, 7):
    report = verify_order(beta_table(p, 1, alpha), p)
    print(f"  p={p}: observed {report.observed_order}, "
          f"leading coefficient {report.leading_coeff}")

print("\nunshifted generators are order p as well...")
report = verify_order(lubich_generator(4, alpha), 4)
print(f"  p=4, r=0: observed {report.observed_order}")

print("...but imposing a shift on them collapses the order to 1:")
report = verify_order(replace(lubich_generator(4, alpha), shift=1), 4)
print(f"  p=4, r=1: observed {report.observed_order}")

print("\nthe first-order generator with the non-integer shift alpha/2")
print("superconverges to order 2 (leading coefficient alpha/24):")
from grunwald import GeneratorSpec

gen = GeneratorSpec(alpha=alpha, shift=alpha / 2, beta=(1, -1))
report = verify_order(gen, 2)
print(f"  observed {report.observed_order}, leading {report.leading_coeff} "
      f"(alpha/24 = {alpha / 24})")

print("\ntwo-shift convex combinations are second order too:")
for shifts in ((1, 0), (1, -1)):
    report = convex_combination_check(*shifts, alpha)
    print(f"  shifts {shifts}: observed {report.observed_order}, "
          f"leading {report.leading_coeff}")

print("\nthe z^2 coefficient of the r-shifted order-2 generator has the")
print("closed form -alpha/3 + r - r^2/(2 alpha); it feeds the")
print("quasi-compact preconditioner:")
for a in (1, Fraction(3, 2), 2):
    print(f"  a2(1, {a}) = {a2_coefficient(1, a)}")
