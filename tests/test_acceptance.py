"""Acceptance gate: one test per criterion, each printing a pass/fail
line. Tolerances are pinned here, the same for every cell:

1-4  benchmark tables reproduce, every cell gated (errors within 2%
     relative, orders within +-0.1).
5    order verification is exact (rational arithmetic, no tolerance).
6    constructed coefficients match the closed-form table to 1e-10.
7    the randomized property suite passes at its stated tolerances.
8    stability scan: the shifted order-2 family is stable across all of
     [1, 2]; orders 3..6 lose at least one alpha near 1.
"""

import time
from fractions import Fraction

import numpy as np

from grunwald import (
    GridSpec,
    beta_table,
    construct_beta,
    lubich_generator,
    reproduce_table,
    run_property_suite,
    stability_scan,
    verify_order,
)

EXACT_ALPHAS = (Fraction(11, 10), Fraction(3, 2), Fraction(19, 10), Fraction(2))


def report(name, failures, started):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {name}: {status} ({elapsed:.1f}s)")
    assert not failures, failures[:10]


def run_table(table_id, name):
    started = time.perf_counter()
    diff = reproduce_table(table_id)
    failures = [
        f"alpha={c.alpha} N={c.n}: expected {c.expected_error:.4e} "
        f"got {c.actual_error}, order {c.expected_order} vs {c.actual_order}"
        for c in diff.failed_cells
    ]
    failures += [
        f"alpha={c.alpha} N={c.n}: "
        + ("error" if c.error_ok is None else "order") + " not gated"
        for c in diff.cells
        if c.error_ok is None
        or (c.expected_order is not None and c.order_ok is None)
    ]
    report(name, failures, started)
    return diff


def test_criterion_1_steady_order2_table():
    run_table(3, "criterion 1 (steady order-2 table)")


def test_criterion_2_steady_order3_table():
    run_table(4, "criterion 2 (steady order-3 table)")


def test_criterion_3_diffusion_order2_table():
    run_table(5, "criterion 3 (CN order-2 table)")


def test_criterion_4_diffusion_order3_table():
    diff = run_table(6, "criterion 4 (CN order-3 table)")
    assert diff.summary().splitlines()[0] == "table 6: PASS (18 gated cells)"


def test_criterion_5_order_verification():
    started = time.perf_counter()
    failures = []
    for order in range(1, 7):
        for alpha in EXACT_ALPHAS:
            observed = verify_order(lubich_generator(order, alpha), order)
            if observed.observed_order != order:
                failures.append(
                    f"unshifted p={order} alpha={alpha}: "
                    f"{observed.observed_order}"
                )
            shifted = verify_order(beta_table(order, 1, alpha), order)
            if shifted.observed_order < order:
                failures.append(
                    f"shifted p={order} alpha={alpha}: "
                    f"{shifted.observed_order}"
                )
            degraded = verify_order(
                lubich_generator(order, alpha).with_shift(1), order
            )
            # imposing the shift collapses the order to exactly 1, except
            # p=1 at alpha=2 where the unit shift equals alpha/2 and
            # superconverges to 2
            expected = 2 if (order, alpha) == (1, Fraction(2)) else 1
            if degraded.observed_order != expected:
                failures.append(
                    f"degraded p={order} alpha={alpha}: "
                    f"{degraded.observed_order} != {expected}"
                )
    report("criterion 5 (order verification)", failures, started)


def test_criterion_6_construction_oracle():
    started = time.perf_counter()
    failures = []
    for order in range(1, 7):
        for shift in (0, 1, 2):
            for alpha in EXACT_ALPHAS:
                table = beta_table(order, shift, alpha)
                built = construct_beta(order, shift, alpha)
                for b_t, b_c in zip(table.beta, built.beta):
                    scale = max(1.0, abs(float(b_t)))
                    if abs(float(b_t - b_c)) > 1e-10 * scale:
                        failures.append(
                            f"p={order} r={shift} alpha={alpha}: "
                            f"{b_t} vs {b_c}"
                        )
    report("criterion 6 (construction oracle)", failures, started)


def test_criterion_7_property_suite():
    started = time.perf_counter()
    suite = run_property_suite()
    failures = [
        f"{r.name}: {r.detail}" for r in suite.results if not r.passed
    ]
    report("criterion 7 (property suite)", failures, started)


def test_criterion_8_stability_scan():
    started = time.perf_counter()
    failures = []
    grid = GridSpec(0.0, 1.0, 64)
    alphas = np.linspace(1.0, 2.0, 50)
    order2 = stability_scan(2, 1, alphas, grid)
    if order2.unstable_alphas:
        failures.append(
            f"order 2 flagged unstable at {order2.unstable_alphas[:5]}"
        )
    onsets = {}
    for order in (3, 4, 5, 6):
        scan = stability_scan(order, 1, alphas, grid)
        unstable = scan.unstable_alphas
        if not unstable or min(unstable) > 1.25:
            failures.append(
                f"order {order}: no instability near 1 "
                f"(unstable: {unstable[:3]})"
            )
        onsets[order] = scan.stable_onset()
    findings = ", ".join(
        f"p={order}: "
        + (f"alpha0~{onset:.3f}" if onset is not None else "none stable")
        for order, onset in onsets.items()
    )
    print(f"[acceptance] stable onsets (findings, not asserted): {findings}")
    report("criterion 8 (stability scan)", failures, started)
