"""Correctness checks on the outputs of the benchmark's workloads.

Every check compares an output with something computed apart from the
program (the paper's printed tables, a closed form, a numpy evaluation
written here) or with a property the method must have. None compares
with a stored copy of the program's own output.

A check is a `Check(kind, label, ok, margin)`. `margin` is how far the
value sits inside its tolerance, in the tolerance's own unit (None for
yes/no checks); a failed tolerance check has a negative margin.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

# Kinds whose failures come from a known fault in the program: float-mode
# verify_order counts rounding noise as a nonzero coefficient, because
# TruncatedSeries.coefficient_is_zero uses an absolute 1e-10 threshold.
# They count as failed operations but do not make the run incorrect.
KNOWN_FAULT_KINDS = frozenset({"symbol.float_verdict"})

ERROR_RTOL = 0.02           # tables 3-6: errors within 2% relative
ORDER_TOL = 10              # orders within +-0.10, in hundredths
LOOSE_ORDER_TOL = 30        # table 6, alpha=1.9: orders within +-0.30
ORDER_FLOOR = 10            # steady ladder: order >= design - 0.10
ORDER_RECOMPUTE_TOL = 0.01  # printed order vs log2 of the printed errors
SIGN_TOL = 1e-14            # sign pattern of the order-2 weights
TAIL_SUM_TOL = 1e-4         # |w_0 + ... + w_K| at the long K used here
UNSTABLE_BY = 1.25          # orders 3..6 lose stability at some alpha <= this


class Check(NamedTuple):
    kind: str
    label: str
    ok: bool
    margin: Optional[float] = None


# ---------------------------------------------------------------------------
# the paper's tables, copied from the publication so that a change to the
# program's own reference data cannot move the benchmark's gate

class PaperTable(NamedTuple):
    n_values: tuple
    m_values: tuple
    errors: dict
    orders: dict
    loose_order_alphas: frozenset = frozenset()
    ungated_error_alphas: frozenset = frozenset()


STEADY_N = (16, 32, 64, 128, 256, 512, 1024)

# tables 3 (order2) and 4 (order3): maximum errors of the steady solve
PAPER_STEADY_ERRORS = {
    "order2": {
        1.1: (4.8893e-01, 1.1592e-01, 2.7227e-02, 6.3685e-03,
              1.4873e-03, 3.5020e-04, 8.7574e-05),
        1.5: (2.5141e-01, 6.4851e-02, 1.6450e-02, 4.1396e-03,
              1.0383e-03, 2.5997e-04, 6.5044e-05),
        1.9: (1.3365e-01, 3.3951e-02, 8.5491e-03, 2.1446e-03,
              5.3703e-04, 1.3437e-04, 3.3606e-05),
    },
    "order3": {
        1.1: (9.8696e-03, 1.0719e-03, 1.2038e-04, 1.3765e-05,
              1.5891e-06, 1.8439e-07, 2.2872e-08),
        1.5: (1.3027e-02, 1.6435e-03, 2.0611e-04, 2.5805e-05,
              3.2281e-06, 4.0366e-07, 5.0467e-08),
        1.9: (3.8208e-03, 4.6147e-04, 5.6560e-05, 7.0003e-06,
              8.7069e-07, 1.0857e-07, 1.3563e-08),
    },
}

PAPER_CN_TABLES = {
    5: PaperTable(
        n_values=(16, 32, 64, 128, 256, 512),
        m_values=(16, 32, 64, 128, 256, 512),
        errors={
            1.1: (1.0544e-05, 2.8172e-06, 7.3008e-07, 1.8606e-07,
                  4.6984e-08, 1.1806e-08),
            1.5: (9.0719e-06, 2.3208e-06, 5.8863e-07, 1.4836e-07,
                  3.7252e-08, 9.3341e-09),
            1.9: (5.6905e-06, 1.4309e-06, 3.5731e-07, 8.9332e-08,
                  2.2338e-08, 5.5852e-09),
        },
        orders={
            1.1: (None, 1.90, 1.95, 1.97, 1.99, 1.99),
            1.5: (None, 1.97, 1.98, 1.99, 1.99, 2.00),
            1.9: (None, 1.99, 2.00, 2.00, 2.00, 2.00),
        },
    ),
    # The paper states that its alpha=1.9 column of table 6 is not in the
    # asymptotic regime: its errors are informational and its orders are
    # compared at +-0.3.
    6: PaperTable(
        n_values=(16, 32, 64, 128, 256, 512),
        m_values=(65, 182, 513, 1449, 4097, 11586),
        errors={
            1.1: (1.9461e-06, 2.4807e-07, 3.1332e-08, 3.9404e-09,
                  4.9422e-10, 6.1888e-11),
            1.5: (7.2807e-07, 9.1351e-08, 1.1401e-08, 1.4224e-09,
                  1.7758e-10, 2.2183e-11),
            1.9: (2.9010e-08, 2.7484e-09, 5.3796e-10, 7.9399e-11,
                  1.0667e-11, 1.3792e-12),
        },
        orders={
            1.1: (None, 2.97, 2.99, 2.99, 3.00, 3.00),
            1.5: (None, 2.99, 3.00, 3.00, 3.00, 3.00),
            1.9: (None, 3.40, 2.35, 2.76, 2.90, 2.95),
        },
        loose_order_alphas=frozenset({1.9}),
        ungated_error_alphas=frozenset({1.9}),
    ),
}

DESIGN_ORDER = {"order2": 2, "order3": 3}


def _hundredths(value: float) -> int:
    """A two-decimal order as an integer count of hundredths, so that
    |3.11 - 3.01| compares as exactly 10 and not as 0.1000000000000009."""
    return round(value * 100)


def _error_check(kind, label, actual, expected) -> Check:
    if actual is None or not math.isfinite(actual) or actual <= 0:
        return Check(kind, label, False, None)
    margin = ERROR_RTOL - abs(actual - expected) / expected
    return Check(kind, label, margin >= 0, margin)


# ---------------------------------------------------------------------------
# cn-tables


def table_cells(report, table_id: int) -> list:
    """One check per gated value of a reproduce_table report: each error
    within 2% of the paper, each printed order within +-0.10 (+-0.30 on
    the loose column). A cell the paper prints but the report lacks, or
    reports at another M, fails as `cn.layout`."""
    paper = PAPER_CN_TABLES[table_id]
    cells = {(c.alpha, c.n): c for c in report.cells}
    checks = []
    for alpha in sorted(paper.errors):
        tol = (LOOSE_ORDER_TOL if alpha in paper.loose_order_alphas
               else ORDER_TOL)
        for idx, (n, m) in enumerate(zip(paper.n_values, paper.m_values)):
            label = f"table {table_id} alpha={alpha} N={n} M={m}"
            cell = cells.get((alpha, n))
            if cell is None or cell.m != m:
                checks.append(Check("cn.layout", label, False))
                continue
            if alpha not in paper.ungated_error_alphas:
                checks.append(_error_check(
                    "cn.error", label, cell.actual_error,
                    paper.errors[alpha][idx]))
            expected = paper.orders[alpha][idx]
            if expected is not None:
                if cell.actual_order is None:
                    checks.append(Check("cn.order", label, False))
                    continue
                off = abs(_hundredths(cell.actual_order)
                          - _hundredths(expected))
                checks.append(Check("cn.order", label, off <= tol,
                                    (tol - off) / 100))
    return checks


# ---------------------------------------------------------------------------
# steady-ladder


def steady_rows(reports, scheme: str, n_values) -> list:
    """One check per solve: its error against table 3/4 where the paper
    has one, and its observed order against the design order.

    The order gate is a lower bound only (order3 at alpha=1.9 reaches 4.04
    between N=2048 and 4096), and the printed order must agree with log2
    of the printed errors, so a wrong order column cannot pass."""
    design = DESIGN_ORDER[scheme]
    floor = 100 * design - ORDER_FLOOR
    checks = []
    for report in reports:
        rows = {row.n: row for row in report.rows}
        paper = PAPER_STEADY_ERRORS[scheme][report.alpha]
        previous = None
        for n in n_values:
            label = f"steady {scheme} alpha={report.alpha} N={n}"
            row = rows.get(n)
            error = None if row is None or row.failure else row.max_error
            if n in STEADY_N:
                checks.append(_error_check(
                    "steady.error", label, error, paper[STEADY_N.index(n)]))
            else:
                checks.append(Check(
                    "steady.error", label,
                    error is not None and math.isfinite(error) and error > 0))
            if previous is not None:
                order = None if row is None else row.observed_order
                ok, margin = False, None
                if order is not None and error:
                    margin = (_hundredths(order) - floor) / 100
                    recomputed = math.log2(previous / error)
                    ok = (margin >= 0 and abs(recomputed - order)
                          <= ORDER_RECOMPUTE_TOL)
                checks.append(Check("steady.order", label, ok, margin))
            previous = error
    return checks


def closed_form(problem, alpha: float) -> Check:
    """The steady errors are measured against problem.exact; check that it
    is the closed form 10 x^8, and that the source is its left fractional
    derivative 10 Gamma(9)/Gamma(9-alpha) x^(8-alpha)."""
    x = np.linspace(0.0, 1.0, 33)
    exact = 10.0 * x**8
    source = 10.0 * math.gamma(9) / math.gamma(9 - alpha) * x ** (8 - alpha)
    ok = (np.allclose(problem.exact(x), exact, rtol=1e-14, atol=0.0)
          and np.allclose(problem.source(x), source, rtol=1e-12, atol=0.0)
          and problem.phi0 == 0.0 and problem.phi1 == 10.0)
    return Check("steady.closed_form", f"steady problem alpha={alpha}", ok)


def csv_round_trip(reports, read_back, label: str) -> Check:
    """The CSV report parsed back must equal the in-memory reports."""
    return Check("steady.csv", label, list(read_back) == list(reports))


def json_round_trip(reports, payload, label: str) -> Check:
    """The JSON mirror must hold exactly the in-memory reports."""
    expected = {
        "problem": reports[0].problem,
        "reports": [
            {"alpha": r.alpha, "scheme": r.scheme,
             "rows": [{"n": row.n, "m": row.m, "max_error": row.max_error,
                       "observed_order": row.observed_order,
                       "failure": row.failure} for row in r.rows]}
            for r in reports
        ],
    }
    return Check("steady.json", label, payload == expected)


# ---------------------------------------------------------------------------
# symbol-scan


def symbol_case(order: int, shift, alpha, exact, table, built,
                floating) -> list:
    """Exact order at least p, closed-form table equal to the linear-system
    construction, and the float verdict equal to the exact one."""
    label = f"p={order} r={shift} alpha={alpha}"
    return [
        Check("symbol.exact_order", label, exact.observed_order >= order),
        Check("symbol.construction", label, tuple(table.beta)
              == tuple(built.beta)),
        Check("symbol.float_verdict", label,
              floating.passed == exact.passed),
    ]


def weight_signs(alpha: float, weights) -> list:
    """Sign pattern of the shifted order-2 weights on 1 <= alpha <= 2
    (w_0 >= 0, w_1 <= 0, w_0 + w_2 >= 0, w_m >= 0 for m >= 3, partial
    sums from index 2 nonpositive), and the tail sum: the weights sum to
    W(1) = 0, so the partial sum through K must be near zero."""
    w = np.asarray(weights, dtype=float)
    sums = np.cumsum(w)
    label = f"order-2 weights alpha={alpha:.6f} K={len(w) - 1}"
    signs = bool(
        w[0] >= -SIGN_TOL and w[1] <= SIGN_TOL
        and w[0] + w[2] >= -SIGN_TOL
        and np.all(w[3:] >= -SIGN_TOL)
        and np.all(sums[2:] <= SIGN_TOL)
    )
    tail = TAIL_SUM_TOL - abs(float(sums[-1]))
    return [
        Check("symbol.sign_pattern", label, signs),
        Check("symbol.tail_sum", label, tail >= 0, tail),
    ]


def scan_verdict(report) -> Check:
    """Order 2 is stable on all of [1, 2]; orders 3..6 are unstable at some
    alpha <= 1.25."""
    unstable = report.unstable_alphas
    if report.order == 2:
        ok = not unstable
    else:
        ok = bool(unstable) and min(unstable) <= UNSTABLE_BY
    return Check("symbol.scan", f"scan order {report.order}", ok)


def property_results(suite) -> list:
    return [Check("symbol.property", r.name, r.passed) for r in suite.results]
