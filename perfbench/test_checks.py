"""The benchmark's checks pass on good outputs and fail on perturbed ones,
one perturbation per kind of check.

    python3 -m pytest perfbench/test_checks.py
"""

import dataclasses
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from grunwald import generators, harness, problems  # noqa: E402
from grunwald.steady import ScanEntry, StabilityReport  # noqa: E402


def kinds_failed(found):
    return {c.kind for c in found if not c.ok}


# -- cn-tables ---------------------------------------------------------------

def paper_report(table_id):
    """A reproduce_table report whose every cell equals the paper."""
    paper = checks.PAPER_CN_TABLES[table_id]
    cells = []
    for alpha, errors in paper.errors.items():
        for idx, (n, m) in enumerate(zip(paper.n_values, paper.m_values)):
            order = paper.orders[alpha][idx]
            cells.append(harness.CellDiff(
                alpha=alpha, n=n, m=m, expected_error=errors[idx],
                actual_error=errors[idx], error_rel_diff=0.0, error_ok=True,
                expected_order=order, actual_order=order, order_ok=True))
    return harness.TableDiffReport(table_id=table_id, cells=tuple(cells),
                                   passed=True)


def perturb_cell(report, index, **changes):
    cells = list(report.cells)
    cells[index] = dataclasses.replace(cells[index], **changes)
    return dataclasses.replace(report, cells=tuple(cells))


@pytest.mark.parametrize("table_id", [5, 6])
def test_paper_values_pass(table_id):
    assert kinds_failed(checks.table_cells(paper_report(table_id),
                                           table_id)) == set()


def test_cn_error_off_by_three_percent_fails():
    report = paper_report(5)
    cell = report.cells[3]
    bad = perturb_cell(report, 3, actual_error=cell.actual_error * 1.03)
    assert kinds_failed(checks.table_cells(bad, 5)) == {"cn.error"}


def test_cn_order_off_by_eleven_hundredths_fails():
    report = paper_report(6)
    cell = report.cells[2]
    bad = perturb_cell(report, 2, actual_order=cell.actual_order + 0.11)
    assert kinds_failed(checks.table_cells(bad, 6)) == {"cn.order"}


def test_cn_order_exactly_at_tolerance_passes():
    report = paper_report(6)
    cell = report.cells[2]
    edge = perturb_cell(report, 2, actual_order=round(
        cell.actual_order + 0.10, 2))
    assert kinds_failed(checks.table_cells(edge, 6)) == set()


def test_cn_loose_column_keeps_its_own_tolerance():
    report = paper_report(6)
    index = next(i for i, c in enumerate(report.cells)
                 if c.alpha == 1.9 and c.n == 64)
    cell = report.cells[index]
    inside = perturb_cell(report, index, actual_order=cell.actual_order + 0.3)
    outside = perturb_cell(report, index,
                           actual_order=cell.actual_order + 0.31)
    assert kinds_failed(checks.table_cells(inside, 6)) == set()
    assert kinds_failed(checks.table_cells(outside, 6)) == {"cn.order"}


def test_cn_missing_cell_or_wrong_m_fails():
    report = paper_report(6)
    dropped = dataclasses.replace(report, cells=report.cells[1:])
    wrong_m = perturb_cell(report, 0, m=64)
    assert kinds_failed(checks.table_cells(dropped, 6)) == {"cn.layout"}
    assert kinds_failed(checks.table_cells(wrong_m, 6)) == {"cn.layout"}


# -- steady-ladder -----------------------------------------------------------

N_VALUES = tuple(2**k for k in range(4, 13))


def ladder(scheme, alpha):
    """Rows from table 3/4 up to N=1024, continued at the design order."""
    design = checks.DESIGN_ORDER[scheme]
    errors = list(checks.PAPER_STEADY_ERRORS[scheme][alpha])
    while len(errors) < len(N_VALUES):
        errors.append(float(f"{errors[-1] / 2**design:.4e}"))
    return rows_from(scheme, alpha, errors)


def rows_from(scheme, alpha, errors):
    rows = [harness.ConvergenceRow(
        n=n, m=0, max_error=e, observed_order=None if i == 0 else round(
            math.log2(errors[i - 1] / e), 2))
        for i, (n, e) in enumerate(zip(N_VALUES, errors))]
    return harness.ConvergenceReport(problem="steady-poly", scheme=scheme,
                                     alpha=alpha, rows=tuple(rows))


@pytest.mark.parametrize("scheme", ["order2", "order3"])
def test_steady_ladder_passes(scheme):
    reports = [ladder(scheme, a) for a in (1.1, 1.5, 1.9)]
    assert kinds_failed(checks.steady_rows(reports, scheme, N_VALUES)) == set()


def test_steady_error_off_table_fails():
    report = ladder("order2", 1.5)
    errors = [r.max_error for r in report.rows]
    errors[2] *= 1.03
    found = checks.steady_rows([rows_from("order2", 1.5, errors)], "order2",
                               N_VALUES)
    assert "steady.error" in kinds_failed(found)


def test_steady_failed_solve_fails():
    report = ladder("order3", 1.1)
    rows = list(report.rows)
    rows[-1] = dataclasses.replace(rows[-1], max_error=None,
                                   observed_order=None, failure="singular")
    bad = dataclasses.replace(report, rows=tuple(rows))
    assert "steady.error" in kinds_failed(
        checks.steady_rows([bad], "order3", N_VALUES))


def test_steady_order_below_design_fails():
    report = ladder("order3", 1.9)
    errors = [r.max_error for r in report.rows]
    errors[-1] = errors[-2] / 2**2.85   # observed order 2.85 < 3 - 0.1
    found = checks.steady_rows([rows_from("order3", 1.9, errors)], "order3",
                               N_VALUES)
    assert kinds_failed(found) == {"steady.order"}


def test_steady_order_column_disagreeing_with_errors_fails():
    report = ladder("order2", 1.1)
    rows = list(report.rows)
    rows[5] = dataclasses.replace(rows[5],
                                  observed_order=rows[5].observed_order + 0.1)
    bad = dataclasses.replace(report, rows=tuple(rows))
    assert kinds_failed(checks.steady_rows([bad], "order2", N_VALUES)) == {
        "steady.order"}


def test_closed_form_check():
    problem = problems.polynomial_steady_problem(1.5)
    assert checks.closed_form(problem, 1.5).ok
    wrong = dataclasses.replace(problem,
                                exact=lambda x: 10.0 * np.asarray(x) ** 7)
    assert not checks.closed_form(wrong, 1.5).ok


def test_csv_round_trip_detects_an_edited_file(tmp_path):
    reports = [ladder("order2", a) for a in (1.1, 1.9)]
    path = tmp_path / "ladder.csv"
    harness.write_report_csv(reports, path)
    assert checks.csv_round_trip(reports, harness.read_report_csv(path),
                                 "csv").ok
    path.write_text(path.read_text().replace("6.5044e-05", "6.5045e-05")
                    .replace("8.7574e-05", "8.7575e-05"))
    assert not checks.csv_round_trip(reports, harness.read_report_csv(path),
                                     "csv").ok


def test_json_round_trip_detects_an_edited_file(tmp_path):
    reports = [ladder("order3", 1.5)]
    path = tmp_path / "ladder.json"
    harness.write_report_json(reports, path)
    payload = json.loads(path.read_text())
    assert checks.json_round_trip(reports, payload, "json").ok
    payload["reports"][0]["rows"][4]["max_error"] *= 1.0001
    assert not checks.json_round_trip(reports, payload, "json").ok


# -- symbol-scan -------------------------------------------------------------

def case(order=3, shift=1, alpha=Fraction(3, 2)):
    table = generators.beta_table(order, shift, alpha)
    return dict(
        exact=generators.verify_order(table, order), table=table,
        built=generators.construct_beta(order, shift, alpha),
        floating=generators.verify_order(
            generators.beta_table(order, shift, float(alpha)), order))


def test_symbol_case_passes():
    assert kinds_failed(checks.symbol_case(3, 1, Fraction(3, 2),
                                           **case())) == set()


def test_symbol_exact_order_below_design_fails():
    outputs = case()
    outputs["exact"] = dataclasses.replace(outputs["exact"], observed_order=2)
    assert "symbol.exact_order" in kinds_failed(
        checks.symbol_case(3, 1, Fraction(3, 2), **outputs))


def test_symbol_construction_mismatch_fails():
    outputs = case()
    beta = list(outputs["built"].beta)
    beta[0] += Fraction(1, 10**12)
    beta[1] -= Fraction(1, 10**12)
    outputs["built"] = dataclasses.replace(outputs["built"], beta=tuple(beta))
    assert kinds_failed(checks.symbol_case(3, 1, Fraction(3, 2),
                                           **outputs)) == {
        "symbol.construction"}


def test_symbol_float_verdict_fault_is_seen():
    # p=6, r=2, alpha=1/5: the float verdict reads order 3 (the known fault)
    found = checks.symbol_case(6, 2, Fraction(1, 5),
                               **case(6, 2, Fraction(1, 5)))
    assert kinds_failed(found) == {"symbol.float_verdict"}
    assert kinds_failed(found) <= checks.KNOWN_FAULT_KINDS


def test_weight_signs():
    w = generators.grunwald_weights(generators.beta_table(2, 1, 1.5),
                                    5000).values
    assert kinds_failed(checks.weight_signs(1.5, w)) == set()
    flipped = w.copy()
    flipped[7] = -1e-9
    assert "symbol.sign_pattern" in kinds_failed(
        checks.weight_signs(1.5, flipped))
    assert kinds_failed(checks.weight_signs(1.5, w[:51])) == {
        "symbol.tail_sum"}


def scan(order, unstable):
    entries = tuple(ScanEntry(alpha=a, max_rayleigh=0.0, solve_error=None,
                              baseline_error=None, solve_failed=False,
                              stable=a not in unstable, reason="")
                    for a in np.linspace(1.0, 2.0, 5))
    return StabilityReport(order=order, shift=1, grid_n=16, entries=entries)


def test_scan_verdicts():
    assert checks.scan_verdict(scan(2, ())).ok
    assert not checks.scan_verdict(scan(2, (2.0,))).ok
    assert checks.scan_verdict(scan(3, (1.0,))).ok
    assert not checks.scan_verdict(scan(3, ())).ok
    assert not checks.scan_verdict(scan(4, (1.5,))).ok


def test_property_results():
    good = harness.PropertyResult("p", True)
    bad = harness.PropertyResult("q", False, "broken")
    suite = harness.PropertySuiteReport(seed=1, results=(good, bad))
    assert [c.ok for c in checks.property_results(suite)] == [True, False]
