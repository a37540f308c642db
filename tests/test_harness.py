"""Convergence harness: configs, report IO round-trips, table
reproduction, and the property suite."""

import json
import math

import pytest

from grunwald import (
    ConvergenceReport,
    ConvergenceRow,
    RunConfig,
    read_report_csv,
    reproduce_table,
    run_convergence,
    run_property_suite,
    write_report_csv,
    write_report_json,
)
from grunwald import harness
from grunwald.harness import _round_error, _round_order
from grunwald.reference_tables import REFERENCE_TABLES


class TestRunConfig:
    def test_rejects_empty_lists(self):
        with pytest.raises(ValueError, match="alpha"):
            RunConfig("steady-poly", "order2", (), (16,))
        with pytest.raises(ValueError, match="N list"):
            RunConfig("steady-poly", "order2", (1.5,), ())

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="at least 16"):
            RunConfig("steady-poly", "order2", (1.5,), (8,))

    def test_rejects_unknown_problem_and_scheme(self):
        with pytest.raises(ValueError, match="problem"):
            RunConfig("mystery", "order2", (1.5,), (16,))
        with pytest.raises(ValueError, match="scheme"):
            RunConfig("steady-poly", "order7", (1.5,), (16,))

    def test_fixed_rule_needs_count(self):
        with pytest.raises(ValueError, match="m_fixed"):
            RunConfig("diffusion-poly", "order2", (1.5,), (16,),
                      m_rule="fixed")

    def test_count_needs_fixed_rule(self):
        for rule in ("equal-to-n", "ceil-n-3-2"):
            with pytest.raises(ValueError, match="only by the fixed M rule"):
                RunConfig("diffusion-poly", "order2", (1.5,), (16,),
                          m_rule=rule, m_fixed=7)

    def test_step_rules(self):
        equal = RunConfig("diffusion-poly", "order2", (1.5,), (16,))
        assert equal.steps_for(32) == 32
        ceil = RunConfig("diffusion-poly", "order3", (1.5,), (16,),
                         m_rule="ceil-n-3-2")
        assert ceil.steps_for(16) == 64
        assert ceil.steps_for(32) == 182
        assert ceil.steps_for(128) == 1449
        fixed = RunConfig("diffusion-poly", "order2", (1.5,), (16,),
                          m_rule="fixed", m_fixed=77)
        assert fixed.steps_for(512) == 77


class TestRunConvergence:
    def test_steady_reports_and_orders(self):
        config = RunConfig("steady-poly", "order2", (1.5,), (16, 32, 64))
        reports = run_convergence(config)
        assert len(reports) == 1
        rows = reports[0].rows
        assert rows[0].observed_order is None
        assert rows[1].observed_order == pytest.approx(1.95, abs=0.05)
        assert rows[0].max_error == pytest.approx(2.5141e-01, rel=0.02)

    def test_deterministic(self):
        config = RunConfig("steady-poly", "order3", (1.1, 1.9), (16, 32))
        assert run_convergence(config) == run_convergence(config)

    def test_errors_stored_at_five_significant_digits(self):
        config = RunConfig("steady-poly", "order2", (1.5,), (16,))
        row = run_convergence(config)[0].rows[0]
        assert row.max_error == float(f"{row.max_error:.4e}")

    def test_single_resolution_has_no_order(self):
        config = RunConfig("diffusion-poly", "order2", (1.5,), (16,))
        rows = run_convergence(config)[0].rows
        assert len(rows) == 1
        assert rows[0].observed_order is None
        assert rows[0].max_error is not None

    def test_zero_error_has_no_order(self, monkeypatch):
        errors = iter([0.5, 0.0, 0.125])
        monkeypatch.setattr(harness, "_solve_once",
                            lambda *args: next(errors))
        config = RunConfig("steady-poly", "order2", (1.5,), (16, 32, 64))
        rows = run_convergence(config)[0].rows
        assert [row.max_error for row in rows] == [0.5, 0.0, 0.125]
        assert [row.observed_order for row in rows] == [None, None, None]

    def test_diffusion_ceil_rule_orders(self):
        config = RunConfig(
            "diffusion-poly", "order3", (1.1,), (16, 32, 64, 128),
            m_rule="ceil-n-3-2",
        )
        rows = run_convergence(config)[0].rows
        for row in rows[1:]:
            assert 2.9 <= row.observed_order <= 3.05


class TestReportIO:
    def reports(self):
        config = RunConfig("steady-poly", "order2", (1.5, 1.9), (16, 32, 64))
        return run_convergence(config)

    def test_csv_round_trip_is_exact(self, tmp_path):
        reports = self.reports()
        path = tmp_path / "report.csv"
        write_report_csv(reports, path)
        assert read_report_csv(path) == reports

    def test_csv_header_and_formats(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(self.reports(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# problem=steady-poly"
        assert lines[1] == "N,M,alpha,scheme,max_error,observed_order"
        first = lines[2].split(",")
        assert first[0] == "16" and first[3] == "order2"
        float(first[4])  # scientific notation parses
        assert first[5] == ""  # first row has no order

    def test_failure_rows_survive_round_trip(self, tmp_path):
        report = ConvergenceReport(
            problem="steady-poly", scheme="order2", alpha=1.5,
            rows=(
                ConvergenceRow(16, 0, _round_error(0.25141), None),
                ConvergenceRow(32, 0, None, None, failure="matrix singular"),
            ),
        )
        path = tmp_path / "report.csv"
        write_report_csv([report], path)
        assert read_report_csv(path) == [report]

    def test_json_mirror(self, tmp_path):
        reports = self.reports()
        path = tmp_path / "report.json"
        write_report_json(reports, path)
        payload = json.loads(path.read_text())
        assert payload["problem"] == "steady-poly"
        assert payload["reports"][0]["rows"][0]["n"] == 16
        assert payload["reports"][0]["rows"][0]["max_error"] == (
            reports[0].rows[0].max_error
        )

    def test_rounding_helpers_idempotent(self):
        for value in (1.03829517e-3, 6.50444e-5, 0.123456789):
            once = _round_error(value)
            assert _round_error(once) == once
        assert _round_order(1.98765) == 1.99


class TestReproduceTable:
    def test_unknown_table(self):
        with pytest.raises(ValueError, match="unknown table"):
            reproduce_table(7)

    def test_reference_data_shapes(self):
        for table in REFERENCE_TABLES.values():
            for alpha in table.alphas:
                assert len(table.errors[alpha]) == len(table.n_values)
                assert len(table.orders[alpha]) == len(table.n_values)
                assert table.orders[alpha][0] is None
            if table.m_values is not None:
                assert len(table.m_values) == len(table.n_values)

    def test_table3_passes_and_emits_diff(self, tmp_path):
        path = tmp_path / "table3.csv"
        report = reproduce_table(3, out_path=path)
        assert report.passed
        assert not report.failed_cells
        lines = path.read_text().splitlines()
        assert lines[0] == "# table=3"
        header = lines[1].split(",")
        assert header[:3] == ["alpha", "N", "M"]
        assert len(lines) == 2 + 21  # 3 alphas x 7 resolutions

    def test_table6_note_mentions_literal_steps(self):
        assert "literal" in REFERENCE_TABLES[6].note

    def test_printed_orders_against_printed_errors(self):
        """Recompute every order cell as log2 of the ratio of its table's
        own printed errors, both in whole hundredths, and pin each cell
        where the printed order differs (table, alpha, N) -> hundredths."""
        mismatch = {}
        for table_id, table in REFERENCE_TABLES.items():
            for alpha in table.alphas:
                errors = table.errors[alpha]
                for idx in range(1, len(errors)):
                    derived = round(100 * math.log2(errors[idx - 1]
                                                    / errors[idx]))
                    printed = round(100 * table.orders[alpha][idx])
                    if derived != printed:
                        key = (table_id, alpha, table.n_values[idx])
                        mismatch[key] = printed - derived
        assert mismatch == {
            (4, 1.1, 32): -5, (4, 1.1, 64): -2, (4, 1.1, 128): -2,
            (4, 1.1, 512): -10, (4, 1.1, 1024): -1,
            (4, 1.5, 32): 1,
            (4, 1.9, 32): -2, (4, 1.9, 64): -2, (4, 1.9, 256): -1,
            (4, 1.9, 1024): -4,
        }

    def test_table4_alpha_1_1_orders_are_shifted_one_row(self):
        table = REFERENCE_TABLES[4]
        errors = table.errors[1.1]
        derived = [round(math.log2(errors[i - 1] / errors[i]), 2)
                   for i in range(1, len(errors))]
        assert list(table.orders[1.1][1:-1]) == derived[1:]
        assert "shifted one row" in table.note

    def test_cells_are_the_study_rows(self):
        """Each cell shows the printed (5-digit) error and order of the
        convergence study, and its relative difference is taken from that
        printed error."""
        report = reproduce_table(3)
        ref = REFERENCE_TABLES[3]
        studies = {
            alpha: run_convergence(RunConfig(ref.problem, ref.scheme,
                                             (alpha,), ref.n_values))[0]
            for alpha in ref.alphas
        }
        for cell in report.cells:
            row = studies[cell.alpha].rows[ref.n_values.index(cell.n)]
            assert cell.actual_error == row.max_error
            assert cell.actual_order == row.observed_order
            assert cell.error_rel_diff == (
                abs(cell.actual_error - cell.expected_error)
                / cell.expected_error)

    def test_margins_to_tolerance(self):
        """Each gated cell carries its distance to the tolerance, and the
        summary names the worst: table 4 passes alpha=1.1, N=512 at
        exactly the 10-hundredth order tolerance."""
        report = reproduce_table(4)
        for cell in report.cells:
            if cell.error_ok is None:
                assert cell.error_margin is None
            else:
                assert cell.error_margin == (harness.ERROR_RTOL
                                             - cell.error_rel_diff)
                assert cell.error_ok == (cell.error_margin >= 0)
            if cell.order_ok is None:
                assert cell.order_margin is None
            else:
                off = abs(round(100 * cell.actual_order)
                          - round(100 * cell.expected_order))
                assert cell.order_margin == harness.ORDER_TOL_HUNDREDTHS - off
                assert cell.order_ok == (cell.order_margin >= 0)
        worst = min((c for c in report.cells if c.order_margin is not None),
                    key=lambda c: c.order_margin)
        assert (worst.order_margin, worst.alpha, worst.n) == (0, 1.1, 512)
        summary = report.summary().splitlines()
        assert summary[0] == "table 4: PASS (21 gated cells)"
        assert summary[1].startswith(
            "worst margin: order 0 hundredths (alpha=1.1, N=512); error ")

    def test_reproduction_is_deterministic(self):
        first = reproduce_table(3)
        second = reproduce_table(3)
        assert first == second


class TestPropertySuite:
    def test_default_seed_passes(self):
        report = run_property_suite()
        assert report.passed, report.summary()
        good, bad = report.counts
        assert bad == 0 and good == len(report.results)

    def test_verdicts_stable_across_seeds(self):
        verdicts = {
            tuple(r.passed for r in run_property_suite(seed).results)
            for seed in range(10)
        }
        assert len(verdicts) == 1

    def test_properties_run_in_definition_order(self):
        # each property's generator is seeded from its index, so this
        # order fixes every random draw of the suite
        assert [prop.property_name for prop in harness._PROPERTIES] == [
            "generator-table-matches-construction",
            "weight-tail-sums-decay",
            "weight-sign-pattern",
            "first-order-weights-match-binomial-recursion",
            "matrix-matches-convolution-apply",
            "operator-negative-definite",
            "preconditioner-norm-equivalence",
            "preconditioner-symmetric",
            "cn-left-matrix-coercive",
            "cn-single-step-energy-decay",
            "cn-energy-bound-order3",
            "cn-energy-bound-order2",
            "steady-solver-linear",
            "cn-zero-data-stays-zero",
        ]

    def test_summary_mentions_every_property(self):
        report = run_property_suite()
        summary = report.summary()
        for result in report.results:
            assert result.name in summary
