"""Convergence harness: configs, report IO round-trips, table
reproduction, and the property suite."""

import json
import math

import numpy as np
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
from grunwald.operators import SolverFailure
from grunwald.reference_tables import REFERENCE_TABLES, ReferenceTable


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

    def test_rejects_unknown_m_rule(self):
        # "fixed" named the old step-count rule; a count is now the rule
        for rule in ("squared", "fixed", "7"):
            with pytest.raises(ValueError, match="unknown M rule"):
                RunConfig("diffusion-poly", "order2", (1.5,), (16,),
                          m_rule=rule)

    def test_rejects_repeated_alphas(self):
        # compared after the float conversion, which "1.5" also meets
        with pytest.raises(ValueError, match="alpha values must be distinct"):
            RunConfig("steady-poly", "order2", ("1.5", 1.5), (16, 32))

    @pytest.mark.parametrize("problem", ["steady-poly", "diffusion-poly"])
    @pytest.mark.parametrize("alpha", [2.5, 1.0, 0.5, float("nan"),
                                       float("inf")])
    def test_rejects_alpha_outside_solver_range(self, problem, alpha):
        # refused when the config is built, not after the other alphas ran
        with pytest.raises(ValueError, match=r"needs alpha in \(1, 2\]"):
            RunConfig(problem, "order2", (1.5, alpha), (16, 32))

    def test_rejects_repeated_n(self):
        with pytest.raises(ValueError, match="N values must be distinct"):
            RunConfig("steady-poly", "order2", (1.5,), (16, 32, 16))

    @pytest.mark.parametrize("n", [16.7, 16.0, True, "16"])
    def test_rejects_non_integer_n(self, n):
        # 16.7 used to build with N = 16
        with pytest.raises(ValueError, match="N value must be an integer"):
            RunConfig("diffusion-poly", "order2", (1.5,), (n, 32))

    @pytest.mark.parametrize("m_rule", [2.5, 2.0, True])
    def test_rejects_non_integer_step_count(self, m_rule):
        # 2.5 used to build and run 2 steps
        with pytest.raises(ValueError, match="M rule must be an integer"):
            RunConfig("diffusion-poly", "order2", (1.5,), (16, 32),
                      m_rule=m_rule)

    def test_numpy_integers_become_ints(self):
        config = RunConfig("diffusion-poly", "order2", (1.5,),
                           (np.int64(16), 32), m_rule=np.int64(3))
        assert config.n_values == (16, 32)
        assert type(config.n_values[0]) is int
        assert type(config.m_rule) is int and config.m_rule == 3
        assert type(config.steps_for(16)) is int and config.steps_for(16) == 3

    def test_fixed_rule_needs_count(self):
        # a step count is at least 1
        for steps in (0, -3, np.int64(0)):
            with pytest.raises(ValueError, match="step count of at least 1"):
                RunConfig("diffusion-poly", "order2", (1.5,), (16,),
                          m_rule=steps)
        assert RunConfig("diffusion-poly", "order2", (1.5,), (16,),
                         m_rule=1).steps_for(16) == 1

    @pytest.mark.parametrize("rule", ["floor-n-3-2", 7])
    def test_steady_run_refuses_an_m_rule(self, rule):
        # a steady run takes no time steps, so its M column stays 0
        with pytest.raises(ValueError, match=f"M rule {rule!r} given to a "
                                             "steady run"):
            RunConfig("steady-poly", "order2", (1.5,), (16,), m_rule=rule)

    def test_json_mirror_needs_output(self, tmp_path):
        with pytest.raises(ValueError, match="json_mirror needs an output"):
            RunConfig("steady-poly", "order2", (1.5,), (16,),
                      json_mirror=True)
        config = RunConfig("steady-poly", "order2", (1.5,), (16,),
                           output=str(tmp_path / "run.csv"), json_mirror=True)
        assert config.json_path == str(tmp_path / "run.json")
        run_convergence(config)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv",
                                                              "run.json"]
        assert RunConfig("steady-poly", "order2", (1.5,), (16,),
                         output="run.csv").json_path is None

    def test_json_mirror_must_not_overwrite_the_output(self):
        # the mirror's name is the output's with .json for its extension
        with pytest.raises(ValueError, match="would overwrite the output"):
            RunConfig("steady-poly", "order2", (1.5,), (16,),
                      output="runs/r.json", json_mirror=True)

    def test_step_rules(self):
        equal = RunConfig("diffusion-poly", "order2", (1.5,), (16,))
        assert equal.steps_for(32) == 32
        # floor(N^1.5): the steps of the paper's run, one fewer than the
        # printed M column of table 6 (65, 182, 513, 1449, 4097, 11586)
        floor = RunConfig("diffusion-poly", "order3", (1.5,), (16,),
                          m_rule="floor-n-3-2")
        assert floor.steps_for(16) == 64
        assert floor.steps_for(32) == 181
        assert floor.steps_for(128) == 1448
        assert floor.steps_for(512) == 11585
        assert floor.steps_for(10**6) == 10**9
        fixed = RunConfig("diffusion-poly", "order2", (1.5,), (16,),
                          m_rule=77)
        assert fixed.steps_for(16) == fixed.steps_for(512) == 77


class TestRunConvergence:
    def test_steady_reports_and_orders(self):
        config = RunConfig("steady-poly", "order2", (1.5,), (16, 32, 64))
        reports = run_convergence(config)
        assert len(reports) == 1
        rows = reports[0].rows
        assert rows[0].observed_order is None
        assert rows[1].observed_order == pytest.approx(1.95, abs=0.05)
        assert rows[0].max_error == pytest.approx(2.5141e-01, rel=0.02)

    def test_order_on_a_ladder_that_does_not_double(self, monkeypatch):
        config = RunConfig("steady-poly", "order2", (1.5,), (16, 64, 128))
        rows = run_convergence(config)[0].rows
        assert [row.observed_order for row in rows] == [None, 1.97, 1.99]
        # errors of exactly N^-2 give order 2 whatever the ratio of the Ns
        monkeypatch.setattr(harness, "_solve_once",
                            lambda problem, scheme, alpha, n, m: n ** -2.0)
        config = RunConfig("steady-poly", "order2", (1.5,),
                           (16, 64, 128, 384))
        rows = run_convergence(config)[0].rows
        assert [row.observed_order for row in rows] == [None, 2.0, 2.0, 2.0]

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

    def test_solver_failure_is_recorded_in_its_row(self, monkeypatch,
                                                   tmp_path):
        solve = harness.solve_steady

        def failing(problem, grid, scheme):
            if grid.n == 32:
                raise SolverFailure("matrix is singular")
            return solve(problem, grid, scheme)

        monkeypatch.setattr(harness, "solve_steady", failing)
        config = RunConfig("steady-poly", "order2", (1.5,), (16, 32, 64))
        reports = run_convergence(config)
        failed, last = reports[0].rows[1:]
        assert failed.failure == "matrix is singular"
        assert failed.max_error is None and failed.observed_order is None
        assert last.max_error is not None and last.observed_order is None
        path = tmp_path / "report.csv"
        write_report_csv(reports, path)
        assert read_report_csv(path) == reports

    def test_diffusion_floor_rule_orders(self):
        config = RunConfig(
            "diffusion-poly", "order3", (1.1,), (16, 32, 64, 128),
            m_rule="floor-n-3-2",
        )
        rows = run_convergence(config)[0].rows
        for row in rows[1:]:
            assert 2.9 <= row.observed_order <= 3.05


class TestReportIO:
    def reports(self):
        config = RunConfig("steady-poly", "order2", (1.5, 1.9), (16, 32, 64))
        return run_convergence(config)

    def test_failed_rename_leaves_target_and_no_temp_file(self, tmp_path,
                                                           monkeypatch):
        path = tmp_path / "report.csv"
        path.write_text("old\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(harness.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            harness._atomic_write(path, "new\n")
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv"]

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

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        reports = self.reports()
        path = tmp_path / "report.csv"
        write_report_csv(reports, path)
        lines = path.read_text().splitlines()
        lines[1:1] = ["# note: written by hand", ""]
        lines.insert(4, "")
        path.write_text("\n".join(lines) + "\n")
        assert read_report_csv(path) == reports

    def test_missing_problem_line(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(self.reports(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:]) + "\n")
        with pytest.raises(ValueError,
                           match="missing the problem comment line"):
            read_report_csv(path)

    @pytest.mark.parametrize("write", [write_report_csv, write_report_json])
    def test_reports_must_share_a_problem(self, tmp_path, write):
        steady = self.reports()[0]
        diffusion = ConvergenceReport(problem="diffusion-poly",
                                      scheme="order2", alpha=1.5,
                                      rows=steady.rows)
        with pytest.raises(ValueError, match="must share a problem"):
            write([steady, diffusion], tmp_path / "report")

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


# the order columns the paper prints, N from the second value on
PRINTED_ORDERS = {
    3: {1.1: (2.08, 2.09, 2.10, 2.10, 2.09, 2.00),
        1.5: (1.95, 1.98, 1.99, 2.00, 2.00, 2.00),
        1.9: (1.98, 1.99, 2.00, 2.00, 2.00, 2.00)},
    4: {1.1: (3.15, 3.13, 3.11, 3.11, 3.01, 3.00),
        1.5: (3.00, 3.00, 3.00, 3.00, 3.00, 3.00),
        1.9: (3.03, 3.01, 3.01, 3.00, 3.00, 2.96)},
    5: {1.1: (1.90, 1.95, 1.97, 1.99, 1.99),
        1.5: (1.97, 1.98, 1.99, 1.99, 2.00),
        1.9: (1.99, 2.00, 2.00, 2.00, 2.00)},
    6: {1.1: (2.97, 2.99, 2.99, 3.00, 3.00),
        1.5: (2.99, 3.00, 3.00, 3.00, 3.00),
        1.9: (3.40, 2.35, 2.76, 2.90, 2.95)},
}


def printed_errors(table_id, factor):
    """A stand-in for harness._solve_once that returns a table's printed
    error times factor."""
    table = REFERENCE_TABLES[table_id]

    def solve(problem, scheme, alpha, n, m):
        return table.errors[alpha][table.n_values.index(n)] * factor

    return solve


def expected_orders(table, alpha):
    """The orders reproduce_table gates a table's cells against."""
    return harness._orders(table.errors[alpha], table.n_values)


class TestReproduceTable:
    def test_unknown_table(self):
        with pytest.raises(ValueError, match="unknown table"):
            reproduce_table(7)

    def test_reference_data_shapes(self):
        for table in REFERENCE_TABLES.values():
            # every alpha of a table is a key of its errors, in run order
            assert list(table.errors) == [1.1, 1.5, 1.9]
            for errors in table.errors.values():
                assert len(errors) == len(table.n_values)
            if table.m_values is not None:
                assert len(table.m_values) == len(table.n_values)

    def test_table3_passes_and_emits_diff(self, tmp_path):
        path = tmp_path / "table3.csv"
        report = reproduce_table(3)
        report.to_csv(path)
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
        """The expected orders are the printed orders wherever the paper
        prints the order of its own errors: in every cell of tables 3, 5
        and 6. Pin each cell where it does not, (table, alpha, N) ->
        printed minus expected, in hundredths."""
        mismatch = {}
        for table_id, table in REFERENCE_TABLES.items():
            for alpha in table.errors:
                expected = expected_orders(table, alpha)
                assert expected[0] is None
                for n, printed, order in zip(
                        table.n_values[1:], PRINTED_ORDERS[table_id][alpha],
                        expected[1:], strict=True):
                    off = round(100 * printed) - round(100 * order)
                    if off:
                        mismatch[(table_id, alpha, n)] = off
        assert mismatch == {
            (4, 1.1, 32): -5, (4, 1.1, 64): -2, (4, 1.1, 128): -2,
            (4, 1.1, 512): -10, (4, 1.1, 1024): -1,
            (4, 1.5, 32): 1,
            (4, 1.9, 32): -2, (4, 1.9, 64): -2, (4, 1.9, 256): -1,
            (4, 1.9, 1024): -4,
        }

    def test_table4_alpha_1_1_orders_are_shifted_one_row(self):
        table = REFERENCE_TABLES[4]
        printed = PRINTED_ORDERS[4][1.1]
        assert printed[:-1] == tuple(expected_orders(table, 1.1)[2:])
        assert "shifted one row" in table.note
        assert "alpha=1.1: " + ", ".join(f"{o:.2f}" for o in printed) in (
            table.note)

    def test_cells_are_the_study_rows(self):
        """Each cell shows the printed (5-digit) error and order of the
        convergence study, and its relative difference is taken from that
        printed error."""
        report = reproduce_table(3)
        ref = REFERENCE_TABLES[3]
        studies = {
            alpha: run_convergence(RunConfig(ref.problem, ref.scheme,
                                             (alpha,), ref.n_values))[0]
            for alpha in ref.errors
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
        summary names the worst. Every table 4 order equals the order of
        the printed errors, so each order margin is the whole tolerance;
        against the printed column, alpha=1.1 N=512 passed at 0."""
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
        margins = {c.order_margin for c in report.cells
                   if c.order_margin is not None}
        assert margins == {harness.ORDER_TOL_HUNDREDTHS}
        summary = report.summary().splitlines()
        assert summary[0] == "table 4: PASS (21 gated cells)"
        assert summary[1].startswith(
            "worst margin: order 10 hundredths (alpha=1.1, N=32); error ")

    @pytest.mark.parametrize("factor, passed", [(1.019, True),
                                                (0.981, True),
                                                (1.03, False),
                                                (0.97, False)])
    def test_error_gate_is_relative(self, monkeypatch, tmp_path, factor,
                                    passed):
        # every error off by the same factor keeps every order: a cell
        # passes within ERROR_RTOL relative and fails outside it, whatever
        # the size of the printed error (table 3 reproduces every printed
        # error exactly, so a real run cannot tell)
        monkeypatch.setattr(harness, "_solve_once", printed_errors(3, factor))
        report = reproduce_table(3)
        assert report.passed is passed
        assert all(cell.error_ok is passed for cell in report.cells)
        assert all(cell.order_ok is not False for cell in report.cells)
        assert len(report.failed_cells) == (0 if passed else 21)
        first = report.cells[0]
        assert first.error_rel_diff == pytest.approx(abs(factor - 1),
                                                     abs=1e-4)
        path = tmp_path / "table3.csv"
        report.to_csv(path)
        flags = [line.split(",")[6] for line in
                 path.read_text().splitlines()[2:]]
        assert flags == ["pass" if passed else "FAIL"] * 21

    @pytest.mark.parametrize("off, ok", [(0.10, True), (-0.10, True),
                                         (0.11, False), (-0.11, False)])
    def test_order_gate_counts_hundredths(self, monkeypatch, tmp_path, off,
                                          ok):
        # printed errors 2^-4, 2^-6 expect order 2.00; computed errors
        # 2^-4, 2^-(6 + off) give 2 + off
        monkeypatch.setitem(harness.REFERENCE_TABLES, 99, ReferenceTable(
            problem="steady-poly", scheme="order2", n_values=(16, 32),
            m_values=None, errors={1.5: (2.0**-4, 2.0**-6)}))
        monkeypatch.setattr(harness, "_solve_once",
                            lambda problem, scheme, alpha, n, m:
                            {16: 2.0**-4, 32: 2.0**-(6 + off)}[n])
        report = reproduce_table(99)
        first, cell = report.cells
        assert first.order_ok is None and first.order_margin is None
        assert (cell.expected_order, cell.actual_order) == (2.0, 2.0 + off)
        assert cell.order_ok is ok
        assert cell.order_margin == (0 if ok else -1)
        # its error is 7 % off, so the cell and the table fail either way
        assert cell in report.failed_cells and not report.passed
        report.to_csv(tmp_path / "table.csv")
        last = (tmp_path / "table.csv").read_text().splitlines()[-1]
        assert last.split(",")[9] == ("pass" if ok else "FAIL")

    def test_solver_failure_fails_its_cell(self, monkeypatch, tmp_path):
        exact = printed_errors(3, 1.0)

        def failing(problem, scheme, alpha, n, m):
            if n == 32:
                raise SolverFailure("matrix is singular")
            return exact(problem, scheme, alpha, n, m)

        monkeypatch.setattr(harness, "_solve_once", failing)
        report = reproduce_table(3)
        assert not report.passed
        # N = 32 has no error, and neither it nor N = 64 an order
        assert {(c.alpha, c.n) for c in report.failed_cells} == {
            (alpha, n) for alpha in (1.1, 1.5, 1.9) for n in (32, 64)}
        cell = report.cells[1]
        assert (cell.n, cell.actual_error, cell.error_rel_diff,
                cell.error_ok, cell.error_margin) == (32, None, None, False,
                                                      None)
        assert cell.order_ok is False and cell.order_margin is None
        report.to_csv(tmp_path / "table3.csv")
        line = (tmp_path / "table3.csv").read_text().splitlines()[3]
        assert line == "1.1,32,0,1.1592e-01,,,FAIL,2.08,,FAIL"

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

    def test_declared_bounds(self):
        # each measured property's bound, strict (gt, lt) or not (ge, le);
        # a yes/no property has neither measure nor bound
        declared = {prop.property_name: (prop.measure, prop.bound)
                    for prop in harness._PROPERTIES}
        assert declared == {
            "generator-table-matches-construction": (None, {}),
            "weight-tail-sums-decay": ("|sum w|", {"lt": 1e-3}),
            "weight-sign-pattern": (None, {}),
            "first-order-weights-match-binomial-recursion": (
                "relative deviation", {"le": 1e-12}),
            "matrix-matches-convolution-apply": (
                "relative gap", {"le": 1e-13}),
            "operator-negative-definite": (
                "top eigenvalue of sym(A)", {"le": 1e-12}),
            "preconditioner-norm-equivalence": (
                "eigenvalue of P", {"gt": 0.2, "le": 1.0 + 1e-12}),
            "preconditioner-symmetric": (None, {}),
            "cn-left-matrix-coercive": (
                "coercivity bound minus its floor", {"ge": -1e-10}),
            "cn-single-step-energy-decay": (
                "top eigenvalue of sym(B)", {"le": 1e-12}),
            "cn-energy-bound-order3": (
                "norm/bound ratio", {"le": 1.0 + 1e-12}),
            "cn-energy-bound-order2": (
                "norm/bound ratio", {"le": 1.0 + 1e-12}),
            "steady-solver-linear": ("relative scaling gap", {"le": 1e-12}),
            "cn-zero-data-stays-zero": ("max |u|", {"le": 0.0}),
        }

    def test_stability_conditions_fail_when_broken(self, monkeypatch):
        # a positive top eigenvalue breaks (a) and so the three properties
        # built on it; an eigenvalue of P at 0.1 breaks (b) and coercivity
        monkeypatch.setattr(harness.ops, "toeplitz_top_eigenvalue",
                            lambda t: 0.5)
        failed = {r.name: r.detail for r in run_property_suite().results
                  if not r.passed}
        assert failed == {
            "operator-negative-definite": "top eigenvalue of sym(A) "
            "5.0000e-01 at alpha=1.1, n=16 (<= 1e-12)",
            "cn-left-matrix-coercive": "coercivity bound minus its floor "
            "-5.0000e-01 at order2 (floor 1.0), alpha=1.1 (>= -1e-10)",
            "cn-single-step-energy-decay": "top eigenvalue of sym(B) "
            "5.0000e-01 at alpha=1.1 (<= 1e-12)",
        }
        monkeypatch.undo()
        monkeypatch.setattr(harness.ops, "preconditioner_eigenvalues",
                            lambda a2, size: np.full(size, 0.1))
        failed = {r.name for r in run_property_suite().results
                  if not r.passed}
        assert failed == {"preconditioner-norm-equivalence",
                          "cn-left-matrix-coercive"}

    def test_nan_measurement_fails(self, monkeypatch):
        # every comparison with NaN is false, so a NaN value is outside
        # its bound, where a running max() would have skipped it
        monkeypatch.setattr(harness.ops, "toeplitz_top_eigenvalue",
                            lambda t: np.nan)
        failed = {r.name for r in run_property_suite().results
                  if not r.passed}
        assert failed == {"operator-negative-definite",
                          "cn-left-matrix-coercive",
                          "cn-single-step-energy-decay"}
        monkeypatch.undo()
        weights = harness.gen.grunwald_weights

        def nan_last(generator, count):
            values = weights(generator, count).values.copy()
            values[-1] = np.nan
            return harness.gen.WeightSequence(values=values)

        monkeypatch.setattr(harness.gen, "grunwald_weights", nan_last)
        failed = {r.name: r.detail for r in run_property_suite().results
                  if not r.passed}
        assert set(failed) == {"weight-tail-sums-decay",
                               "weight-sign-pattern",
                               "first-order-weights-match-binomial-recursion",
                               "matrix-matches-convolution-apply"}
        assert failed["weight-tail-sums-decay"].startswith("|sum w| nan ")

    def test_pass_reports_the_case_nearest_the_bound(self, monkeypatch):
        # the margin of a value is its distance to the nearer end; of two
        # equal margins (c to the upper end, e to the lower) the first
        # case is the one reported
        monkeypatch.setattr(harness, "_PROPERTIES", [])

        @harness._prop("synthetic", "value", gt=0.0, le=1.0)
        def _cases(rng):
            yield from (("a", 0.5), ("b", 0.75), ("c", 0.875), ("d", 0.25),
                        ("e", 0.125), ("f", 0.375))

        (result,) = run_property_suite().results
        assert result == harness.PropertyResult(
            "synthetic", True, "value 8.7500e-01 at c (> 0.0, <= 1.0)")

    def test_table_property_needs_both_conditions(self, monkeypatch):
        # the table must equal the construction and pass verify_order: a
        # construction that differs, or a failed order check, each fails it
        def result():
            return harness._decide(harness._prop_table_vs_construction, None)

        construct = harness.gen.construct_beta
        verify = harness.gen.verify_order
        monkeypatch.setattr(harness.gen, "construct_beta",
                            lambda p, r, alpha: construct(p, r + 1, alpha))
        assert result().detail == "false at p=2, r=0, alpha=11/10"
        monkeypatch.undo()
        monkeypatch.setattr(harness.gen, "verify_order",
                            lambda generator, p: verify(generator, p + 1))
        assert result().detail == "false at p=1, r=0, alpha=11/10"
        monkeypatch.undo()
        assert result().passed

    def test_raising_property_is_a_failure_not_an_abort(self, monkeypatch):
        def boom(a2, size):
            raise RuntimeError("boom")

        monkeypatch.setattr(harness.ops, "preconditioner_eigenvalues", boom)
        report = run_property_suite()
        failed = {r.name: r.detail for r in report.results if not r.passed}
        assert failed == dict.fromkeys(("preconditioner-norm-equivalence",
                                        "cn-left-matrix-coercive"),
                                       "raised RuntimeError: boom")
        assert len(report.results) == len(harness._PROPERTIES)

    def test_summary_mentions_every_property(self):
        report = run_property_suite()
        lines = report.summary().splitlines()
        # a pass prints its nearest-bound case too, not only a failure
        assert lines[:-1] == [f"PASS {r.name}: {r.detail}"
                              for r in report.results]
        assert all(r.detail for r in report.results)
