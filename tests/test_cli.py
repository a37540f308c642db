"""Command-line surface: exit codes, output files, config handling."""

import subprocess
import sys

import pytest

from grunwald import cli, harness
from grunwald.cli import main
from grunwald.harness import CellDiff, TableDiffReport
from grunwald.operators import SolverFailure


@pytest.fixture(autouse=True)
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("GRUNWALD_OUTDIR", str(tmp_path))
    return tmp_path


class TestExitCodes:
    def test_verify_order_pass(self, capsys):
        code = main(["verify-order", "--order", "2", "--shift", "1",
                     "--alpha", "3/2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "observed order 2" in out
        assert "PASS" in out

    def test_decimal_alpha_is_exact(self, capsys):
        # 0.2 is read as 1/5; as a float its order-6 symbol shows rounding
        # noise at z^3
        code = main(["verify-order", "--order", "6", "--shift", "3",
                     "--alpha", "0.2"])
        assert code == 0
        assert "observed order 6" in capsys.readouterr().out

    def test_verify_order_fail_is_one(self, capsys):
        # the unshifted order-4 generator, given by its coefficients,
        # moved to shift 1
        code = main(["verify-order", "--beta", "25/12,-4,3,-4/3,1/4",
                     "--shift", "1", "--alpha", "3/2", "--expect", "4"])
        assert code == 1
        assert "observed order 1" in capsys.readouterr().out

    def test_custom_generator(self, capsys):
        code = main(["verify-order", "--beta", "1,-1", "--alpha", "3/2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "observed order 1" in out
        assert "PASS" in out

    def test_argparse_usage_error_is_two(self):
        with pytest.raises(SystemExit) as info:
            main(["steady", "--scheme", "order9"])
        assert info.value.code == 2

    def test_domain_usage_error_is_two(self, capsys):
        code = main(["weights", "--order", "9", "--alpha", "1.5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["steady", "--alphas", ","])
        assert info.value.code == 2
        assert "empty list" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify-order", "--alpha", "1/0"],
        ["verify-order", "--alpha", "3/2", "--shift", "1/0"],
        ["verify-order", "--alpha", "3/2", "--beta", "1/0,-1"],
        ["weights", "--alpha", "3/0"],
    ], ids=["alpha", "shift", "beta", "weights-alpha"])
    def test_zero_denominator_is_usage_error(self, argv, capsys):
        # Fraction("1/0") raises ZeroDivisionError, not ValueError
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --" in err
        assert "not a rational number: '" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, values", [("--alphas", "1.5,1.5"),
                                              ("--n", "16,32,16")])
    def test_repeated_value_is_usage_error(self, outdir, capsys, flag,
                                           values):
        assert main(["steady", flag, values]) == 2
        assert "must be distinct" in capsys.readouterr().err
        assert not (outdir / "steady.csv").exists()

    def test_seed_is_not_a_steady_option(self):
        with pytest.raises(SystemExit) as info:
            main(["steady", "--seed", "3"])
        assert info.value.code == 2

    def test_internal_key_error_propagates(self, monkeypatch):
        # no command-line input raises KeyError, so one is a bug and not a
        # usage error
        def broken(args):
            raise KeyError("key")

        monkeypatch.setattr(cli, "_cmd_verify_order", broken)
        with pytest.raises(KeyError):
            main(["verify-order", "--order", "2", "--alpha", "3/2"])

    def test_missing_subcommand_is_two(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2


class TestGeneratorChoice:
    """A generator is --order or --beta, named once."""

    @pytest.mark.parametrize("command", [["verify-order"],
                                         ["weights", "--output", "w.csv"]],
                             ids=["verify-order", "weights"])
    @pytest.mark.parametrize("order", ["5", "2"])  # 2 is the default
    def test_order_and_beta_is_usage_error(self, outdir, capsys, command,
                                           order):
        with pytest.raises(SystemExit) as info:
            main([*command, "--order", order, "--beta", "1,-1",
                  "--alpha", "3/2"])
        assert info.value.code == 2
        assert "not allowed with argument --order" in capsys.readouterr().err
        assert not list(outdir.iterdir())

    def test_order_in_option_file_and_beta_flag(self, tmp_path, capsys):
        config = tmp_path / "gen.cfg"
        config.write_text("order = 4\nalpha = 3/2\n")
        with pytest.raises(SystemExit) as info:
            main(["verify-order", "--beta", "1,-1", f"@{config}"])
        assert info.value.code == 2
        assert "not allowed with argument --order" in capsys.readouterr().err

    def test_family_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify-order", "--order", "4", "--family", "lubich",
                  "--alpha", "3/2"])
        assert info.value.code == 2
        assert ("unrecognized arguments: --family lubich"
                in capsys.readouterr().err)


class TestWeights:
    def test_stdout_csv(self, capsys):
        code = main(["weights", "--order", "2", "--shift", "1",
                     "--alpha", "1.5", "--count", "3"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k,weight"
        assert len(lines) == 5
        assert float(lines[1].split(",")[1]) == pytest.approx(0.76072577, rel=1e-6)

    def test_overflowing_weights_are_usage_error(self):
        # beta_0^2000 overflows: refused with the first non-finite index,
        # with no warning even when warnings are errors
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "grunwald", "weights",
             "--alpha", "2000", "--count", "3"],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: weight 0 is inf")
        assert "Traceback" not in result.stderr

    def test_outdir_alone_writes_the_default_file(self, tmp_path, capsys):
        target = tmp_path / "d"
        code = main(["weights", "--alpha", "3/2", "--count", "2",
                     "--outdir", str(target)])
        assert code == 0
        assert capsys.readouterr().out == f"wrote {target / 'weights.csv'}\n"
        lines = (target / "weights.csv").read_text().splitlines()
        assert lines[0] == "k,weight" and len(lines) == 4

    def test_file_output(self, outdir, capsys):
        code = main(["weights", "--order", "1", "--alpha", "1.5",
                     "--count", "2", "--output", "w.csv"])
        assert code == 0
        assert (outdir / "w.csv").exists()


class TestConvergenceCommands:
    def test_steady_writes_csv(self, outdir, capsys):
        code = main(["steady", "--scheme", "order2", "--alphas", "1.5",
                     "--n", "16,32"])
        assert code == 0
        text = (outdir / "steady.csv").read_text()
        assert text.startswith("# problem=steady-poly")
        assert "16,0,1.5,order2," in text

    def test_diffusion_with_json_mirror(self, outdir):
        code = main(["diffusion", "--scheme", "order2", "--alphas", "1.5",
                     "--n", "16", "--json"])
        assert code == 0
        assert (outdir / "diffusion.csv").exists()
        assert (outdir / "diffusion.json").exists()

    def test_diffusion_step_rule(self, outdir):
        code = main(["diffusion", "--scheme", "order3", "--alphas", "1.9",
                     "--n", "16", "--m-rule", "floor-n-3-2"])
        assert code == 0
        assert ",64,1.9,order3," in (outdir / "diffusion.csv").read_text()

    def test_step_count_rule(self, outdir):
        code = main(["diffusion", "--scheme", "order2", "--alphas", "1.5",
                     "--n", "16,32", "--m-rule", "77"])
        assert code == 0
        rows = (outdir / "diffusion.csv").read_text().splitlines()[2:]
        assert [row.split(",")[:2] for row in rows] == [["16", "77"],
                                                       ["32", "77"]]

    @pytest.mark.parametrize("rule", ["0", "fixed", "-3", "2.5"])
    def test_bad_step_rule_is_usage_error(self, outdir, monkeypatch, capsys,
                                          rule):
        def unreachable(*args, **kwargs):
            raise AssertionError("run_convergence ran before the M check")

        monkeypatch.setattr(cli, "run_convergence", unreachable)
        code = main(["diffusion", "--alphas", "1.5", "--n", "16,32",
                     f"--m-rule={rule}"])
        assert code == 2
        assert "unknown M rule" in capsys.readouterr().err
        assert not (outdir / "diffusion.csv").exists()

    def test_step_count_option_is_gone(self, capsys):
        # the count is the rule (--m-rule 7), and no prefix of an option
        # stands for the option
        with pytest.raises(SystemExit) as info:
            main(["diffusion", "--alphas", "1.5", "--n", "16", "--m", "7"])
        assert info.value.code == 2
        assert "unrecognized arguments: --m 7" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name", [("steady", "steady.csv"),
                                               ("diffusion", "diffusion.csv")])
    def test_alpha_outside_solver_range_refused_before_computing(
            self, outdir, monkeypatch, capsys, command, name):
        # alpha = 1.5 used to be solved and discarded before 2.5 exited 2
        def unreachable(*args, **kwargs):
            raise AssertionError("run_convergence ran before the alpha check")

        monkeypatch.setattr(cli, "run_convergence", unreachable)
        assert main([command, "--alphas", "1.5,2.5", "--n", "16,32"]) == 2
        assert "needs alpha in (1, 2], got 2.5" in capsys.readouterr().err
        assert not (outdir / name).exists()


class TestSolverFailure:
    @pytest.fixture(autouse=True)
    def fail_at_32(self, monkeypatch):
        solve = harness.solve_steady

        def failing(problem, grid, scheme):
            if grid.n == 32:
                raise SolverFailure("matrix is singular")
            return solve(problem, grid, scheme)

        monkeypatch.setattr(harness, "solve_steady", failing)

    def test_failed_row_exits_one(self, capsys):
        code = main(["steady", "--alphas", "1.5", "--n", "16,32,64"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("FAIL alpha=1.5 N=32:")
        assert "alpha=1.5 order2: N=64 error=" in captured.out

    def test_failed_final_solve(self, capsys):
        assert main(["steady", "--alphas", "1.5", "--n", "16,32"]) == 1
        assert "alpha=1.5: final solve failed" in capsys.readouterr().out


class TestScan:
    def test_writes_rows_and_exits_zero(self, outdir, capsys):
        code = main(["scan", "--order", "2", "--shift", "1",
                     "--alpha-min", "1.2", "--alpha-max", "1.8",
                     "--points", "4", "--n", "32"])
        assert code == 0
        lines = (outdir / "scan_p2_r1.csv").read_text().splitlines()
        header = lines[1].split(",")
        assert header == ["alpha", "max_rayleigh", "stable", "reason"]
        assert len(lines) == 2 + 4
        stable = header.index("stable")
        assert all(line.split(",")[stable] == "yes" for line in lines[2:])

    def test_single_point(self, outdir, capsys):
        assert main(["scan", "--alpha-min", "1.5", "--points", "1",
                     "--n", "16"]) == 0
        assert capsys.readouterr().out.startswith(
            "1/1 alphas stable; stable onset: 1.5000\n")
        lines = (outdir / "scan_p2_r1.csv").read_text().splitlines()
        assert len(lines) == 3 and lines[2].startswith("1.5,")

    def test_no_stable_alpha_has_no_onset(self, capsys):
        # the order-3 operator at shift 1 is indefinite up to 1.42
        assert main(["scan", "--order", "3", "--alpha-min", "1.1",
                     "--alpha-max", "1.3", "--points", "3", "--n", "64"]) == 0
        assert capsys.readouterr().out.startswith(
            "0/3 alphas stable; stable onset: none\n")

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_no_points_is_usage_error(self, outdir, points, capsys):
        assert main(["scan", "--points", points]) == 2
        assert "--points" in capsys.readouterr().err
        assert not list(outdir.iterdir())

    def test_negative_shift_is_usage_error(self, outdir, capsys):
        # refused once, before any alpha, and not recorded as data
        assert main(["scan", "--shift", "-1", "--points", "3",
                     "--n", "16"]) == 2
        assert "nonnegative integer shift, got -1" in capsys.readouterr().err
        assert not list(outdir.iterdir())

    @pytest.mark.parametrize("flag", ["--alpha-min", "--alpha-max"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e309"])
    def test_non_finite_alpha_bound_is_usage_error(self, outdir, flag, value,
                                                   capsys):
        with pytest.raises(SystemExit) as info:
            main(["scan", f"{flag}={value}", "--points", "2", "--n", "16"])
        assert info.value.code == 2
        assert f"{flag}: not a finite number" in capsys.readouterr().err
        assert not list(outdir.iterdir())


class TestReproduceTable:
    def test_table3_passes(self, outdir, capsys):
        code = main(["reproduce-table", "--table", "3"])
        assert code == 0
        assert (outdir / "table3_diff.csv").exists()
        assert "PASS" in capsys.readouterr().out

    def test_table4_prints_worst_margin(self, outdir, capsys):
        assert main(["reproduce-table", "--table", "4"]) == 0
        out = capsys.readouterr().out
        assert "worst margin: order 10 hundredths (alpha=1.1, N=32)" in out

    def test_fail_lines_name_the_failing_quantity(self, monkeypatch, capsys):
        def cell(n, actual_error, error_margin, actual_order, order_margin):
            return CellDiff(
                alpha=1.5, n=n, m=n, expected_error=1e-5,
                actual_error=actual_error, error_rel_diff=0.02 - error_margin,
                error_ok=error_margin >= 0, expected_order=2.0,
                actual_order=actual_order, order_ok=order_margin >= 0,
                error_margin=error_margin, order_margin=order_margin)

        report = TableDiffReport(table_id=5, passed=False, cells=(
            cell(32, 1e-5, 0.02, 2.15, -5),
            cell(64, 1.05e-5, -0.03, 2.0, 10),
        ))
        monkeypatch.setattr(cli, "reproduce_table", lambda table_id: report)
        assert main(["reproduce-table", "--table", "5"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "FAIL alpha=1.5 N=32: order expected 2.00, got 2.15, "
            "margin -5 hundredths",
            "FAIL alpha=1.5 N=64: error expected 1.0000e-05, got "
            "1.0500e-05, margin -0.0300 relative",
        ]


class TestProperties:
    def test_properties_pass(self, capsys):
        code = main(["properties", "--seed", "5"])
        assert code == 0
        assert "0 failed" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_seed_must_be_non_negative_integer(self, value, capsys):
        with pytest.raises(SystemExit) as info:
            main(["properties", "--seed", value])
        assert info.value.code == 2
        assert (f"--seed: not a non-negative integer: {value!r}"
                in capsys.readouterr().err)


class TestConfigFile:
    def test_config_supplies_defaults(self, outdir, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# benchmark slice\n"
            "scheme = order2\n"
            "alphas = 1.5  # one order\n"
            "\n"
            "n = 16,32\n"
            "json = true\n"
        )
        code = main(["steady", f"@{config}"])
        assert code == 0
        text = (outdir / "steady.csv").read_text()
        assert "order2" in text and ",1.5," in text
        assert "64" not in text.split("\n", 2)[2]
        assert (outdir / "steady.json").exists()

    def test_flags_override_config(self, outdir, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("scheme = order2\nalphas = 1.5\nn = 16\n")
        for argv in ([f"@{config}", "--scheme", "order3"],
                     ["--scheme", "order3", f"@{config}"]):
            assert main(["steady", *argv]) == 0
            assert "order3" in (outdir / "steady.csv").read_text()

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("tablecloth = 3\n")
        with pytest.raises(SystemExit) as info:
            main(["steady", f"@{config}"])
        assert info.value.code == 2
        assert ("unrecognized arguments: --tablecloth=3"
                in capsys.readouterr().err)

    def test_missing_config_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["steady", "@/nonexistent.cfg"])
        assert info.value.code == 2
        assert "No such file or directory" in capsys.readouterr().err

    def test_key_of_another_subcommand_is_usage_error(self, tmp_path,
                                                      capsys):
        config = tmp_path / "run.cfg"
        config.write_text("alphas = 1.5\nn = 16\nseed = 3\n")
        with pytest.raises(SystemExit) as info:
            main(["steady", f"@{config}"])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed=3" in capsys.readouterr().err

    def test_config_values_meet_the_flag_types(self, tmp_path, capsys):
        config = tmp_path / "scan.cfg"
        config.write_text("shift = 3/2\npoints = 2\nn = 16\n")
        with pytest.raises(SystemExit) as info:
            main(["scan", f"@{config}"])
        assert info.value.code == 2
        assert ("argument --shift: invalid int value: '3/2'"
                in capsys.readouterr().err)

    def test_config_supplies_a_required_option(self, tmp_path, capsys):
        config = tmp_path / "gen.cfg"
        config.write_text("order = 2\nshift = 1\nalpha = 3/2\n")
        code = main(["verify-order", f"@{config}"])
        assert code == 0
        assert "observed order 2" in capsys.readouterr().out

    @pytest.mark.parametrize("value, mirrored", [("false", False),
                                                 ("true", True)])
    def test_json_switch(self, outdir, tmp_path, value, mirrored):
        config = tmp_path / "run.cfg"
        config.write_text(f"alphas = 1.5\nn = 16\njson = {value}\n")
        code = main(["diffusion", f"@{config}"])
        assert code == 0
        assert (outdir / "diffusion.csv").exists()
        assert (outdir / "diffusion.json").exists() == mirrored

    def test_json_takes_true_or_false(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("json = maybe\n")
        with pytest.raises(SystemExit) as info:
            main(["steady", f"@{config}"])
        assert info.value.code == 2
        assert ("argument --json: ignored explicit argument 'maybe'"
                in capsys.readouterr().err)

    def test_line_without_equals_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("alphas = 1.5\njson\n")
        with pytest.raises(SystemExit) as info:
            main(["steady", f"@{config}"])
        assert info.value.code == 2
        assert "'json' is not 'key = value'" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "grunwald", "verify-order",
             "--order", "2", "--shift", "1", "--alpha", "3/2"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "PASS" in result.stdout

    def test_option_file_from_the_shell(self, tmp_path):
        config = tmp_path / "gen.cfg"
        config.write_text("shift = 1\nalpha = 3/2\n")
        result = subprocess.run(
            [sys.executable, "-m", "grunwald", "verify-order", f"@{config}"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "observed order 2" in result.stdout
        result = subprocess.run(
            [sys.executable, "-m", "grunwald", "verify-order",
             f"@{tmp_path / 'missing.cfg'}"],
            capture_output=True, text=True,
        )
        assert result.returncode == 2


class TestOutputResolution:
    def test_absolute_output_wins(self, tmp_path, capsys):
        target = tmp_path / "elsewhere" / "w.csv"  # a directory not yet made
        code = main(["weights", "--order", "1", "--alpha", "1.5",
                     "--count", "1", "--output", str(target)])
        assert code == 0
        assert target.exists()

    def test_output_in_a_new_subdirectory(self, outdir, capsys):
        # the parent of --output is created under the output directory
        code = main(["weights", "--order", "2", "--alpha", "3/2",
                     "--count", "8", "--output", "sub/w.csv"])
        assert code == 0
        assert len((outdir / "sub" / "w.csv").read_text().splitlines()) == 10
        code = main(["steady", "--n", "16,32", "--alphas", "1.5",
                     "--output", "sub/deeper/s.csv"])
        assert code == 0
        assert "16,0,1.5,order2," in (outdir / "sub" / "deeper"
                                      / "s.csv").read_text()

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        # an output directory that is a regular file, and an output file
        # that is a directory
        blocker = tmp_path / "file"
        blocker.write_text("")
        (tmp_path / "d" / "x.csv").mkdir(parents=True)
        for argv in (["weights", "--order", "2", "--alpha", "3/2",
                      "--outdir", str(blocker), "--output", "w.csv"],
                     ["scan", "--n", "16", "--points", "2",
                      "--outdir", str(tmp_path / "d"), "--output", "x.csv"]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("argv, compute", [
        (["scan", "--order", "3", "--n", "512", "--points", "100"],
         "stability_scan"),
        (["steady", "--n", "16,32", "--alphas", "1.5"], "run_convergence"),
        (["reproduce-table", "--table", "3"], "reproduce_table"),
    ])
    def test_directory_target_refused_before_computing(
            self, tmp_path, monkeypatch, capsys, argv, compute):
        def unreachable(*args, **kwargs):
            raise AssertionError(f"{compute} ran before the path check")

        monkeypatch.setattr(cli, compute, unreachable)
        (tmp_path / "d" / "x.csv").mkdir(parents=True)
        code = main(argv + ["--outdir", str(tmp_path / "d"),
                            "--output", "x.csv"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: output path ")

    @pytest.mark.parametrize("argv", [
        ["diffusion", "--alphas", "1.5", "--n", "16", "--m-rule", "0",
         "--outdir", "{tmp}/X/zero"],
        ["steady", "--alphas", "1.5,2.5", "--n", "16,32",
         "--outdir", "{tmp}/Y/range"],
        ["weights", "--alpha", "2000", "--count", "3",
         "--output", "{tmp}/Z/w.csv"],
    ], ids=["m-rule", "alpha-range", "overflow"])
    def test_refused_run_makes_no_directory(self, tmp_path, capsys, argv):
        runs = tmp_path / "runs"
        runs.mkdir()
        assert main([arg.format(tmp=runs) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(runs.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["steady", "--output", "r.json", "--json"],
         "the JSON mirror {tmp}/r.json would overwrite the output"),
        (["steady", "--output", "q.csv", "--json"],
         "output path {tmp}/q.json is a directory"),
        (["diffusion", "--outdir", "{tmp}/F"],
         "output path {tmp}/F/diffusion.csv lies under {tmp}/F, which"),
        (["reproduce-table", "--table", "3", "--outdir", "{tmp}/F/sub"],
         "output path {tmp}/F/sub/table3_diff.csv lies under {tmp}/F, "),
    ], ids=["mirror-is-output", "mirror-is-directory", "outdir-is-file",
            "outdir-under-file"])
    def test_output_refused_before_any_solve(self, outdir, monkeypatch,
                                             capsys, argv, message):
        # a directory q.json and a regular file F, each in the way of an
        # output; the disk is left as it was
        def unreachable(*args, **kwargs):
            raise AssertionError("solved before the output check")

        monkeypatch.setattr(harness, "_solve_once", unreachable)
        (outdir / "q.json").mkdir()
        (outdir / "F").write_text("kept")
        before = sorted(outdir.rglob("*"))
        args = argv if argv[0] == "reproduce-table" else argv + [
            "--alphas", "1.5", "--n", "16,32"]
        assert main([arg.format(tmp=outdir) for arg in args]) == 2
        assert capsys.readouterr().err.startswith(
            "error: " + message.format(tmp=outdir))
        assert sorted(outdir.rglob("*")) == before
        assert (outdir / "F").read_text() == "kept"

    def test_outdir_flag_beats_env(self, tmp_path, capsys):
        other = tmp_path / "flagdir"
        code = main(["steady", "--alphas", "1.5", "--n", "16",
                     "--outdir", str(other)])
        assert code == 0
        assert (other / "steady.csv").exists()
