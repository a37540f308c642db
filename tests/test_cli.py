"""Command-line surface: exit codes, output files, config handling."""

import subprocess
import sys

import pytest

from grunwald import cli
from grunwald.cli import main
from grunwald.harness import CellDiff, TableDiffReport


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
        code = main(["verify-order", "--order", "4", "--family", "lubich",
                     "--shift", "1", "--alpha", "3/2", "--expect", "4"])
        assert code == 1
        assert "observed order 1" in capsys.readouterr().out

    def test_argparse_usage_error_is_two(self):
        with pytest.raises(SystemExit) as info:
            main(["steady", "--scheme", "order9"])
        assert info.value.code == 2

    def test_domain_usage_error_is_two(self, capsys):
        code = main(["weights", "--order", "9", "--alpha", "1.5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_seed_is_not_a_steady_option(self):
        with pytest.raises(SystemExit) as info:
            main(["steady", "--seed", "3"])
        assert info.value.code == 2

    def test_missing_subcommand_is_two(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2


class TestWeights:
    def test_stdout_csv(self, capsys):
        code = main(["weights", "--order", "2", "--shift", "1",
                     "--alpha", "1.5", "--count", "3"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k,weight"
        assert len(lines) == 5
        assert float(lines[1].split(",")[1]) == pytest.approx(0.76072577, rel=1e-6)

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
                     "--n", "16", "--m-rule", "ceil-n-3-2"])
        assert code == 0
        assert ",64,1.9,order3," in (outdir / "diffusion.csv").read_text()

    def test_step_count_without_fixed_rule_is_usage_error(self, outdir,
                                                          capsys):
        code = main(["diffusion", "--alphas", "1.5", "--n", "16,32",
                     "--m", "7"])
        assert code == 2
        assert "fixed M rule" in capsys.readouterr().err
        assert not (outdir / "diffusion.csv").exists()


class TestScan:
    def test_writes_rows_and_exits_zero(self, outdir, capsys):
        code = main(["scan", "--order", "2", "--shift", "1",
                     "--alpha-min", "1.2", "--alpha-max", "1.8",
                     "--points", "4", "--n", "32"])
        assert code == 0
        lines = (outdir / "scan_p2_r1.csv").read_text().splitlines()
        assert lines[1].startswith("alpha,max_rayleigh")
        assert len(lines) == 2 + 4
        assert all(line.split(",")[4] == "yes" for line in lines[2:])


class TestReproduceTable:
    def test_table3_passes(self, outdir, capsys):
        code = main(["reproduce-table", "--table", "3"])
        assert code == 0
        assert (outdir / "table3_diff.csv").exists()
        assert "PASS" in capsys.readouterr().out

    def test_table4_prints_worst_margin(self, outdir, capsys):
        assert main(["reproduce-table", "--table", "4"]) == 0
        out = capsys.readouterr().out
        assert "worst margin: order 0 hundredths (alpha=1.1, N=512)" in out

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
        monkeypatch.setattr(cli, "reproduce_table",
                            lambda table_id, out_path: report)
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


class TestConfigFile:
    def test_config_supplies_defaults(self, outdir, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# benchmark slice\n"
            "scheme = order2\n"
            "alphas = 1.5\n"
            "n = 16,32\n"
        )
        code = main(["steady", "--config", str(config)])
        assert code == 0
        text = (outdir / "steady.csv").read_text()
        assert "order2" in text and ",1.5," in text
        assert "64" not in text.split("\n", 2)[2]

    def test_flags_override_config(self, outdir, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("scheme = order2\nalphas = 1.5\nn = 16\n")
        code = main(["steady", "--config", str(config),
                     "--scheme", "order3"])
        assert code == 0
        assert "order3" in (outdir / "steady.csv").read_text()

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("tablecloth = 3\n")
        code = main(["steady", "--config", str(config)])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_missing_config_is_usage_error(self, capsys):
        code = main(["steady", "--config", "/nonexistent.cfg"])
        assert code == 2

    def test_key_of_another_subcommand_is_usage_error(self, tmp_path,
                                                      capsys):
        config = tmp_path / "run.cfg"
        config.write_text("alphas = 1.5\nn = 16\nseed = 3\n")
        code = main(["steady", "--config", str(config)])
        assert code == 2
        assert f"{config}:3: unknown key 'seed'" in capsys.readouterr().err

    def test_config_values_meet_the_flag_types(self, tmp_path):
        config = tmp_path / "scan.cfg"
        config.write_text("shift = 3/2\npoints = 2\nn = 16\n")
        with pytest.raises(SystemExit) as info:
            main(["scan", "--config", str(config)])
        assert info.value.code == 2

    def test_config_supplies_a_required_option(self, tmp_path, capsys):
        config = tmp_path / "gen.cfg"
        config.write_text("order = 2\nshift = 1\nalpha = 3/2\n")
        code = main(["verify-order", "--config", str(config)])
        assert code == 0
        assert "observed order 2" in capsys.readouterr().out

    @pytest.mark.parametrize("value, mirrored", [("false", False),
                                                 ("true", True)])
    def test_json_switch(self, outdir, tmp_path, value, mirrored):
        config = tmp_path / "run.cfg"
        config.write_text(f"alphas = 1.5\nn = 16\njson = {value}\n")
        code = main(["diffusion", "--config", str(config)])
        assert code == 0
        assert (outdir / "diffusion.csv").exists()
        assert (outdir / "diffusion.json").exists() == mirrored

    def test_json_takes_true_or_false(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("json = maybe\n")
        code = main(["steady", "--config", str(config)])
        assert code == 2
        assert "true or false" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "grunwald", "verify-order",
             "--order", "2", "--shift", "1", "--alpha", "3/2"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "PASS" in result.stdout


class TestOutputResolution:
    def test_absolute_output_wins(self, tmp_path, capsys):
        target = tmp_path / "elsewhere" / "w.csv"
        target.parent.mkdir()
        code = main(["weights", "--order", "1", "--alpha", "1.5",
                     "--count", "1", "--output", str(target)])
        assert code == 0
        assert target.exists()

    def test_outdir_flag_beats_env(self, tmp_path, capsys):
        other = tmp_path / "flagdir"
        code = main(["steady", "--alphas", "1.5", "--n", "16",
                     "--outdir", str(other)])
        assert code == 0
        assert (other / "steady.csv").exists()
