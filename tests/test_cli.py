"""Command-line interface: exit codes, artifacts, config precedence,
reproducibility."""

import json
import os

import pytest

from toalab import validation
from toalab.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION,
                        OUTPUT_DIR_ENV, main)


def run(tmp_path, *argv):
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    code = main([*argv, "--output-dir", str(out)])
    return code, out


class TestExitCodes:
    def test_unknown_experiment_is_config_error(self, capsys):
        assert main(["no-such-experiment"]) == EXIT_CONFIG
        assert "invalid choice" in capsys.readouterr().err

    def test_bad_flag_value_is_config_error(self, capsys):
        assert main(["kijowski-wave", "--m", "not-a-number"]) == EXIT_CONFIG

    def test_missing_required_parameter_is_config_error(self, tmp_path, capsys):
        code, _ = run(tmp_path, "ms-evolve", "--steps", "10")
        assert code == EXIT_CONFIG
        assert "lambda" in capsys.readouterr().err

    def test_invalid_physics_parameter_is_config_error(self, tmp_path, capsys):
        code, _ = run(tmp_path, "kijowski-bullet", "--p0", "-1")
        assert code == EXIT_CONFIG

    def test_excessive_ms_coupling_is_numerical_error(self, tmp_path, capsys):
        code, _ = run(tmp_path, "ms-evolve", "--lambda", "1e15",
                      "--epsilon", "0.5", "--steps", "5")
        assert code == EXIT_NUMERICAL

    def test_unresolved_ms_grid_is_numerical_error(self, tmp_path, capsys):
        # h = 4: (p0 + 8 sigma_p) h = 7.2 rad per sample, beyond pi/4.
        code, out = run(tmp_path, "ms-evolve", "--lambda", "1",
                        "--n-grid", "65")
        assert code == EXIT_NUMERICAL
        assert "pi/4" in capsys.readouterr().err
        assert "pi/4" in json.loads((out / "error.json").read_text())["error"]


class TestErrorJson:
    def test_written_to_env_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "env"))
        assert main(["kijowski-bullet", "--p0", "-1"]) == EXIT_CONFIG
        error = json.loads((tmp_path / "env" / "error.json").read_text())
        assert error["experiment"] == "kijowski-bullet"
        assert not (tmp_path / "error.json").exists()

    def test_written_to_config_file_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "env"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"output-dir = {tmp_path / 'file'}\nlambda = 1e15\n"
                       "epsilon = 0.5\nsteps = 5\n")
        assert main(["ms-evolve", "--config", str(cfg)]) == EXIT_NUMERICAL
        assert (tmp_path / "file" / "error.json").exists()
        assert not (tmp_path / "env" / "error.json").exists()


class TestArtifacts:
    def test_wave_norm_summary(self, tmp_path):
        code, out = run(tmp_path, "kijowski-wave")
        assert code == EXIT_OK
        summary = json.loads((out / "kijowski-wave_summary.json").read_text())
        assert summary["norm"] == pytest.approx(0.25, abs=1e-4)
        manifest = json.loads(
            (out / "kijowski-wave_manifest.json").read_text())
        assert manifest["experiment"] == "kijowski-wave"
        assert set(manifest) == {"experiment", "parameters", "version"}

    def test_walk_validate_passes(self, tmp_path):
        code, out = run(tmp_path, "walk-validate", "--d", "2", "--n-max", "40")
        assert code == EXIT_OK
        assert (out / "walk-validate_summary.json").exists()

    def test_curve_csv_format(self, tmp_path):
        code, out = run(tmp_path, "sqm-detect")
        assert code == EXIT_OK
        lines = (out / "sqm-detect_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "tau,rate"
        assert len(lines) == 1 + 2048                # header + one row per tau
        tau, rate = (float(v) for v in lines[1].split(","))
        assert tau > 0 and rate >= 0

    def test_slit_sweep_table(self, tmp_path):
        code, out = run(tmp_path, "slit-sweep", "--W", "10,0.1")
        assert code == EXIT_OK
        lines = (out / "slit-sweep_table.csv").read_text().strip().splitlines()
        assert len(lines) == 3                      # header + 2 widths
        header = lines[0].split(",")
        assert header[0] == "W"

    def test_ms_evolve_budget(self, tmp_path):
        code, out = run(tmp_path, "ms-evolve", "--lambda", "1",
                        "--steps", "400")
        assert code == EXIT_OK
        summary = json.loads((out / "ms-evolve_summary.json").read_text())
        assert summary["budget"] == pytest.approx(1.0, abs=1e-4)
        assert summary["cumulative_detected"] + summary["final_norm"] == (
            pytest.approx(summary["budget"]))
        assert summary["phase_per_sample"] == pytest.approx(
            (1.0 + 8.0 / 5.0) * 256.0 / 4096.0)

    def test_laplace_check_far_from_origin_converges(self, tmp_path):
        code, out = run(tmp_path, "laplace-check", "--x", "10", "--s", "100")
        assert code == EXIT_OK
        summary = json.loads((out / "laplace-check_summary.json").read_text())
        assert summary["converged"] is True
        assert max(summary["modulus_rel_errors"]) < 1e-10

    def test_metric_compare_lambda_row(self, tmp_path):
        code, out = run(tmp_path, "metric-compare", "--lambda", "0.1")
        assert code == EXIT_OK
        ms = json.loads((out / "metric-compare_summary.json").read_text())[
            "rows"]["marchewka_schuss"]
        assert ms["norm"] > 0.1
        assert ms["mean"] == pytest.approx(2000.0, rel=1e-2)


class TestConfigFile:
    def test_file_values_used_and_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sweep parameters\nW = 10,0.1\nsigma_x = 100\n")
        code, out = run(tmp_path, "slit-sweep", "--config", str(cfg),
                        "--W", "5,0.5")
        assert code == EXIT_OK
        manifest = json.loads((out / "slit-sweep_manifest.json").read_text())
        assert manifest["parameters"]["W"] == "5,0.5"       # flag beats file
        assert manifest["parameters"]["sigma-x"] == 100.0   # file beats default

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense = 1\nseed = 1\n")
        code, _ = run(tmp_path, "slit-sweep", "--config", str(cfg))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "nonsense" in err and "seed" in err

    def test_missing_config_file_rejected(self, tmp_path):
        code, _ = run(tmp_path, "slit-sweep", "--config",
                      str(tmp_path / "absent.cfg"))
        assert code == EXIT_CONFIG


class TestReproducibility:
    def test_identical_invocations_yield_identical_bytes(self, tmp_path,
                                                          monkeypatch):
        # The artifacts depend on the configuration only, not on the machine.
        outs = []
        for sub, cores in (("a", 2), ("b", 64)):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            out = tmp_path / sub
            out.mkdir()
            code = main(["sqm-detect", "--output-dir", str(out)])
            assert code == EXIT_OK
            outs.append([(out / f"sqm-detect_{suffix}").read_bytes()
                         for suffix in ("manifest.json", "summary.json",
                                        "curve.csv")])
        assert outs[0] == outs[1]

    def test_validate_summary_is_reproducible(self, tmp_path, monkeypatch):
        monkeypatch.setattr("toalab.cli.run_all", lambda: [
            validation.run_criterion(cid) for cid in (1, 12)])
        summaries = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["validate", "--output-dir", str(out)]) == EXIT_OK
            summaries.append((out / "validate_summary.json").read_bytes())
        assert summaries[0] == summaries[1]
        assert [c["cid"] for c in json.loads(summaries[0])["criteria"]] == [
            1, 12]

    def test_manifest_holds_only_configuration(self, tmp_path):
        code, out = run(tmp_path, "walk-validate")
        assert code == EXIT_OK
        manifest = json.loads(
            (out / "walk-validate_manifest.json").read_text())
        assert set(manifest) == {"experiment", "parameters", "version"}
        assert manifest["parameters"] == {"d": 3, "n-max": 50}
        for argv in (["walk-validate", "--seed", "1"],
                     ["walk-validate", "--threads", "1"],
                     ["validate", "--profile", "fast"]):
            assert main(argv) == EXIT_CONFIG
