"""Command-line interface: exit codes, artifacts, config precedence,
reproducibility."""

import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

import toalab
from toalab import cli, validation
from toalab.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION,
                        OUTPUT_DIR_ENV, main)
from toalab.detectors import ArrivalDistribution, default_tau_grid
from toalab.experiments import MetricComparison
from toalab.kernels import LaplaceCheckReport

from test_firstpassage import reference_byte_chunk


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    """`perfbench/workloads.py`, loaded from the file as it is."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The files each subcommand writes besides its manifest.
ARTIFACTS = load_workloads().ARTIFACTS

# Rows `cli._write_csv` formats per chunk.
CHUNK = cli._CSV_CHUNK


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which JSON does not have."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def run(tmp_path, *argv):
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    code = main([*argv, "--output-dir", str(out)])
    return code, out


def reference_write_csv(path, header, rows):
    """The per-row CSV writer, kept as the oracle for `cli._write_csv`."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([format(v, ".17g") if isinstance(v, float) else v
                        for v in row])


def run_python(code, cwd):
    """Run `python -c code` in a fresh interpreter that imports this toalab."""
    src = str(Path(toalab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


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

    def test_negative_walk_n_max_is_config_error(self, tmp_path, capsys):
        code, out = run(tmp_path, "walk-validate", "--n-max", "-1")
        assert code == EXIT_CONFIG
        assert "n-max >= 0" in capsys.readouterr().err
        assert not (out / "walk-validate_report.csv").exists()
        assert not (out / "walk-validate_summary.json").exists()

    @pytest.mark.parametrize("argv", [["continuum", "--refinements", ","],
                                      ["slit-sweep", "--W", ","],
                                      ["laplace-check", "--s", ","]],
                             ids=["continuum", "slit-sweep", "laplace-check"])
    def test_empty_list_is_config_error(self, tmp_path, capsys, argv):
        code, out = run(tmp_path, *argv)
        assert code == EXIT_CONFIG
        assert "empty list" in capsys.readouterr().err
        assert not (out / f"{argv[0]}_summary.json").exists()

    @pytest.mark.parametrize("argv", [
        ["kijowski-wave", "--sigma-p", "0"],
        ["continuum", "--d-lattice", "0"],
        ["continuum", "--d-lattice", "-1"],
        ["laplace-check", "--m", "0"],
        ["laplace-check", "--m", "-1"],
        ["ms-evolve", "--lambda", "1", "--n-grid", "1"],
        ["ms-evolve", "--lambda", "1", "--box", "0"],
        ["ms-evolve", "--lambda", "1", "--box", "-5"],
        ["ms-evolve", "--lambda", "1", "--d", "0"],
        ["metric-compare", "--lambda", "-1"],
        ["laplace-check", "--s", "nan"],
        ["slit-sweep", "--W", "1,inf"],
        ["continuum", "--d-lattice", "1000"],
        ["continuum", "--refinements", "1,65"],
        # The error falls from r = 2 to r = 4 whatever the order given.
        ["continuum", "--refinements", "4,2"],
        ["continuum", "--refinements", "1,1"],
        # Widths whose square or inverse square leaves the normal floats.
        ["kijowski-wave", "--sigma-p", "1e-200"],
        ["kijowski-wave", "--sigma-p", "1e200"],
        ["sqm-detect", "--sigma-x", "1e-300"],
        ["sqm-detect", "--sigma-x", "1e200"],
        ["kijowski-bullet", "--sigma-x", "1e-300"],
        ["tqm-detect", "--sigma-t", "1e-300"],
        ["slit-sweep", "--W", "1e-310"],
        ["slit-sweep", "--W", "1e200"],
        ["continuum", "--refinements", "1,x"],
        ["walk-validate", "--d", "0"],
        ["ms-evolve", "--lambda", "-1"],
        ["ms-evolve", "--lambda", "1", "--epsilon", "0"],
        ["ms-evolve", "--lambda", "1", "--steps", "-1"],
        ["laplace-check", "--s", "-1"],
        # The peak density ~ sigma_p^2 / m = 1e600, then sigma_p^2 tau =
        # m e^80 at the window end: refused before numpy overflows.
        ["kijowski-wave", "--m", "1e-300", "--sigma-p", "1e150"],
        ["kijowski-wave", "--m", "1e300", "--sigma-p", "1e150"],
    ], ids=lambda argv: " ".join(argv))
    def test_unrunnable_input_is_config_error(self, tmp_path, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run(tmp_path, *argv)
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert json.loads((out / "error.json").read_text())["error"]
        assert not (out / f"{argv[0]}_summary.json").exists()
        assert not list(out.glob("*.csv"))

    def test_overflowing_wave_window_names_the_width(self, tmp_path, capsys):
        # 1/sigma_p^2 = 1e300 is a normal float, but the tau window end
        # 1e300 e^80 is not.
        code, out = run(tmp_path, "kijowski-wave", "--sigma-p", "1e-150")
        assert code == EXIT_CONFIG
        assert "configuration error: sigma_p = 1e-150" \
            in capsys.readouterr().err
        error = json.loads((out / "error.json").read_text())["error"]
        assert "sigma_p" in error
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("argv", [
        ["sqm-detect", "--p0", "nan"],
        ["slit-sweep", "--v0", "nan"],
        ["metric-compare", "--lambda", "nan"],
        ["ms-evolve", "--lambda", "nan"],
        ["ms-evolve", "--lambda", "1", "--epsilon", "nan"],
        ["kijowski-wave", "--m", "nan"],
        ["kijowski-wave", "--sigma-p", "inf"],
        ["laplace-check", "--x", "nan"],
        ["laplace-check", "--m", "inf"],
    ], ids=lambda argv: " ".join(argv))
    def test_non_finite_number_is_refused_before_the_manifest(
            self, tmp_path, capsys, argv):
        code, out = run(tmp_path, *argv)
        assert code == EXIT_CONFIG
        assert "must be finite" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["error.json"]
        assert strict_json((out / "error.json").read_text())["error"]

    def test_non_finite_config_value_is_refused(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"p0 = nan\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["sqm-detect", "--config", str(cfg)]) == EXIT_CONFIG
        assert [p.name for p in (tmp_path / "out").iterdir()] == [
            "error.json"]

    @pytest.mark.parametrize("argv", [
        ["sqm-detect", "--d", "1e300"],
        ["tqm-detect", "--v0", "1e-300"],
        ["laplace-check", "--s", "1e9"],
        # A default window narrower than the float spacing at its centre.
        ["sqm-detect", "--sigma-x", "1e14"],
        ["kijowski-bullet", "--sigma-x", "1e150"],
        ["metric-compare", "--sigma-x", "1e150"],
        ["tqm-detect", "--sigma-x", "1e20", "--sigma-t", "1e20"],
    ], ids=lambda argv: " ".join(argv))
    def test_non_finite_result_is_numerical_error(self, tmp_path, argv):
        with warnings.catch_warnings():
            # Overflow in the packet arithmetic is what this refuses.
            warnings.simplefilter("ignore", RuntimeWarning)
            code, out = run(tmp_path, *argv)
        assert code == EXIT_NUMERICAL
        assert sorted(p.name for p in out.iterdir()) == [
            "error.json", f"{argv[0]}_manifest.json"]
        for path in out.glob("*.json"):
            strict_json(path.read_text())

    OVERFLOWS = [
        # sigma_bar = tau_bar/(m v0 sigma_x) or sigma_tilde overflows.
        (["sqm-detect", "--p0", "1e-200"], "frozen arrival law"),
        (["kijowski-bullet", "--p0", "1e-200"], "frozen arrival law"),
        (["metric-compare", "--p0", "1e-200"], "frozen arrival law"),
        (["tqm-detect", "--v0", "1e-160"], "frozen arrival law"),
        (["tqm-detect", "--d", "1e300", "--sigma-t", "1e-100"],
         "frozen arrival law"),
        (["slit-sweep", "--v0", "1e-300"], "frozen arrival law"),
        # The law is finite, but tau_bar + 10 widths is not.
        (["sqm-detect", "--d", "1.7e308"], "ends leave the float range"),
        (["kijowski-bullet", "--d", "1.7e308"], "ends leave the float range"),
        # The Marchewka-Schuss absorption front falls between grid points.
        (["metric-compare", "--lambda", "1e12"], "front to 0.998539 of"),
        (["metric-compare", "--lambda", "1e200"], "front to 2.2279e+173 of"),
    ]

    @pytest.mark.parametrize("argv,refusal", OVERFLOWS,
                             ids=[" ".join(argv) for argv, _ in OVERFLOWS])
    def test_overflowing_law_is_numerical_error(self, tmp_path, capsys,
                                                argv, refusal):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run(tmp_path, *argv)
        assert code == EXIT_NUMERICAL
        assert refusal in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [
            "error.json", f"{argv[0]}_manifest.json"]

    @pytest.mark.parametrize("argv", [
        ["ms-evolve", "--lambda", "0", "--epsilon", "3e12", "--steps", "3"],
        ["ms-evolve", "--lambda", "1", "--epsilon", "1e150", "--steps", "3"],
        # k^2 eps overflows.
        ["ms-evolve", "--lambda", "1", "--epsilon", "1e306", "--steps", "3"],
        # 10^4 steps of ulp(1.3e12 rad) = 2.4e-4 rad: 2.4 rad of phase.
        ["ms-evolve", "--lambda", "0", "--epsilon", "1e9"],
        ["kijowski-bullet", "--p0", "1", "--d", "1e300"],
    ], ids=lambda argv: " ".join(argv))
    def test_phase_beyond_float_precision_is_numerical_error(
            self, tmp_path, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run(tmp_path, *argv)
        assert code == EXIT_NUMERICAL
        assert "numerical error: phase step" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [
            "error.json", f"{argv[0]}_manifest.json"]

    def test_programming_error_is_not_numerical(self, tmp_path, monkeypatch):
        # Only NumericalError maps to exit 4; anything else propagates.
        def broken(p):
            raise RuntimeError("bug")

        monkeypatch.setitem(cli.RUNNERS, "kijowski-wave", broken)
        with pytest.raises(RuntimeError, match="bug"):
            run(tmp_path, "kijowski-wave")

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

    def test_unconverged_quadrature_is_numerical_error(self, tmp_path,
                                                      monkeypatch, capsys):
        # One halving cannot resolve the default transforms.
        monkeypatch.setattr("toalab.kernels._TRAPEZOID_HALVINGS", 1)
        code, out = run(tmp_path, "laplace-check")
        assert code == EXIT_NUMERICAL
        assert "did not converge" in json.loads(
            (out / "error.json").read_text())["error"]
        assert not (out / "laplace-check_summary.json").exists()


    def test_unresolved_kijowski_curve_is_numerical_error(self, tmp_path,
                                                          capsys):
        # p0 = 0.5, d = 2e4: the curve's phase across the packet is not
        # resolved with 65537 nodes, so no summary is written.
        code, out = run(tmp_path, "kijowski-bullet", "--p0", "0.5",
                        "--d", "2e4")
        assert code == EXIT_NUMERICAL
        assert "did not converge" in json.loads(
            (out / "error.json").read_text())["error"]
        assert not (out / "kijowski-bullet_summary.json").exists()

    @pytest.mark.parametrize("argv,norm,flux", [
        (["--sigma-x", "30"], "0.730385", "0.999999"),
        (["--sigma-x", "1e13"], "7.97913e-24", "0.5"),
        (["--p0", "0.1"], "0.892308", "0.92135"),
        # A small flux erf(0.01): 1.6% of it, but only 1.8e-4, is missing.
        (["--p0", "0.01", "--sigma-x", "1", "--d", "0.01"], "0.0111014",
         "0.0112834"),
    ], ids=["sigma-x 30", "sigma-x 1e13", "p0 0.1", "small flux"])
    def test_sqm_window_missing_the_flux_is_numerical_error(
            self, tmp_path, capsys, argv, norm, flux):
        # The bullet-sized window (ROADMAP D9) misses more than 1e-3 of the
        # exact flux erfc(-p0 sigma_x)/2 - erfc(d/sigma_x)/2 through the
        # detector.
        code, out = run(tmp_path, "sqm-detect", *argv)
        assert code == EXIT_NUMERICAL
        error = strict_json((out / "error.json").read_text())["error"]
        assert f"norm {norm} " in error and f"flux {flux};" in error
        assert error in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [
            "error.json", "sqm-detect_manifest.json"]

    @pytest.mark.parametrize("argv,norm,exact", [
        (["--sigma-x", "30"], "0.730253", "1"),
        (["--p0", "0.1"], "0.893283", "0.92135"),
    ], ids=["sigma-x 30", "p0 0.1"])
    def test_kijowski_window_missing_the_norm_is_numerical_error(
            self, tmp_path, capsys, argv, norm, exact):
        # The bullet-sized window misses part of the exact Kijowski norm
        # erfc(-p0 sigma_x)/2.
        with pytest.warns(UserWarning, match="outside the bullet regime"):
            code, out = run(tmp_path, "kijowski-bullet", *argv)
        assert code == EXIT_NUMERICAL
        error = strict_json((out / "error.json").read_text())["error"]
        assert f"norm {norm} " in error and f"norm {exact};" in error
        assert error in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [
            "error.json", "kijowski-bullet_manifest.json"]

    @pytest.mark.parametrize("argv", [
        ["--p0", "1", "--sigma-x", "30", "--d", "100"], ["--d", "1e-8"]],
        ids=["sigma-x 30", "d 1e-8"])
    @pytest.mark.parametrize("name", [
        "kijowski-bullet", "sqm-detect", "metric-compare"])
    def test_window_refusals_agree_across_subcommands(self, tmp_path, name,
                                                      argv):
        # The window misses the exact total, Kijowski's or the flux, so each
        # subcommand refuses the packet alike.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")      # outside the bullet regime
            code, out = run(tmp_path, name, *argv)
        assert code == EXIT_NUMERICAL
        assert "captures norm" in strict_json(
            (out / "error.json").read_text())["error"]
        assert sorted(p.name for p in out.iterdir()) == [
            "error.json", f"{name}_manifest.json"]

    def test_metric_compare_refuses_the_kijowski_norm_before_g(self,
                                                               tmp_path):
        # At d = 1e-8 the window holds 8e-11 of the Kijowski norm, which
        # is refused before G(inf) is integrated.
        code, out = run(tmp_path, "metric-compare", "--d", "1e-8",
                        "--lambda", "1")
        assert code == EXIT_NUMERICAL
        assert "captures norm 7.97865e-11 of the exact Kijowski norm 1;" \
            in strict_json((out / "error.json").read_text())["error"]

    def test_sqm_and_kijowski_curves_share_one_window(self, tmp_path):
        # At their shared default packet the two curves sit on one window.
        taus = {}
        for name in ("sqm-detect", "kijowski-bullet"):
            assert run(tmp_path, name)[0] == EXIT_OK
            with open(tmp_path / "out" / f"{name}_curve.csv") as fh:
                taus[name] = [row[0] for row in csv.reader(fh)]
        assert taus["sqm-detect"] == taus["kijowski-bullet"]

    def test_sqm_defaults_capture_the_flux(self, tmp_path):
        code, out = run(tmp_path, "sqm-detect")
        assert code == EXIT_OK
        summary = strict_json((out / "sqm-detect_summary.json").read_text())
        assert summary["norm"] == pytest.approx(1.0, abs=1e-4)


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


# The closed-form columns of slit-sweep's table.csv, as written before the
# exact column: at the defaults, and at a deep bullet packet.
SLIT_SWEEP_COLUMNS = {
    "defaults": [
        b"W,sqm_uncertainty,tqm_uncertainty,ratio",
        b"0.01,7071.0678118619389,500049.99750024982,70.717748832983929",
        b"0.10000000000000001,7071.0678115119208,50497.524691760867,"
        b"7.1414284288929188",
        b"1,7071.0677765101364,8660.2540089768736,1.2247448734328306",
        b"10,7071.0642763342203,7088.7199126534815,1.0024968852819442"],
    "deep": [
        b"W,sqm_uncertainty,tqm_uncertainty,ratio",
        b"0.001,3535.5327745624313,2000003.1249955581,565.6864898510479",
        b"1,2760.7881518711638,3409.0983000658975,1.2348279232346504",
        b"10,438.52900965351461,481.98308300986275,1.0990905331227268"],
}


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

    def test_kijowski_bullet_resolves_fast_phase(self, tmp_path):
        # p0 = 0.5, d = 1e4 needs about 65536 intervals in q = sqrt(p); a
        # fixed 8000 Gauss-Legendre nodes alias it to uncertainty 4974.
        code, out = run(tmp_path, "kijowski-bullet", "--p0", "0.5",
                        "--d", "1e4")
        assert code == EXIT_OK
        summary = json.loads(
            (out / "kijowski-bullet_summary.json").read_text())
        assert summary["uncertainty"] == pytest.approx(3089.0600, rel=1e-6)
        assert summary["norm"] == pytest.approx(1.0, abs=1e-4)
        assert summary["nodes"] == 65536
        assert 0.0 <= summary["quad_error"] <= 1e-10

    def test_walk_validate_passes(self, tmp_path):
        code, out = run(tmp_path, "walk-validate", "--d", "2", "--n-max", "40")
        assert code == EXIT_OK
        assert (out / "walk-validate_summary.json").exists()

    def test_curve_csv_format(self, tmp_path):
        code, out = run(tmp_path, "sqm-detect")
        assert code == EXIT_OK
        lines = (out / "sqm-detect_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "tau,rate"
        # The header, then one row per tau of the default window.
        assert len(lines) == 1 + default_tau_grid(100.0, 1.0).size
        tau, rate = (float(v) for v in lines[1].split(","))
        assert tau > 0 and rate >= 0

    def test_slit_sweep_table(self, tmp_path):
        code, out = run(tmp_path, "slit-sweep", "--W", "10,0.1")
        assert code == EXIT_OK
        lines = (out / "slit-sweep_table.csv").read_text().strip().splitlines()
        assert len(lines) == 3                      # header + 2 widths
        header = lines[0].split(",")
        assert header[0] == "W"

    @pytest.mark.parametrize("argv,exact,refusal", [
        ([], [None] * 4, "sigma_p = 0.01 exceeds p0/8"),
        (["--m", "25", "--v0", "0.8", "--sigma-x", "1", "--d", "8e4",
          "--W", "0.001,1,10"],
         [3564.60332803, 2781.67120737, 438.73462381], None),
    ], ids=["defaults", "deep"])
    def test_slit_sweep_exact_column(self, tmp_path, argv, exact, refusal):
        code, out = run(tmp_path, "slit-sweep", *argv)
        assert code == EXIT_OK
        lines = (out / "slit-sweep_table.csv").read_bytes().split(b"\r\n")
        assert lines.pop() == b""
        # The four closed-form columns keep the bytes they had before the
        # exact column was added.
        assert [line.rsplit(b",", 1)[0] for line in lines] == \
            SLIT_SWEEP_COLUMNS["deep" if argv else "defaults"]
        column = [line.rsplit(b",", 1)[1].decode() for line in lines]
        assert column[0] == "sqm_exact_uncertainty"
        assert [float(v) if v else None for v in column[1:]] == [
            pytest.approx(v, rel=1e-9) if v else None for v in exact]
        reason = strict_json((out / "slit-sweep_summary.json").read_text())[
            "sqm_exact_refusal"]
        if refusal is None:
            assert reason is None
        else:
            assert refusal in reason and "near p = 0" in reason

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

    def test_tqm_detect_summary_is_closed_form(self, tmp_path):
        code, out = run(tmp_path, "tqm-detect")
        assert code == EXIT_OK
        summary = json.loads((out / "tqm-detect_summary.json").read_text())
        assert summary["uncertainty"] == pytest.approx(
            summary["closed_form_uncertainty"], rel=1e-9)
        # The defaults sit outside the frozen form's regime (ROADMAP D5).
        for key in ("sigma_p_over_p0", "m_sigma_x2_over_tau_bar",
                    "m_sigma_t2_over_tau_bar"):
            assert summary[key] == pytest.approx(1.0, rel=1e-12)

    def test_tqm_detect_far_detector_is_closed_form(self, tmp_path):
        # At d = 1e300 the squared spread of the curve overflows on the tau
        # axis; the moments are taken on a rescaled axis and come out at
        # the deep-regime closed forms.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run(tmp_path, "tqm-detect", "--d", "1e300")
        assert code == EXIT_OK
        summary = strict_json((out / "tqm-detect_summary.json").read_text())
        assert summary["mean"] == pytest.approx(summary["tau_bar"], rel=1e-12)
        assert summary["uncertainty"] == pytest.approx(
            summary["closed_form_uncertainty"], rel=1e-12)

    def test_metric_compare_lambda_row(self, tmp_path):
        code, out = run(tmp_path, "metric-compare", "--lambda", "0.1")
        assert code == EXIT_OK
        ms = json.loads((out / "metric-compare_summary.json").read_text())[
            "rows"]["marchewka_schuss"]
        assert ms["norm"] > 0.1
        assert ms["mean"] == pytest.approx(2000.0, rel=1e-2)

    def test_metric_compare_takes_its_own_clamped_grid(self, tmp_path):
        # 10 widths exceed tau_bar, so the default grid starts at the clamp
        # 1e-9 tau_bar; the current row must accept that grid (ROADMAP D9).
        with pytest.warns(UserWarning, match="outside the bullet regime"):
            code, out = run(tmp_path, "metric-compare", "--p0", "1",
                            "--sigma-x", "5", "--d", "100")
        assert code == EXIT_VALIDATION       # out of regime: rows disagree
        rows = (out / "metric-compare_table.csv").read_text().splitlines()
        assert rows[0] == "metric,mean,uncertainty,norm"
        assert len(rows) == 5
        norms = [float(row.split(",")[3]) for row in rows[1:]]
        assert all(math.isfinite(n) and n > 0.99 for n in norms)
        summary = json.loads((out / "metric-compare_summary.json").read_text())
        assert summary["rows"]["kijowski_full"]["norm"] == pytest.approx(
            1.0, abs=1e-4)


# Fast arguments per subcommand: ms-evolve needs its lambda.
FILE_SET_ARGV = [[name] for name in cli.RUNNERS if name != "ms-evolve"] + [
    ["ms-evolve", "--lambda", "1", "--steps", "400"],
    ["metric-compare", "--lambda", "0"],
    ["ms-evolve", "--lambda", "0", "--steps", "50"],
    ["laplace-check", "--x", "10", "--s", "100"]]


class TestArtifactFiles:
    def test_csv_bytes_match_per_row_writer(self, tmp_path):
        taus = np.linspace(10.0, 190.0, 10**4)
        mixed = [(0.1, 1, "kijowski_full", True, np.float64(1.0 / 3.0)),
                 (-0.0, -7, "1/8", False, 1e-300),
                 (float("nan"), 2**70, "", None, 2.5e17)]
        curve = lambda: zip(taus.tolist(), np.exp(-taus).tolist())
        for header, rows in ((["tau", "rate"], curve),
                             (["a", "b", "c", "d", "e"], lambda: iter(mixed))):
            cli._write_csv(tmp_path / "new.csv", header, rows())
            reference_write_csv(tmp_path / "ref.csv", header, rows())
            assert (tmp_path / "new.csv").read_bytes() \
                == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("header,rows,refusal", [
        (["tau", "rate"], [], None),
        (["n", "x"], [(n, n / 7.0) for n in range(CHUNK)], None),
        (["n", "x"], [(n, n / 7.0) for n in range(CHUNK + 1)], None),
        # A column of floats in the first chunk holding None, then a string.
        (["x", "y"], [(n / 3.0, n / 3.0) for n in range(CHUNK)]
         + [(None, "tail"), (2.5, None)], None),
        # Tables csv.writer would quote are refused instead.
        (["name", "note"], [("a,b", 'say "hi"'), ("line\nbreak", "cr\rlf"),
                            ('"', ","), ("", "plain")], "'a,b' would need"),
        (["only"], [("",), ("x",), ("",)], "at least two columns"),
        (["only"], [(None,), (1.5,)], "at least two columns"),
        (["a,b", 'q"'], [(1, True), (-2, False)], "'a,b' would need"),
    ], ids=["no-rows", "one-chunk", "chunk-plus-one", "mixed-second-chunk",
            "quoted-strings", "one-column-empty", "one-column-none",
            "quoted-header"])
    def test_csv_cases_match_per_row_writer(self, tmp_path, header, rows,
                                            refusal):
        if refusal is not None:
            with pytest.raises(ValueError, match=refusal):
                cli._write_csv(tmp_path / "new.csv", header, iter(rows))
            return
        cli._write_csv(tmp_path / "new.csv", header, iter(rows))
        reference_write_csv(tmp_path / "ref.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() \
            == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("cell", ["a,b", 'q"', "cr\r", "lf\n"],
                             ids=["comma", "quote", "cr", "lf"])
    def test_csv_field_needing_quotes_is_refused(self, tmp_path, cell):
        # In any column, past the first chunk, and in the header.
        rows = [(n, n / 3.0) for n in range(CHUNK + 1)] + [(1, cell)]
        with pytest.raises(ValueError, match="would need quoting"):
            cli._write_csv(tmp_path / "new.csv", ["n", "x"], rows)
        with pytest.raises(ValueError, match="would need quoting"):
            cli._write_csv(tmp_path / "new.csv", ["n", cell], [])

    @pytest.mark.parametrize("header", [[], ["tau"]], ids=["none", "one"])
    def test_csv_table_of_fewer_than_two_columns_is_refused(self, tmp_path,
                                                            header):
        with pytest.raises(ValueError, match="at least two columns"):
            cli._write_csv(tmp_path / "new.csv", header, [(1.0,)] * 3)
        assert not (tmp_path / "new.csv").exists()

    def test_csv_rows_from_a_one_shot_generator(self, tmp_path):
        rows = [(n, n * 0.1, str(n)) for n in range(2 * CHUNK + 5)]
        cli._write_csv(tmp_path / "new.csv", ["n", "x", "s"],
                       (row for row in rows))
        reference_write_csv(tmp_path / "ref.csv", ["n", "x", "s"], rows)
        assert (tmp_path / "new.csv").read_bytes() \
            == (tmp_path / "ref.csv").read_bytes()

    def test_csv_row_of_another_width_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="2 fields"):
            cli._write_csv(tmp_path / "new.csv", ["a", "b"],
                           [(1, 2), (1, 2, 3)])

    def test_csv_memory_does_not_grow_with_rows(self, tmp_path):
        # The parent writer's own peak here is about 0.16 MiB; the chunks
        # hold 1024 rows of formatted text at a time.
        taus = np.linspace(0.0, 1.0, 10**5)
        columns = taus.tolist(), np.exp(-taus).tolist()
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "curve.csv", ["tau", "rate"],
                           zip(*columns))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("argv", FILE_SET_ARGV,
                             ids=lambda argv: " ".join(argv))
    def test_writes_exactly_its_files_as_strict_json(self, tmp_path,
                                                     monkeypatch, argv):
        monkeypatch.setattr("toalab.cli.run_all", lambda: [
            validation.run_criterion(cid) for cid in (1, 12)])
        code, out = run(tmp_path, *argv)
        assert code == EXIT_OK
        exp = argv[0]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"{exp}_{suffix}"
            for suffix in ("manifest.json",) + ARTIFACTS[exp])
        for path in out.glob("*.json"):
            strict_json(path.read_text())

    def test_metric_compare_without_absorption_has_null_moments(self,
                                                                tmp_path):
        code, out = run(tmp_path, "metric-compare", "--lambda", "0")
        assert code == EXIT_OK
        ms = strict_json((out / "metric-compare_summary.json").read_text())[
            "rows"]["marchewka_schuss"]
        assert ms == {"mean": None, "uncertainty": None, "norm": 0.0}
        rows = (out / "metric-compare_table.csv").read_text().splitlines()
        assert rows[-1] == "marchewka_schuss,,,0"

    @pytest.mark.parametrize("argv,record,keys", [
        (["laplace-check", "--x", "10", "--s", "100"], LaplaceCheckReport,
         {"s_values", "modulus_rel_errors", "phase_errors",
          "factorization_residuals", "converged"}),
        (["metric-compare", "--lambda", "0"], MetricComparison,
         {"rows", "consistent"}),
    ], ids=["laplace-check", "metric-compare"])
    def test_summary_keys_are_the_record_fields(self, tmp_path, argv, record,
                                                keys):
        code, out = run(tmp_path, *argv)
        assert code == EXIT_OK
        summary = strict_json((out / f"{argv[0]}_summary.json").read_text())
        assert set(summary) == {f.name for f in fields(record)} == keys

    def test_ms_evolve_without_absorption_has_null_moments(self, tmp_path):
        code, out = run(tmp_path, "ms-evolve", "--lambda", "0",
                        "--steps", "50")
        assert code == EXIT_OK
        summary = strict_json((out / "ms-evolve_summary.json").read_text())
        assert summary["cumulative_detected"] == 0.0
        assert summary["mean"] is None and summary["uncertainty"] is None

    def test_ms_evolve_one_step_has_null_moments(self, tmp_path):
        # One step detects probability, but a one-point curve has no area,
        # so no moment exists: null, with no 0/0 on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run(tmp_path, "ms-evolve", "--lambda", "1",
                            "--steps", "1")
        assert code == EXIT_OK
        summary = strict_json((out / "ms-evolve_summary.json").read_text())
        assert summary["cumulative_detected"] > 0.0
        assert summary["mean"] is None and summary["uncertainty"] is None

    @pytest.mark.parametrize("epsilon", ["1e-160", "1e-300"])
    def test_ms_evolve_tiny_step_has_its_curve_moments(self, tmp_path,
                                                       epsilon):
        # tau * rate underflows at these steps; the summary still reports
        # the moments of its own curve, read back and put on tau / epsilon.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run(tmp_path, "ms-evolve", "--lambda", "1",
                            "--epsilon", epsilon, "--steps", "3")
        assert code == EXIT_OK
        summary = strict_json((out / "ms-evolve_summary.json").read_text())
        taus, rates = np.loadtxt(out / "ms-evolve_curve.csv", delimiter=",",
                                 skiprows=1, unpack=True)
        eps = float(epsilon)
        unit = ArrivalDistribution(taus / eps, rates * eps)
        assert summary["mean"] == pytest.approx(unit.mean * eps, rel=1e-13)
        assert summary["uncertainty"] == pytest.approx(
            unit.uncertainty * eps, rel=1e-13)


# The packet subcommands' tables as they were before `cli._packet` declared
# the four packet flags once: the same flags, defaults and help text.
PACKET_GOLDEN = {
    "kijowski-bullet": {
        "m": (float, 1.0, "mass"),
        "p0": (float, 1.0, "mean momentum"),
        "sigma-x": (float, 10.0, "position width"),
        "d": (float, 100.0, "detector distance"),
    },
    "sqm-detect": {
        "m": (float, 1.0, "mass"),
        "p0": (float, 1.0, "mean momentum"),
        "sigma-x": (float, 10.0, "position width"),
        "d": (float, 100.0, "detector distance"),
    },
    "tqm-detect": {
        "m": (float, 1.0, "mass"),
        "v0": (float, 0.1, "packet speed"),
        "sigma-x": (float, 10.0, "position width"),
        "sigma-t": (float, 10.0, "temporal width"),
        "d": (float, 10.0, "detector distance"),
    },
    "slit-sweep": {
        "W": (str, "10,1,0.1,0.01", "comma-separated gate widths"),
        "v0": (float, 0.01, "packet speed"),
        "sigma-x": (float, 100.0, "position width"),
        "m": (float, 1.0, "mass"),
        "d": (float, 100.0, "detector distance"),
    },
    "metric-compare": {
        "m": (float, 1.0, "mass"),
        "p0": (float, 10.0, "mean momentum"),
        "sigma-x": (float, 10.0, "position width"),
        "d": (float, 2.0e4, "detector distance"),
        "lambda": (float, None, "absorption length (adds Marchewka-Schuss)"),
    },
    "ms-evolve": {
        "lambda": (float, cli.REQUIRED, "absorption length (no default)"),
        "epsilon": (float, 0.01, "clock-time step"),
        "steps": (int, 10000, "number of steps"),
        "m": (float, 1.0, "mass"),
        "p0": (float, 1.0, "mean momentum"),
        "sigma-x": (float, 5.0, "position width"),
        "d": (float, 25.0, "detector distance"),
        "box": (float, 256.0, "half-line extent"),
        "n-grid": (int, 4097, "grid points on the half line"),
    },
}


class TestDeclarations:
    @pytest.mark.parametrize("name", sorted(PACKET_GOLDEN))
    def test_packet_subcommand_flags_are_unchanged(self, name):
        assert cli.PARAMS[name] == PACKET_GOLDEN[name]

    def test_every_subcommand_has_one_runner(self):
        assert set(cli.RUNNERS) == set(cli.PARAMS)

    @pytest.mark.parametrize("flags,p0", [({"p0": 2.0}, 2.0),
                                          ({"v0": 0.25}, 0.75)])
    def test_space_packet_momentum(self, flags, p0):
        pkt = cli._space_packet({"m": 3.0, "sigma-x": 1.0, "d": 5.0,
                                 **flags})
        assert pkt.p0 == p0 and pkt.x0 == -5.0 and pkt.mass == 3.0


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

    @pytest.mark.parametrize("line", ["d-lattice = 2.5", "d-lattice 2"])
    def test_malformed_config_line_rejected(self, tmp_path, capsys, line):
        # A value of the wrong type, and a line without '='.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, _ = run(tmp_path, "continuum", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert "d-lattice" in capsys.readouterr().err

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


class TestParserOnce:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_leak_no_state(self, tmp_path):
        def steps(sub, *argv):
            code = main(["ms-evolve", "--lambda", "1", *argv,
                         "--output-dir", str(tmp_path / sub)])
            manifest = strict_json(
                (tmp_path / sub / "ms-evolve_manifest.json").read_text())
            return code, manifest["parameters"]["steps"]

        assert steps("a", "--steps", "50") == (EXIT_OK, 50)
        assert main(["kijowski-bullet", "--p0", "-1", "--output-dir",
                     str(tmp_path / "b")]) == EXIT_CONFIG
        assert main(["ms-evolve", "--no-such-flag"]) == EXIT_CONFIG
        assert steps("c") == (EXIT_OK, 10000)

    def test_every_subcommand_twice_writes_the_same_bytes(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr("toalab.cli.run_all", lambda: [
            validation.run_criterion(cid) for cid in (1, 12)])
        seen = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            for argv in FILE_SET_ARGV:
                assert main([*argv, "--output-dir", str(out / argv[0])]) \
                    == EXIT_OK
            seen.append({p.relative_to(out): p.read_bytes()
                         for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(seen[0]) == len(cli.RUNNERS) + sum(
            map(len, ARTIFACTS.values()))
        assert seen[0] == seen[1]


class TestWarnings:
    def test_criterion_warnings_reach_the_caller(self, monkeypatch):
        def warns():
            warnings.warn("did not converge", IntegrationWarning)
            return validation._result(99, "warns", True, {})

        monkeypatch.setitem(validation.CRITERIA, 99, warns)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            with pytest.raises(IntegrationWarning):
                validation.run_criterion(99)

    def test_runner_warnings_reach_the_caller(self, tmp_path, monkeypatch):
        # main must not reset the caller's filters around a subcommand.
        def warns(p):
            warnings.warn("did not converge", IntegrationWarning)
            return EXIT_OK, {}, {}

        monkeypatch.setitem(cli.RUNNERS, "kijowski-wave", warns)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            with pytest.raises(IntegrationWarning):
                run(tmp_path, "kijowski-wave")

    def test_validate_summary_lists_criterion_warnings(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setattr("toalab.cli.run_all", lambda: [
            validation.run_criterion(cid) for cid in (1, 2)])
        with pytest.warns(UserWarning, match="bullet regime"):
            code, out = run(tmp_path, "validate")
        assert code == EXIT_OK
        first, second = json.loads(
            (out / "validate_summary.json").read_text())["criteria"]
        assert first["warnings"] == []
        assert [w["category"] for w in second["warnings"]] == ["UserWarning"]
        assert "bullet regime" in second["warnings"][0]["message"]

    def test_validate_prints_criterion_warnings(self, tmp_path):
        # Criterion 2 runs outside the bullet regime and says so.  A fresh
        # interpreter, because pytest records warnings instead of printing.
        proc = run_python(
            "import sys, toalab.cli as cli\n"
            "from toalab import validation\n"
            "cli.run_all = lambda: [validation.run_criterion(2)]\n"
            "sys.exit(cli.main(['validate', '--output-dir', 'out']))",
            cwd=tmp_path)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "bullet regime" in proc.stderr


class TestImports:
    def test_cli_loads_no_scipy(self, tmp_path):
        # scipy is a test-only dependency: its import cost most of a CLI
        # call.  A fresh interpreter, checked after the import and after
        # each subcommand, so a lazy import cannot move that cost into the
        # run itself.
        proc = run_python(
            "import json, sys, toalab.cli as cli\n"
            "def scipy():\n"
            "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "seen = {'import': scipy()}\n"
            "for argv in (['validate'], ['kijowski-wave'],\n"
            "             ['laplace-check'], ['continuum'],\n"
            "             ['metric-compare', '--lambda', '1']):\n"
            "    exp = ' '.join(argv)\n"
            "    seen[exp] = [cli.main(argv + ['--output-dir', argv[0]]),\n"
            "                 scipy()]\n"
            "print(json.dumps(seen))",
            cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen == {"import": [], "validate": [EXIT_OK, []],
                        "kijowski-wave": [EXIT_OK, []],
                        "laplace-check": [EXIT_OK, []],
                        "continuum": [EXIT_OK, []],
                        "metric-compare --lambda 1": [EXIT_OK, []]}

    def test_numpy_random_loads_at_the_first_draw(self, tmp_path):
        # numpy.random (with secrets, hmac and OpenSSL's _hashlib) is about
        # 6 MiB of start-up that only a Monte Carlo draw needs.  No
        # subcommand but validate draws, so none may load it; the sampler
        # then loads it and draws the same Philox bytes as before.
        proc = run_python(
            "import json, sys, toalab.cli as cli\n"
            "from toalab.firstpassage import monte_carlo_first_arrival\n"
            "loaded = lambda: 'numpy.random' in sys.modules\n"
            "seen = {'import': loaded()}\n"
            "for name in cli.PARAMS:\n"
            "    if name == 'validate':\n"
            "        continue\n"
            "    extra = ['--lambda', '1'] if name in ('ms-evolve',\n"
            "                                          'metric-compare') else []\n"
            "    seen[name] = [cli.main([name, *extra, '--output-dir', name]),\n"
            "                  loaded()]\n"
            "hist = monte_carlo_first_arrival(2, 20, 1000, seed=1)\n"
            "seen['draw'] = [hist.counts.tolist(), hist.never_arrived,\n"
            "                loaded()]\n"
            "print(json.dumps(seen))",
            cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        counts, never, drawn = seen.pop("draw")
        assert seen == {"import": False, **{
            name: [EXIT_OK, False] for name in cli.PARAMS if name != "validate"}}
        ref_counts, ref_never = reference_byte_chunk(2, 20, 1000, 1, 0)
        assert drawn
        assert counts == ref_counts.tolist() and never == ref_never
