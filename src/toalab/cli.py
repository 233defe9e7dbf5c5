"""Command-line entry point.

Each subcommand is a named experiment that writes a curve CSV, a summary
JSON, and a manifest echoing the fully resolved configuration (every
default made explicit), so identical configurations yield byte-identical
outputs.  Parameters may come from a flat key=value config file
(``--config``), with command-line flags taking precedence over file values.

Exit codes: 0 success, 2 validation failure, 3 configuration error,
4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings

import numpy as np
from scipy.integrate import quad

from . import __version__
from . import firstpassage as fp
from .detectors import (MsConfig, default_tau_grid, kijowski_bullet_stats,
                        kijowski_curve, kijowski_wave_density_origin,
                        marchewka_schuss_evolve, sqm_detection_curve)
from .experiments import (SlitConfig, discrete_continuum_experiment,
                          metric_comparison, single_slit_sweep)
from .kernels import (GridResolutionError, NumericalError,
                      laplace_first_arrival_check)
from .tqm import TqmPacket, tqm_arrival_distribution, tqm_dispersion_budget
from .validation import run_all
from .wavepacket import SpacePacket, TimePacket, space_amplitude

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

OUTPUT_DIR_ENV = "TOALAB_OUTPUT_DIR"

REQUIRED = object()

# Per-experiment parameter tables: name -> (type, default, help).  REQUIRED
# parameters must come from a flag or the config file.
PARAMS = {
    "kijowski-bullet": {
        "m": (float, 1.0, "mass"),
        "p0": (float, 1.0, "mean momentum"),
        "sigma-x": (float, 10.0, "position width"),
        "d": (float, 100.0, "detector distance"),
    },
    "kijowski-wave": {
        "m": (float, 1.0, "mass"),
        "sigma-p": (float, 1.0, "momentum width"),
    },
    "walk-validate": {
        "d": (int, 3, "start offset"),
        "n-max": (int, 50, "maximum step"),
    },
    "continuum": {
        "d-lattice": (int, 2, "base lattice offset"),
        "refinements": (str, "1,2,4,8", "comma-separated refinement factors"),
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
    "laplace-check": {
        "m": (float, 1.0, "mass"),
        "x": (float, 1.0, "separation"),
        "s": (str, "0.5,1,2", "comma-separated Laplace frequencies"),
    },
    "ms-evolve": {
        "lambda": (float, REQUIRED, "absorption length (no default)"),
        "epsilon": (float, 0.01, "clock-time step"),
        "steps": (int, 10000, "number of steps"),
        "m": (float, 1.0, "mass"),
        "p0": (float, 1.0, "mean momentum"),
        "sigma-x": (float, 5.0, "position width"),
        "d": (float, 25.0, "detector distance"),
        "box": (float, 256.0, "half-line extent"),
        "n-grid": (int, 4097, "grid points on the half line"),
    },
    "validate": {},
}


class ConfigError(Exception):
    pass


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, val = line.partition("=")
                values[key.strip().replace("_", "-")] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _resolve(experiment: str, args: argparse.Namespace,
             file_cfg: dict) -> dict:
    resolved = {}
    for name, (typ, default, _help) in PARAMS[experiment].items():
        dest = name.replace("-", "_")
        flag_val = getattr(args, dest, None)
        if flag_val is not None:
            resolved[name] = flag_val
        elif name in file_cfg:
            try:
                resolved[name] = typ(file_cfg[name])
            except ValueError as exc:
                raise ConfigError(
                    f"config value {name}={file_cfg[name]!r}: {exc}") from exc
        elif default is REQUIRED:
            raise ConfigError(f"missing required parameter --{name}")
        else:
            resolved[name] = default
    unknown = set(file_cfg) - set(PARAMS[experiment]) - {"output-dir"}
    if unknown:
        raise ConfigError(f"unknown config keys for {experiment}: "
                          f"{sorted(unknown)}")
    return resolved


def _float_list(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}: {exc}") from exc


def _int_list(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}: {exc}") from exc


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([format(v, ".17g") if isinstance(v, float) else v
                        for v in row])


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


class Runner:
    def __init__(self, experiment: str, params: dict, out_dir: str):
        self.experiment = experiment
        self.params = params
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)

    def path(self, suffix: str) -> str:
        return os.path.join(self.out_dir, f"{self.experiment}_{suffix}")

    def manifest(self) -> None:
        _write_json(self.path("manifest.json"),
                    {"experiment": self.experiment,
                     "parameters": self.params, "version": __version__})

    def curve_csv(self, dist) -> None:
        _write_csv(self.path("curve.csv"), ["tau", "rate"],
                   zip(dist.taus.tolist(), dist.rates.tolist()))

    def summary_json(self, obj) -> None:
        _write_json(self.path("summary.json"), obj)


def _space_packet(p: dict) -> SpacePacket:
    """Packet released a distance d left of the detector at the origin."""
    return SpacePacket(x0=-p["d"], p0=p["p0"], sigma_x=p["sigma-x"],
                       mass=p["m"])


def run_kijowski_bullet(r: Runner) -> int:
    p = r.params
    pkt = _space_packet(p)
    stats = kijowski_bullet_stats(pkt, p["d"])
    grid = default_tau_grid(stats.tau_bar, stats.uncertainty, n=1201,
                            spread=10.0)
    curve = kijowski_curve(pkt, grid, nodes=8000)
    r.curve_csv(curve)
    r.summary_json({"tau_bar": stats.tau_bar,
                    "sigma_bar_tau": stats.sigma_bar_tau,
                    "closed_form_uncertainty": stats.uncertainty,
                    "norm": curve.norm, "mean": curve.mean,
                    "uncertainty": curve.uncertainty})
    return EXIT_OK


def run_kijowski_wave(r: Runner) -> int:
    p = r.params
    m, sp = p["m"], p["sigma-p"]
    norm, err = quad(lambda t: float(kijowski_wave_density_origin(m, sp, t)),
                     0.0, np.inf, limit=400)
    scale = m / sp**2
    taus = np.linspace(0.0, 50.0 * scale, 2001)
    _write_csv(r.path("curve.csv"), ["tau", "rate"],
               zip(taus.tolist(),
                   kijowski_wave_density_origin(m, sp, taus).tolist()))
    r.summary_json({"norm": norm, "quad_error": err,
                    "tau0_value": float(kijowski_wave_density_origin(m, sp,
                                                                     0.0))})
    return EXIT_OK if abs(norm - 0.25) < 1e-4 else EXIT_VALIDATION


def run_walk_validate(r: Runner) -> int:
    from fractions import Fraction
    p = r.params
    d, n_max = p["d"], p["n-max"]
    if d < 1:
        raise ConfigError("walk-validate requires d >= 1")
    all_exact = True
    cum = Fraction(0)
    rows = []
    for n in range(n_max + 1):
        first = fp.first_arrival_probability(n, d)
        cum += first
        total = fp.survivor_mass(n, d) + cum
        exact = total == 1
        all_exact &= exact
        rows.append((n, str(first), str(total), exact))
    _write_csv(r.path("report.csv"),
               ["n", "first_arrival", "survivor_plus_cumulative", "exact"],
               rows)
    r.summary_json({"d": d, "n_max": n_max, "all_exact": all_exact})
    return EXIT_OK if all_exact else EXIT_VALIDATION


def run_continuum(r: Runner) -> int:
    p = r.params
    tab = discrete_continuum_experiment(d_lattice=p["d-lattice"],
                                        refinements=_int_list(
                                            p["refinements"]))
    _write_csv(r.path("table.csv"),
               ["refinement", "d_lattice", "max_rel_error",
                "conservation_exact"],
               zip(tab.refinements, tab.d_lattices, tab.max_rel_errors,
                   tab.conservation_exact))
    r.summary_json({"monotone": tab.monotone,
                    "max_rel_errors": list(tab.max_rel_errors),
                    "conservation_exact": list(tab.conservation_exact)})
    return EXIT_OK if tab.monotone and all(tab.conservation_exact) \
        else EXIT_VALIDATION


def run_sqm_detect(r: Runner) -> int:
    p = r.params
    pkt = _space_packet(p)
    curve = sqm_detection_curve(pkt, p["d"])
    r.curve_csv(curve)
    r.summary_json(curve.summary())
    return EXIT_OK


def run_tqm_detect(r: Runner) -> int:
    p = r.params
    m = p["m"]
    pkt = TqmPacket(
        time=TimePacket(t0=0.0, E0=m, sigma_t=p["sigma-t"], mass=m),
        space=SpacePacket(x0=-p["d"], p0=m * p["v0"], sigma_x=p["sigma-x"],
                          mass=m))
    curve = tqm_arrival_distribution(pkt, p["d"])
    r.curve_csv(curve)
    r.summary_json(curve.summary())
    return EXIT_OK


def run_slit_sweep(r: Runner) -> int:
    p = r.params
    base = SlitConfig(W=1.0, d=p["d"], v0=p["v0"], sigma_x=p["sigma-x"],
                      m=p["m"])
    sweep = single_slit_sweep(base, _float_list(p["W"]))
    _write_csv(r.path("table.csv"),
               ["W", "sqm_uncertainty", "tqm_uncertainty", "ratio"],
               sweep.rows())
    ratio = sweep.ratio
    monotone = bool(np.all(np.diff(ratio) <= 1e-12))  # W ascending
    r.summary_json({"W": sweep.W_values.tolist(),
                    "ratio": ratio.tolist(),
                    "ratio_monotone_in_1_over_W": monotone})
    return EXIT_OK if monotone else EXIT_VALIDATION


def run_metric_compare(r: Runner) -> int:
    p = r.params
    pkt = _space_packet(p)
    comp = metric_comparison(pkt, p["d"], lam=p["lambda"])
    _write_csv(r.path("table.csv"), ["metric", "mean", "uncertainty", "norm"],
               comp.as_table())
    r.summary_json({"rows": comp.rows, "consistent": comp.consistent})
    return EXIT_OK if comp.consistent else EXIT_VALIDATION


def run_laplace_check(r: Runner) -> int:
    p = r.params
    rep = laplace_first_arrival_check(p["m"], p["x"], _float_list(p["s"]))
    r.summary_json({
        "s_values": list(rep.s_values),
        "modulus_rel_errors": list(rep.modulus_rel_errors),
        "phase_errors": list(rep.phase_errors),
        "factorization_residuals": list(rep.factorization_residuals),
        "converged": rep.converged})
    return EXIT_OK if rep.converged else EXIT_NUMERICAL


def run_ms_evolve(r: Runner) -> int:
    p = r.params
    pkt = _space_packet(p)
    x = np.linspace(-p["box"], 0.0, p["n-grid"])
    # At most pi/4 of phase per sample (8 samples per wavelength) across
    # the packet's momentum support |p0| + 8 sigma_p.
    phase_per_sample = (abs(pkt.p0) + 8.0 * pkt.sigma_p) * (x[1] - x[0])
    if phase_per_sample > math.pi / 4.0:
        raise GridResolutionError(
            f"ms-evolve grid under-resolves the packet: {phase_per_sample:.3g}"
            " rad per sample exceeds pi/4; raise n-grid or shrink box")
    cfg = MsConfig(lam=p["lambda"], epsilon=p["epsilon"], steps=p["steps"])
    res = marchewka_schuss_evolve(x, space_amplitude(pkt, x), cfg, m=p["m"])
    dist = res.arrival_distribution()
    r.curve_csv(dist)
    budget = res.cumulative_detected + res.final_norm()
    summary = {"cumulative_detected": res.cumulative_detected,
               "final_norm": res.final_norm(), "budget": budget,
               "phase_per_sample": phase_per_sample}
    if res.cumulative_detected > 0:
        summary.update({"mean": dist.mean, "uncertainty": dist.uncertainty})
    r.summary_json(summary)
    return EXIT_OK if abs(budget - 1.0) < 1e-4 else EXIT_VALIDATION


def run_validate(r: Runner) -> int:
    results = run_all()
    for res in results:
        print(res.line())
    r.summary_json({"passed": all(res.passed for res in results),
                    "criteria": [{"cid": res.cid, "title": res.title,
                                  "passed": res.passed,
                                  "observed": res.observed}
                                 for res in results]})
    return EXIT_OK if all(res.passed for res in results) else EXIT_VALIDATION


RUNNERS = {
    "kijowski-bullet": run_kijowski_bullet,
    "kijowski-wave": run_kijowski_wave,
    "walk-validate": run_walk_validate,
    "continuum": run_continuum,
    "sqm-detect": run_sqm_detect,
    "tqm-detect": run_tqm_detect,
    "slit-sweep": run_slit_sweep,
    "metric-compare": run_metric_compare,
    "laplace-check": run_laplace_check,
    "ms-evolve": run_ms_evolve,
    "validate": run_validate,
}


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors surface as ConfigError (exit code 3)."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="toalab",
        description="time-of-arrival distribution laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, table in PARAMS.items():
        sp = sub.add_parser(name)
        for pname, (typ, default, help_text) in table.items():
            suffix = "" if default in (REQUIRED, None) \
                else f" (default {default})"
            sp.add_argument(f"--{pname}", dest=pname.replace("-", "_"),
                            type=typ, default=None, help=help_text + suffix)
        sp.add_argument("--config", default=None,
                        help="flat key=value parameter file; flags win")
        sp.add_argument("--output-dir", default=None,
                        help=f"output directory (default ${OUTPUT_DIR_ENV} "
                             "or '.')")
    return parser


def _output_dir(args: argparse.Namespace, file_cfg: dict) -> str:
    return args.output_dir or file_cfg.get("output-dir") \
        or os.environ.get(OUTPUT_DIR_ENV) or "."


def _fail(args, file_cfg: dict, kind: str, exc: Exception, code: int) -> int:
    print(f"{kind} error: {exc}", file=sys.stderr)
    try:
        out_dir = _output_dir(args, file_cfg)
        os.makedirs(out_dir, exist_ok=True)
        _write_json(os.path.join(out_dir, "error.json"),
                    {"error": str(exc), "experiment": args.experiment})
    except OSError:
        pass
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    file_cfg = {}
    try:
        if args.config:
            file_cfg = _read_config_file(args.config)
        params = _resolve(args.experiment, args, file_cfg)
        runner = Runner(args.experiment, params, _output_dir(args, file_cfg))
        runner.manifest()
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            code = RUNNERS[args.experiment](runner)
    except (NumericalError, RuntimeError) as exc:
        return _fail(args, file_cfg, "numerical", exc, EXIT_NUMERICAL)
    except (ConfigError, ValueError) as exc:
        return _fail(args, file_cfg, "configuration", exc, EXIT_CONFIG)
    return code


if __name__ == "__main__":
    sys.exit(main())
