"""Command-line entry point.

Each subcommand is a named experiment, declared once by its parameter table
in ``PARAMS``.  Its runner ``run_<name>`` takes the resolved parameter dict
and returns ``(exit_code, summary, tables)``, where
``tables`` maps a file suffix (``curve.csv``, ``table.csv``,
``report.csv``) to ``(header, rows)``; it writes no file.  ``main`` alone
writes the artifacts: the manifest echoing the fully resolved configuration
(every default made explicit) before the run, then each table and the
summary JSON after it, so identical configurations yield byte-identical
outputs and a run that raises leaves only the manifest and ``error.json``.
Parameters may come from a flat key=value config file (``--config``), with
command-line flags taking precedence over file values.  A non-finite number
is a configuration error, and a summary that JSON cannot hold (NaN or
Infinity) is a numerical one, raised before any table is written.

Exit codes: 0 success, 2 validation failure, 3 configuration error,
4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from . import firstpassage as fp
from .detectors import (MsConfig, _kijowski_window_curve,
                        kijowski_wave_density_origin, kijowski_wave_norm,
                        marchewka_schuss_evolve, sqm_detection_curve)
from .experiments import (discrete_continuum_experiment, metric_comparison,
                          single_slit_sweep)
from .kernels import NumericalError, laplace_first_arrival_check
from .tqm import TqmPacket, tqm_arrival_distribution
from .validation import run_all
from .wavepacket import SpacePacket, TimePacket, space_amplitude

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

OUTPUT_DIR_ENV = "TOALAB_OUTPUT_DIR"

REQUIRED = object()


def _packet(sigma_x: float, d: float, p0: float = None,
            v0: float = None) -> dict:
    """The flags (m, p0 or v0, sigma-x, d) of a subcommand's packet."""
    speed = {"p0": (float, p0, "mean momentum")} if v0 is None \
        else {"v0": (float, v0, "packet speed")}
    return {"m": (float, 1.0, "mass"), **speed,
            "sigma-x": (float, sigma_x, "position width"),
            "d": (float, d, "detector distance")}


# Per-experiment parameter tables: name -> (type, default, help).  REQUIRED
# parameters must come from a flag or the config file.
PARAMS = {
    "kijowski-bullet": _packet(p0=1.0, sigma_x=10.0, d=100.0),
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
    "sqm-detect": _packet(p0=1.0, sigma_x=10.0, d=100.0),
    "tqm-detect": {
        **_packet(v0=0.1, sigma_x=10.0, d=10.0),
        "sigma-t": (float, 10.0, "temporal width"),
    },
    "slit-sweep": {
        "W": (str, "10,1,0.1,0.01", "comma-separated gate widths"),
        **_packet(v0=0.01, sigma_x=100.0, d=100.0),
    },
    "metric-compare": {
        **_packet(p0=10.0, sigma_x=10.0, d=2.0e4),
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
        **_packet(p0=1.0, sigma_x=5.0, d=25.0),
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
        value = getattr(args, dest, None)
        if value is None and name in file_cfg:
            try:
                value = typ(file_cfg[name])
            except ValueError as exc:
                raise ConfigError(
                    f"config value {name}={file_cfg[name]!r}: {exc}") from exc
        elif value is None:
            if default is REQUIRED:
                raise ConfigError(f"missing required parameter --{name}")
            value = default
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"--{name} must be finite, got {value}")
        resolved[name] = value
    unknown = set(file_cfg) - set(PARAMS[experiment]) - {"output-dir"}
    if unknown:
        raise ConfigError(f"unknown config keys for {experiment}: "
                          f"{sorted(unknown)}")
    return resolved


def _parse_list(text: str, typ=float) -> list:
    try:
        values = [typ(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {typ.__name__} list {text!r}: {exc}") from exc
    if not values:
        raise ConfigError(f"empty list {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"non-finite value in list {text!r}")
    return values


_CSV_CHUNK = 1024               # rows formatted and written per write call
_CSV_SPECIAL = (",", '"', "\r", "\n")


def _csv_column(col: tuple) -> list:
    """The fields of one column: a float as .17g, None as empty, anything
    else as str.  A field csv.writer would quote (one holding a comma,
    quote or line break) raises ValueError."""
    types = set(map(type, col))
    if all(issubclass(t, float) for t in types):
        return list(map("{:.17g}".format, col))
    fields = list(map(str, col)) if types <= {int, bool, str} else [
        "" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v)
        for v in col]
    if any(c in "".join(fields) for c in _CSV_SPECIAL):
        bad = next(f for f in fields if any(c in f for c in _CSV_SPECIAL))
        raise ValueError(f"CSV field {bad!r} would need quoting")
    return fields


def _write_csv(path, header, rows) -> None:
    """The header, then every row, floats as .17g, in the bytes csv.writer
    writes (``\\r\\n`` line ends); a table it would quote, or one of fewer
    than two columns, raises ValueError.

    Rows are read in chunks of `_CSV_CHUNK`.  Each chunk is transposed and
    formatted a column at a time, so a column of floats, or of ints, bools
    and strings, is one C-level pass.  Every row must have the header's
    width.
    """
    width = len(header)
    if width < 2:
        raise ValueError("a CSV table needs at least two columns")
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        chunk = [tuple(header)]
        while chunk:
            if set(map(len, chunk)) != {width}:
                raise ValueError(f"every CSV row needs {width} fields")
            cols = [_csv_column(col) for col in zip(*chunk)]
            fh.write("\r\n".join(map(",".join, zip(*cols))) + "\r\n")
            chunk = list(map(tuple, itertools.islice(rows, _CSV_CHUNK)))


def _write_json(path, obj) -> None:
    """obj as strict, indented, key-sorted JSON, encoded before the file
    is opened and written in one call."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=float,
                      allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _space_packet(p: dict) -> SpacePacket:
    """Packet released a distance d left of the detector at the origin,
    with momentum p0, or m v0 for the subcommands that set the speed."""
    p0 = p["p0"] if "p0" in p else p["m"] * p["v0"]
    return SpacePacket(x0=-p["d"], p0=p0, sigma_x=p["sigma-x"], mass=p["m"])


def _curve(taus, rates) -> dict:
    """The curve.csv table of a rate curve."""
    return {"curve.csv": (["tau", "rate"], zip(taus.tolist(), rates.tolist()))}


def run_kijowski_bullet(p: dict) -> tuple:
    stats, curve = _kijowski_window_curve(_space_packet(p))
    return EXIT_OK, {"tau_bar": stats.tau_bar,
                     "sigma_bar_tau": stats.sigma_bar_tau,
                     "closed_form_uncertainty": stats.uncertainty,
                     "norm": curve.norm, "mean": curve.mean,
                     "uncertainty": curve.uncertainty,
                     "nodes": curve.meta["nodes"],
                     "quad_error": curve.meta["quad_error"]}, \
        _curve(curve.taus, curve.rates)


def run_kijowski_wave(p: dict) -> tuple:
    m, sp = p["m"], p["sigma-p"]
    norm, err = kijowski_wave_norm(m, sp)
    taus = np.linspace(0.0, 50.0 * (m / sp**2), 2001)
    rates = kijowski_wave_density_origin(m, sp, taus)
    code = EXIT_OK if abs(norm - 0.25) < 1e-4 else EXIT_VALIDATION
    return code, {"norm": norm, "quad_error": err,
                  "tau0_value": float(rates[0])}, _curve(taus, rates)


def _dyadic(num: int, n: int) -> str:
    """num / 2^n in lowest terms, printed as str(Fraction(num, 2**n))."""
    shift = min(n, (num & -num).bit_length() - 1) if num else n
    num >>= shift
    return str(num) if shift == n else f"{num}/{1 << (n - shift)}"


def run_walk_validate(p: dict) -> tuple:
    d, n_max = p["d"], p["n-max"]
    if d < 1:
        raise ConfigError("walk-validate requires d >= 1")
    if n_max < 0:
        raise ConfigError("walk-validate requires n-max >= 0")
    # Each row prints a fraction over 2^n, which has more than the
    # interpreter's int-to-str digit limit (0: none) beyond n = top.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    top = int(limit * math.log2(10))
    if limit and n_max > top:
        raise ConfigError(
            f"walk-validate --n-max {n_max} prints fractions over 2^{n_max},"
            f" beyond Python's {limit}-digit limit for int-to-str"
            f" conversion; the largest n-max accepted is {top}")
    steps = range(n_max + 1)
    rows = [(n, _dyadic(c, n), _dyadic((1 << n) + defect, n), defect == 0)
            for n, c, defect in zip(steps, fp.first_arrival_counts(n_max, d),
                                    fp.conservation_defects(steps, d))]
    all_exact = all(row[3] for row in rows)
    return (EXIT_OK if all_exact else EXIT_VALIDATION,
            {"d": d, "n_max": n_max, "all_exact": all_exact},
            {"report.csv": (["n", "first_arrival", "survivor_plus_cumulative",
                             "exact"], rows)})


def run_continuum(p: dict) -> tuple:
    tab = discrete_continuum_experiment(d_lattice=p["d-lattice"],
                                        refinements=_parse_list(
                                            p["refinements"], int))
    ok = tab.monotone and all(tab.conservation_exact)
    return (EXIT_OK if ok else EXIT_VALIDATION,
            {"monotone": tab.monotone,
             "max_rel_errors": list(tab.max_rel_errors),
             "conservation_exact": list(tab.conservation_exact)},
            {"table.csv": (["refinement", "d_lattice", "max_rel_error",
                            "conservation_exact"],
                           zip(tab.refinements, tab.d_lattices,
                               tab.max_rel_errors, tab.conservation_exact))})


def run_sqm_detect(p: dict) -> tuple:
    curve = sqm_detection_curve(_space_packet(p))
    return EXIT_OK, curve.summary(), _curve(curve.taus, curve.rates)


def run_tqm_detect(p: dict) -> tuple:
    m = p["m"]
    curve = tqm_arrival_distribution(TqmPacket(
        time=TimePacket(t0=0.0, E0=m, sigma_t=p["sigma-t"], mass=m),
        space=_space_packet(p)))
    return EXIT_OK, curve.summary(), _curve(curve.taus, curve.rates)


def run_slit_sweep(p: dict) -> tuple:
    sweep = single_slit_sweep(_space_packet(p), _parse_list(p["W"]))
    ratio = sweep.ratio
    monotone = bool(np.all(np.diff(ratio) <= 1e-12))  # W ascending
    return (EXIT_OK if monotone else EXIT_VALIDATION,
            {"W": sweep.W_values.tolist(), "ratio": ratio.tolist(),
             "ratio_monotone_in_1_over_W": monotone,
             "sqm_exact_refusal": sweep.sqm_exact_refusal},
            {"table.csv": (["W", "sqm_uncertainty", "tqm_uncertainty",
                            "ratio", "sqm_exact_uncertainty"], sweep.rows())})


def run_metric_compare(p: dict) -> tuple:
    comp = metric_comparison(_space_packet(p), lam=p["lambda"])
    return (EXIT_OK if comp.consistent else EXIT_VALIDATION, asdict(comp),
            {"table.csv": (["metric", "mean", "uncertainty", "norm"],
                           comp.as_table())})


def run_laplace_check(p: dict) -> tuple:
    rep = laplace_first_arrival_check(p["m"], p["x"], _parse_list(p["s"]))
    return EXIT_OK if rep.converged else EXIT_NUMERICAL, asdict(rep), {}


def run_ms_evolve(p: dict) -> tuple:
    if p["n-grid"] < 2 or p["box"] <= 0 or p["d"] <= 0:
        raise ConfigError("ms-evolve requires n-grid >= 2, box > 0 and d > 0")
    pkt = _space_packet(p)
    x = np.linspace(-p["box"], 0.0, p["n-grid"])
    # At most pi/4 of phase per sample (8 samples per wavelength) across
    # the packet's momentum support |p0| + 8 sigma_p.
    phase_per_sample = (abs(pkt.p0) + 8.0 * pkt.sigma_p) * (x[1] - x[0])
    if phase_per_sample > math.pi / 4.0:
        raise NumericalError(
            f"ms-evolve grid under-resolves the packet: {phase_per_sample:.3g}"
            " rad per sample exceeds pi/4; raise n-grid or shrink box")
    # |psi|^2 has width sigma_x/sqrt 2: this is its weight outside the box.
    outside = 0.5 * (math.erfc(p["d"] / p["sigma-x"])
                     + math.erfc((p["box"] - p["d"]) / p["sigma-x"]))
    if outside > 1e-4:
        raise NumericalError(
            f"ms-evolve box [-{p['box']:g}, 0] does not hold the packet:"
            f" {outside:.3g} of its weight lies outside; move d or widen box")
    cfg = MsConfig(lam=p["lambda"], epsilon=p["epsilon"], steps=p["steps"])
    res = marchewka_schuss_evolve(x, space_amplitude(pkt, x), cfg, m=p["m"])
    dist = res.arrival_distribution()
    final_norm = res.final_norm()
    budget = res.cumulative_detected + final_norm
    summary = {"cumulative_detected": res.cumulative_detected,
               "final_norm": final_norm, "budget": budget,
               "phase_per_sample": phase_per_sample,
               "mean": dist.mean, "uncertainty": dist.uncertainty}
    code = EXIT_OK if abs(budget - 1.0) < 1e-4 else EXIT_VALIDATION
    return code, summary, _curve(dist.taus, dist.rates)


def run_validate(p: dict) -> tuple:
    results = run_all()
    for res in results:
        print(res.line())
    passed = all(res.passed for res in results)
    return EXIT_OK if passed else EXIT_VALIDATION, {
        "passed": passed,
        "criteria": [{"cid": res.cid, "title": res.title,
                      "passed": res.passed, "observed": res.observed,
                      "warnings": res.warnings} for res in results]}, {}


RUNNERS = {name: globals()[f"run_{name.replace('-', '_')}"]
           for name in PARAMS}


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors surface as ConfigError (exit code 3)."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand, built from `PARAMS` once
    per process: every flag defaults to None and each parse returns a
    fresh namespace, so `main` can reuse it call after call."""
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
        out_dir = _output_dir(args, file_cfg)
        os.makedirs(out_dir, exist_ok=True)
        prefix = os.path.join(out_dir, f"{args.experiment}_")
        _write_json(prefix + "manifest.json",
                    {"experiment": args.experiment, "parameters": params,
                     "version": __version__})
        code, summary, tables = RUNNERS[args.experiment](params)
        try:
            json.dumps(summary, default=float, allow_nan=False)
        except ValueError as exc:
            raise NumericalError(f"summary is not strict JSON: {exc}") from exc
        for suffix, (header, rows) in tables.items():
            _write_csv(prefix + suffix, header, rows)
        _write_json(prefix + "summary.json", summary)
    except NumericalError as exc:
        return _fail(args, file_cfg, "numerical", exc, EXIT_NUMERICAL)
    except (ConfigError, ValueError) as exc:
        return _fail(args, file_cfg, "configuration", exc, EXIT_CONFIG)
    return code


if __name__ == "__main__":
    sys.exit(main())
