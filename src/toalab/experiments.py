"""End-to-end experiments: the single slit in time, metric comparison, and
the lattice-to-continuum convergence study.

The single slit in time gates a steady source with a Gaussian window of
clock-time width W.  Under SQM the gate clips the wave function, adding
v0 W in quadrature to the effective spatial width,

    Sigma_x^2 = sigma_x^2 + v0^2 W^2,   dtau = tau_bar / (sqrt(2) m v0 Sigma_x),

so the arrival spread has a floor as W -> 0.  Under TQM the gate diffracts
the wave function in time (a source of temporal width sigma_t = sqrt(2) W),

    dtau/tau_bar = (1/(sqrt(2) m)) sqrt(1/(v0^2 sigma_x^2) + 1/(2 W^2)),

which diverges as 1/W: the two theories separate without bound for narrow
gates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import firstpassage as fp
from .detectors import (ArrivalDistribution, KijowskiBulletSummary, MsConfig,
                        _ms_absorb, default_tau_grid, kijowski_bullet_stats,
                        kijowski_curve, sqm_detection_curve)
from .tqm import TqmPacket, tqm_arrival_distribution, tqm_dispersion_budget
from .wavepacket import (SpacePacket, TimePacket, space_amplitude,
                         space_amplitude_dx)

__all__ = [
    "SlitConfig",
    "SlitResult",
    "SweepResult",
    "sqm_slit_uncertainty",
    "tqm_slit_uncertainty",
    "single_slit_sqm",
    "single_slit_tqm",
    "single_slit_sweep",
    "MetricComparison",
    "metric_comparison",
    "ConvergenceTable",
    "discrete_continuum_experiment",
]


@dataclass(frozen=True)
class SlitConfig:
    W: float                  # gate width in clock time
    d: float                  # source-detector distance
    v0: float                 # packet speed, in (0, 1)
    sigma_x: float
    m: float = 1.0
    sigma_t: float = None     # TQM source width; default sqrt(2) W

    def __post_init__(self):
        if self.sigma_t is None:
            object.__setattr__(self, "sigma_t", math.sqrt(2.0) * self.W)
        for name in ("W", "d", "sigma_x", "m", "sigma_t"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.v0 < 1.0:
            raise ValueError(f"v0 must be in (0, 1), got {self.v0}")

    @property
    def tau_bar(self) -> float:
        return self.d / self.v0

    @property
    def p0(self) -> float:
        return self.m * self.v0

    def space_packet(self) -> SpacePacket:
        return SpacePacket(x0=-self.d, p0=self.p0, sigma_x=self.sigma_x,
                           mass=self.m)


@dataclass(frozen=True)
class SlitResult:
    curve: ArrivalDistribution
    closed_form_uncertainty: float
    tau_bar: float
    extras: dict = field(default_factory=dict)

    @property
    def numerical_uncertainty(self) -> float:
        return self.curve.uncertainty


def sqm_slit_uncertainty(cfg: SlitConfig) -> float:
    """Closed-form SQM slit arrival spread via the widened Sigma_x."""
    Sigma_x = math.hypot(cfg.sigma_x, cfg.v0 * cfg.W)
    return cfg.tau_bar / (math.sqrt(2.0) * cfg.m * cfg.v0 * Sigma_x)


def tqm_slit_uncertainty(cfg: SlitConfig) -> float:
    """Closed-form TQM slit arrival spread (sigma_t = sqrt(2) W default).

    The space term carries the same gate-widened Sigma_x as the SQM case
    (the source is on for a time W either way), so for wide gates the two
    theories coincide and the extra 1/(2 W^2) time term dominates only for
    narrow gates.
    """
    Sigma_x = math.hypot(cfg.sigma_x, cfg.v0 * cfg.W)
    return (cfg.tau_bar / (math.sqrt(2.0) * cfg.m)) * math.sqrt(
        1.0 / (cfg.v0**2 * Sigma_x**2) + 1.0 / (2.0 * cfg.W**2))


def _validity_warning(cfg: SlitConfig) -> None:
    if cfg.W > 0.1 * cfg.tau_bar:
        warnings.warn(
            f"gate width W = {cfg.W:g} exceeds 0.1 tau_bar = "
            f"{0.1 * cfg.tau_bar:g}; the frozen-dispersion approximation "
            "behind the closed forms degrades", stacklevel=3)


def single_slit_sqm(cfg: SlitConfig, tau_grid=None) -> SlitResult:
    """SQM single slit in time: gate convolution of the source amplitude.

    The detector amplitude is the coherent gate average
    psi_D(tau) = int dtau_G G(tau_G) e^(-i p0^2 tau_G / 2m)
                 phi_(tau - tau_G)(0),
    where G is the gate amplitude (|G|^2 of clock-time spread W) and the
    explicit source phase cancels the release-time dependence of the free
    phase.  The rate is v0 |psi_D|^2, normalized over the grid; the summary
    carries the widened-Sigma_x closed form.
    """
    _validity_warning(cfg)
    pkt = cfg.space_packet()
    dtau_cf = sqm_slit_uncertainty(cfg)
    if tau_grid is None:
        tau_grid = default_tau_grid(cfg.tau_bar, dtau_cf, n=1024)
    tau_grid = np.asarray(tau_grid, dtype=float)
    # Gate amplitude with width parameter W (the convention under which the
    # gate adds v0 W in quadrature to the spatial width).
    tg = np.linspace(-10.0 * cfg.W, 10.0 * cfg.W, 1025)
    gate = (math.pi * cfg.W**2) ** -0.25 * np.exp(-tg**2 / (2.0 * cfg.W**2))
    source_phase = np.exp(-1j * cfg.p0**2 * tg / (2.0 * cfg.m))
    amp = np.empty(tau_grid.size, dtype=complex)
    for i, tau in enumerate(tau_grid):
        phi = space_amplitude(pkt, 0.0, tau - tg)
        amp[i] = np.trapezoid(gate * source_phase * phi, tg)
    rates = cfg.v0 * np.abs(amp) ** 2
    rates /= np.trapezoid(rates, tau_grid)
    curve = ArrivalDistribution(tau_grid, rates, meta={
        "metric": "sqm-slit", "W": cfg.W,
        "Sigma_x": math.hypot(cfg.sigma_x, cfg.v0 * cfg.W)})
    return SlitResult(curve=curve, closed_form_uncertainty=dtau_cf,
                      tau_bar=cfg.tau_bar,
                      extras={"Sigma_x": curve.meta["Sigma_x"]})


def single_slit_tqm(cfg: SlitConfig, t_grid=None) -> SlitResult:
    """TQM single slit in time: the gate becomes a temporal source.

    Models the gated source as a time packet of width sigma_t (default
    sqrt(2) W) in direct product with the spatial packet, and builds the
    arrival curve from the clock-time convolution.
    """
    _validity_warning(cfg)
    # The source is on for a clock time W in both theories, so the spatial
    # width carries the same gate widening as the SQM case.
    Sigma_x = math.hypot(cfg.sigma_x, cfg.v0 * cfg.W)
    space = SpacePacket(x0=-cfg.d, p0=cfg.p0, sigma_x=Sigma_x, mass=cfg.m)
    pkt = TqmPacket(
        time=TimePacket(t0=0.0, E0=cfg.m, sigma_t=cfg.sigma_t, mass=cfg.m),
        space=space)
    curve = tqm_arrival_distribution(pkt, cfg.d, t_grid=t_grid)
    return SlitResult(curve=curve,
                      closed_form_uncertainty=tqm_slit_uncertainty(cfg),
                      tau_bar=cfg.tau_bar,
                      extras={"dispersions": tqm_dispersion_budget(pkt, cfg.d)})


@dataclass(frozen=True)
class SweepResult:
    W_values: np.ndarray
    sqm_uncertainty: np.ndarray
    tqm_uncertainty: np.ndarray

    @property
    def ratio(self) -> np.ndarray:
        return self.tqm_uncertainty / self.sqm_uncertainty

    def rows(self):
        for i, W in enumerate(self.W_values):
            yield (W, self.sqm_uncertainty[i], self.tqm_uncertainty[i],
                   self.ratio[i])


def single_slit_sweep(base: SlitConfig, W_values) -> SweepResult:
    """Closed-form uncertainty sweep over gate widths.

    Per W: the SQM spread (non-increasing toward the free-packet floor as
    W -> 0) and the TQM spread (diverging as 1/W), with their ratio growing
    without bound for narrow gates.  sigma_t follows the sqrt(2) W default
    unless the base config pins it.
    """
    W_values = np.asarray(sorted(float(w) for w in W_values))
    if np.any(W_values <= 0):
        raise ValueError("W_values must be positive")
    pinned = base.sigma_t != math.sqrt(2.0) * base.W
    sqm = np.empty(W_values.size)
    tqm = np.empty(W_values.size)
    for i, W in enumerate(W_values):
        cfg = SlitConfig(W=W, d=base.d, v0=base.v0, sigma_x=base.sigma_x,
                         m=base.m, sigma_t=base.sigma_t if pinned else None)
        sqm[i] = sqm_slit_uncertainty(cfg)
        tqm[i] = tqm_slit_uncertainty(cfg)
    return SweepResult(W_values=W_values, sqm_uncertainty=sqm,
                       tqm_uncertainty=tqm)


# ---------------------------------------------------------------------------
# Cross-metric comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricComparison:
    rows: dict                # name -> {"mean", "uncertainty", "norm"}
    consistent: bool          # Kijowski-full / bullet / current within 1%

    def as_table(self):
        for name, r in self.rows.items():
            yield name, r.get("mean"), r.get("uncertainty"), r.get("norm")


def metric_comparison(pkt: SpacePacket, d: float,
                      lam: float = None) -> MetricComparison:
    """Tabulate arrival mean and spread across detector models.

    Compares the full Kijowski quadrature, the Kijowski bullet closed form,
    the probability-current curve, and the normalized first-arrival-kernel
    curve; with `lam` given, adds a grid-free Marchewka-Schuss row.  The
    first three are mutually consistent (1%) in the bullet regime
    m sigma_x^2 << tau_bar; outside it the `consistent` flag reports the
    disagreement.

    The first-arrival row weights the free kernel by -x'/tau, which equals
    the kernel's |x'|/tau when the packet's amplitude at the detector is
    negligible.  Since dK_tau(x; x')/dx = i m (x - x')/tau K_tau, its
    amplitude int dx' F_tau(0; x') phi_0(x') is then -(i/m) dphi_tau/dx(0).
    A warning names the row when the packet's weight at x' >= 0,
    erfc(d/sigma_x)/2, exceeds 1e-9.
    """
    stats = kijowski_bullet_stats(pkt, d)
    grid = default_tau_grid(stats.tau_bar, stats.uncertainty, n=1201,
                            spread=10.0)
    shifted = SpacePacket(x0=-d, p0=pkt.p0, sigma_x=pkt.sigma_x,
                          mass=pkt.mass)
    kij = kijowski_curve(shifted, grid, nodes=20000)
    cur = sqm_detection_curve(pkt, d, grid)

    # First-arrival-kernel curve, normalized over the grid (the 1/m^2 of
    # the amplitude cancels).
    beyond = 0.5 * math.erfc(d / pkt.sigma_x)
    if beyond > 1e-9:
        warnings.warn(f"first_arrival_kernel row: the packet has weight "
                      f"{beyond:.2g} at x' >= 0, where the row's weight -x' "
                      "differs from the kernel's |x'|", stacklevel=2)
    fa = np.abs(space_amplitude_dx(shifted, 0.0, grid)) ** 2
    fa /= np.trapezoid(fa, grid)
    fa_curve = ArrivalDistribution(grid, fa, meta={"metric": "first-arrival"})

    rows = {
        "kijowski_full": {"mean": kij.mean, "uncertainty": kij.uncertainty,
                          "norm": kij.norm},
        "kijowski_bullet": {"mean": stats.tau_bar,
                            "uncertainty": stats.uncertainty, "norm": 1.0},
        "current": {"mean": cur.mean, "uncertainty": cur.uncertainty,
                    "norm": cur.norm},
        "first_arrival_kernel": {"mean": fa_curve.mean,
                                 "uncertainty": fa_curve.uncertainty,
                                 "norm": 1.0},
    }
    if lam is not None:
        # Grid-free Marchewka-Schuss: on the half line with a hard wall at
        # 0 the odd image gives dpsi/dx(0, tau) = 2 dphi/dx(0, tau) for the
        # free Gaussian, so only the scalar absorption recursion remains.
        cfg = MsConfig(lam=lam, epsilon=stats.tau_bar / 2500.0, steps=5000)
        taus = (np.arange(cfg.steps) + 1.0) * cfg.epsilon
        detected, _, _ = _ms_absorb(
            2.0 * space_amplitude_dx(shifted, 0.0, taus),
            cfg.epsilon * lam / (2.0 * math.pi * pkt.mass), 1.0)
        ms = ArrivalDistribution(taus, detected / cfg.epsilon)
        rows["marchewka_schuss"] = {
            "mean": ms.mean, "uncertainty": ms.uncertainty,
            "norm": float(detected.sum())}
    us = [rows[k]["uncertainty"] for k in
          ("kijowski_full", "kijowski_bullet", "current")]
    means = [rows[k]["mean"] for k in
             ("kijowski_full", "kijowski_bullet", "current")]
    consistent = (max(us) - min(us)) <= 0.01 * max(us) \
        and (max(means) - min(means)) <= 0.01 * max(means)
    if not consistent:
        warnings.warn("Kijowski-full, bullet closed form, and current-based "
                      "statistics disagree beyond 1%; packet is outside the "
                      "bullet regime m sigma_x^2 << tau_bar", stacklevel=2)
    return MetricComparison(rows=rows, consistent=consistent)


# ---------------------------------------------------------------------------
# Lattice -> continuum convergence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceTable:
    refinements: tuple
    d_lattices: tuple
    max_rel_errors: tuple
    conservation_exact: tuple  # bool per refinement

    @property
    def monotone(self) -> bool:
        e = self.max_rel_errors
        return all(e[i + 1] < e[i] for i in range(len(e) - 1))


def _exact_conservation(d: int, n: int) -> bool:
    """Sum of survivors at step n plus cumulative arrivals equals 1 exactly."""
    arrived = sum((fp.first_arrival_probability(k, d)
                   for k in range(n + 1)), Fraction(0))
    return fp.survivor_mass(n, d) + arrived == 1


def discrete_continuum_experiment(d_lattice: int = 2,
                                  refinements=(1, 2, 4, 8),
                                  mass: float = 1.0,
                                  x_phys: float = 1.0) -> ConvergenceTable:
    """Convergence of the rescaled lattice first-arrival law to diffusion.

    For each refinement r the lattice offset is r * d_lattice and the
    spacing shrinks accordingly; the rescaled F_n curve is compared with
    the continuum first-passage density over the fixed clock-time window
    [tau_peak/2, 12 tau_peak] (tau_peak = m x_phys^2 / 3, the continuum
    mode), so every level is judged on the same region.  Errors must
    decrease monotonically; exact conservation is checked per level.
    """
    refinements = tuple(int(r) for r in refinements)
    if any(r < 1 for r in refinements):
        raise ValueError("refinement factors must be >= 1")
    spec = fp.DiffusionSpec(mass=mass)
    tau_peak = mass * x_phys**2 / 3.0
    window = (0.5 * tau_peak, 12.0 * tau_peak)
    errs, dls, conserved = [], [], []
    for r in refinements:
        dl = r * d_lattice
        dx = x_phys / dl
        dtau = mass * dx * dx * (0.5 / spec.D0)
        n_max = int(math.ceil(window[1] / dtau)) + 1
        taus, rates = fp.lattice_arrival_curve(spec, dl, n_max, x_phys)
        keep = (taus >= window[0]) & (taus <= window[1])
        ref = fp.diffusion_detection_rate(spec, x_phys, taus[keep])
        errs.append(float(np.max(np.abs(rates[keep] - ref) / ref)))
        dls.append(dl)
        conserved.append(_exact_conservation(dl, min(n_max, 1200)))
    return ConvergenceTable(refinements=refinements, d_lattices=tuple(dls),
                            max_rel_errors=tuple(errs),
                            conservation_exact=tuple(conserved))
