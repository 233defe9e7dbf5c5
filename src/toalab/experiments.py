"""End-to-end experiments: the single slit in time, metric comparison, and
the lattice-to-continuum convergence study.

The single slit in time gates a steady source with a Gaussian window of
clock-time width W.  The source is on for a clock time W in both theories,
so the gate adds v0 W in quadrature to the spatial width,
Sigma_x = hypot(sigma_x, v0 W).  Under TQM the gate also diffracts the wave
function in time, as a source of temporal width sigma_t = sqrt(2) W.
`gated_source` builds that source from a `SpacePacket`, and
`single_slit_sweep` reads both spreads from its `tqm_dispersion_budget`:
SQM is sigma_bar/sqrt(2), with a floor as W -> 0, and TQM is
hypot(sigma_bar, sigma_tilde)/sqrt(2), whose time term
tau_bar/(m sqrt(2) W) diverges as 1/W, so the two theories separate
without bound for narrow gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import firstpassage as fp
from .detectors import (ArrivalDistribution, _arrival_moments,
                        _kijowski_window_curve, _require_captured,
                        sqm_detection_curve)
from .kernels import NumericalError, _peaked_tau_integral, _warn
from .tqm import TqmPacket, tqm_dispersion_budget
from .wavepacket import SpacePacket, TimePacket, space_amplitude_dx

__all__ = [
    "gated_source",
    "SweepResult",
    "single_slit_sweep",
    "MetricComparison",
    "metric_comparison",
    "ConvergenceTable",
    "discrete_continuum_experiment",
]


def gated_source(pkt: SpacePacket, W: float) -> TqmPacket:
    """The source `pkt` behind a gate of clock-time width W: the spatial
    width widened to Sigma_x = hypot(sigma_x, v0 W), in direct product with
    a time packet of width sigma_t = sqrt(2) W at E0 = m."""
    if W <= 0:
        raise ValueError(f"W must be positive, got {W}")
    if not 0.0 < pkt.v0 < 1.0:
        raise ValueError(f"v0 must be in (0, 1), got {pkt.v0}")
    return TqmPacket(
        time=TimePacket(t0=0.0, E0=pkt.mass, sigma_t=math.sqrt(2.0) * W,
                        mass=pkt.mass),
        space=replace(pkt, sigma_x=math.hypot(pkt.sigma_x, pkt.v0 * W)))


@dataclass(frozen=True)
class SweepResult:
    W_values: np.ndarray
    sqm_uncertainty: np.ndarray
    tqm_uncertainty: np.ndarray
    sqm_exact_uncertainty: tuple    # per W, None where refused
    sqm_exact_refusal: str          # the first refusal's reason, or None

    @property
    def ratio(self) -> np.ndarray:
        return self.tqm_uncertainty / self.sqm_uncertainty

    def rows(self):
        return zip(self.W_values, self.sqm_uncertainty, self.tqm_uncertainty,
                   self.ratio, self.sqm_exact_uncertainty)


def single_slit_sweep(pkt: SpacePacket, W_values) -> SweepResult:
    """Uncertainty sweep over gate widths.

    Per W, from the budget of `gated_source(pkt, W)`: the closed-form SQM
    spread sigma_bar/sqrt(2) (non-increasing toward the free-packet floor
    as W -> 0) and the TQM spread `uncertainty` (diverging as 1/W), with
    their ratio growing without bound for narrow gates; and the exact SQM
    spread of |psi_D|^2 behind the gate, or None where it is refused.
    """
    W_values = np.asarray(sorted(float(w) for w in W_values))
    budgets = [tqm_dispersion_budget(gated_source(pkt, W)) for W in W_values]
    exact, refusal = [], None
    for W in W_values:
        try:
            exact.append(_arrival_moments(pkt, 0.0, W)[1])
        except ValueError as exc:
            exact.append(None)
            refusal = refusal or str(exc)
    return SweepResult(W_values, np.array([b.sigma_bar_tau / math.sqrt(2.0)
                                           for b in budgets]),
                       np.array([b.uncertainty for b in budgets]),
                       tuple(exact), refusal)


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


def metric_comparison(pkt: SpacePacket,
                      lam: float = None) -> MetricComparison:
    """Tabulate arrival mean and spread across detector models.

    Compares the full Kijowski quadrature, the Kijowski bullet closed form,
    the probability-current curve, and the normalized first-arrival-kernel
    curve on the checked default window; the first three agree to 1% in the
    bullet regime m sigma_x^2 << tau_bar, and `consistent` reports it.
    With `lam`, a grid-free Marchewka-Schuss row is added: the eps -> 0
    limit of the recursion N -= eps kappa r N^2, N = 1/(1 + kappa G), with
    rate kappa r/(1 + kappa G)^2 on the grid and norm 1 - N(inf), taken as
    kappa G(inf)/(1 + kappa G(inf)); kappa = lam/(2 pi m), r = |2 dphi/dx(0,
    tau)|^2, G its integral from the grid's start, and G(inf) from
    `_peaked_tau_integral` at the arrival width hypot(sigma_x,
    tau_bar/(m sigma_x))/v0, which places the window.  lam < 0 raises
    ValueError; moments are None if it detects nothing (lam = 0);
    NumericalError if kappa r or kappa G overflows, or if the grid misses
    G(inf), or its rate misses its exact kappa G/(1 + kappa G), by over 1e-3.

    The first-arrival row weights the free kernel by -x'/tau, which equals
    the kernel's |x'|/tau when the packet's amplitude at the detector is
    negligible.  Since dK_tau(x; x')/dx = i m (x - x')/tau K_tau, its
    amplitude int dx' F_tau(0; x') phi_0(x') is then -(i/m) dphi_tau/dx(0).
    A warning names the row when the packet's weight at x' >= 0,
    erfc(d/sigma_x)/2, exceeds 1e-9.
    """
    if lam is not None and lam < 0:
        raise ValueError("lam must be >= 0")
    stats, kij = _kijowski_window_curve(pkt)
    grid = kij.taus
    cur = sqm_detection_curve(pkt)

    # First-arrival-kernel curve, normalized over the grid (the 1/m^2 of
    # the amplitude cancels).
    beyond = 0.5 * math.erfc(pkt.d / pkt.sigma_x)
    if beyond > 1e-9:
        _warn(f"first_arrival_kernel row: the packet has weight {beyond:.2g} "
              "at x' >= 0, where the row's weight -x' differs from the "
              "kernel's |x'|")
    fa = np.abs(space_amplitude_dx(pkt, 0.0, grid)) ** 2
    fa_curve = ArrivalDistribution(grid, fa / np.trapezoid(fa, grid))

    def row(d, norm):
        return {"mean": d.mean, "uncertainty": d.uncertainty, "norm": norm}

    rows = {"kijowski_full": row(kij, kij.norm),
            "kijowski_bullet": {"mean": stats.tau_bar,
                                "uncertainty": stats.uncertainty, "norm": 1.0},
            "current": row(cur, cur.norm),
            "first_arrival_kernel": row(fa_curve, 1.0)}
    if lam is not None:
        # Odd image: the hard-wall derivative is 2 dphi/dx(0, tau); r = 4 fa.
        kappa = lam / (2.0 * math.pi * pkt.mass)
        r = 4.0 * fa
        g = np.r_[0.0, np.cumsum(0.5 * (r[1:] + r[:-1]) * np.diff(grid))]
        g_inf = 0.0
        if lam:
            width = math.hypot(pkt.sigma_x, stats.tau_bar
                               / (pkt.mass * pkt.sigma_x)) / pkt.v0
            g_inf = float(_peaked_tau_integral(
                lambda tau: np.abs(2.0 * space_amplitude_dx(pkt, 0.0, tau))
                ** 2, stats.tau_bar, width)[0])
            _require_captured(g[-1], g_inf, "metric-compare's window "
                              "captures Marchewka-Schuss G = {:.6g} of "
                              "G(inf) = {:.6g}")
            top = max(float(g[-1]), g_inf, float(r.max()))  # r may top G
            if not math.isfinite(kappa * top):
                raise NumericalError(f"Marchewka-Schuss kappa = {kappa:.6g} "
                                     "times its largest rate or total "
                                     f"{top:.6g} overflows (lambda {lam:.6g})")
            n = 1.0 / (1.0 + kappa * g)   # no (1 + kappa g)^2 to overflow
            _require_captured(np.trapezoid(kappa * r * n * n, grid),
                              kappa * g[-1] * n[-1], "metric-compare's grid "
                              "integrates the Marchewka-Schuss absorption "
                              "front to {:.6g} of its exact {:.6g}")
        rows["marchewka_schuss"] = row(ArrivalDistribution(
            grid, kappa * r / (1.0 + kappa * g) ** 2),
            kappa * g_inf / (1.0 + kappa * g_inf))
    trio = [rows[k] for k in ("kijowski_full", "kijowski_bullet", "current")]
    consistent = all(max(v) - min(v) <= 0.01 * max(v) for v in (
        [t["uncertainty"] for t in trio], [t["mean"] for t in trio]))
    if not consistent:
        _warn("Kijowski-full, bullet closed form, and current-based "
              "statistics disagree beyond 1%; packet is outside the bullet "
              "regime m sigma_x^2 << tau_bar")
    return MetricComparison(rows=rows, consistent=consistent)


# ---------------------------------------------------------------------------
# Lattice -> continuum convergence
# ---------------------------------------------------------------------------


_MAX_LATTICE_OFFSET = 128  # largest r * d_lattice of a refinement


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


def discrete_continuum_experiment(
        d_lattice: int = 2, refinements=(1, 2, 4, 8)) -> ConvergenceTable:
    """Convergence of the rescaled lattice first-arrival law to diffusion.

    For each refinement r the lattice offset is r * d_lattice and the
    spacing 1/(r d_lattice) shrinks accordingly; the rescaled F_n curve is
    compared with the continuum first-passage density at unit mass and
    unit distance over the fixed clock-time window [tau_peak/2,
    12 tau_peak] (tau_peak = 1/3, the continuum mode), so every level is
    judged on the same region.  Errors must decrease monotonically; exact
    conservation is checked per level.  A level walks about 4 (r d_lattice)^2
    steps and its cost grows faster still, so offsets r d_lattice above
    _MAX_LATTICE_OFFSET are refused with ValueError.
    """
    if d_lattice < 1:
        raise ValueError("d_lattice must be >= 1")
    refinements = tuple(int(r) for r in refinements)
    if any(a >= b for a, b in zip((0,) + refinements, refinements)):
        raise ValueError("refinements must be >= 1 and strictly increasing")
    if any(r * d_lattice > _MAX_LATTICE_OFFSET for r in refinements):
        raise ValueError(f"refined lattice offsets r x d_lattice must be at "
                         f"most {_MAX_LATTICE_OFFSET}")
    tau_peak = 1.0 / 3.0
    window = (0.5 * tau_peak, 12.0 * tau_peak)
    errs, dls, conserved = [], [], []
    for r in refinements:
        dl = r * d_lattice
        dx = 1.0 / dl
        n_max = int(math.ceil(window[1] / (dx * dx))) + 1
        taus, rates = fp.lattice_arrival_curve(dl, n_max)
        keep = (taus >= window[0]) & (taus <= window[1])
        ref = fp.diffusion_detection_rate(1.0, 1.0, taus[keep])
        errs.append(float(np.max(np.abs(rates[keep] - ref) / ref)))
        dls.append(dl)
        conserved.append(
            fp.conservation_defects([min(n_max, 1200)], dl) == [0])
    return ConvergenceTable(refinements=refinements, d_lattices=tuple(dls),
                            max_rel_errors=tuple(errs),
                            conservation_exact=tuple(conserved))
