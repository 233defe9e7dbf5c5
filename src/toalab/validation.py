"""The acceptance suite: twelve numbered validation criteria.

Each criterion is an independent check of a closed form against an
independent oracle (exhaustive enumeration, Monte Carlo, quadrature, or a
second analytic route).  Criteria return a CriterionResult with the
observed values, so failures carry their evidence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import firstpassage as fp
from .detectors import (_arrival_moments, _detector_current, _regime_ratios,
                        kijowski_bullet_stats, kijowski_curve,
                        kijowski_wave_norm, marchewka_schuss_evolve, MsConfig)
from .experiments import discrete_continuum_experiment, single_slit_sweep
from .kernels import laplace_first_arrival_check
from .tqm import TqmPacket, tqm_arrival_distribution, tqm_dispersion_budget
from .wavepacket import (SpacePacket, TimePacket, negative_energy_fraction,
                         space_amplitude)

__all__ = ["CriterionResult", "run_criterion", "run_all", "CRITERIA"]


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    observed: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)  # [{category, message}]

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid:2d}: {self.title}"


def _result(cid, title, passed, observed):
    return CriterionResult(cid=cid, title=title, passed=bool(passed),
                           observed=observed)


def criterion_1():
    """Kijowski wave-case norm integrates to 1/4."""
    norm, err = kijowski_wave_norm(1.0, 1.0)
    return _result(1, "Kijowski wave-case norm = 0.25 +/- 1e-4",
                   abs(norm - 0.25) < 1e-4,
                   {"norm": norm, "quad_error": err})


def criterion_2():
    """Moments of the full Kijowski quadrature at the bullet parameters.

    At this packet m sigma_x^2 = tau_bar, outside the bullet regime, so the
    closed form (tau_bar, sigma_bar/sqrt 2) misses the position-width term
    of the spread and the <1/p> shift of the mean.  The reference is the
    exact moments of the density; the closed form is reported beside it.
    """
    pkt = SpacePacket(x0=-100.0, p0=1.0, sigma_x=10.0, mass=1.0)
    # Wide grid so the measured moments are those of the full density.
    taus = np.linspace(100.0 - 90.0, 100.0 + 90.0, 1601)
    curve = kijowski_curve(pkt, taus)
    mean, dt = curve.mean, curve.uncertainty
    exact_mean, exact_dt = _arrival_moments(pkt, 0.5)
    bullet = kijowski_bullet_stats(pkt)
    ok = abs(mean - exact_mean) < 0.1 and abs(dt - exact_dt) / exact_dt < 0.01
    return _result(2, "Kijowski quadrature vs exact momentum-space moments: "
                      "mean +/- 0.1, uncertainty +/- 1% (bullet closed form "
                      "reported, out of regime)", ok,
                   {"mean": mean, "uncertainty": dt, "norm": curve.norm,
                    "exact_mean": exact_mean,
                    "exact_uncertainty": exact_dt,
                    "bullet_tau_bar": bullet.tau_bar,
                    "bullet_uncertainty": bullet.uncertainty,
                    **_regime_ratios(pkt, bullet.tau_bar)})


def _path_counts(n_top: int) -> tuple:
    """Count all 2^n_top walks by step, running maximum and position.

    Returns integer arrays (free, alive): free[n, k + n_top] walks are k
    sites from the start after n steps, and alive[n, d, k + n_top] of them
    have never been d or more sites to the right (d = 0..8), i.e. survive a
    detector d sites away.  Every walk is counted once per step in a
    histogram over the key (n, min(running max, 9), position).  A walk is a
    prefix (its first low = min(n_top, 12) steps) and a suffix: the 2^low
    prefixes are histogrammed once and their counts shifted left by
    n_top - low, since each starts 2^(n_top - low) walks; each suffix pattern
    then adds one histogram of its steps over all prefix ends.  Temporaries
    stay near 13 x 4096 intp values (~1.7 MiB traced in all).
    """
    low, width = min(n_top, 12), 2 * n_top + 1

    def counts(n, top, pos):
        key = (10 * n + np.minimum(top, 9)) * width + pos + n_top
        return np.bincount(key.ravel(), minlength=(n_top + 1) * 10 * width)
    pos = np.zeros((low + 1, 1 << low), dtype=np.intp)
    np.cumsum(2 * ((np.arange(1 << low) >> np.arange(low)[:, None]) & 1) - 1,
              axis=0, out=pos[1:])
    top = np.maximum.accumulate(pos, axis=0)
    joint = counts(np.arange(low + 1)[:, None], top, pos) << (n_top - low)
    end, peak, n = pos[-1], top[-1], np.arange(low + 1, n_top + 1)[:, None]
    for suffix in range(1 << (n_top - low)):
        walk = np.cumsum(2 * ((suffix >> (n - low - 1)) & 1) - 1, axis=0)
        joint += counts(n, np.maximum(peak, end + np.maximum.accumulate(walk)),
                        end + walk)
    joint = joint.reshape(n_top + 1, 10, width)
    below = np.cumsum(joint, axis=1)      # below[n, h]: running max <= h
    alive = np.zeros((n_top + 1, 9, width), dtype=below.dtype)
    alive[:, 1:] = below[:, :8]
    return below[:, -1], alive


def criterion_3():
    """Exhaustive path enumeration and exact conservation.

    `_path_counts` counts all 2^16 walks (2^12 shared prefixes x 16
    suffixes, ~1.7 MiB traced) by step, running maximum and position.  The
    sum over the maximum gives the free walks, the cumulative sum the
    survivors for every d <= 8, and their drop from step n - 1 to n the
    first arrivals.  Each count over 2^16 must equal the library's exact
    Fraction; a first-arrival count also `first_arrival_counts`, scaled.
    """
    n_top, denom = 16, 1 << 16
    free, alive = (a.tolist() for a in _path_counts(n_top))
    mismatches = sum(fp.walk_probability(n, m)
                     != Fraction(free[n][m + n_top], denom)
                     for n in range(n_top + 1) for m in range(-n, n + 1))
    # Survivors and first arrivals (both routes) for every d <= 8, n <= 16;
    # survivor site m is m + d sites from the start.
    for d in range(1, 9):
        counts = fp.first_arrival_counts(n_top, d)
        for n in range(n_top + 1):
            row = alive[n][d]
            mismatches += sum(fp.surviving_probability(n, m, d)
                              != Fraction(row[m + d + n_top], denom)
                              for m in range(-n - d, 0))
            count_first = sum(alive[n - 1][d]) - sum(row) if n else 0
            mismatches += (fp.first_arrival_probability(n, d)
                           != Fraction(count_first, denom))
            mismatches += counts[n] << (n_top - n) != count_first
    # Exact conservation for d <= 10 at n = 0, 50, ..., 200.
    conserved = not any(any(fp.conservation_defects(range(0, 201, 50), d))
                        for d in range(1, 11))
    return _result(3, "exact first passage vs 2^n enumeration; exact "
                      "conservation to n=200", mismatches == 0 and conserved,
                   {"enumeration_mismatches": mismatches,
                    "conservation_exact": conserved})


def criterion_4():
    """Monte Carlo histogram within 4 sigma of the exact law.  The draw
    depends only on (d, n_max, trials, seed), so never_arrived and
    sum_n n counts[n], recorded for this seed, pin the seeded stream."""
    h = fp.monte_carlo_first_arrival(2, 100, 10**6, seed=20260826)
    step_sum = int((h.counts * np.arange(h.n_max + 1)).sum())
    pinned = h.never_arrived == 158401 and step_sum == 12398668
    z = np.abs(h.z_scores()[h.exact_reference() > 0])
    return _result(4, "Monte Carlo within 4 standard errors; seeded stream "
                      "pinned", pinned and float(z.max()) < 4.0,
                   {"max_abs_z": float(z.max()), "pinned": pinned,
                    "never_arrived": h.never_arrived, "step_sum": step_sum})


def criterion_5():
    """Lattice first arrival converges monotonically to the diffusion law."""
    tab = discrete_continuum_experiment(d_lattice=2, refinements=(1, 2, 4, 8))
    ok = tab.monotone and tab.max_rel_errors[-1] < 0.03
    return _result(5, "continuum limit: monotone convergence, finest < 3%",
                   ok, {"refinements": tab.refinements,
                        "max_rel_errors": tab.max_rel_errors,
                        "monotone": tab.monotone})


def criterion_6():
    """Method-of-images detection rate equals the first-passage density."""
    rng = np.random.Generator(np.random.Philox(key=[735632, 0]))
    worst = 0.0
    for _ in range(20):
        m = float(rng.uniform(0.5, 2.0))
        d = float(rng.uniform(0.5, 3.0))
        tau = float(rng.uniform(0.2, 5.0))
        ref = float(fp.diffusion_detection_rate(m, d, tau))
        rate = fp.images_detection_rate(m, d, tau)
        worst = max(worst, abs(rate - ref) / ref)
    return _result(6, "images detection rate = diffusion rate to 1e-7 "
                      "relative at 20 random points", worst < 1e-7,
                   {"worst_rel_error": worst})


def criterion_7():
    """Laplace transform of the first-arrival kernel vs closed form."""
    points = [(1.0, 1.0), (1.0, 2.0), (1.0, 0.5), (2.0, 1.0), (0.5, 1.5)]
    s_vals = (0.4, 1.0)
    worst_mod = worst_ph = worst_fact = 0.0
    ok = True
    for m, x in points:
        rep = laplace_first_arrival_check(m, x, s_vals)
        worst_mod = max(worst_mod, rep.max_modulus_error)
        worst_ph = max(worst_ph, rep.max_phase_error)
        worst_fact = max(worst_fact, rep.max_factorization_residual)
        ok &= rep.converged
    return _result(7, "Laplace check: L[F] closed form and L[K]=L[U]L[F] "
                      "at 10 points", ok,
                   {"worst_modulus_rel_error": worst_mod,
                    "worst_phase_error": worst_ph,
                    "worst_factorization_residual": worst_fact})


def criterion_8():
    """d/dtau of the surviving norm equals -D_tau (current at the origin)."""
    pkt = SpacePacket(x0=-100.0, p0=1.0, sigma_x=10.0, mass=1.0)
    x = np.linspace(-400.0, 0.0, 40001)
    delta = 0.05
    worst = 0.0
    for tau in (80.0, 90.0, 100.0, 110.0, 120.0):
        surv = [np.trapezoid(np.abs(space_amplitude(pkt, x, t)) ** 2, x)
                for t in (tau - delta, tau + delta)]
        lhs = (surv[1] - surv[0]) / (2.0 * delta)
        worst = max(worst, abs(lhs + _detector_current(pkt, tau)))
    return _result(8, "probability-current conservation at 5 clock times",
                   worst < 1e-4, {"worst_abs_residual": worst})


def criterion_9():
    """Marchewka-Schuss bookkeeping over 10^4 steps; lam = 0 inert."""
    pkt = SpacePacket(x0=-25.0, p0=1.0, sigma_x=5.0, mass=1.0)
    x = np.linspace(-256.0, 0.0, 4097)
    psi0 = space_amplitude(pkt, x)
    res = marchewka_schuss_evolve(x, psi0,
                                  MsConfig(lam=1.0, epsilon=0.01, steps=10**4))
    budget = res.cumulative_detected + res.final_norm()
    res0 = marchewka_schuss_evolve(x, psi0,
                                   MsConfig(lam=0.0, epsilon=0.01, steps=500))
    ok = abs(budget - 1.0) < 1e-4 and res0.cumulative_detected == 0.0 \
        and abs(res0.final_norm() - 1.0) < 1e-6
    return _result(9, "Marchewka-Schuss: detected + surviving = 1 +/- 1e-4; "
                      "lam=0 inert", ok,
                   {"budget": budget,
                    "lam0_detected": res0.cumulative_detected,
                    "lam0_norm": res0.final_norm()})


def criterion_10():
    """TQM dispersion additivity and SQM recovery.

    Checks the frozen closed form of `tqm_arrival_distribution`, which
    holds only when sigma_p/p0, m sigma_x^2/tau_bar and m sigma_t^2/tau_bar
    are << 1.  The packet here has all three equal to 1, so the criterion
    checks the closed form's algebra, not the exact TQM density (ROADMAP
    D5); `observed` carries the three ratios.
    """
    sp = SpacePacket(x0=-10.0, p0=0.1, sigma_x=10.0, mass=1.0)
    pkt = TqmPacket(time=TimePacket(t0=0.0, E0=1.0, sigma_t=10.0), space=sp)
    disp = tqm_dispersion_budget(pkt)
    curve = tqm_arrival_distribution(pkt)
    sigma_obs = math.sqrt(2.0) * curve.uncertainty
    additivity = abs(sigma_obs**2 - disp.sigma_bar_tau**2
                     - disp.sigma_tilde_tau**2) / disp.sigma_tau**2
    wide = TqmPacket(time=TimePacket(t0=0.0, E0=1.0,
                                     sigma_t=1e4 * sp.sigma_x * sp.v0),
                     space=sp)
    limit = tqm_arrival_distribution(wide)
    # The SQM reference: the same Gaussian at sigma_tilde = 0 (t0 = 0).
    center = limit.meta["drift"] * limit.meta["tau_bar"]
    width = limit.meta["drift"] * limit.meta["sigma_bar_tau"]
    sqm = np.exp(-((limit.taus - center) / width) ** 2) \
        / (math.sqrt(math.pi) * width)
    sup = float(np.max(np.abs(limit.rates - sqm)))
    ok = abs(sigma_obs - disp.sigma_tau) / disp.sigma_tau < 0.01 \
        and additivity < 0.01 and sup < 1e-3
    return _result(10, "TQM: sigma_tau = 100.50 +/- 1%, quadratic "
                       "additivity, SQM recovery", ok,
                   {"sigma_tau_observed": sigma_obs,
                    "sigma_tau_closed": disp.sigma_tau,
                    "additivity_residual": additivity,
                    "sqm_recovery_sup_norm": sup,
                    **{key: curve.meta[key] for key in (
                        "sigma_p_over_p0", "m_sigma_x2_over_tau_bar",
                        "m_sigma_t2_over_tau_bar")}})


def criterion_11():
    """Single-slit falsifiability signature.

    Checks the closed forms of `single_slit_sweep`, which hold only when
    sigma_p/p0 and m sigma_x^2/tau_bar are << 1.  The packet here has
    sigma_p/p0 = m sigma_x^2/tau_bar = 1, so the criterion checks the
    closed forms' algebra, not the exact slit density (ROADMAP D6).
    """
    pkt = SpacePacket(x0=-100.0, p0=0.01, sigma_x=100.0, mass=1.0)
    W = np.geomspace(1e-3, 10.0, 29)
    sweep = single_slit_sweep(pkt, W)
    # The SQM spread is monotone non-increasing in W (the gate widens the
    # effective source), approaching the free-packet value as W -> 0.
    monotone = bool(np.all(np.diff(sweep.sqm_uncertainty) <= 1e-12))
    floor = pkt.d / pkt.v0 / (math.sqrt(2.0) * pkt.mass * pkt.v0
                              * pkt.sigma_x)
    floor_ok = abs(sweep.sqm_uncertainty[0] - floor) / floor < 1e-4
    small = sweep.W_values <= pkt.v0 * pkt.sigma_x / 20.0
    slope = np.polyfit(np.log(sweep.W_values[small]),
                       np.log(sweep.tqm_uncertainty[small]), 1)[0]
    ratio_ok = bool(np.all(sweep.ratio[small] > 10.0))
    ok = monotone and floor_ok and abs(slope + 1.0) < 0.05 and ratio_ok
    return _result(11, "slit sweep: SQM floor, TQM 1/W divergence, "
                       "ratio > 10 below v sigma_x/20", ok,
                   {"sqm_monotone": monotone,
                    "sqm_floor": floor,
                    "sqm_at_Wmin": float(sweep.sqm_uncertainty[0]),
                    "tqm_small_W_exponent": float(slope),
                    "min_small_W_ratio": float(sweep.ratio[small].min())})


def criterion_12():
    """Negative-energy sigma distance for the paper's electron numbers."""
    pkt = TimePacket(t0=0.0, E0=5.0e5, sigma_t=1.0 / 6.0e3, mass=1.0)
    rep = negative_energy_fraction(pkt)
    return _result(12, "negative-energy distance 83.3 +/- 0.1 sigma",
                   abs(rep.sigma_distance - 83.3) < 0.1,
                   {"sigma_distance": rep.sigma_distance,
                    "tail_mass": rep.tail_mass})


CRITERIA = {i: globals()[f"criterion_{i}"] for i in range(1, 13)}


def run_criterion(cid: int) -> CriterionResult:
    """Run one criterion and list the warnings it raised in the result.

    The caller's filters stay in force (an error filter still raises), and
    each recorded warning is shown again once the criterion returns.
    """
    with warnings.catch_warnings(record=True) as caught:
        result = CRITERIA[cid]()
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno,
                             w.file, w.line)
    result.warnings = [{"category": w.category.__name__,
                        "message": str(w.message)} for w in caught]
    return result


def run_all():
    return [run_criterion(cid) for cid in sorted(CRITERIA)]
