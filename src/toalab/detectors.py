"""SQM time-of-arrival metrics.

Three detector models for the arrival of a packet at the origin:

* the Kijowski metric, built from half-line momentum integrals with the
  classical condition (p > 0 arrives from the left, p < 0 from the right),
  with its bullet closed form and the broad-packet ("wave") limiting case;
* the probability-current / black-box detector, whose detection rate is the
  flux J = (1/m) Im(psi* dpsi/dx) at the origin;
* the Marchewka-Schuss absorbing-boundary recursion, which removes a
  fraction of the norm per step proportional to |dpsi/dx|^2 at the boundary.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from .kernels import NumericalError
from .wavepacket import (SpacePacket, space_amplitude, space_amplitude_dx,
                         space_momentum_amplitude)

__all__ = [
    "ArrivalDistribution",
    "MsConfig",
    "MsResult",
    "kijowski_density",
    "kijowski_curve",
    "KijowskiBulletSummary",
    "kijowski_bullet_stats",
    "kijowski_wave_density_origin",
    "probability_current",
    "sqm_detection_curve",
    "marchewka_schuss_evolve",
]


@dataclass(frozen=True)
class ArrivalDistribution:
    """Sampled detection-rate curve over clock time.

    Moments are computed after normalizing by the realized norm, so
    under-counting metrics (e.g. the Kijowski wave case with norm 1/4)
    still report a well-defined mean and spread.  Negative rates (backflow)
    are kept as-is and flagged.
    """

    taus: np.ndarray
    rates: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        rates = np.asarray(self.rates, dtype=float)
        if taus.ndim != 1 or taus.shape != rates.shape:
            raise ValueError("taus and rates must be matching 1D arrays")
        if np.any(np.diff(taus) <= 0):
            raise ValueError("taus must be strictly increasing")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "rates", rates)
        if self.has_backflow:
            warnings.warn("negative detection rates present (backflow); "
                          "reported without clamping", stacklevel=2)

    @property
    def has_backflow(self) -> bool:
        return bool(np.any(self.rates < -1e-12 * np.max(np.abs(self.rates),
                                                        initial=0.0)))

    @property
    def norm(self) -> float:
        return float(np.trapezoid(self.rates, self.taus))

    @property
    def mean(self) -> float:
        return float(np.trapezoid(self.taus * self.rates, self.taus)
                     / self.norm)

    @property
    def uncertainty(self) -> float:
        mu = self.mean
        var = np.trapezoid((self.taus - mu) ** 2 * self.rates, self.taus) \
            / self.norm
        return float(math.sqrt(max(var, 0.0)))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["tau", "rate"])
            for t, r in zip(self.taus, self.rates):
                w.writerow([format(t, ".17g"), format(r, ".17g")])

    def summary(self) -> dict:
        out = {"norm": self.norm, "mean": self.mean,
               "uncertainty": self.uncertainty,
               "backflow": self.has_backflow}
        out.update(self.meta)
        return out

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=2, default=float)


# ---------------------------------------------------------------------------
# Kijowski metric
# ---------------------------------------------------------------------------


def _composite_gauss(lo: float, hi: float, n: int):
    """~n Gauss-Legendre nodes as 32-point panels tiling [lo, hi]."""
    base_u, base_w = np.polynomial.legendre.leggauss(32)
    panels = max(1, -(-n // 32))
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    u = (mid[:, None] + half[:, None] * base_u[None, :]).ravel()
    w = (half[:, None] * base_w[None, :]).ravel()
    return u, w


def _half_line_integral(phi, m: float, tau: float, sign: int) -> complex:
    """int over sign*p > 0 of sqrt(|p|/2 pi m) e^(-i p^2 tau/2m) phi(p) dp.

    The sqrt singularity at p = 0 is removed by the map p = sign * w^2,
    after which adaptive quadrature handles the endpoint exactly.
    """
    # Locate the support of |phi| to bound the integral.
    probe = np.concatenate([np.geomspace(1e-8, 1.0, 40),
                            np.linspace(1.0, 400.0, 400)])
    vals = np.abs(phi(sign * probe))
    peak = vals.max()
    if peak == 0.0:
        return 0.0j
    above = probe[vals > 1e-12 * peak]
    w_hi = math.sqrt(above.max()) * 1.05

    def integrand(w, part):
        p = sign * w * w
        z = 2.0 * w * w * math.sqrt(1.0 / (2.0 * math.pi * m)) \
            * np.exp(-1j * p * p * tau / (2.0 * m)) * phi(p)
        return z.real if part == "re" else z.imag

    re, re_err = quad(integrand, 0.0, w_hi, args=("re",), limit=400)
    im, im_err = quad(integrand, 0.0, w_hi, args=("im",), limit=400)
    if max(re_err, im_err) > 1e-6 * max(1.0, abs(re) + abs(im)):
        warnings.warn(f"kijowski quadrature residual {max(re_err, im_err):.2g}"
                      " exceeds target", stacklevel=3)
    return re + 1j * im


def kijowski_density(phi_left, phi_right, m: float, tau: float) -> float:
    """Kijowski arrival density at clock time tau.

    |int_0^inf dp sqrt(p/2 pi m) e^(-i p^2 tau/2m) phi_left(p)|^2
    + |int_-inf^0 dp sqrt(-p/2 pi m) e^(-i p^2 tau/2m) phi_right(p)|^2

    phi_left / phi_right are momentum amplitude callables for packets
    arriving from the left / right; pass None for an absent side.
    """
    rho = 0.0
    if phi_left is not None:
        rho += abs(_half_line_integral(phi_left, m, tau, +1)) ** 2
    if phi_right is not None:
        rho += abs(_half_line_integral(phi_right, m, tau, -1)) ** 2
    return rho


def kijowski_curve(pkt: SpacePacket, taus,
                   nodes: int = 4000) -> ArrivalDistribution:
    """Kijowski density of a packet arriving from the left, vectorized.

    Evaluates the p > 0 half-line integral with fixed Gauss-Legendre nodes
    under the substitution p = p0 + sigma_p u (u over the packet support),
    which is accurate for packets whose momentum content at p <= 0 is
    negligible, and fast enough to build full moment-quality curves.
    """
    taus = np.asarray(taus, dtype=float)
    u_lo = max(-12.0, -pkt.p0 / pkt.sigma_p + 1e-9)
    u, w = _composite_gauss(u_lo, 12.0, nodes)
    p = pkt.p0 + pkt.sigma_p * u
    phi = space_momentum_amplitude(pkt, p)
    base = np.sqrt(p / (2.0 * math.pi * pkt.mass)) * phi * pkt.sigma_p * w
    p2 = p * p / (2.0 * pkt.mass)
    amp = np.empty(taus.size, dtype=complex)
    block = max(1, int(4e6) // nodes)  # bound the phase-matrix memory
    for i in range(0, taus.size, block):
        phase = np.exp(-1j * np.outer(taus[i:i + block], p2))
        amp[i:i + block] = phase @ base
    return ArrivalDistribution(taus, np.abs(amp) ** 2,
                               meta={"metric": "kijowski"})


@dataclass(frozen=True)
class KijowskiBulletSummary:
    tau_bar: float
    sigma_bar_tau: float
    uncertainty: float


def kijowski_bullet_stats(pkt: SpacePacket, d: float) -> KijowskiBulletSummary:
    """Closed-form arrival statistics for a narrow-momentum (bullet) packet.

    mean tau_bar = d/v0, effective dispersion sigma_bar = tau_bar/(m v0
    sigma_x), uncertainty = sigma_bar/sqrt(2).  Warns outside the bullet
    regime sigma_p << p0.
    """
    if pkt.p0 <= 0:
        raise ValueError("bullet statistics require p0 > 0")
    if d <= 0:
        raise ValueError("detector distance d must be > 0")
    if pkt.sigma_p > 0.1 * pkt.p0:
        warnings.warn(f"sigma_p/p0 = {pkt.sigma_p / pkt.p0:.3g}: outside the "
                      "bullet regime, closed form is approximate",
                      stacklevel=2)
    tau_bar = d / pkt.v0
    sigma_bar = tau_bar / (pkt.mass * pkt.v0 * pkt.sigma_x)
    return KijowskiBulletSummary(tau_bar=tau_bar, sigma_bar_tau=sigma_bar,
                                 uncertainty=sigma_bar / math.sqrt(2.0))


def kijowski_wave_density_origin(m: float, sigma_p: float, tau) -> np.ndarray:
    """Broad-packet (d -> 0, p0 -> 0) Kijowski density at the origin.

    rho0(tau) = |m^(1/4) sigma_p Gamma(3/4) / ((2 pi)^(3/4)
                (m + i sigma_p^2 tau)^(3/4))|^2.
    Integrates to exactly 1/4 over tau in (0, inf): half the momentum
    content is discarded by the classical condition and the norm is the
    square of the kept fraction.
    """
    if m <= 0 or sigma_p <= 0:
        raise ValueError("m and sigma_p must be positive")
    tau = np.asarray(tau, dtype=float)
    amp = (m ** 0.25 * sigma_p * gamma_fn(0.75)
           / ((2.0 * math.pi) ** 0.75
              * (m + 1j * sigma_p**2 * tau) ** 0.75))
    return np.abs(amp) ** 2


# ---------------------------------------------------------------------------
# Probability current / black-box detector
# ---------------------------------------------------------------------------


def probability_current(psi, dpsi_dx, m: float):
    """Flux J = (1/m) Im(psi* dpsi/dx)."""
    return (np.conj(psi) * dpsi_dx).imag / m


def default_tau_grid(tau_bar: float, width: float, n: int = 2048,
                     spread: float = 8.0) -> np.ndarray:
    lo = max(tau_bar - spread * width, 1e-9 * tau_bar)
    return np.linspace(lo, tau_bar + spread * width, n)


def sqm_detection_curve(pkt: SpacePacket, d: float,
                        tau_grid=None) -> ArrivalDistribution:
    """Detection-rate curve of a black-box detector a distance d downstream.

    The rate is the probability current at the detector, evaluated with the
    analytic spatial derivative of the dispersing Gaussian.  The summary
    metadata carries the closed forms mean = tau_bar = d/v0 and uncertainty
    (1/sqrt(2)) tau_bar/(m v0 sigma_x).
    """
    if d <= 0:
        raise ValueError("d must be > 0")
    if pkt.p0 <= 0:
        raise ValueError("detection curve requires a right-moving packet")
    shifted = replace(pkt, x0=-d)
    tau_bar = d / pkt.v0
    dtau = tau_bar / (pkt.mass * pkt.v0 * pkt.sigma_x) / math.sqrt(2.0)
    if tau_grid is None:
        tau_grid = default_tau_grid(tau_bar, dtau)
    else:
        tau_grid = np.asarray(tau_grid, dtype=float)
        if tau_grid[0] > tau_bar - 8.0 * dtau + 1e-12 * tau_bar \
                or tau_grid[-1] < tau_bar + 8.0 * dtau - 1e-12 * tau_bar:
            raise ValueError("tau_grid must bracket tau_bar +/- 8 widths")
    psi = space_amplitude(shifted, 0.0, tau_grid)
    dpsi = space_amplitude_dx(shifted, 0.0, tau_grid)
    rates = probability_current(psi, dpsi, pkt.mass)
    return ArrivalDistribution(tau_grid, rates, meta={
        "metric": "current",
        "tau_bar": tau_bar,
        "closed_form_uncertainty": dtau,
    })


# ---------------------------------------------------------------------------
# Marchewka-Schuss absorbing boundary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MsConfig:
    lam: float          # characteristic absorption length, >= 0
    epsilon: float      # clock-time step
    steps: int

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")


@dataclass
class MsResult:
    x: np.ndarray               # half-line grid, x[-1] = 0
    psi_final: np.ndarray       # corrected amplitude on x <= 0
    detected: np.ndarray        # probability absorbed at each step
    absorb_prob: np.ndarray     # per-step P_n
    cfg: MsConfig

    @property
    def cumulative_detected(self) -> float:
        return float(self.detected.sum())

    def final_norm(self) -> float:
        return float(np.trapezoid(np.abs(self.psi_final) ** 2, self.x))

    def arrival_distribution(self) -> ArrivalDistribution:
        taus = (np.arange(self.cfg.steps) + 1.0) * self.cfg.epsilon
        return ArrivalDistribution(taus, self.detected / self.cfg.epsilon,
                                   meta={"metric": "marchewka-schuss",
                                         "lambda": self.cfg.lam})


def ms_step_algebra(norm: float, p_absorb: float) -> tuple:
    """One bookkeeping update: (norm, P) -> (detected mass, new norm).

    detected = P * norm; survivor scaled by sqrt(1 - P) so the new norm is
    (1 - P) * norm.  detected + new norm = norm exactly.
    """
    if not 0.0 <= p_absorb <= 1.0:
        raise NumericalError(
            f"absorption probability {p_absorb} outside [0, 1]")
    return p_absorb * norm, (1.0 - p_absorb) * norm


def _ms_absorb(dpsi_raw, absorb_coeff: float, norm: float) -> tuple:
    """Scalar absorption recursion over a hard-wall boundary derivative.

    Absorption only rescales the amplitude, so the absorbed run's boundary
    derivative at step n is the unabsorbed (hard-wall) one, `dpsi_raw[n]`,
    times the survival scale prod_(j<n) sqrt(1 - P_j).  Returns
    (detected, absorb_prob, survival_scale); aborts if any P_n > 1.
    """
    detected = np.zeros(len(dpsi_raw))
    p_abs = np.zeros(len(dpsi_raw))
    survival_scale = 1.0
    for n, raw in enumerate(np.asarray(dpsi_raw).tolist()):
        P = absorb_coeff * abs(raw * survival_scale) ** 2
        if P > 1.0:
            raise RuntimeError(
                f"absorption probability {P:.3g} > 1 at step {n}; "
                "reduce lam or epsilon")
        p_abs[n] = P
        detected[n], norm = ms_step_algebra(norm, P)
        survival_scale *= math.sqrt(1.0 - P)
    return detected, p_abs, survival_scale


_MS_BLOCK = 32  # steps per phase-power block (32 x N/2 complex values)


def marchewka_schuss_evolve(x, psi0, cfg: MsConfig,
                            m: float = 1.0) -> MsResult:
    """Evolve an amplitude on x <= 0 against an absorbing boundary at 0.

    Per step: free propagation restricted to the half line (realized as
    unitary propagation with a hard wall at 0, via the odd image of the
    amplitude, so that no probability ever leaks past the boundary and the
    bookkeeping identity is exact); then absorption of
    P_n = (epsilon lam / 2 pi m) |dpsi/dx(0)|^2, with the survivor scaled
    by sqrt(1 - P_n).

    Absorption only multiplies the amplitude by a scalar, so the run is the
    hard-wall evolution plus a scalar recursion on P_n.  The hard-wall
    boundary derivative (central difference at 0) is a fixed functional of
    the spectrum, which each step only multiplies by exp(-i k^2 eps / 2m):
    one FFT in, a phase-power recurrence per step, one IFFT out.

    `x` must be a uniform increasing grid ending exactly at 0 with the
    initial amplitude negligible at both ends.  Aborts if any P_n > 1
    (lam or epsilon too large).
    """
    x = np.asarray(x, dtype=float)
    psi = np.asarray(psi0, dtype=complex)
    if x.ndim != 1 or x.shape != psi.shape:
        raise ValueError("x and psi0 must be matching 1D arrays")
    dx = np.diff(x)
    if not np.allclose(dx, dx[0], rtol=1e-10):
        raise ValueError("x must be uniformly spaced")
    if abs(x[-1]) > 1e-12 * abs(x[0]):
        raise ValueError("grid must end at the boundary x = 0")
    h = float(dx[0])
    n_half = x.size
    n_full = 2 * (n_half - 1)

    # Odd image about 0 on a periodic box twice the half line; a Dirichlet
    # node sits at x = 0 (index n_full/2) and the propagation is exactly
    # unitary.
    full = np.zeros(n_full, dtype=complex)
    full[:n_half] = psi
    full[n_half:] = -psi[-2:0:-1]
    spectrum = np.fft.fft(full)
    k = 2.0 * math.pi * np.fft.fftfreq(n_full, d=h)

    # The central difference (full[i0+1] - full[i0-1]) / 2h at
    # i0 = n_full/2 is sum_j spectrum[j] (-1)^j i sin(2 pi j/n_full)
    # / (h n_full).  Modes j and n_full - j share a step phase, so fold
    # them; j = 0 and n_full/2 carry zero weight.
    j = np.arange(1, n_half - 1)
    w = ((-1.0) ** j * 1j * np.sin(math.pi * j / (n_half - 1))
         / (h * n_full)) * (spectrum[j] - spectrum[n_full - j])
    block = max(1, min(_MS_BLOCK, cfg.steps))
    powers = np.cumprod(np.broadcast_to(
        np.exp(-1j * k[j] ** 2 * cfg.epsilon / (2.0 * m)), (block, j.size)),
        axis=0)
    dpsi_raw = np.empty(cfg.steps, dtype=complex)
    for s in range(0, cfg.steps, block):
        b = min(block, cfg.steps - s)
        dpsi_raw[s:s + b] = powers[:b] @ w
        w *= powers[b - 1]

    norm = float(np.trapezoid(np.abs(psi) ** 2, x))
    detected, p_abs, survival_scale = _ms_absorb(
        dpsi_raw, cfg.epsilon * cfg.lam / (2.0 * math.pi * m), norm)
    final_phase = np.exp(-1j * k * k * (cfg.epsilon * cfg.steps) / (2.0 * m))
    psi_final = np.fft.ifft(spectrum * final_phase)[:n_half] * survival_scale
    return MsResult(x=x, psi_final=psi_final, detected=detected,
                    absorb_prob=p_abs, cfg=cfg)
